"""The vertically shifted combination F_z and its moment bookkeeping.

For a finite list of nonzero weights c_j and distinct real shifts lam_j,

    F_z(s) = sum_j c_j eta(s + i lam_j) { 1F1((1-(s+i lam_j))/2; 1/2; z^2/4)
                                        + 1F1((1-(conj(s)-i lam_j))/2; 1/2; conj(z)^2/4) }

1F1 has real b = 1/2, so the second confluent factor is the conjugate of the
first at every s and each bracket is 2 Re of one 1F1.  One kernel evaluates
every shift and point of a call with one eta call and one 1F1 call; f_z and
fz_line_vec wrap it.  On the critical line eta reduces to the real function
rho, so F_z is real there.  The moment side computes both routes of the
limit identity

    lim_{alpha->pi/4} Int t^(2m) e^(alpha t) F_z(1/2+it)/2 dt
        = -4 pi w_z sum_j c_j e^(-pi lam_j/4) r_j^(2m) cos(pi/8 + beta_z + 2m theta_j)

with r_j e^(i theta_j) = i/2 - lam_j and (w_z, beta_z) the polar form of
1 + e^(z^2/8) sinh(z^2/8).  The numeric side is linear in the shifted
integrand, so moment_numeric integrates all shifts in one quadrature, and
moment_limit_check all shifts at both alpha samples, its extrapolation folded
into the term coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateError, PoleError
from .integral import _weighted_moment
from .region import classify_inequality
from .settings import DEFAULT_SETTINGS, EvalSettings, ValueWithError, checked_value, require_real
from .specfun import _eta_vec, hyp1f1_vec
from .theta import _psi1_base_jet, _psi1_shifted

__all__ = [
    "ShiftConfig",
    "PolarShift",
    "MomentParams",
    "validate_config",
    "make_config",
    "f_z",
    "f_z_critical",
    "fz_line_vec",
    "polar_shift",
    "moment_params",
    "moment_closed_form",
    "moment_numeric",
    "moment_series_rhs",
    "moment_limit_check",
]


@dataclass(frozen=True)
class ShiftConfig:
    """Weights c_j, shifts lam_j and the z parameter of a finite sum."""

    coefficients: tuple[float, ...]
    shifts: tuple[float, ...]
    z: complex


@dataclass(frozen=True)
class PolarShift:
    """Polar form r e^(i theta) = i/2 - lam; theta always lies in (0, pi)."""

    r: float
    theta: float


@dataclass(frozen=True)
class MomentParams:
    """u = 1 + Re(e^(z^2/8) sinh(z^2/8)), v its imaginary part, w = |u + iv|,
    beta = atan2(v, u) normalized to [0, 2pi)."""

    u: float
    v: float
    w: float
    beta: float


def validate_config(cfg: ShiftConfig) -> ShiftConfig:
    """Check the standing hypotheses; returns cfg unchanged if they hold."""
    cs, lams = cfg.coefficients, cfg.shifts
    if len(cs) == 0:
        raise ConfigError("at least one coefficient is required")
    if len(cs) != len(lams):
        raise ConfigError(
            f"{len(cs)} coefficients but {len(lams)} shifts; lengths must match"
        )
    for c in cs:
        if not math.isfinite(c) or c == 0.0:
            raise ConfigError(f"coefficients must be finite and nonzero, got {c}")
    for lam in lams:
        if not math.isfinite(lam):
            raise ConfigError(f"shifts must be finite, got {lam}")
    if len(set(lams)) != len(lams):
        raise ConfigError(f"shifts must be pairwise distinct, got {lams}")
    z = complex(cfg.z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"z must be finite, got {z!r}")
    verdict = classify_inequality(z)
    if not verdict.inside:
        raise ConfigError(
            f"z = {z!r} is {verdict.component_label} of the admissible region "
            f"(margin {verdict.margin:.3e})"
        )
    max_abs = max(abs(lam) for lam in lams)
    if sum(1 for lam in lams if abs(lam) == max_abs) != 1:
        raise ConfigError(
            f"the maximal |shift| {max_abs:g} must be attained by exactly one entry"
        )
    return cfg


def make_config(coefficients, shifts, z: complex) -> ShiftConfig:
    """Build and validate a ShiftConfig from plain sequences."""
    return validate_config(
        ShiftConfig(tuple(float(c) for c in coefficients),
                    tuple(float(x) for x in shifts), complex(z))
    )


# ---------------------------------------------------------------------------
# F_z itself
# ---------------------------------------------------------------------------

def _fz_vec(
    s: np.ndarray, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """F_z at an array of points: (values, errors).  Every s + i lam_j goes
    through one eta call and one 1F1 call; the builtin sum adds the shift rows
    in order (np.sum would pair them), so no point depends on its batch."""
    s = np.asarray(s, dtype=complex)
    s_j = s.ravel() + 1j * np.array(cfg.shifts)[:, None]  # (shift, point) table
    ev, ee = (x.reshape(s_j.shape) for x in _eta_vec(s_j.ravel(), settings))
    f_a, e_a = hyp1f1_vec((1.0 - s_j) / 2.0, 0.5, cfg.z * cfg.z / 4.0, settings)
    bracket = 2.0 * f_a.real
    c = np.array(cfg.coefficients)[:, None]
    total = sum(c * ev * bracket)
    err = sum(np.abs(c) * (ee * np.abs(bracket) + np.abs(ev) * 2.0 * e_a))
    return total.reshape(s.shape), err.reshape(s.shape)


def f_z(
    s: complex, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> ValueWithError:
    """F_z at a general complex point.  The poles s + i lam_j in {0, 1} lie off
    the critical line, so only this entry checks for them."""
    s = complex(s)
    for lam in cfg.shifts:
        if s + 1j * lam in (0, 1):
            raise PoleError(f"shifted argument s + i*{lam:g} hits a pole of eta")
    v, e = _fz_vec(np.array([s]), cfg, settings)
    return checked_value(v[0], e[0], f"f_z({s})")


def fz_line_vec(
    t: np.ndarray, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_z(1/2 + i t) on a real grid: (real part, imaginary residue, error).

    The bracket is real, so the residue comes from eta alone and measures how
    well the kernel preserves the reality symmetry.
    """
    total, err = _fz_vec(0.5 + 1j * np.asarray(t, dtype=float), cfg, settings)
    return total.real, total.imag, err


def f_z_critical(
    t: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """F_z(1/2 + i t) as a real number; SymmetryError if reality fails."""
    re, im, _ = fz_line_vec(np.array([float(t)]), cfg, settings)
    require_real(re, im, lambda _: f"f_z_critical(t={t})")
    return float(re[0])


# ---------------------------------------------------------------------------
# Polar / moment bookkeeping
# ---------------------------------------------------------------------------

def polar_shift(lam: float) -> PolarShift:
    """r e^(i theta) = i/2 - lam with r = sqrt(1/4 + lam^2), theta in (0, pi)."""
    return PolarShift(math.hypot(0.5, lam), math.atan2(0.5, -lam))


def moment_params(z: complex) -> MomentParams:
    """The four reals (u, v, w, beta) entering the closed-form moments.

    beta uses atan2 rather than arccos so that w e^(i beta) = u + i v exactly;
    the arccos alone would lose the sign of v.
    """
    z = complex(z)
    sz = cmath.exp(z * z / 8.0) * cmath.sinh(z * z / 8.0)
    u = 1.0 + sz.real
    v = sz.imag
    w = math.hypot(u, v)
    if w < 1e-14:
        raise DegenerateError(f"moment modulus w degenerates at z = {z!r}")
    beta = math.atan2(v, u) % (2.0 * math.pi)
    if beta >= 2.0 * math.pi:  # a tiny negative atan2 can round up to 2 pi
        beta = 0.0
    return MomentParams(u, v, w, beta)


def moment_closed_form(m: int, cfg: ShiftConfig) -> float:
    """-4 pi w_z sum_j c_j e^(-pi lam_j/4) r_j^(2m) cos(pi/8 + beta_z + 2m theta_j)."""
    if m < 0:
        raise ConfigError(f"moment order must be >= 0, got {m}")
    params = moment_params(cfg.z)
    total = 0.0
    for c, lam in zip(cfg.coefficients, cfg.shifts):
        ps = polar_shift(lam)
        total += (
            c
            * math.exp(-math.pi * lam / 4.0)
            * ps.r ** (2 * m)
            * math.cos(math.pi / 8.0 + params.beta + 2 * m * ps.theta)
        )
    return -4.0 * math.pi * params.w * total


def moment_numeric(
    m: int, alpha: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Weighted sum over shifts of the numeric moment integrals, as one quadrature."""
    terms = [(c, alpha, lam) for c, lam in zip(cfg.coefficients, cfg.shifts)]
    return _weighted_moment(m, terms, cfg.z, settings, "moment_numeric").value


def moment_series_rhs(
    m: int, alpha: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """The assembled analytic side of the moment identity at finite alpha:

        sum_j c_j [ -4 pi e^(-alpha lam_j) r_j^(2m) cos(alpha/2 + 2m theta_j)
                    + 4 pi Re( e^(z^2/8) d^(2m)/d alpha^(2m) psi1 ) ].
    """
    z = complex(cfg.z)
    ez8 = cmath.exp(z * z / 8.0)
    base = _psi1_base_jet(alpha, z, settings)  # one theta jet for all shifts
    total = 0.0
    for c, lam in zip(cfg.coefficients, cfg.shifts):
        ps = polar_shift(lam)
        deriv = _psi1_shifted(base, alpha, lam, 2 * m)
        total += c * (
            -4.0
            * math.pi
            * math.exp(-alpha * lam)
            * ps.r ** (2 * m)
            * math.cos(alpha / 2.0 + 2 * m * ps.theta)
            + 4.0 * math.pi * (ez8 * deriv).real
        )
    return total


_LIMIT_KS = (1.9, 2.0)


def moment_limit_check(
    m: int, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Relative discrepancy between the extrapolated numeric moment limit and
    the closed form.

    The limit is approached along alpha_k = pi/4 - 10^(-k) with k in
    {1.9, 2.0} and linear extrapolation in 10^(-k).  Samples farther from
    the boundary sit inside a superexponential transient (it decays like
    exp(-c/(pi/4 - alpha))) and would poison the extrapolation, while
    k > 2 violates the quadrature's alpha margin; both samples therefore
    live on [1.9, 2].  The quadrature tolerance is floored at the rounding
    floor of these heavily cancelling oscillatory integrals.
    """
    if m not in (0, 1):
        raise ConfigError(f"limit check supports m in {{0, 1}}, got {m}")
    floor = 1e-5 if m == 0 else 1e-4
    eff = replace(settings, quad_abs_tol=max(settings.quad_abs_tol, floor))
    eps1, eps2 = (10.0**-k for k in _LIMIT_KS)
    # extrapolated value (1+r) v(alpha_2) - r v(alpha_1), folded into the
    # coefficients of one quadrature
    r = eps2 / (eps1 - eps2)
    terms = [
        (coef * c, math.pi / 4.0 - eps, lam)
        for coef, eps in ((1.0 + r, eps2), (-r, eps1))
        for c, lam in zip(cfg.coefficients, cfg.shifts)
    ]
    extrap = _weighted_moment(m, terms, cfg.z, eff, "moment_limit_check").value
    closed = moment_closed_form(m, cfg)
    return abs(extrap - closed) / (1.0 + abs(closed))
