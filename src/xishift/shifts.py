"""The vertically shifted combination F_z and its moment bookkeeping.

For a finite list of nonzero weights c_j and distinct real shifts lam_j,

    F_z(s) = sum_j c_j eta(s + i lam_j) { 1F1((1-(s+i lam_j))/2; 1/2; z^2/4)
                                        + 1F1((1-(conj(s)-i lam_j))/2; 1/2; conj(z)^2/4) }

1F1 has real b = 1/2, so the second confluent factor is the conjugate of the
first at every s and each bracket is 2 Re of one 1F1.  One kernel evaluates
each distinct shifted point of a call once, with one eta call and one 1F1
call; f_z and fz_line_vec wrap it.  On the critical line eta reduces to the
real function rho, so F_z is real there.  The moment side computes both
sides of the identity, for alpha in (-pi/4, pi/4),

    Int t^(2m) e^(alpha t) F_z(1/2+it)/2 dt
        = 4 pi sum_j c_j Re d^(2m)/d alpha^(2m) [ e^((i/2 - lam_j) alpha) B(alpha) ],
    B = e^(z^2/8) (e^(-z^2/8)/2 + e^(z^2/8) psi(e^(2 i alpha), z)) - 1,

the right side written once (_analytic_side).  As alpha -> pi/4 the
derivatives of B vanish and B tends to -(1 + e^(z^2/4))/2, so the same sum
at pi/4 is the closed form of the limit, in the paper's polar notation

    -4 pi w_z sum_j c_j e^(-pi lam_j/4) r_j^(2m) cos(pi/8 + beta_z + 2m theta_j)

with r_j e^(i theta_j) = i/2 - lam_j and w_z e^(i beta_z) = -B(pi/4).  The
numeric side is linear in the shifted integrand, so moment_numeric integrates
all shifts in one quadrature.  moment_limit_check takes the paper's limit step
in its two parts: the identity at the quadrature's alpha margin, and the
analytic side's limit at pi/4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EvaluationError, PoleError
from .integral import ALPHA_MARGIN, _weighted_moment
from .region import classify_inequality
from .settings import (DEFAULT_SETTINGS, EvalSettings, ValueWithError, checked_value,
                       require_finite, require_real)
from .specfun import _eta_vec, hyp1f1_vec
from .theta import _below_range, _in_range, _psi1_base_jet, _psi1_boundary, _psi1_shifted

__all__ = [
    "ShiftConfig",
    "make_config",
    "f_z",
    "f_z_critical",
    "fz_line_vec",
    "moment_closed_form",
    "moment_numeric",
    "moment_series_rhs",
    "moment_limit_check",
]


@dataclass(frozen=True)
class ShiftConfig:
    """Weights c_j, shifts lam_j and the z parameter of a finite sum; checked on construction."""

    coefficients: tuple[float, ...]
    shifts: tuple[float, ...]
    z: complex

    def __post_init__(self) -> None:
        cs, lams = self.coefficients, self.shifts
        if len(cs) == 0:
            raise ConfigError("at least one coefficient is required")
        if len(cs) != len(lams):
            raise ConfigError(f"{len(cs)} coefficients but {len(lams)} shifts; lengths must match")
        for c in cs:
            if not math.isfinite(c) or c == 0.0:
                raise ConfigError(f"coefficients must be finite and nonzero, got {c}")
        for lam in lams:
            if not math.isfinite(lam):
                raise ConfigError(f"shifts must be finite, got {lam}")
        if len(set(lams)) != len(lams):
            raise ConfigError(f"shifts must be pairwise distinct, got {lams}")
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConfigError(f"z must be finite, got {z!r}")
        verdict = classify_inequality(z)
        if not verdict.inside:
            raise ConfigError(f"z = {z!r} is {verdict.component_label} of the admissible region "
                              f"(margin {verdict.margin:.3e})")
        max_abs = max(abs(lam) for lam in lams)
        if sum(1 for lam in lams if abs(lam) == max_abs) != 1:
            raise ConfigError(f"the maximal |shift| {max_abs:g} must be attained by "
                              "exactly one entry")


def make_config(coefficients, shifts, z: complex) -> ShiftConfig:
    """Build a ShiftConfig (which validates itself) from plain sequences."""
    return ShiftConfig(tuple(float(c) for c in coefficients),
                       tuple(float(x) for x in shifts), complex(z))


# ---------------------------------------------------------------------------
# F_z itself
# ---------------------------------------------------------------------------

def _fz_vec(
    s: np.ndarray, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """F_z at an array of points: (values, errors).  Each distinct s + i lam_j
    goes through one eta call and one 1F1 call and is gathered back into the
    (shift, point) table; rows overlap where shifts differ by multiples of a
    grid's step.  The distinct points keep the order of their first
    appearance, so a kernel's refusal names the table's first failing point.
    The builtin sum adds the shift rows in order (np.sum would pair them), so
    no point depends on its batch.  A per-point eta log-weight would have to
    join the dedup key, or be applied after the gather."""
    s = np.asarray(s, dtype=complex)
    table = s.ravel() + 1j * np.array(cfg.shifts)[:, None]  # (shift, point)
    s_j, gather = table.ravel(), slice(None)
    if len(cfg.shifts) > 1:  # one row cannot repeat a point
        _, first, back = np.unique(s_j, return_index=True, return_inverse=True)
        keep = np.sort(first)
        s_j, gather = s_j[keep], np.searchsorted(keep, first[back])
    ev, ee = _eta_vec(s_j, settings)
    f_a, e_a = hyp1f1_vec((1.0 - s_j) / 2.0, 0.5, cfg.z * cfg.z / 4.0, settings)
    ev, ee, f_a, e_a = (x[gather].reshape(table.shape) for x in (ev, ee, f_a, e_a))
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
    require_finite(s, "f_z argument")
    for lam in cfg.shifts:
        if s + 1j * lam in (0, 1):
            raise PoleError(f"shifted argument s + i*{lam:g} hits a pole of eta")
    with np.errstate(over="ignore", invalid="ignore"):  # checked_value refuses it
        v, e = _fz_vec(np.array([s]), cfg, settings)
    return checked_value(v[0], e[0], f"f_z({s})")


def fz_line_vec(
    t: np.ndarray, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_z(1/2 + i t) on a real grid: (real part, imaginary residue, error).

    The bracket is real, so the residue comes from eta alone and measures how
    well the kernel preserves the reality symmetry.  A non-finite t is
    refused before any arithmetic.
    """
    t = np.asarray(t, dtype=float)
    bad = ~np.isfinite(t)
    if bad.any():
        raise EvaluationError(f"fz_line_vec argument: non-finite t={float(t[bad][0])!r}")
    total, err = _fz_vec(0.5 + 1j * t, cfg, settings)
    return total.real, total.imag, err


def f_z_critical(
    t: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """F_z(1/2 + i t) as a real number; SymmetryError if reality fails, and
    EvaluationError where the value underflowed, as f_z(1/2 + i t) does."""
    re, im, err = fz_line_vec(np.array([float(t)]), cfg, settings)
    context = f"f_z_critical(t={t})"
    require_real(re, im, lambda _: context)
    return checked_value(re[0], err[0], context).value.real


# ---------------------------------------------------------------------------
# The moment identity
# ---------------------------------------------------------------------------

def _analytic_side(cfg: ShiftConfig, alpha: float, order: int, derivative, context: str) -> float:
    """4 pi sum_j c_j Re derivative(lam_j), derivative(lam) being
    d^order/d alpha^order [e^((i/2 - lam) alpha) B(alpha)], order = 2m: the
    analytic side of the moment identity.  A term below the normal float range
    at alpha (its shift factor or its value) adds nothing; where every term
    is, or the sum overflows, the side is an EvaluationError naming context
    (and the shift)."""
    terms = [(c, lam, derivative(lam)) for c, lam in zip(cfg.coefficients, cfg.shifts)]
    kept = [c * v.real for c, lam, v in terms if not _below_range(lam, alpha, order, v)]
    if not kept:  # every term is below the range: refused as the first one is
        _, lam, value = terms[0]
        _in_range(value, lam, alpha, order, context)
    return require_finite(4.0 * math.pi * sum(kept), context)


def moment_closed_form(m: int, cfg: ShiftConfig) -> float:
    """The analytic side at alpha = pi/4, for every m >= 0: there B's
    derivatives vanish and B = -(1 + e^(z^2/4))/2, so each shift contributes
    (i/2 - lam_j)^(2m) e^((i/2 - lam_j) pi/4) B."""
    if m < 0:
        raise ConfigError(f"moment order must be >= 0, got {m}")
    z = complex(cfg.z)
    b_lim = lambda: -(1.0 + cmath.exp(z * z / 4.0)) / 2.0  # noqa: E731 (run under the guard)
    return _analytic_side(cfg, math.pi / 4.0, 2 * m,
                          lambda lam: _psi1_boundary(lam, 2 * m, b_lim, "moment_closed_form"),
                          "moment_closed_form")


def moment_numeric(
    m: int, alpha: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Weighted sum over shifts of the numeric moment integrals, as one quadrature."""
    terms = [(c, alpha, lam) for c, lam in zip(cfg.coefficients, cfg.shifts)]
    return _weighted_moment(m, terms, cfg.z, settings, "moment_numeric").value


def moment_series_rhs(
    m: int, alpha: float, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """The analytic side of the moment identity at alpha in (-pi/4, pi/4),
    from one Taylor jet of B for all shifts."""
    z = complex(cfg.z)
    b = cmath.exp(z * z / 8.0) * _psi1_base_jet(alpha, z, settings)
    b[0] -= 1.0
    return _analytic_side(cfg, alpha, 2 * m, lambda lam: _psi1_shifted(b, alpha, lam, 2 * m),
                          "psi1")


_LIMIT_KS = (3.0, 3.25, 3.5)


def moment_limit_check(
    m: int, cfg: ShiftConfig, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """The paper's limit step over 1 + |closed form|: the larger of the
    identity at alpha = ALPHA_MARGIN, |numeric - analytic side|, and the
    analytic limit, |the analytic side at pi/4 - 10^(-k), k in _LIMIT_KS,
    extrapolated quadratically to pi/4, minus the closed form|.  The numeric
    side's tolerance is floored at the rounding floor of these heavily
    cancelling oscillatory integrals."""
    if m not in (0, 1):
        raise ConfigError(f"limit check supports m in {{0, 1}}, got {m}")
    floor = 1e-5 if m == 0 else 1e-4
    eff = replace(settings, quad_abs_tol=max(settings.quad_abs_tol, floor))
    terms = [(c, ALPHA_MARGIN, lam) for c, lam in zip(cfg.coefficients, cfg.shifts)]
    numeric = _weighted_moment(m, terms, cfg.z, eff, "moment_limit_check").value
    identity = abs(numeric - moment_series_rhs(m, ALPHA_MARGIN, cfg, settings))
    eps = [10.0**-k for k in _LIMIT_KS]  # the Lagrange polynomial in eps, at eps = 0
    limit = sum(moment_series_rhs(m, math.pi / 4.0 - e, cfg, settings)
                * math.prod(f / (f - e) for f in eps if f != e) for e in eps)
    closed = moment_closed_form(m, cfg)
    return max(identity, abs(limit - closed)) / (1.0 + abs(closed))
