"""The Xi-integral transform and the shifted moment integrals, on one
critical-line quadrature.

xi_integral computes

    (1/pi) * Int_0^inf  Xi(t/2)/(1+t^2) * nabla(a, z, (1+it)/2) dt,

which equals both theta-series sides of the generalized modular
transformation; transform_identity_residual checks all three against each
other.  moment_integral computes the real part of the weighted moments

    Int_{-T}^{T} t^(2m) e^(alpha t) rho(t+lam) 1F1((1-2i(t+lam))/4; 1/2; z^2/4) dt

whose alpha -> pi/4 limits reproduce the closed-form moment expressions.
Both integrate rho(tau) F(tau), F(tau) = 1F1((1-2i tau)/4; 1/2; z^2/4),
against an exponential weight: in tau = t/2, Xi(tau)/(1+4 tau^2) =
-rho(tau)/8, rho is even and the two nabla terms swap under tau -> -tau, so
the transform is c Int e^(beta tau) rho(tau) F(tau) dtau with
c = -e^(-z^2/8)/(4 pi) and beta = -i log a.  _line_integral evaluates any
sum of such terms in one quadrature, F once per node and rho once per
distinct |tau| below the Riemann-Siegel crossover.  It truncates
each side by the majorant |tau|^(2m) exp(-rate |tau| + |z| sqrt(|tau|/2)):
rho falls like e^(-pi |tau|/4) and F can grow like exp(|z| sqrt(|tau|/2)),
so the right side decays at rate = pi/4 - max Re beta_k and the left at
pi/4 + min Re beta_k.  The integrand decays exponentially, and its only
singularities are rho's simple poles at tau = +-i/2 (rho = -8 Xi/(1+4 tau^2)
with Xi entire), so the quadrature is quadrature.nested_trapezoid on exact
nodes j 2^(-k), those two poles subtracted by their residues.  Its error
estimate carries the eta and 1F1 error bounds of every node.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import theta
from .errors import (AccuracyError, DomainError, EvaluationError, RangeOverflowError,
                     ToleranceError, UnsupportedOrderError)
from .quadrature import nested_trapezoid, truncation_point
from .region import require_inside
from .settings import DEFAULT_SETTINGS, EvalSettings, require_finite
from .specfun import MAX_EXP, eta_weighted_line, hyp1f1, hyp1f1_vec

__all__ = [
    "QuadratureResult",
    "mu",
    "nabla",
    "xi_integral",
    "transform_identity_residual",
    "moment_integral",
]

ALPHA_MARGIN = math.pi / 4 - 0.01
_TAIL_FLOOR = 40.0  # the line integrals' least truncation point, where their tail bound starts
_LOG_MIN = math.log(sys.float_info.min)  # below it a modulus has left the normal range


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_err_est: float
    truncation_T: float
    evaluations: int
    levels: int
    at_roundoff: bool


def _mu_in_range(x: complex, z: complex, s: complex, settings: EvalSettings) -> complex | None:
    """mu at complex arguments, or None where its modulus, judged by its
    logarithm before any exponential, is below the normal double range.
    Where the power, or the power times e^(-z^2/8), would leave that range
    on its own, the value is one exponential of the summed logarithms."""
    if x == 0:
        raise DomainError("mu needs x != 0 for the principal power")
    f = hyp1f1((1.0 - s) / 2.0, 0.5, z * z / 4.0, settings).value
    expo = (0.5 - s) * cmath.log(x)
    head = expo - z * z / 8.0
    if f != 0 and head.real + math.log(abs(f)) < _LOG_MIN:
        return None
    try:
        if f != 0 and min(expo.real, head.real) < _LOG_MIN:
            value = cmath.exp(head + cmath.log(f))
        else:
            value = cmath.exp(expo) * cmath.exp(-z * z / 8.0) * f
    except OverflowError:  # cmath's range error
        raise RangeOverflowError(f"mu(x={x!r}, z={z!r}, s={s!r}) exceeds double range") from None
    return require_finite(value, "mu")


def mu(
    x: complex, z: complex, s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """x^(1/2-s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4), principal power.  A
    value below the normal double range is an EvaluationError; a 1F1 that is
    exactly 0 gives 0."""
    x, z, s = complex(x), complex(z), complex(s)
    value = _mu_in_range(x, z, s, settings)
    if value is None:
        raise EvaluationError(f"mu(x={x!r}, z={z!r}, s={s!r}) underflows the double range")
    return value


def nabla(
    x: complex, z: complex, s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """mu(x, z, s) + mu(x, z, 1-s); symmetric under s <-> 1-s.  A term below
    the normal double range adds nothing; where both are, EvaluationError."""
    x, z, s = complex(x), complex(z), complex(s)
    a, b = _mu_in_range(x, z, s, settings), _mu_in_range(x, z, 1.0 - s, settings)
    if a is None and b is None:
        raise EvaluationError(f"nabla(x={x!r}, z={z!r}, s={s!r}): both terms underflow "
                              f"the double range")
    return b if a is None else a if b is None else a + b


def _check_transform_a(a: complex) -> complex:
    """Admissible a: real in [0.5, 2], or unit-modulus (|arg a| <= pi/4 - 0.01
    is left to the kernel's margin on Re beta).

    Returns the integrand's log-weight rate beta = -i log a: imaginary for
    real a, and arg a (real) on the unit circle.
    """
    a = complex(a)
    if a.imag == 0.0:
        if not 0.5 <= a.real <= 2.0:
            raise DomainError(f"real a must lie in [0.5, 2], got {a.real}")
    elif not abs(abs(a) - 1.0) <= 1e-12:
        raise DomainError(f"complex a must have |a| = 1, got |a| = {abs(a)}")
    return -1j * cmath.log(a)


def _require_z(z: complex, limit: float, what: str) -> None:
    require_inside(z, what)
    if abs(z) > limit:
        raise DomainError(f"{what}: |z| = {abs(z):.3f} exceeds {limit}")


def xi_integral(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> QuadratureResult:
    """The transform integral as one term of the line kernel; truncation_T is
    in tau = t/2."""
    a, z = complex(a), complex(z)
    beta = _check_transform_a(a)
    _require_z(z, 1.5, "xi_integral")
    c = -cmath.exp(-z * z / 8.0) / (4.0 * math.pi)
    return _line_integral(0, [(c, beta, 0.0)], z, settings, "xi_integral")


def transform_identity_residual(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """max over both theta-series sides of |integral - side|, the sides summed
    at the residual checks' tolerance so that their truncation stays out."""
    integral = xi_integral(a, z, settings).value
    side_a, side_b = theta._side_pair(a, z, settings)
    return max(abs(integral - side_a), abs(integral - side_b))


def _line_integral(
    m: int,
    terms,
    z: complex,
    settings: EvalSettings,
    what: str,
) -> QuadratureResult:
    """sum_k c_k Int (tau-lam_k)^(2m) e^(beta_k (tau-lam_k)) rho(tau) F(tau) dtau
    as one quadrature, F(tau) = 1F1((1-2i tau)/4; 1/2; z^2/4).

    terms holds (c_k, beta_k, lam_k), c_k and beta_k complex.  Each batch of
    nodes takes one eta call with the real log-weight b_ref*tau (b_ref = max
    Re beta_k) and one 1F1 call: F once per node, and rho's zeta and
    log-Gamma factors once per distinct |tau| (rho is real and even; the eta
    kernel conjugates them for the mirrored node, bit for bit).  Each term
    then multiplies by exp((Re beta_k - b_ref) tau - Re beta_k lam_k) and,
    where Im beta_k != 0, by the unit phase exp(i Im beta_k (tau - lam_k)).
    rho's mass sits at tau = 0 whatever the
    shifts, so the range is [-T_lo, T_hi]: T_hi from the slowest decay on the
    right, pi/4 - max Re beta_k, and T_lo from the slowest on the left, pi/4 +
    min Re beta_k.  Each shift joins its term's weight: the truncation target
    is shared out by sum |c_k| max(1, e^(-Re beta_k lam_k) (1 + |lam_k|/40)^(2m)),
    so quad_abs_tol bounds the weighted sum on both sides.  nested_trapezoid
    integrates it, with the eta and 1F1 error bounds as the integrand's own
    and the poles at tau = +-i/2 as (tau_p, residue) pairs: with g(tau) =
    F(tau) sum_k c_k (tau-lam_k)^(2m) e^(beta_k (tau-lam_k)), the residues
    are i g(i/2) and -i g(-i/2), from the nodes' own weight and no kernel call.
    When every c_k and beta_k is real the integrand is the real part alone
    (rho is real, so only Re F enters), and the residues passed are those of
    Re f, (R_+ + conj R_-)/2 at i/2 and its conjugate at -i/2.
    truncation_T is max(T_hi, T_lo).
    what names the caller in the errors raised, also in the eta kernel's
    AccuracyError for a node whose zeta sum exceeds the term budget.
    """
    if m not in (0, 1, 2):
        raise UnsupportedOrderError(f"moment order m={m} not supported (m <= 2)")
    cs, betas, lams = (np.array(col) for col in zip(*terms))
    if not (np.isfinite(betas).all() and np.isfinite(lams).all()):
        raise DomainError(f"{what}: non-finite weight rate or shift")
    bs, gs = betas.real, betas.imag
    top = float(np.max(np.abs(bs)))
    if not top <= ALPHA_MARGIN:
        raise DomainError(
            f"{what}: |Re beta| = {top:.4f} exceeds pi/4 - 0.01; decay rate too small"
        )
    tol = settings.quad_abs_tol
    # |rho(t)| <= C e^(-pi |t|/4) with C ~ 3 beyond |t| = _TAIL_FLOOR (Stirling
    # for Gamma, convexity for zeta leave no net polynomial growth), and there
    # |tau - lam_k| <= |tau| (1 + |lam_k|/_TAIL_FLOOR); the factor 8 in the target
    # covers the confluent prefactors, and c_sum the tails of all terms (a weight
    # past MAX_EXP fails the check below).  Each side's tail is below share = 0.025 tol.
    b_ref, share = float(bs.max()), 0.025 * tol
    log_wts = 2 * m * np.log1p(np.abs(lams) / _TAIL_FLOOR) - bs * lams
    c_sum = float(np.sum(np.abs(cs) * np.exp(np.clip(log_wts, 0.0, MAX_EXP))))
    T_hi, T_lo = (
        truncation_point(2.0 * m, rate, abs(z) / math.sqrt(2.0), share * rate / (8.0 * c_sum),
                         _TAIL_FLOOR)
        for rate in (math.pi / 4.0 - b_ref, math.pi / 4.0 + float(bs.min()))
    )
    spread = bs - b_ref
    if float(np.max(np.maximum(-spread * T_lo, spread * T_hi) + log_wts)) > MAX_EXP:
        raise DomainError(f"{what}: rates spread {-spread.min():.4f} over tau in "
                          f"[{-T_lo:.0f}, {T_hi:.0f}]; the term weights overflow")
    w = z * z / 4.0
    # real c_k and beta_k (every moment route): the sum is real, and the
    # rule resolves only the real part the caller keeps
    real = not (np.iscomplexobj(cs) or np.iscomplexobj(betas))
    # the term sum over the eta log-weight's e^(b_ref tau); at nodes and poles
    # alike.  A real rate's unit phase would be exactly 1 +- 0i: it is skipped
    def weight(taus: np.ndarray) -> np.ndarray:
        out = np.zeros(taus.shape, dtype=complex)
        for c, d, b, g, lam in zip(cs, spread, bs, gs, lams):
            term = c * np.exp(d * taus - b * lam)
            if g:
                term = term * np.exp(1j * g * (taus - lam))
            out += term * ((taus - lam) ** (2 * m) if m else 1.0)
        return out

    # rho's poles at tau = i/2 (Gamma(s/2) at s = 0) and -i/2 (zeta at
    # s = 1) have residues i and -i, and F is elementary there: F(i/2) =
    # 1F1(1/2; 1/2; w) = e^w and F(-i/2) = 1F1(0; 1/2; w) = 1
    poles = np.array([0.5j, -0.5j])
    r_up, r_dn = np.array([1j * cmath.exp(w), -1j]) * np.exp(b_ref * poles) * weight(poles)
    if real:  # the residues of Re f, whose poles pair f's with their mirror images
        r_up, r_dn = 0.5 * (r_up + r_dn.conjugate()), 0.5 * (r_dn + r_up.conjugate())

    def integrand(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        weighted, w_err = eta_weighted_line(taus, b_ref, settings)
        f1, f_err = hyp1f1_vec((1.0 - 2j * taus) / 4.0, 0.5, w, settings)
        wt = weight(taus)
        values = weighted * f1 * wt
        # first-order bound on the error of values, from the eta and 1F1 bounds
        errors = (w_err * np.abs(f1) + np.abs(weighted) * f_err) * np.abs(wt)
        return (values.real if real else values), errors

    try:
        out = nested_trapezoid(integrand, -T_lo, T_hi, 0.9 * tol, ((0.5j, r_up), (-0.5j, r_dn)))
    except AccuracyError as exc:
        raise AccuracyError(f"{what}: {exc}") from exc
    total_err = out.abs_err_est + 2 * share
    if total_err > tol and not out.at_roundoff:
        raise ToleranceError(
            f"{what}(m={m}, betas={betas.tolist()}): achieved "
            f"{total_err:.2e} > {tol:.2e}"
        )
    require_finite(out.value, what)
    return QuadratureResult(
        out.value, total_err, max(T_hi, T_lo), out.evaluations, out.levels, out.at_roundoff
    )


def _weighted_moment(
    m: int,
    terms,
    z: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
    what: str = "moment_integral",
) -> QuadratureResult:
    """Re of sum_k c_k Int t^(2m) e^(alpha_k t) rho(t+lam_k) F(t+lam_k) dt, real
    (c_k, alpha_k, lam_k), as one line-kernel quadrature; |z| <= 1."""
    z = complex(z)
    _require_z(z, 1.0, what)
    out = _line_integral(m, terms, z, settings, what)
    return replace(out, value=out.value.real)


def moment_integral(
    m: int,
    alpha: float,
    lam: float,
    z: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> QuadratureResult:
    """The two-sided weighted moment integral for one shift lam; value is its real part."""
    return _weighted_moment(m, [(1.0, alpha, lam)], z, settings)
