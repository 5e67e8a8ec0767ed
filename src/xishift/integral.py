"""The Xi-integral transform and the shifted moment integrals.

xi_integral computes

    (1/pi) * Int_0^inf  Xi(t/2)/(1+t^2) * nabla(a, z, (1+it)/2) dt,

which equals both theta-series sides of the generalized modular
transformation; transform_identity_residual checks all three against each
other.  moment_integral computes the real part of the weighted moments

    Int_{-T}^{T} t^(2m) e^(alpha t) rho(t+lam) 1F1((1-2i(t+lam))/4; 1/2; z^2/4) dt

whose alpha -> pi/4 limits reproduce the closed-form moment expressions.
In tau = t + lam the integrand is H(tau) = rho(tau) Re 1F1((1-2i tau)/4; 1/2;
z^2/4) times a weight, and H depends on none of alpha, lam or m; so any
linear combination of such moments (every shift of a configuration, several
alphas) is one quadrature that evaluates H once per node.

Truncation points come from the decay majorant t^p exp(-rate t + c sqrt(t)):
Xi(t) falls like t^A e^(-pi t/4) (A fixed at 6 here) while the confluent
factor can grow like exp(|z| sqrt(t/2)), so rate = pi/8 - |arg a|/2 for the
transform and pi/4 - |alpha| for the moments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .errors import AccuracyError, DomainError, RegionError, ToleranceError, UnsupportedOrderError
from .quadrature import adaptive_gk, truncation_point
from .region import classify_inequality
from .settings import DEFAULT_SETTINGS, EvalSettings, require_finite
from .specfun import MAX_EXP, em_length, eta_weighted_line, hyp1f1, hyp1f1_vec, xi_line_vec

__all__ = [
    "QuadratureResult",
    "mu",
    "nabla",
    "xi_integral",
    "transform_identity_residual",
    "moment_integral",
]

ALPHA_MARGIN = math.pi / 4 - 0.01


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_err_est: float
    truncation_T: float
    evaluations: int
    panels: int
    at_roundoff: bool


def mu(
    x: complex, z: complex, s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """x^(1/2-s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4), principal power."""
    x, z, s = complex(x), complex(z), complex(s)
    if x == 0:
        raise DomainError("mu needs x != 0 for the principal power")
    f = hyp1f1((1.0 - s) / 2.0, 0.5, z * z / 4.0, settings).value
    value = cmath.exp((0.5 - s) * cmath.log(x)) * cmath.exp(-z * z / 8.0) * f
    return require_finite(value, "mu")


def nabla(
    x: complex, z: complex, s: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """mu(x, z, s) + mu(x, z, 1-s); symmetric under s <-> 1-s."""
    return mu(x, z, s, settings) + mu(x, z, 1.0 - s, settings)


def _check_transform_a(a: complex) -> float:
    """Admissible a: real in [0.5, 2], or unit-modulus with |arg| <= pi/4 - 0.01.

    Returns the exponential growth rate |arg a| of the integrand.
    """
    a = complex(a)
    if a.imag == 0.0:
        if not 0.5 <= a.real <= 2.0:
            raise DomainError(f"real a must lie in [0.5, 2], got {a.real}")
        return 0.0
    if abs(abs(a) - 1.0) > 1e-12:
        raise DomainError(f"complex a must have |a| = 1, got |a| = {abs(a)}")
    alpha = abs(cmath.phase(a))
    if alpha > ALPHA_MARGIN:
        raise DomainError(
            f"|arg a| = {alpha:.4f} too close to pi/4; integrand decay is lost"
        )
    return alpha


def _require_z(z: complex, limit: float, what: str) -> None:
    if not classify_inequality(z).inside:
        raise RegionError(f"{what}: z = {z!r} outside the admissible region")
    if abs(z) > limit:
        raise DomainError(f"{what}: |z| = {abs(z):.3f} exceeds {limit}")


def xi_integral(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> QuadratureResult:
    """The transform integral over [0, T]; T from the decay majorant."""
    a, z = complex(a), complex(z)
    alpha = _check_transform_a(a)
    if z != 0:
        _require_z(z, 1.5, "xi_integral")
    rate = math.pi / 8.0 - alpha / 2.0
    tol = settings.quad_abs_tol
    T = truncation_point(6.0, rate, abs(z), 0.025 * tol * rate, 40.0)
    log_a = cmath.log(a)
    w = z * z / 4.0
    e_z = cmath.exp(-z * z / 8.0)

    def integrand(ts: np.ndarray) -> np.ndarray:
        xi_vals, _ = xi_line_vec(ts / 2.0, settings)
        f_plus, _ = hyp1f1_vec((1.0 - 1j * ts) / 4.0, 0.5, w, settings)
        f_minus, _ = hyp1f1_vec((1.0 + 1j * ts) / 4.0, 0.5, w, settings)
        grad = (
            np.exp(-0.5j * ts * log_a) * e_z * f_plus
            + np.exp(0.5j * ts * log_a) * e_z * f_minus
        )
        return xi_vals / (1.0 + ts * ts) * grad / math.pi

    out = adaptive_gk(
        integrand, 0.0, T, 0.9 * tol,
        initial_panels=max(16, int(math.ceil(T / 2.0))),
    )
    trunc_est = 0.05 * tol
    total_err = out.abs_err_est + trunc_est
    if total_err > tol and not out.at_roundoff:
        raise ToleranceError(
            f"xi_integral(a={a}, z={z}): achieved {total_err:.2e} > {tol:.2e}"
        )
    require_finite(out.value, "xi_integral")
    return QuadratureResult(
        out.value, total_err, T, out.evaluations, out.panels, out.at_roundoff
    )


def transform_identity_residual(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """max over both theta-series sides of |integral - side|."""
    a, z = complex(a), complex(z)
    integral = xi_integral(a, z, settings).value
    side_a = theta.series_side(a, z, settings).value
    side_b = theta.series_side(1.0 / a, 1j * z, settings).value
    return max(abs(integral - side_a), abs(integral - side_b))


def _weighted_moment(
    m: int,
    terms,
    z: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> QuadratureResult:
    """Re of sum_k c_k Int t^(2m) e^(alpha_k t) H(t + lam_k) dt as one quadrature.

    terms holds (c_k, alpha_k, lam_k).  In tau = t + lam_k every term
    integrates the same H(tau) = rho(tau) Re 1F1((1-2i tau)/4; 1/2; z^2/4)
    against c_k e^(alpha_k (tau-lam_k)) (tau-lam_k)^(2m), so H is evaluated
    once per node: one eta call with log-weight alpha_ref*tau
    (alpha_ref = max alpha_k) and one 1F1 call, and each term only multiplies
    by exp((alpha_k - alpha_ref) tau - alpha_k lam_k).  The range covers every
    term's [-T + lam_k, T + lam_k], T from the largest |alpha_k|, and the
    truncation target is shared out by sum |c_k|, so quad_abs_tol bounds the
    weighted sum itself.
    """
    if m not in (0, 1, 2):
        raise UnsupportedOrderError(f"moment order m={m} not supported (m <= 2)")
    cs, alphas, lams = (np.array(col, dtype=float) for col in zip(*terms))
    top = float(np.max(np.abs(alphas)))
    if top > ALPHA_MARGIN:
        raise DomainError(
            f"|alpha| = {top:.4f} exceeds pi/4 - 0.01; decay rate too small"
        )
    z = complex(z)
    if z != 0:
        _require_z(z, 1.0, "moment_integral")
    rate = math.pi / 4.0 - top
    tol = settings.quad_abs_tol
    # |rho(t)| <= C e^(-pi t/4) with C ~ 3 beyond t = 40 (Stirling for Gamma,
    # convexity for zeta leave no net polynomial growth); the factor 8 in the
    # target also covers the confluent prefactors, and sum |c_k| the tails
    # of all terms together.
    T = truncation_point(
        2.0 * m, rate, abs(z) / math.sqrt(2.0),
        0.025 * tol * rate / (8.0 * float(np.sum(np.abs(cs)))), 40.0,
    )
    lo, hi = -T + float(lams.min()), T + float(lams.max())
    if em_length(complex(0.5, max(-lo, hi)), settings) > settings.max_terms:
        raise AccuracyError(
            f"moment_integral: T={T:.0f} needs more zeta terms than "
            f"max_terms={settings.max_terms} allows"
        )
    alpha_ref = float(alphas.max())
    spread = alphas - alpha_ref
    if float(np.max(np.maximum(spread * lo, spread * hi) - alphas * lams)) > MAX_EXP:
        raise DomainError(
            f"alphas spread {-spread.min():.4f} over tau in [{lo:.0f}, {hi:.0f}]; "
            f"the term weights overflow"
        )
    w = z * z / 4.0

    def integrand(taus: np.ndarray) -> np.ndarray:
        weighted, _ = eta_weighted_line(taus, alpha_ref, 0.0, settings)
        f1, _ = hyp1f1_vec((1.0 - 2j * taus) / 4.0, 0.5, w, settings)
        h = weighted * f1.real
        weight = np.zeros(taus.shape)
        for c, d, alpha, lam in zip(cs, spread, alphas, lams):
            weight += c * np.exp(d * taus - alpha * lam) * ((taus - lam) ** (2 * m) if m else 1.0)
        return h * weight

    out = adaptive_gk(
        integrand, lo, hi, 0.9 * tol,
        initial_panels=max(64, int(math.ceil((hi - lo) / 2.0))),
    )
    trunc_est = 0.05 * tol
    total_err = out.abs_err_est + trunc_est
    if total_err > tol and not out.at_roundoff:
        raise ToleranceError(
            f"moment_integral(m={m}, alphas={alphas.tolist()}): achieved "
            f"{total_err:.2e} > {tol:.2e}"
        )
    value = float(out.value.real)
    require_finite(complex(value), "moment_integral")
    return QuadratureResult(value, total_err, T, out.evaluations, out.panels, out.at_roundoff)


def moment_integral(
    m: int,
    alpha: float,
    lam: float,
    z: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> float:
    """Re of the two-sided weighted moment integral for one shift lam."""
    return _weighted_moment(m, [(1.0, alpha, lam)], z, settings).value
