"""Generalized Jacobi theta sums and their modular transformations.

The workhorse is the two-parameter series

    psi(x, z) = sum_{n>=1} exp(-pi n^2 x) cos(sqrt(pi x) n z),   Re(x) > 0,

summed term by term as half-sums of exponentials so that huge |Im| in the
cosine argument can never overflow: each term is
(exp(-pi n^2 x + i n w) + exp(-pi n^2 x - i n w))/2 with w = sqrt(pi x) z.
Truncation uses the rigorous majorant |term_n| <= exp(-pi n^2 Re x + n |Im w|)
and a geometric tail bound.

An optional log-prefactor is folded into the exponents, which keeps the
near-axis limit expressions finite even when the prefactor alone would
overflow and the theta sum alone would underflow.  One kernel,
_folded_theta, sums every series here: numbers in a scalar loop, and Taylor
jets in alpha (psi1's derivatives) in a jet loop under the same truncation
rule.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError, EvaluationError, UnsupportedOrderError
from .region import require_inside
from .settings import DEFAULT_SETTINGS, EvalSettings, ValueWithError, require_finite

__all__ = [
    "ThetaEval",
    "theta_series",
    "psi_classical",
    "series_side",
    "jacobi_residual",
    "general_theta_residual",
    "psi_xz_transform_residual",
    "psi1",
    "psi1_alpha_derivative",
    "psi1_limit_value",
    "axis_decay_sequence",
    "psi_at_axis_combination",
]

SQRT_PI = math.sqrt(math.pi)
_EXP_GUARD = 700.0


# ---------------------------------------------------------------------------
# Taylor jets: truncated power series in alpha as arrays of coefficients
# ---------------------------------------------------------------------------

_JET_LEN = 5
_MIRROR_SIGNS = (-1.0) ** np.arange(_JET_LEN)  # coefficient k of a jet under alpha -> -alpha


def _j_var(alpha: float) -> np.ndarray:
    """The jet of the variable itself at alpha."""
    return np.array([alpha, 1.0] + [0.0] * (_JET_LEN - 2), dtype=complex)


def _j_log(a):
    out = np.zeros(_JET_LEN, dtype=complex)
    out[0] = cmath.log(a[0])
    for k in range(1, _JET_LEN):
        out[k] = (a[k] - sum((j / k) * out[j] * a[k - j] for j in range(1, k))) / a[0]
    return out


def _j_exp(a):
    """e = exp(a) by e' = a' e: e_k = (sum_{j=1..k} j a_j e_{k-j}) / k, unrolled
    for _JET_LEN = 5.  Each sum starts from the integer 0 and divides by the
    integer k, as sum() and the loop form did, so no bit moves."""
    a0, a1, a2, a3, a4 = a.tolist()
    b1, b2, b3, b4 = 1 * a1, 2 * a2, 3 * a3, 4 * a4
    e0 = cmath.exp(a0)
    e1 = (0 + b1 * e0) / 1
    e2 = (0 + b1 * e1 + b2 * e0) / 2
    e3 = (0 + b1 * e2 + b2 * e1 + b3 * e0) / 3
    e4 = (0 + b1 * e3 + b2 * e2 + b3 * e1 + b4 * e0) / 4
    return np.array([e0, e1, e2, e3, e4])


# ---------------------------------------------------------------------------
# The theta kernel
# ---------------------------------------------------------------------------

class ThetaEval(NamedTuple):
    """A truncated theta sum: value, terms actually used, and a tail bound
    (for a jet sum: the jet, and a bound on each coefficient)."""

    value: complex | np.ndarray
    terms_used: int
    abs_err_est: float | np.ndarray


_EPS = 2.3e-16  # the rounding unit of the noise term


def _require_theta_domain(x0: complex, w0: complex, p0: complex) -> None:
    if not (cmath.isfinite(x0) and cmath.isfinite(w0) and cmath.isfinite(p0)):
        raise DomainError(f"theta sum needs finite x, w, log-prefactor; got {x0}, {w0}, {p0}")
    if x0.real <= 0:
        raise DomainError(f"theta sum needs Re(x) > 0, got Re(x)={x0.real:g}")


def _overflow(n: int, x0: complex, w0: complex) -> DivergenceError:
    return DivergenceError(
        f"theta term n={n} overflows: cosh growth beats the Gaussian "
        f"factor at x={x0!r}, w={w0!r}"
    )


def _missed(x0: complex, w0: complex, settings: EvalSettings, tail: float) -> DivergenceError:
    return DivergenceError(
        f"theta sum at x={x0!r}, w={w0!r} missed tolerance {settings.quad_abs_tol:g} after "
        f"{settings.max_terms} terms (tail bound {tail:g})"
    )


def _folded_theta(x, w, log_prefactor, settings: EvalSettings) -> ThetaEval:
    """exp(log_prefactor) * sum_{n>=1} exp(-pi n^2 x) cos(n w), the prefactor
    folded into every term.

    x, w and log_prefactor are all complex numbers, or all jets; for jets the
    result is the jet of the sum (_folded_theta_jet).  Term n
    is (exp(h+) + exp(h-))/2, h+- = log_prefactor - pi n^2 x +- i n w; the sum
    stops once the geometric tail bound on the term sizes
    exp(Re log_prefactor - pi n^2 Re x + n |Im w|) is below the tolerance,
    and the estimate adds each term's rounding.
    """
    if isinstance(x, np.ndarray):
        return _folded_theta_jet(x, w, log_prefactor, settings)
    _require_theta_domain(x, w, log_prefactor)
    decay = math.pi * x.real
    grow = abs(w.imag)
    p_re = log_prefactor.real
    flat = w == 0  # then h+ = h- up to the signs of zeros: one exponential serves both
    exp = cmath.exp
    acc = 0.0 + 0.0j
    noise = 0.0  # rounding: |term| * (phase size of its exponent) * eps
    tol = settings.quad_abs_tol
    n = 0
    tail = math.inf
    while n < settings.max_terms:
        n += 1
        base = log_prefactor - math.pi * n * n * x
        if flat:
            if base.real > _EXP_GUARD:
                raise _overflow(n, x, w)
            t = exp(base)
            acc += 0.5 * (t + t)
            size = abs(t) * (2.0 + 0.5 * abs(base.imag))
            noise += 0.5 * _EPS * (size + size)
        else:
            inw = 1j * n * w
            h_plus = base + inw
            h_minus = base - inw
            if h_plus.real > _EXP_GUARD or h_minus.real > _EXP_GUARD:
                raise _overflow(n, x, w)
            t_plus = exp(h_plus)
            t_minus = exp(h_minus)
            acc += 0.5 * (t_plus + t_minus)
            noise += 0.5 * _EPS * (
                abs(t_plus) * (2.0 + 0.5 * abs(h_plus.imag))
                + abs(t_minus) * (2.0 + 0.5 * abs(h_minus.imag))
            )
        ratio = -decay * (2 * n + 3) + grow
        if ratio < -1e-3:  # geometric tail bound applies
            r = math.exp(ratio)
            mu_next = p_re - decay * (n + 1) * (n + 1) + grow * (n + 1)
            if mu_next != mu_next:  # -inf + inf: both products overflowed
                mu_next = p_re + (n + 1) * (grow - decay * (n + 1))
            tail = math.exp(min(mu_next, _EXP_GUARD)) / (1.0 - r)
            if tail <= tol:
                break
    else:
        raise _missed(x, w, settings, tail)
    require_finite(acc, "theta sum")
    return ThetaEval(acc, n, tail + noise)


def _folded_theta_jet(x, w, log_prefactor, settings: EvalSettings) -> ThetaEval:
    """_folded_theta on jets: the same terms and tail rule, jet by jet.

    The n-th exponent h has |h_j| <= n^2 a_j for j >= 1,
    a_j = |log_prefactor_j| + pi |x_j| + |w_j|, so coefficient k of exp(h) is
    at most |exp(h_0)| n^(2k) E_k with E the jet of exp(a) (a_0 = 0).  This
    derivative factor grows from term n to n + 1 by at most e^(8/n), so the
    scalar geometric tail bound carries over to every coefficient.
    """
    # Python complexes, so that errors print as the scalar loop's do
    x0, w0, p0 = complex(x[0]), complex(w[0]), complex(log_prefactor[0])
    _require_theta_domain(x0, w0, p0)
    a = np.abs(log_prefactor) + math.pi * np.abs(x) + np.abs(w)
    a[0] = 0.0
    envelope, powers = _j_exp(a).real, 2 * np.arange(_JET_LEN)
    # n^(2k) E_k <= n^slope top
    top, slope = float(envelope.max()), 2.0 * (_JET_LEN - 1)
    decay = math.pi * x0.real
    grow = abs(w0.imag)
    p_re = p0.real
    acc = 0.0 + 0.0j
    noise = 0.0  # rounding: |term| * (phase size of its exponent) * eps, before E
    tol = settings.quad_abs_tol
    n = 0
    tail = math.inf  # the tail of the leading sizes; times the factor below
    while n < settings.max_terms:
        n += 1
        base = log_prefactor - math.pi * n * n * x
        inw = 1j * n * w
        e_plus = base + inw
        e_minus = base - inw
        h_plus, h_minus = e_plus[0], e_minus[0]
        if h_plus.real > _EXP_GUARD or h_minus.real > _EXP_GUARD:
            raise _overflow(n, x0, w0)
        t_plus = _j_exp(e_plus)
        t_minus = _j_exp(e_minus)
        acc += 0.5 * (t_plus + t_minus)
        noise += 0.5 * _EPS * (
            abs(t_plus[0]) * (2.0 + 0.5 * abs(h_plus.imag))
            + abs(t_minus[0]) * (2.0 + 0.5 * abs(h_minus.imag))
        ) * n ** powers
        ratio = -decay * (2 * n + 3) + grow + slope / (n + 1)
        if ratio < -1e-3:  # geometric tail bound applies
            r = math.exp(ratio)
            mu_next = p_re - decay * (n + 1) * (n + 1) + grow * (n + 1)
            tail = math.exp(min(mu_next, _EXP_GUARD)) / (1.0 - r)
            if tail * (n + 1) ** slope * top <= tol:
                break
    else:
        raise _missed(x0, w0, settings, tail)
    require_finite(acc.sum(), "theta sum")  # all coefficients
    err = (tail * (n + 1) ** powers + noise) * envelope
    return ThetaEval(acc, n, err)


def theta_series(
    x: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> ThetaEval:
    """psi(x, z) = sum exp(-pi n^2 x) cos(sqrt(pi x) n z) for Re(x) > 0."""
    x = complex(x)
    return _folded_theta(x, cmath.sqrt(math.pi * x) * complex(z), 0.0 + 0.0j, settings)


def psi_classical(x: float, settings: EvalSettings = DEFAULT_SETTINGS) -> ThetaEval:
    """psi(x) = sum exp(-pi n^2 x) for real x > 0."""
    if not x > 0:
        raise DomainError(f"psi requires x > 0, got {x}")
    return theta_series(complex(x), 0.0, settings)


def series_side(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> ValueWithError:
    """One side of the modular transformation:

        sqrt(a) ( e^{-z^2/8} / (2a) - e^{z^2/8} sum e^{-pi a^2 n^2} cos(sqrt(pi) a n z) )

    The partner side at b = 1/a equals series_side(1/a, i z), because
    cos(i y) = cosh(y) swaps the two exponential prefactors.
    """
    a, z = complex(a), complex(z)
    if (a * a).real <= 0:
        raise DomainError(f"series side needs Re(a^2) > 0, got {(a*a).real:g}")
    th = theta_series(a * a, z, settings)
    ez8 = cmath.exp(z * z / 8.0)
    sqrt_a = cmath.sqrt(a)
    value = sqrt_a * (1.0 / (ez8 * 2.0 * a) - ez8 * th.value)
    require_finite(value, "series_side")
    err = abs(sqrt_a) * abs(ez8) * th.abs_err_est + 8e-16 * abs(value)
    return ValueWithError(value, err)


@lru_cache(maxsize=8)
def _tightened(settings: EvalSettings) -> EvalSettings:
    """Residual checks sum both sides far below the comparison tolerance so
    the reported residual measures the identity, not the truncation.  One
    frozen result per input, as specfun._em_ladder_tables keeps its ladders."""
    return replace(settings, quad_abs_tol=max(settings.quad_abs_tol * 1e-4, 1e-15))


def _side_pair(a: complex, z: complex, settings: EvalSettings) -> tuple[complex, complex]:
    """Both sides of the transformation, series_side(a, z) and its partner
    series_side(1/a, i z), summed at the residual checks' tolerance."""
    a, z = complex(a), complex(z)
    tight = _tightened(settings)
    return series_side(a, z, tight).value, series_side(1.0 / a, 1j * z, tight).value


def jacobi_residual(x: float, settings: EvalSettings = DEFAULT_SETTINGS) -> float:
    """|sqrt(x)(2 psi(x) + 1) - (2 psi(1/x) + 1)| for real x > 0."""
    if not x > 0:
        raise DomainError(f"jacobi_residual requires x > 0, got {x}")
    tight = _tightened(settings)
    lhs = math.sqrt(x) * (2.0 * psi_classical(x, tight).value.real + 1.0)
    rhs = 2.0 * psi_classical(1.0 / x, tight).value.real + 1.0
    return abs(lhs - rhs)


def general_theta_residual(
    a: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Absolute residual of the generalized transformation at b = 1/a."""
    side_a, side_b = _side_pair(a, z, settings)
    return abs(side_a - side_b)


def psi_xz_transform_residual(
    x: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Residual of psi(x,z) = e^{-z^2/4}/sqrt(x) psi(1/x, iz) + e^{-z^2/4}/(2 sqrt(x)) - 1/2."""
    x, z = complex(x), complex(z)
    tight = _tightened(settings)
    lhs = theta_series(x, z, tight).value
    ez4 = cmath.exp(-z * z / 4.0)
    sqrt_x = cmath.sqrt(x)
    rhs = ez4 / sqrt_x * theta_series(1.0 / x, 1j * z, tight).value + ez4 / (2.0 * sqrt_x) - 0.5
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# The shifted combination psi1 and its alpha-derivatives
# ---------------------------------------------------------------------------
#
# psi1 = e^{(i/2 - lam) alpha} B(alpha), B = e^{-z^2/8}/2 + e^{z^2/8} psi(e^{2 i alpha}, z).
# B is one Taylor jet in alpha per alpha (orders through 4), summed by the
# theta kernel; each shift costs only a Leibniz product with the jet of
# e^{(i/2 - lam) alpha}.  Away from the boundary the series is summed directly
# at x = e^{2 i alpha}.  Near alpha = pi/4, x approaches i and the direct
# series loses ~16 digits to cancellation and phase rounding, so there the
# even/odd split combined with the modular transformation gives
# psi(i + d, z) = -1/2 + T_4 - T_1 (_axis_pair), whose terms are
# superexponentially small, with no cancellation at all.
# Near alpha = -pi/4 the same route runs on the mirror image, since
# B(alpha; z) = conj B(-alpha; conj z).

def _psi1_base_jet(alpha: float, z: complex, settings: EvalSettings) -> np.ndarray:
    """Taylor jet in alpha of the lam-free factor e^{-z^2/8}/2 + e^{z^2/8} psi(e^{2 i alpha}, z).

    The theta sums run far below the tolerance, as the residual checks do,
    since the jet's coefficients are scaled up to derivatives."""
    if not -math.pi / 4 < alpha < math.pi / 4:
        raise DomainError(
            f"alpha={alpha:g} outside (-pi/4, pi/4); Re(e^(2 i alpha)) <= 0 there"
        )
    z = complex(z)
    near_axis = math.cos(2.0 * alpha) < 0.1  # there the direct sum cancels
    if near_axis and alpha < 0:
        # the mirror image; its transformed route needs conj z inside
        require_inside(z.conjugate(), f"psi1 at alpha={alpha:g}")
        return np.conj(_psi1_base_jet(-alpha, z.conjugate(), settings)) * _MIRROR_SIGNS
    tight = _tightened(settings)
    ez8 = cmath.exp(z * z / 8.0)
    var = _j_var(alpha)
    x = _j_exp(2j * var)
    if not near_axis:
        w = SQRT_PI * z * _j_exp(1j * var)
        base = ez8 * _folded_theta(x, w, np.zeros_like(x), tight).value
        base[0] += cmath.exp(-z * z / 8.0) / 2.0
        return base
    require_inside(z, f"psi1 at alpha={alpha:g}")
    # transformed near-axis route; d = e^{2 i alpha} - i, its value computed
    # without cancellation from eps = pi/4 - alpha; sqrt(i + d) = e^{i alpha}
    eps_b = math.pi / 4.0 - alpha
    d = x.copy()
    d[0] = complex(math.sin(2.0 * eps_b), -2.0 * math.sin(eps_b) ** 2)
    quarter, unit = _axis_pair(d, 1j * var, z, tight)
    base = ez8 * (quarter - unit)
    base[0] -= cmath.sinh(z * z / 8.0)
    return base


def _axis_pair(d, log_root, z: complex, settings: EvalSettings):
    """(T_4, T_1), the transformed terms at x = i + d,

        T_s = d^{-1/2} e^{-(z^2/4)(1 + i/d)} psi(1/(s d), i z sqrt(1 + i/d)),

    given d and log sqrt(i + d), both numbers or both jets; the prefactor is
    folded into each theta sum and sqrt(1 + i/d) sqrt(1/d) = sqrt(i + d)/d."""
    jet = isinstance(d, np.ndarray)
    log, exp = (_j_log, _j_exp) if jet else (cmath.log, cmath.exp)
    log_d = log(d)
    inv = exp(-log_d)
    log_pref = -0.25j * z * z * inv - 0.5 * log_d
    if jet:
        log_pref[0] -= z * z / 4.0
    else:
        log_pref -= z * z / 4.0
    w = 0.5j * SQRT_PI * z * exp(log_root - log_d)
    return (_folded_theta(inv / 4.0, w, log_pref, settings).value,
            _folded_theta(inv, 2.0 * w, log_pref, settings).value)


def _shift_underflows(lam: float, alpha: float, order: int) -> bool:
    """Whether e^{(i/2 - lam) alpha}, of modulus e^{-lam alpha}, is below the
    normal float range, where it has lost digits; at alpha = pi/4 also the
    boundary factor (i/2 - lam)^order e^{(i/2 - lam) pi/4}, by its logarithm:
    the power alone can underflow to an exact 0."""
    log_size = -lam * alpha
    if alpha == math.pi / 4.0:
        log_size = min(log_size, log_size + order * math.log(abs(0.5j - lam)))
    return math.exp(min(0.0, log_size)) < sys.float_info.min


def _below_range(lam: float, alpha: float, order: int, value: complex) -> bool:
    """Whether an order-th psi1 derivative at alpha has lost digits below the
    normal float range, in its shift factor or in its value; an exact 0 (a
    vanishing limit) has not."""
    return _shift_underflows(lam, alpha, order) or 0.0 < abs(value) < sys.float_info.min


def _out_of_range(context: str, lam: float, what: str, alpha: float) -> EvaluationError:
    at = "pi/4" if alpha == math.pi / 4.0 else repr(alpha)
    return EvaluationError(f"{context} at lam={lam!r}: {what} at alpha={at}")


def _in_range(value: complex, lam: float, alpha: float, order: int, context: str) -> complex:
    """value, or an EvaluationError naming context and lam where _below_range."""
    if _shift_underflows(lam, alpha, 0):
        raise _out_of_range(context, lam, "e^((i/2 - lam) alpha) underflows", alpha)
    if _below_range(lam, alpha, order, value):
        raise _out_of_range(context, lam, f"the value {value!r} underflows", alpha)
    return value


def _psi1_shifted(base: np.ndarray, alpha: float, lam: float, order: int) -> complex:
    """order-th alpha-derivative of psi1 = e^{(i/2 - lam) alpha} * base, by
    Leibniz; an overflow is an EvaluationError, an underflow is left to
    _in_range."""
    if not 0 <= order < _JET_LEN:
        raise UnsupportedOrderError(f"alpha-derivative order {order} not supported (max 4)")
    try:  # cmath raises where the value overflows; a derivative goes to inf
        shift = _j_exp((0.5j - lam) * _j_var(alpha))[:order + 1]
    except OverflowError:
        shift = np.array([math.inf])
    if not np.isfinite(shift).all():  # refused before the sum computes on it
        raise _out_of_range("psi1", lam, "e^((i/2 - lam) alpha) or a derivative overflows", alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        value = math.factorial(order) * sum(shift[order - k] * base[k] for k in range(order + 1))
    return require_finite(complex(value), f"psi1_alpha_derivative at lam={lam!r}")


def _psi1_boundary(lam: float, order: int, limit, context: str) -> complex:
    """The order-th alpha-derivative of e^{(i/2 - lam) alpha} B at alpha = pi/4,
    where B tends to limit() and its derivatives to 0:
    (i/2 - lam)^order e^{(i/2 - lam) pi/4} limit().  An overflow in it, or a
    value that is not finite, is an EvaluationError naming context and lam;
    an underflow is left to _in_range."""
    c = 0.5j - lam
    try:
        value = c**order * cmath.exp(math.pi / 4.0 * c) * limit()
    except (OverflowError, ValueError) as exc:  # cmath's range and domain errors
        raise EvaluationError(f"{context} at lam={lam!r}: {exc}") from None
    return require_finite(value, f"{context} at lam={lam!r}")


def _require_finite_point(z: complex, lam: float, name: str) -> None:
    if not (cmath.isfinite(z) and math.isfinite(lam)):
        raise DomainError(f"{name} needs finite z and shift, got z={z!r}, lam={lam!r}")


def psi1(
    alpha: float, z: complex, lam: float, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """e^{(i/2 - lam) alpha} ( e^{-z^2/8}/2 + e^{z^2/8} psi(e^{2 i alpha}, z) )."""
    _require_finite_point(z, lam, "psi1")
    return _in_range(_psi1_shifted(_psi1_base_jet(alpha, z, settings), alpha, lam, 0),
                     lam, alpha, 0, "psi1")


def psi1_alpha_derivative(
    alpha: float, z: complex, lam: float, order: int, settings: EvalSettings = DEFAULT_SETTINGS
) -> complex:
    """order-th alpha-derivative of psi1 by analytic (jet) differentiation.

    Orders through 4 are supported (the moment identities need 2m <= 4).
    Near alpha = +-pi/4 the transformed representation keeps orders <= 4
    noise-free; finite differences would be hopeless there.  That route
    needs z inside the admissible region near pi/4, and conj z near -pi/4
    (RegionError otherwise).
    """
    _require_finite_point(z, lam, "psi1_alpha_derivative")
    return _in_range(_psi1_shifted(_psi1_base_jet(alpha, z, settings), alpha, lam, order),
                     lam, alpha, order, "psi1")


def psi1_limit_value(z: complex, lam: float, order: int) -> complex:
    """Limit of the order-th (even) alpha-derivative of psi1 as alpha -> pi/4."""
    if order % 2 != 0:
        raise UnsupportedOrderError("the boundary limit is stated for even orders")
    z = complex(z)
    _require_finite_point(z, lam, "psi1_limit_value")
    context = f"psi1_limit_value(z={z!r})"
    value = _psi1_boundary(lam, order, lambda: -cmath.sinh(z * z / 8.0), context)
    return _in_range(value, lam, math.pi / 4.0, order, context)


# ---------------------------------------------------------------------------
# Near-axis limit expressions
# ---------------------------------------------------------------------------

def _axis_terms(z: complex, delta: float, settings: EvalSettings) -> tuple[complex, complex]:
    """(T_4, T_1) at real delta > 0: _axis_pair on numbers, summed as
    tightly as psi1 sums them."""
    if not sys.float_info.min <= delta < math.inf:  # 1/delta overflows below
        raise DomainError(f"near-axis terms need a finite delta > 0 with 1/delta finite, "
                          f"got delta={delta!r}")
    return _axis_pair(complex(delta), 0.5 * cmath.log(1j + delta), z, _tightened(settings))


def axis_decay_sequence(z: complex, deltas: list[float],
                        settings: EvalSettings = DEFAULT_SETTINGS) -> list[tuple[float, float]]:
    """(|T_4|, |T_1|) for each delta, T_s as in _axis_pair at d = delta; both
    decay to zero as delta -> 0 when z is inside the admissible region."""
    z = complex(z)
    require_inside(z, "axis_decay_sequence")
    if any(deltas[i + 1] >= deltas[i] for i in range(len(deltas) - 1)):
        raise DomainError("deltas must be strictly decreasing")
    return [tuple(abs(t) for t in _axis_terms(z, d, settings)) for d in deltas]


def psi_at_axis_combination(z: complex, delta: float,
                            settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """e^{-z^2/8}/2 + e^{z^2/8} psi(i + delta, z), by the modular transformation.

    The direct sum at x = i + delta cancels as delta shrinks.  psi1's
    near-axis route gives instead e^{z^2/8} (T_4 - T_1) - sinh(z^2/8), with
    the terms of axis_decay_sequence, which decay superexponentially as
    delta -> 0; so the value tends to -sinh(z^2/8) for admissible z.  T_4
    needs ~6.5 sqrt(delta) terms, so past delta ~ 2.1e6 the default
    max_terms raises DivergenceError.
    """
    z = complex(z)
    require_inside(z, "psi_at_axis_combination")
    quarter, unit = _axis_terms(z, delta, settings)
    return cmath.exp(z * z / 8.0) * (quarter - unit) - cmath.sinh(z * z / 8.0)
