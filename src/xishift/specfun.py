"""Complex special-function kernels.

Each function has exactly one vectorised kernel.  The scalar operations
(gamma, zeta, the completed zeta eta, xi and its critical-line restrictions,
and the confluent hypergeometric 1F1) are thin wrappers: they check their
argument, evaluate the kernel on a one-element array, and return a
ValueWithError carrying an upper estimate of the numerical error actually
incurred.  A scalar result that is not finite, or whose value and error
bound both underflowed, raises EvaluationError naming the point.  A point's
value never depends on which other points share the array with it, so
results are reproducible under any partitioning and a scalar call equals the
same point of any batch bit for bit.

Algorithms
----------
Gamma      : Lanczos rational approximation, g = 607/128 with the standard
             15-coefficient set (Godfrey); one recurrence step for
             0 <= Re(s) < 1/2 and reflection below Re(s) = 0, with log sin
             kept stable for large |Im s|.
Zeta       : Euler-Maclaurin with Bernoulli corrections through B26 (B28
             feeds the error bound) and a direct-sum length N ~ 0.61*|s+27|
             taken from that bound; the functional equation covers
             Re(s) < 0.
Eta        : pi^(-s/2) Gamma(s/2) zeta(s) with an optional log-weight fused
             into the exponent.
1F1        : Maclaurin series over an array of a-parameters; the error
             estimate carries the tail and an explicit cancellation term
             (machine epsilon times the largest partial sum).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    AccuracyError,
    DivergenceError,
    DomainError,
    EvaluationError,
    ParameterError,
    PoleError,
    SymmetryError,
)
from .settings import (
    DEFAULT_SETTINGS,
    EvalSettings,
    ValueWithError,
    checked_value,
    require_finite,
)

__all__ = [
    "gamma_c",
    "zeta_c",
    "eta_completed",
    "xi_c",
    "big_xi",
    "rho_real",
    "hyp1f1",
    "hyp1f1_asym_residual",
    "eta_line_vec",
    "eta_weighted_line",
    "xi_line_vec",
    "hyp1f1_vec",
]

LN_PI = math.log(math.pi)
LN_2 = math.log(2.0)
HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
EPS = np.finfo(float).eps
MAX_EXP = 709.0  # exp overflow threshold for float64

# Lanczos g = 607/128, 15 coefficients.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_TAIL = np.array(_LANCZOS_C[1:], dtype=complex)
_LANCZOS_K = np.arange(1.0, 15.0, dtype=complex)

# Bernoulli numbers B2..B28 as exact fractions; B28 is used only by the
# Euler-Maclaurin remainder bound.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
)
_EM_K = 13  # corrections through B26
_EM_COEF = tuple(
    float(b / Fraction(math.factorial(2 * (k + 1)))) for k, b in enumerate(_BERNOULLI)
)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def _lanczos_sum(x: np.ndarray) -> np.ndarray:
    """Lanczos partial-fraction sum A(x) = c0 + sum_k c_k/(x-1+k), elementwise.

    Summed left to right from c0 in one table (accumulate, never a pairwise
    reduce), so each point has the bits of a plain loop over k.
    """
    terms = np.add.outer(_LANCZOS_K, x - 1.0)
    np.divide(_LANCZOS_TAIL.reshape((14,) + (1,) * x.ndim), terms, out=terms)
    terms[0] += _LANCZOS_C[0]
    return np.add.accumulate(terms, out=terms)[-1]


def _logsin(w: np.ndarray) -> np.ndarray:
    """log(sin(w)) elementwise, stable for large |Im w| (branch only valid under exp)."""
    out = np.empty(w.shape, dtype=complex)
    near = np.abs(w.imag) <= 30.0
    out[near] = np.log(np.sin(w[near]))
    far = w[~near]
    # sin w = (g i/2) e^(-g i w) (1 - e^(2 g i w)) with g = sign(Im w), |e^(2 g i w)| << 1
    g = np.sign(far.imag)
    out[~near] = g * (0.5j * math.pi) - LN_2 - g * 1j * far + np.log(1.0 - np.exp(2j * g * far))
    return out


def _is_nonpositive_int(s):
    """Elementwise test for s in {0, -1, -2, ...}; s is a scalar or an array."""
    s = np.asarray(s, dtype=complex)
    return (s.imag == 0.0) & (s.real <= 0.0) & (s.real == np.floor(s.real))


def _loggamma_vec(s) -> tuple[np.ndarray, np.ndarray]:
    """log Gamma(s) and a relative error bound for Gamma(s), elementwise.

    Lanczos for Re(s) >= 1/2, one recurrence step Gamma(s) = Gamma(s+1)/s
    for 0 <= Re(s) < 1/2, and reflection below Re(s) = 0, where the bound
    carries the conditioning of the sine near a pole.  The branch is
    irrelevant to callers, which only exponentiate the result in combination
    with other logarithms.
    """
    s = np.asarray(s, dtype=complex)
    if (s.real <= 0.0).any():
        pole = _is_nonpositive_int(s)
        if pole.any():
            raise PoleError(f"gamma has a pole at s={s[pole][0].real:g}")
    refl = s.real < 0.0
    step = (s.real < 0.5) & ~refl
    z = s + step  # Lanczos argument, Re(z) >= 1/2
    z[refl] = 1.0 - s[refl]
    shift = np.zeros(s.shape, dtype=complex)
    shift[step] = -np.log(s[step])
    t = z + (_LANCZOS_G - 0.5)
    lg = shift + HALF_LN_2PI + (z - 0.5) * np.log(t) - t + np.log(_lanczos_sum(z))
    rel = np.full(s.shape, 1e-13)
    if refl.any():
        r = s[refl]
        lg[refl] = LN_PI - _logsin(math.pi * r) - lg[refl]
        dist = np.abs(r - np.round(r.real))
        rel[refl] += 4.0 * EPS * (1.0 + np.abs(r)) * math.pi / np.maximum(dist, EPS)
    return lg, rel


def gamma_c(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """Complex Gamma function: the log-gamma kernel at one point, exponentiated.

    The reflection's sine is handled in log space, so large imaginary parts
    do not overflow prematurely.
    """
    s = complex(s)
    require_finite(s, "gamma_c argument")
    lg, rel = _loggamma_vec(np.array([s]))
    if lg[0].real > MAX_EXP:
        raise OverflowError(f"|gamma({s})| exceeds double range (log={lg[0].real:.1f})")
    value = np.exp(lg[0])
    return checked_value(value, abs(value) * rel[0], f"gamma_c({s})")


# ---------------------------------------------------------------------------
# Zeta (Euler-Maclaurin)
# ---------------------------------------------------------------------------

# The first dropped Euler-Maclaurin term is about 2*(|s+2K+1|/(2 pi N))^(2K+2)
# with K = _EM_K; N = _EM_RATE*|s+2K+1| puts it at _EM_TARGET.
_EM_TARGET = 1e-16
_EM_RATE = (2.0 / _EM_TARGET) ** (1.0 / (2 * _EM_K + 2)) / (2.0 * math.pi)
_EM_CHUNK = 1 << 20  # entries per block of the direct sum


def em_length(s, settings: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Euler-Maclaurin direct-sum length each s needs, before ladder rounding.

    N = ceil(_EM_RATE*|s+2K+1|) ~ 0.61*|s+27|, at least settings.em_terms.
    Points needing more than max_terms cannot meet the remainder target.
    Lengths are whole floats, so a huge |s| cannot wrap an integer type.
    """
    need = np.ceil(_EM_RATE * np.abs(np.asarray(s, dtype=complex) + (2 * _EM_K + 1)))
    return np.maximum(float(settings.em_terms), need)


@lru_cache(maxsize=8)
def _em_ladder(em_terms: int, max_terms: int) -> tuple[int, ...]:
    """Fixed ladder of direct-sum lengths.

    Each point picks the smallest ladder entry covering its own em_length,
    so its value is independent of array grouping.
    """
    ladder = [max(4, em_terms)]
    while ladder[-1] < max_terms:
        ladder.append(min(max_terms, math.ceil(ladder[-1] * 1.25)))
    return tuple(ladder)


def _zeta_em_group(s: np.ndarray, n_direct: int) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin zeta for one group sharing direct-sum length n_direct."""
    logn = np.log(np.arange(1, n_direct, dtype=float))
    direct = np.zeros(s.shape, dtype=complex)
    # row blocks bound the memory; summing each row on its own (no BLAS
    # product) keeps a point's value independent of its batch
    chunk = max(1, _EM_CHUNK // n_direct)
    for lo in range(0, s.size, chunk):
        x = np.multiply.outer(-s[lo:lo + chunk], logn)
        direct[lo:lo + chunk] = np.exp(x, out=x).sum(axis=1)
    ln_n = math.log(n_direct)
    val = direct + np.exp((1.0 - s) * ln_n) / (s - 1.0) + 0.5 * np.exp(-s * ln_n)
    poch = s.copy()
    for k in range(1, _EM_K + 1):
        val += _EM_COEF[k - 1] * poch * np.exp((1.0 - s - 2 * k) * ln_n)
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
    k_err = _EM_K + 1
    t_next = np.abs(_EM_COEF[k_err - 1] * poch * np.exp((1.0 - s - 2 * k_err) * ln_n))
    trunc = t_next * np.abs(s + (2 * k_err - 1)) / np.maximum(s.real + (2 * k_err - 1), 1.0)
    sigma = s.real
    with np.errstate(divide="ignore"):
        abs_sum = np.where(
            np.abs(1.0 - sigma) > 0.05,
            np.abs(np.expm1((1.0 - sigma) * ln_n)) / np.maximum(np.abs(1.0 - sigma), 1e-300),
            ln_n * 1.1,
        )
    # rounding: direct-sum accumulation plus the phase error of exp(-i t ln n),
    # which accumulates roughly like an RMS random walk over the direct sum
    phase = 1.5 * EPS * np.abs(s.imag) * math.sqrt(max(ln_n**3 / 3.0, 1.0))
    err = trunc + 4.0 * EPS * (1.0 + abs_sum) + phase
    return val, err


def _em_argument(s: np.ndarray) -> np.ndarray:
    """Where the Euler-Maclaurin sum runs: at s, or at 1-s below Re(s) = 0."""
    refl = s.real < 0.0
    return np.where(refl, 1.0 - s, s) if refl.any() else s


def zeta_vec(s: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised zeta for s != 1.  Returns (values, errors).

    The functional equation covers Re(s) < 0.  PoleError at s = 1, and
    EvaluationError naming the first point whose value or error is not
    finite (the correction terms overflow for |s| near 1e19).
    """
    s = np.asarray(s, dtype=complex)
    if (s == 1.0).any():
        raise PoleError("zeta has its pole at s=1")
    u = _em_argument(s)
    ladder = np.asarray(_em_ladder(settings.em_terms, settings.max_terms))
    need = em_length(u, settings)
    # fmin: a nan point takes the last group and is caught as non-finite below
    idx = np.searchsorted(ladder, np.fmin(need, ladder[-1]))
    vals = np.empty(s.shape, dtype=complex)
    errs = np.empty(s.shape, dtype=float)
    for i in np.unique(idx):
        mask = idx == i
        v, e = _zeta_em_group(u[mask], int(ladder[i]))
        vals[mask] = v
        errs[mask] = e
    over = need > ladder[-1]
    if over.any():
        # honest flag: the ladder was clamped; widen the reported error
        errs[over] += np.abs(vals[over]) * 1e-6 + 1.0
    refl = s.real < 0.0
    if refl.any():
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        r, zv = s[refl], vals[refl]
        log_sin = _logsin(math.pi * r / 2.0)
        log_chi = r * LN_2 + (r - 1.0) * LN_PI + log_sin + _loggamma_vec(1.0 - r)[0]
        big = log_chi.real > MAX_EXP
        if big.any():
            raise OverflowError(f"|zeta({complex(r[big][0])})| exceeds double range "
                                f"via functional equation")
        vals[refl] = np.exp(log_chi) * zv
        # the rounding of pi s/2 is amplified where the sine nears a zero
        # (the trivial zeros): EPS |pi s/2| / |sin(pi s/2)|
        sin_cond = EPS * np.abs(math.pi * r / 2.0) * np.exp(-log_sin.real)
        errs[refl] = np.abs(vals[refl]) * (
            errs[refl] / np.maximum(np.abs(zv), 1e-300) + 1e-13 + sin_cond
        )
    if not (np.isfinite(vals).all() and np.isfinite(errs).all()):
        bad = ~(np.isfinite(vals) & np.isfinite(errs))
        raise EvaluationError(f"zeta_vec: non-finite value or error at s={complex(s[bad][0])!r}")
    return vals, errs


def zeta_c(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """Riemann zeta: zeta_vec at one point, once its direct sum fits the term budget."""
    s = complex(s)
    require_finite(s, "zeta_c argument")
    cap = _em_ladder(settings.em_terms, settings.max_terms)[-1]
    need = float(em_length(_em_argument(np.array([s])), settings)[0])
    if need > cap:
        raise AccuracyError(f"zeta({s}): direct sum needs {need:.0f} terms, cap is {cap}")
    v, e = zeta_vec(np.array([s]), settings)
    return checked_value(v[0], e[0], f"zeta_c({s})")


# ---------------------------------------------------------------------------
# Completed zeta and the xi family
# ---------------------------------------------------------------------------

def _eta_vec(
    s: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS, log_weight=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_weight) pi^(-s/2) Gamma(s/2) zeta(s), elementwise: (values, errors).

    The log-weight enters the exponent first: a weight exp(alpha t) that grows
    while eta decays like exp(-pi|t|/4) on the line never meets it as 0 * inf.
    """
    zv, ze = zeta_vec(s, settings)
    lg, g_rel = _loggamma_vec(s / 2)
    pref = np.exp(log_weight - s / 2 * LN_PI + lg)
    return pref * zv, np.abs(pref) * (ze + np.abs(zv) * g_rel)


def eta_completed(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """pi^(-s/2) Gamma(s/2) zeta(s); meromorphic with poles at 0 and 1."""
    s = complex(s)
    require_finite(s, "eta_completed argument")
    if s == 0 or s == 1:
        raise PoleError(f"completed zeta has a pole at s={s}")
    v, e = _eta_vec(np.array([s]), settings)
    return checked_value(v[0], e[0], f"eta_completed({s})")


def xi_c(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """Entire xi: (1/2) s (s-1) eta(s), with the removable points patched.

    Inside discs of radius 1e-8 around s=0 and s=1 the exact limit 1/2 is
    returned; the reported error covers the neglected variation.
    """
    s = complex(s)
    if abs(s) <= 1e-8 or abs(s - 1.0) <= 1e-8:
        return ValueWithError(0.5 + 0.0j, 2e-8)
    ev, ee = _eta_vec(np.array([s]), settings)
    value = 0.5 * s * (s - 1.0) * ev[0]
    err = 0.5 * abs(s) * abs(s - 1.0) * ee[0] + 4 * EPS * abs(value)
    return checked_value(value, err, f"xi_c({s})")


def _real_part_checked(v: ValueWithError, what: str) -> float:
    bound = 1e-9 * (1.0 + abs(v.value))
    if abs(v.value.imag) > bound:
        raise SymmetryError(
            f"{what}: imaginary residue {v.value.imag:.3e} exceeds {bound:.3e}"
        )
    return v.value.real


def big_xi(t: float, settings: EvalSettings = DEFAULT_SETTINGS) -> float:
    """Xi(t) = xi(1/2 + i t); real and even for real t."""
    if not math.isfinite(t):
        raise PoleError(f"big_xi requires finite t, got {t}")
    return _real_part_checked(xi_c(complex(0.5, t), settings), f"big_xi({t})")


def rho_real(t: float, settings: EvalSettings = DEFAULT_SETTINGS) -> float:
    """eta(1/2 + i t); real-valued and even for real t."""
    if not math.isfinite(t):
        raise PoleError(f"rho_real requires finite t, got {t}")
    return _real_part_checked(eta_completed(complex(0.5, t), settings), f"rho_real({t})")


# ---------------------------------------------------------------------------
# Confluent hypergeometric 1F1
# ---------------------------------------------------------------------------

def hyp1f1(
    a: complex, b: complex, w: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> ValueWithError:
    """Kummer's 1F1(a; b; w): hyp1f1_vec at one point."""
    a = complex(a)
    v, e = hyp1f1_vec(np.array([a]), b, w, settings)
    return checked_value(v[0], e[0], f"hyp1f1({a}; {complex(b)}; {complex(w)})")


def hyp1f1_vec(
    a: np.ndarray,
    b: complex,
    w: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised 1F1 over an array of a-parameters (fixed b and w).

    Each entry's summation freezes as soon as that entry meets the stopping
    rule, so values do not depend on fellow array members.
    """
    a = np.asarray(a, dtype=complex)
    b, w = complex(b), complex(w)
    if _is_nonpositive_int(b):
        raise ParameterError(f"1F1 undefined for b={b} (nonpositive integer)")
    acc = np.ones(a.shape, dtype=complex)
    term = np.ones(a.shape, dtype=complex)
    max_partial = np.ones(a.shape, dtype=float)
    streak = np.zeros(a.shape, dtype=np.int8)
    active = np.ones(a.shape, dtype=bool)
    last_mag = np.ones(a.shape, dtype=float)
    if w == 0:
        return acc, np.zeros(a.shape)
    for n in range(settings.max_terms):
        if not active.any():
            break
        tn = term[active] * (a[active] + n) * (w / ((b + n) * (n + 1)))
        term[active] = tn
        acc[active] += tn
        np.maximum(max_partial, np.abs(acc), out=max_partial, where=active)
        mag = np.abs(tn)
        last_mag[active] = mag
        small = mag <= settings.rel_tol * np.maximum(np.abs(acc[active]), 1e-300)
        streak_active = np.where(small, streak[active] + 1, 0)
        streak[active] = streak_active
        done = streak_active >= 2
        if done.any():
            idx = np.flatnonzero(active)
            active[idx[done]] = False
    else:
        if active.any():
            raise DivergenceError(
                f"1F1 series: {int(active.sum())} points unconverged after "
                f"{settings.max_terms} terms"
            )
    errs = 2.0 * last_mag + 16.0 * EPS * max_partial
    return acc, errs


def hyp1f1_asym_residual(
    s: complex, z: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> float:
    """Normalized residual of the large-parameter cosine asymptotic of 1F1.

    Returns |1F1(-s; 1/2; z^2/4) - e^(z^2/8) cos(z sqrt(s+1/4))| * |s+1/4|^(1/2),
    which stays bounded as |s| grows.
    """
    s, z = complex(s), complex(z)
    if abs(s) < 4.0:
        raise DomainError(f"asymptotic residual needs |s| >= 4, got |s|={abs(s):.3g}")
    f = hyp1f1(-s, 0.5, z * z / 4.0, settings).value
    lead = cmath.exp(z * z / 8.0) * cmath.cos(z * cmath.sqrt(s + 0.25))
    return abs(f - lead) * abs(s + 0.25) ** 0.5


# ---------------------------------------------------------------------------
# Critical-line vector paths
# ---------------------------------------------------------------------------

def eta_line_vec(
    tau: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """eta(1/2 + i tau) for a real array tau.  Returns (values, errors)."""
    return _eta_vec(0.5 + 1j * np.asarray(tau, dtype=float), settings)


def xi_line_vec(
    tau: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """Xi(tau) = xi(1/2 + i tau) on a real grid.  Returns (values, errors)."""
    s = 0.5 + 1j * np.asarray(tau, dtype=float)
    ev, ee = _eta_vec(s, settings)
    vals = 0.5 * s * (s - 1.0) * ev
    return vals.real, 0.5 * np.abs(s) * np.abs(s - 1.0) * ee


def eta_weighted_line(
    t: np.ndarray,
    alpha: float,
    lam: float,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """exp(alpha t) * rho(t + lam), with alpha t as the eta kernel's log-weight.

    rho decays like exp(-pi|t|/4) while exp(alpha t) grows; fusing the
    exponents avoids 0 * inf far out on the line.  Returns (values, errors).
    """
    t = np.asarray(t, dtype=float)
    vals, errs = _eta_vec(0.5 + 1j * (t + lam), settings, alpha * t)
    return vals.real, errs
