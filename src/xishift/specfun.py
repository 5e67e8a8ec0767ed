"""Complex special-function kernels.

Each function has exactly one vectorised kernel.  The scalar operations
(gamma, zeta, the completed zeta eta, xi and its critical-line restrictions,
and the confluent hypergeometric 1F1) are thin wrappers: they check their
argument, evaluate the kernel on a one-element array, and return a
ValueWithError carrying an upper estimate of the numerical error actually
incurred.  A scalar result that is not finite, or whose value and error
bound both underflowed, raises EvaluationError naming the point.  No zeta
or Hardy Z direct sum runs past settings.max_terms terms: before summing, the
kernel raises AccuracyError naming the first point that needs more, and how
many.  A point's value never depends on which other points share the array
with it, so results are reproducible under any partitioning and a scalar
call equals the same point of any batch bit for bit.  This holds for every
kernel at any batch size: a complex product whose right operand is a
temporary is written as an explicit np.multiply, which numpy never elides into
an in-place product with swapped operands (see _em_corrections_table), the
tables of the Euler-Maclaurin tail and of 1F1 hold a bounded number of points,
and the einsums of the Riemann-Siegel corrections never run on one column.

Algorithms
----------
Gamma      : Lanczos rational approximation, g = 607/128 with the standard
             15-coefficient set (Godfrey); one recurrence step for
             0 <= Re(s) < 1/2 and reflection below Re(s) = 0, with log sin
             kept stable for large |Im s|.  Every caller but the
             Riemann-Siegel eta route uses it.
Zeta       : Euler-Maclaurin with Bernoulli corrections through B26 (B28
             feeds the error bound) and a direct-sum length N ~ 0.61*|s+27|
             taken from that bound, at least EM_MIN_TERMS (20); the
             functional equation covers Re(s) < 0.  The direct sum runs per
             ladder group of N, the corrections once over every point, as
             (k, point) tables over column blocks of _EM_TAIL_BLOCK points.
Hardy Z    : Riemann-Siegel main sum of N = floor(sqrt(t/2pi)) terms (one
             longdouble N, _rs_split, for the sum and the term budget),
             theta(t) from its Stirling series, phases reduced in longdouble,
             and the corrections C_0..C_20 from a frozen table
             (tests/make_rs_table.py derives it from the Arias de Reyna
             expansion and checks it), summed over k from power tables and
             two einsums: a fixed number of numpy calls per block of points.
Eta        : pi^(-s/2) Gamma(s/2) zeta(s) with an optional log-weight fused
             into the exponent.  On the critical line at |t| >= RS_CROSSOVER
             (104, where the Z estimate drops below the Euler-Maclaurin one)
             it is pi^(-1/4) |Gamma(1/4 + it/2)| Z(|t|): real, no Gamma phase,
             with log|Gamma| + pi|t|/4 from the real Stirling series and the
             -pi|t|/4 joined to the log-weight in longdouble.
1F1        : Maclaurin series over an array of a-parameters, each stopped after
             two terms below 1e-12 of its sum; the error estimate carries the
             tail and a cancellation term (eps times the largest partial sum).
             Terms come in tables of _HYP1F1_BLOCK rows and the stopping test
             runs once per table, but each entry stops at the same term as a
             test after every term would stop it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    AccuracyError,
    DivergenceError,
    EvaluationError,
    ParameterError,
    PoleError,
)
from .settings import (
    DEFAULT_SETTINGS,
    EM_MIN_TERMS,
    EvalSettings,
    ValueWithError,
    checked_value,
    require_finite,
    require_real,
)

__all__ = [
    "gamma_c",
    "zeta_c",
    "eta_completed",
    "xi_c",
    "big_xi",
    "rho_real",
    "hyp1f1",
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
    if s.ndim == 0:  # the masks below need an array, not a 0-d scalar
        return tuple(x.reshape(()) for x in _loggamma_vec(s.reshape(1)))
    if (s.real <= 0.0).any():
        pole = _is_nonpositive_int(s)
        if pole.any():
            raise PoleError(f"gamma has a pole at s={s[pole][0].real:g}")
    refl = s.real < 0.0
    has_refl = refl.any()
    step = (s.real < 0.5) & ~refl
    z = s + step  # Lanczos argument, Re(z) >= 1/2
    if has_refl:
        z[refl] = 1.0 - s[refl]
    shift = np.zeros(s.shape, dtype=complex)
    shift[step] = -np.log(s[step])
    t = z + (_LANCZOS_G - 0.5)
    lg = shift + HALF_LN_2PI + np.multiply(z - 0.5, np.log(t)) - t + np.log(_lanczos_sum(z))
    rel = np.full(s.shape, 1e-13)
    if has_refl:
        r = s[refl]
        lg[refl] = LN_PI - _logsin(math.pi * r) - lg[refl]
        dist = np.abs(r - np.round(r.real))
        rel[refl] += 4.0 * EPS * (1.0 + np.abs(r)) * math.pi / np.maximum(dist, EPS)
    # the rounding of log Gamma itself, ~EPS |log Gamma|, is a relative error of Gamma
    rel += 4.0 * EPS * np.abs(lg)
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
_EM_CHUNK = 1 << 17  # entries per block of the direct sum (2 MB)
_EM_TAIL_BLOCK = 512  # points per column block of the tail tables (0.5 MB)
# the tail tables' row constants, complex so that no table product casts: 2k
# for k = 0..K+1, the shifts m = 1..2K of the Pochhammer rows, and the
# Bernoulli coefficients
_EM_TWO_K = np.arange(0.0, 2 * _EM_K + 3, 2.0, dtype=complex)[:, None]
_EM_SHIFT = np.arange(1.0, 2 * _EM_K + 1, dtype=complex)[:, None]
_EM_COEF_COL = np.array(_EM_COEF, dtype=complex)[:, None]


def em_length(s) -> np.ndarray:
    """Euler-Maclaurin direct-sum length each s needs, before ladder rounding.

    N = ceil(_EM_RATE*|s+2K+1|) ~ 0.61*|s+27|, at least EM_MIN_TERMS (20);
    zeta_vec refuses a point that needs more than settings.max_terms.
    Lengths are whole floats, so a huge |s| cannot wrap an integer type.
    """
    need = np.ceil(_EM_RATE * np.abs(np.asarray(s, dtype=complex) + (2 * _EM_K + 1)))
    return np.maximum(float(EM_MIN_TERMS), need)


def _require_budget(need, points, what: str, settings: EvalSettings) -> None:
    """AccuracyError at the first point whose sum needs more than max_terms
    terms; a count of 1e15 or more is shown to 4 digits, not digit by digit."""
    over = need > settings.max_terms
    if over.any():
        i = int(np.argmax(over))
        count = float(np.ravel(need)[i])
        shown = f"{count:.0f}" if count < 1e15 else f"{count:.3e}"
        raise AccuracyError(f"{what}={np.ravel(points)[i].item()!r} needs {shown} "
                            f"terms, more than max_terms={settings.max_terms}")


@lru_cache(maxsize=8)
def _em_ladder(max_terms: int) -> tuple[int, ...]:
    """Fixed ladder of direct-sum lengths, EM_MIN_TERMS up to max_terms.

    Each point picks the smallest ladder entry covering its own em_length,
    so its value is independent of array grouping.
    """
    ladder = [EM_MIN_TERMS]
    while ladder[-1] < max_terms:
        ladder.append(min(max_terms, math.ceil(ladder[-1] * 1.25)))
    return tuple(ladder)


@lru_cache(maxsize=8)
def _em_ladder_tables(max_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ladder as an array, and log N and the phase factor
    sqrt(max(log^3 N / 3, 1)) of each entry N by math.log and math.sqrt,
    read-only: zeta_vec gathers them per point."""
    ladder = _em_ladder(max_terms)
    ln_n = [math.log(n) for n in ladder]
    tables = (np.array(ladder), np.array(ln_n),
              np.array([math.sqrt(max(x**3 / 3.0, 1.0)) for x in ln_n]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _em_direct(s: np.ndarray, n_direct: int) -> np.ndarray:
    """Direct sum of n^-s over n < n_direct for one group sharing that length."""
    logn = np.log(np.arange(1, n_direct, dtype=float))
    direct = np.empty(s.shape, dtype=complex)
    # one reused row block bounds the memory; summing each row on its own
    # (no BLAS product) keeps a point's value independent of its batch
    chunk = max(1, _EM_CHUNK // n_direct)
    buf = np.empty((min(chunk, s.size), logn.size), dtype=complex)
    for lo in range(0, s.size, chunk):
        x = np.multiply.outer(-s[lo:lo + chunk], logn, out=buf[:min(chunk, s.size - lo)])
        direct[lo:lo + chunk] = np.exp(x, out=x).sum(axis=1)
    return direct


def _em_tail(
    s: np.ndarray, direct: np.ndarray, ln_n: np.ndarray, phase_factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin zeta from each point's direct sum: the head terms, the
    Bernoulli corrections and the error bound, with ln_n = log N and
    phase_factor = sqrt(max(log^3 N / 3, 1)) at each point's own N.  The
    values are summed into direct in place.

    The corrections run as tables (_em_corrections_table) over column blocks
    of _EM_TAIL_BLOCK points: a short batch pays per numpy call, and the
    blocks keep a wide one's tables in cache.  Each point sees the same
    operations in the same order in any block, so the bits do not depend on
    the block width.
    """
    t_next = np.empty(s.shape)
    for lo in range(0, s.size, _EM_TAIL_BLOCK):
        cols = slice(lo, lo + _EM_TAIL_BLOCK)
        t_next[cols] = _em_corrections_table(s[cols], direct[cols], ln_n[cols])
    k_err = _EM_K + 1
    trunc = t_next * np.abs(s + (2 * k_err - 1)) / np.maximum(s.real + (2 * k_err - 1), 1.0)
    one_minus_sigma = 1.0 - s.real
    dist = np.abs(one_minus_sigma)
    abs_sum = np.where(
        dist > 0.05,
        np.abs(np.expm1(one_minus_sigma * ln_n)) / np.maximum(dist, 1e-300),
        ln_n * 1.1,
    )
    # rounding: direct-sum accumulation plus the phase error of exp(-i t ln n),
    # which accumulates roughly like an RMS random walk over the direct sum
    phase = 1.5 * EPS * np.abs(s.imag) * phase_factor
    return direct, trunc + 4.0 * EPS * (1.0 + abs_sum) + phase


def _em_corrections_table(s: np.ndarray, val: np.ndarray, ln_n: np.ndarray) -> np.ndarray:
    """Adds the head and the Bernoulli corrections of _em_tail into val;
    returns |first dropped correction|.

    The corrections are (k, point) tables: one exp over every exponent
    (1 - s - 2k) log N, the shifts s + m, the Pochhammer rows, then the
    coefficient and exponential products as two table products, added into
    val row by row in the order head, corrections.  Every complex product is
    an explicit np.multiply whose output is none of its operands.  In an
    operator chain numpy may run the product in place on a temporary of
    256 KiB or more with the operands swapped, and its complex multiply is not
    bitwise commutative, so a point's bits would depend on its batch size.
    """
    expo = np.multiply(np.subtract(1.0 - s, _EM_TWO_K), ln_n)
    np.exp(expo, out=expo)
    val += expo[0] / (s - 1.0)
    val += 0.5 * np.exp(-s * ln_n)
    shift = np.add(s, _EM_SHIFT)
    poch = np.empty((_EM_K + 1, s.size), dtype=complex)
    poch[0] = s
    for k in range(1, _EM_K + 1):
        np.multiply(np.multiply(poch[k - 1], shift[2 * k - 2]), shift[2 * k - 1], out=poch[k])
    # the coefficient products go into the spent shift rows, the corrections
    # into the spent Pochhammer rows
    corr = np.multiply(np.multiply(_EM_COEF_COL, poch, out=shift[:_EM_K + 1]), expo[1:], out=poch)
    for row in corr[:_EM_K]:
        val += row
    return np.abs(corr[_EM_K])


def zeta_vec(s: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised zeta for s != 1.  Returns (values, errors).

    The functional equation covers Re(s) < 0, where the sum runs at 1-s.
    The direct sum runs once per ladder group, the Euler-Maclaurin tail once
    over every point.  PoleError at s = 1, AccuracyError naming the first
    point whose direct sum needs more than settings.max_terms terms, and
    EvaluationError naming the first non-finite point (refused before any
    arithmetic) or the first point whose value or error is not finite.
    """
    s = np.asarray(s, dtype=complex)
    shape, s = s.shape, s.ravel()
    finite = np.isfinite(s)
    if not finite.all():
        raise EvaluationError(f"zeta_vec argument: non-finite s={complex(s[~finite][0])!r}")
    if (s == 1.0).any():
        raise PoleError("zeta has its pole at s=1")
    refl = s.real < 0.0
    u = np.where(refl, 1.0 - s, s) if refl.any() else s
    need = em_length(u)
    _require_budget(need, s, "zeta: Euler-Maclaurin direct sum at s", settings)
    ladder, ln_n, phase_factor = _em_ladder_tables(settings.max_terms)
    idx = np.searchsorted(ladder, need)
    direct = np.empty(s.shape, dtype=complex)
    for i in np.unique(idx):
        mask = idx == i
        direct[mask] = _em_direct(u[mask], int(ladder[i]))
    vals, errs = _em_tail(u, direct, ln_n[idx], phase_factor[idx])
    if refl.any():
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        r, zv = s[refl], vals[refl]
        log_sin = _logsin(math.pi * r / 2.0)
        log_chi = r * LN_2 + (r - 1.0) * LN_PI + log_sin + _loggamma_vec(1.0 - r)[0]
        big = log_chi.real > MAX_EXP
        if big.any():
            raise OverflowError(f"|zeta({complex(r[big][0])})| exceeds double range "
                                f"via functional equation")
        vals[refl] = np.multiply(np.exp(log_chi), zv)
        # the rounding of pi s/2 is amplified where the sine nears a zero
        # (the trivial zeros): EPS |pi s/2| / |sin(pi s/2)|
        sin_cond = EPS * np.abs(math.pi * r / 2.0) * np.exp(-log_sin.real)
        errs[refl] = np.abs(vals[refl]) * (
            errs[refl] / np.maximum(np.abs(zv), 1e-300) + 1e-13 + sin_cond
        )
    if not (np.isfinite(vals).all() and np.isfinite(errs).all()):
        bad = ~(np.isfinite(vals) & np.isfinite(errs))
        raise EvaluationError(f"zeta_vec: non-finite value or error at s={complex(s[bad][0])!r}")
    return vals.reshape(shape), errs.reshape(shape)


def zeta_c(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """Riemann zeta: zeta_vec at one point."""
    s = complex(s)
    require_finite(s, "zeta_c argument")
    v, e = zeta_vec(np.array([s]), settings)
    return checked_value(v[0], e[0], f"zeta_c({s})")


# ---------------------------------------------------------------------------
# Hardy Z (Riemann-Siegel)
# ---------------------------------------------------------------------------

# C_k(z) = z^(k mod 2) * sum_j _RS_COEF[k][j] z^(2j), z = 1 - 2p: the
# Riemann-Siegel corrections, derived by tests/make_rs_table.py from the
# Arias de Reyna expansion (mpmath's rszeta) and frozen here.
_RS_COEF = (
    (
        0.3826834323650898, 0.43724046807752043, 0.1323765754803435,
        -0.013605026047674188, -0.013567621970103581, -0.0016237253231444653,
        0.0002970535373337969, 7.94330087952147e-05, 4.6556124614504504e-07,
        -1.4327251630955106e-06, -1.0354847112312946e-07, 1.2357927083861738e-08,
        1.7881083857954906e-09, -3.391414389927036e-11, -1.6326633902565907e-11,
        -3.7851093185412205e-13, 9.327423259201725e-14, 5.221843015978137e-15,
        -3.350673072744264e-16, -3.4124265228117265e-17, 5.751203341432399e-19,
        1.4895301363211506e-19,
    ),
    (
        0.026825102628375348, -0.013784773426351853, -0.03849125048223508,
        -0.009871066299062077, 0.0033107597608584044, 0.0014647808577954152,
        1.3207940624876963e-05, -5.9227487018471416e-05, -5.980242585373449e-06,
        9.641322456169826e-07, 1.8334733722714413e-07, -4.4670875627178334e-09,
        -2.7096350821772744e-09, -7.785288654315851e-11, 2.343762601089369e-11,
        1.5830172789987521e-12, -1.211994157372379e-13, -1.4583781161108306e-14,
        2.878630525813192e-16, 8.662862902123724e-17, 8.430722727137041e-19,
    ),
    (
        0.005188542830293168, 0.00030946583880634744, -0.011335941078229373,
        0.0022330457419581446, 0.00519663740886233, 0.0003439914407620834,
        -0.0005910648427470583, -0.00010229972547935857, 2.0888392216992754e-05,
        5.927665493096536e-06, -1.6423838362436276e-07, -1.5161199700940684e-07,
        -5.907803698206668e-09, 2.0911514859478188e-09, 1.781564958329235e-10,
        -1.6164072455353832e-11, -2.3806962496667617e-12, 5.398265295542595e-14,
        1.9750142196969516e-14, 2.3332868732882633e-16, -1.118751761004808e-16,
        -4.164009488883767e-18,
    ),
    (
        0.0013397160907194568, -0.003744215136379394, 0.0013303178919321468,
        0.0022654660765471786, -0.0009548499998506731, -0.0006010038458963604,
        0.00010128858286776622, 6.865733449299826e-05, -5.985366791538599e-07,
        -3.331659851239947e-06, -2.1919289102435082e-07, 7.890884245681494e-08,
        9.414685081295262e-09, -9.57011621088348e-10, -1.8763137453470662e-10,
        4.4378376793233995e-12, 2.242673850561735e-12, 3.6276868657352434e-14,
        -1.7639809550821582e-14, -7.960765246786778e-16, 9.419651490589691e-17,
        7.133103854569658e-18,
    ),
    (
        0.00046483389361763383, -0.001005660736534047, 0.00024044856573725794,
        0.0010283086149702322, -0.0007657861071755644, -0.00020365286803084818,
        0.0002321229049106873, 3.2602144243865195e-05, -2.5579062517949524e-05,
        -4.107464438915745e-06, 1.1781113640371294e-06, 2.445656142248458e-07,
        -2.3915824767344323e-08, -7.505214207035756e-09, 1.3312279416258429e-10,
        1.344062675422562e-10, 3.513770042430486e-12, -1.519154453370392e-12,
        -8.915417681447087e-14, 1.1195891165228536e-14, 1.0516013329914816e-15,
        -5.1786552736466835e-17,
    ),
    (
        -0.00011343405922868681, -0.00013851558567147984, 0.0005068306017359404,
        -0.00041222682854677667, -5.0212503923893044e-05, 0.00018583330293362498,
        -2.750486803301064e-05, -3.156913243559333e-05, 4.2177259041220196e-06,
        2.9158997804790636e-06, -1.5653784955844681e-07, -1.4652135593176926e-07,
        -1.2200158650611429e-09, 4.161924475909784e-09, 2.0939812749734364e-10,
        -7.083955086672488e-11, -6.023001444442243e-12, 7.454153644214176e-13,
        9.432313173635468e-14, -4.63034208562233e-15, -9.637605904062081e-16,
    ),
    (
        3.369099840108094e-05, -0.00012182596819343517, 0.00021820650719505934,
        -0.00016619033454413337, -3.110176899016765e-05, 0.00012085816038756387,
        -4.51514678364552e-05, -1.8550769189257536e-05, 1.1616261484368335e-05,
        1.5516054414965867e-06, -1.173183613638087e-06, -1.2201406611672693e-07,
        5.938091048879949e-08, 7.0119971278102854e-09, -1.644509235965503e-09,
        -2.413847792012177e-10, 2.588538684310006e-11, 5.11928726139503e-12,
        -2.1541595758904304e-13, -7.134227452688869e-14, 2.8785597934103785e-16,
        6.883513880945692e-16,
    ),
    (
        -3.306239959139952e-05, 5.583801197167342e-05, -3.38757252127791e-05,
        -3.928549915442036e-05, 7.590133889708718e-05, -3.763650752641637e-05,
        -7.75875212898364e-06, 1.2434681009031702e-05, -1.3758660974089538e-06,
        -1.5381436320507913e-06, 2.4692335216114254e-07, 1.1303748841071982e-07,
        -1.4065380576820329e-08, -5.3302209994313445e-09, 3.594283526285034e-10,
        1.609146884319826e-10, -3.4053984355486287e-12, -3.1750244960695343e-12,
        -3.862417137390637e-14, 4.237052713611464e-14, 1.5991933724677905e-15,
    ),
    (
        2.4197536136117965e-06, -4.028380692676013e-06, 1.3573801583121782e-05,
        -3.662743047420052e-05, 4.512746795456113e-05, -2.336374918075876e-05,
        -3.79170029208223e-06, 1.025723707028558e-05, -3.1689290012248423e-06,
        -1.0319159039853272e-06, 6.297345327606051e-07, 4.1686604881939493e-08,
        -5.378631444658436e-08, -1.4153446763913294e-09, 2.616924263058847e-09,
        8.632205275861301e-11, -7.863547640798744e-11, -3.981580682374462e-12,
        1.5272973816746164e-12, 1.0788522406038325e-13, -1.9808957372871652e-14,
    ),
    (
        -6.884120503027345e-06, 1.3545533780523584e-05, -2.1754023152211477e-05,
        2.199475516585996e-05, -1.0178284429930488e-05, -3.8363101444274505e-06,
        7.919629169063572e-06, -3.5151967004321614e-06, -3.7347988972624764e-07,
        7.600058623543953e-07, -1.1390878442965699e-07, -6.614344745943316e-08,
        1.554004796612315e-08, 3.623234093309804e-09, -8.813175526299378e-10,
        -1.4670998190011627e-10, 2.7908712271236326e-11, 4.3686394460535956e-12,
        -5.397389908013263e-13, -9.262633460098316e-14,
    ),
    (
        -2.000102517333251e-07, 2.747875445600471e-06, -6.35390175448108e-06,
        6.1092144657038735e-06, -1.044389166713013e-06, -4.724591519145358e-06,
        6.0374952925265806e-06, -3.008799217853451e-06, -1.7387368046207477e-09,
        7.045817097395811e-07, -2.4463828333826787e-07, -3.66481905815922e-08,
        3.3351927670915355e-08, -7.74280847239686e-10, -2.2372533367446277e-09,
        1.3484634487797551e-10, 9.524581564195606e-11, -5.1354811812690146e-12,
        -2.77257974107068e-12, 9.021412028490195e-14,
    ),
    (
        -1.0582671552008318e-06, 7.641541824271211e-07, -1.2977241298126704e-06,
        3.0221042133950856e-06, -4.634859422067521e-06, 4.322487310100924e-06,
        -2.125666337747384e-06, 3.879674072408941e-08, 6.07279254102943e-07,
        -3.084718018683562e-07, 9.26190594718259e-09, 4.004880064964372e-08,
        -9.256434303163218e-09, -2.1829326634594735e-09, 8.693189389237111e-10,
        7.034051663150014e-11, -4.245274929996072e-11, -1.8948148947872375e-12,
        1.3072056139695964e-12,
    ),
    (
        -1.5083686683859693e-07, 8.628809567661503e-07, -1.976924981676586e-06,
        2.8871690530139912e-06, -3.207896290838861e-06, 2.559348501315029e-06,
        -1.1314965275392602e-06, -1.2976652791120795e-07, 5.394003423563616e-07,
        -3.17772121357335e-07, 4.5484600223000784e-08, 3.628787915064393e-08,
        -1.730977128795451e-08, 9.711362039695744e-12, 1.5371151983947724e-09,
        -1.8631718765763663e-10, -7.496047746521416e-11, 1.2862198032529442e-11,
        2.5358940108643532e-12,
    ),
    (
        -1.505027293468991e-07, -4.4819367648473974e-07, 1.047835065163221e-06,
        -1.253237848998031e-06, 9.324695547258315e-07, -2.3948214486533624e-07,
        -3.5188944006427883e-07, 4.969799901942378e-07, -2.9283963655989494e-07,
        6.094123119345765e-08, 2.935515669754922e-08, -2.2438514977314013e-08,
        3.4002661794910157e-09, 1.5896126090530532e-09, -6.081661440499551e-10,
        -3.0161562941130855e-11, 3.9605409686251285e-11,
    ),
    (
        -6.348769657494896e-08, 1.4808415629049313e-07, -1.37090703628891e-07,
        8.204633899978823e-08, -1.377854298133403e-07, 3.345815774843902e-07,
        -4.867044091099281e-07, 4.4079072884968587e-07, -2.4257633529286666e-07,
        5.505655337978637e-08, 2.5501301825066168e-08, -2.49644601756429e-08,
        6.686816169552073e-09, 9.851122273345603e-10, -9.922062408098462e-10,
        1.2196848822719358e-10, 5.359047631205249e-11,
    ),
    (
        -2.1740216481004326e-08, -1.9070064935753412e-07, 3.580275127198032e-07,
        -4.3123460459994e-07, 4.7155753602583904e-07, -4.5023292530061226e-07,
        3.359868742710716e-07, -1.6874461588967102e-07, 3.1697645246808486e-08,
        2.7221277166217403e-08, -2.6216737606797236e-08, 9.104687380683376e-09,
        7.740083872188626e-11, -1.2085711985323203e-09, 3.4198371967427904e-10,
    ),
    (
        -2.523282111366813e-08, 2.5845346663806095e-09, 1.0226231233241615e-07,
        -2.090782502894382e-07, 2.741552675857383e-07, -2.6288327808685287e-07,
        1.8349169171868824e-07, -7.85333390809463e-08, -2.1210361662076847e-09,
        3.33744606735894e-08, -2.692857781552289e-08, 1.0388708310759101e-08,
        -7.052526399082112e-10, -1.278243498453482e-09, 5.697794343351831e-10,
    ),
    (
        -7.543669226761348e-09, -3.623795000146331e-08, 2.7841955294645682e-08,
        2.3030905742462583e-08, -4.76688021984443e-08, 3.0106121891701826e-08,
        7.023469744210833e-09, -3.522803156166728e-08, 3.993189768973145e-08,
        -2.6631392086699872e-08, 1.0391712816991325e-08, -1.031007098104709e-09,
        -1.3180299578191717e-09,
    ),
    (
        -1.1214875444432193e-08, -8.292998109451756e-09, 5.2782646302697166e-08,
        -6.608748423050654e-08, 6.317544733871494e-08, -5.998659118302835e-08,
        5.866562181051836e-08, -5.3872024650591344e-08, 4.132344319001651e-08,
        -2.3921557027167978e-08, 8.872060871882266e-09,
    ),
    (
        -4.466096506992039e-09, 2.9412409441008944e-09, -2.077740573070501e-08,
        4.766398118347632e-08, -6.144908053859636e-08, 5.970309195098687e-08,
        -4.872201332271e-08, 3.3237791792910076e-08,
    ),
    (
        -5.593028426633125e-09, -3.0004167792243114e-09, 1.5395479921798448e-08,
    ),
)
_RS_K = len(_RS_COEF) - 1
_RS_WIDTH = max(map(len, _RS_COEF))
# row k: the coefficients of C_k in powers of z^2, zero-padded to _RS_WIDTH
_RS_MATRIX = np.array([row + (0.0,) * (_RS_WIDTH - len(row)) for row in _RS_COEF])
_RS_BLOCK = 512  # points per column block of the correction tables (0.26 MB)
# |Z - Z_K| <= _RS_TAIL a^-(K + 3/2): twice a^(-1/2) times the truncation
# bound 3 c Gamma((K+1)/2) (2a)^-(K+1), c = 3/(sqrt(2) pi), that mpmath's
# rszeta uses at sigma = 1/2 (Arias de Reyna 2011).  The bound is proven only
# where 3(K+1) < 2a^2/25, i.e. t > 4948 for K = 20 (mpmath refuses below it);
# from RS_CROSSOVER up to there the estimate is empirical, backed by
# tests/test_specfun.py::TestHardyZ::test_vs_siegelz_and_error_honesty (409
# mpmath values on [RS_CROSSOVER, 5000], each error at most 1/4 of it)
_RS_TAIL = (6.0 * 3.0 / (math.sqrt(2.0) * math.pi) * math.gamma((_RS_K + 1) / 2.0)
            / 2.0 ** (_RS_K + 1))
# lowest whole height from which the Z kernel's error estimate is never larger
# than the Euler-Maclaurin zeta estimate (default settings); tests/test_specfun.py
# and `tests/make_rs_table.py check` recompute it
RS_CROSSOVER = 104.0
# theta(t) - (t/2) ln(t/2pi) + t/2 + pi/8 = sum_k (1 - 2^(1-2k)) |B_2k| / (4k(2k-1) t^(2k-1))
_THETA_COEF = tuple(
    float((1 - Fraction(1, 2 ** (2 * k - 1))) * abs(_BERNOULLI[k - 1]) / (4 * k * (2 * k - 1)))
    for k in (1, 2, 3)
)
# Stirling's B_2k / (2k(2k-1)) for k = 1..4: with them, log|Gamma(1/4 + iy)| + pi y/2
# misses its value by at most 32 B_10/90 |s|^-9 (the sec^10(arg(s)/2) <= 32 bound
# of the remainder), under 1.1e-16 where y >= 40
_STIRLING_COEF = tuple(float(_BERNOULLI[k - 1] / (2 * k * (2 * k - 1))) for k in (1, 2, 3, 4))
_STIRLING_TAIL = 32.0 * float(_BERNOULLI[4] / 90)
# the phases are reduced in extended precision where numpy's longdouble has it
_LD_EPS = float(np.finfo(np.longdouble).eps)
_TWO_PI_LD = 8 * np.arctan(np.longdouble(1))
_PI_4_LD = _TWO_PI_LD / 8  # and eta's exponent log_weight - pi|t|/4 is formed there
_RS_CHUNK = 1 << 17  # (n, point) entries per block of the main sum


def _rs_split(t) -> tuple[np.ndarray, np.ndarray]:
    """a = sqrt(|t|/2pi) in longdouble and the main-sum length N = floor(a)."""
    a_ld = np.sqrt(np.abs(np.asarray(t, dtype=np.longdouble)) / _TWO_PI_LD)
    return a_ld, np.floor(a_ld)


def rs_length(t) -> np.ndarray:
    """Riemann-Siegel main-sum length at height t: the N that _hardy_z sums to."""
    return _rs_split(t)[1].astype(float)


def _rs_corrections(p: np.ndarray) -> np.ndarray:
    """C_0(p) ... C_K(p) as rows, z = 1 - 2p: the powers (z^2)^j as one
    multiply.accumulate table, one einsum with _RS_MATRIX, and the odd rows
    times z.  einsum (never BLAS) adds each entry's terms in order of j, with
    the same bits at any number of columns but one: a single column takes
    another inner loop, so callers pass at least two.
    """
    z = 1.0 - 2.0 * p
    powers = np.empty((_RS_WIDTH, p.size))
    powers[0] = 1.0
    np.multiply(z, z, out=powers[1:])
    np.multiply.accumulate(powers, out=powers)
    ck = np.einsum("kj,jn->kn", _RS_MATRIX, powers, optimize=False)
    ck[1::2] *= z
    return ck


def _rs_correction_sum(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k C_k(p) a^-k at each point, in a fixed number of numpy calls per
    column block of _RS_BLOCK points: the C_k table, a table of the powers
    a^-k, and one einsum over k, smallest term first.  A last block of one
    column starts one column early (every column has the same bits in any
    block), and a one-point call runs as two equal columns.
    """
    if p.size == 1:
        return _rs_correction_sum(np.repeat(p, 2), np.repeat(a, 2))[:1]
    total = np.empty(p.shape)
    for lo in range(0, p.size, _RS_BLOCK):
        cols = slice(min(lo, p.size - 2), lo + _RS_BLOCK)
        ck = _rs_corrections(p[cols])
        powers = np.empty(ck.shape)
        powers[0] = 1.0
        np.divide(1.0, a[cols], out=powers[1:])
        np.multiply.accumulate(powers, out=powers)
        total[cols] = np.einsum("kn,kn->n", ck[::-1], powers[::-1], optimize=False)
    return total


def _rs_main_sum(tl: np.ndarray, theta: np.ndarray, n_main: np.ndarray) -> np.ndarray:
    """2 sum_{n<=N} n^(-1/2) cos(theta - t ln n) at each point, N = n_main, each
    phase reduced mod 2pi in longdouble before the cosine.  The (n, point)
    table runs in blocks of _RS_CHUNK entries through three reused buffers
    (longdouble phase and turns, double term).  A point's terms are added left
    to right and its sum read at its own N: its value does not depend on its batch.
    """
    n_max = int(n_main.max())
    n = np.arange(1.0, n_max + 1.0)[:, None]
    log_n = np.log(n.astype(np.longdouble))
    weight = 2.0 / np.sqrt(n)
    last = n_main.astype(int) - 1
    main = np.empty(tl.shape)
    chunk = max(1, _RS_CHUNK // n_max)
    phase_buf = np.empty((n_max, min(chunk, tl.size)), dtype=np.longdouble)
    turns_buf = np.empty_like(phase_buf)
    terms_buf = np.empty(phase_buf.shape)
    for lo in range(0, tl.size, chunk):
        sl = slice(lo, lo + chunk)
        cols = np.arange(tl[sl].size)
        phase, turns, terms = (buf[:, :cols.size] for buf in (phase_buf, turns_buf, terms_buf))
        np.subtract(theta[sl], np.multiply(log_n, tl[sl], out=phase), out=phase)
        np.rint(np.divide(phase, _TWO_PI_LD, out=turns), out=turns)
        phase -= np.multiply(turns, _TWO_PI_LD, out=turns)
        np.copyto(terms, phase, casting="same_kind")
        np.cos(terms, out=terms)
        terms *= weight
        main[sl] = np.add.accumulate(terms, out=terms)[last[sl], cols]
    return main


def _hardy_z(
    t: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """Hardy's Z(t) for real t > 0 by Riemann-Siegel with C_0..C_K: (values, errors).

    Main sum (_rs_main_sum) to N = floor(a), a = sqrt(t/2pi), with theta from
    its Stirling series; AccuracyError names the first t whose N exceeds
    settings.max_terms.  The error estimate is the tail bound plus the
    rounding of the phases, of the sum and of the corrections.
    """
    tl = t.astype(np.longdouble)
    a_ld, n_main = _rs_split(tl)
    _require_budget(n_main, t, "Hardy Z: Riemann-Siegel main sum at t", settings)
    p = (a_ld - n_main).astype(float)
    a = a_ld.astype(float)
    stirling = (_THETA_COEF[0] + (_THETA_COEF[1] + _THETA_COEF[2] / t**2) / t**2) / t
    theta = tl * (np.log(a_ld) - 0.5) - _TWO_PI_LD / 16 + stirling
    main = _rs_main_sum(tl, theta, n_main)
    corr = _rs_correction_sum(p, a)
    nf = n_main.astype(float)
    sign = 1.0 - 2.0 * ((nf - 1.0) % 2.0)  # (-1)^(N-1)
    sqrt_a = np.sqrt(a)
    value = main + sign * corr / sqrt_a
    # rounding: each phase is off by a few longdouble ulps of |theta| + t ln n
    # before its reduction and by a few double ulps after it; the sum by N
    # double ulps of sum_{n<=N} 2 n^(-1/2) <= 4 sqrt(N)
    phase_err = 4.0 * _LD_EPS * (np.abs(theta.astype(float)) + t * np.log(nf)) + 2.0 * EPS
    err = (_RS_TAIL * a ** -(_RS_K + 1.5) + 4.0 * np.sqrt(nf) * (phase_err + nf * EPS)
           + 4.0 * EPS / sqrt_a)
    return value, err


# ---------------------------------------------------------------------------
# Completed zeta and the xi family
# ---------------------------------------------------------------------------

def _eta_em(s: np.ndarray, settings: EvalSettings, log_weight) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_weight) pi^(-s/2) Gamma(s/2) zeta(s) with zeta by Euler-Maclaurin."""
    zv, ze = zeta_vec(s, settings)
    half = s / 2
    lg, g_rel = _loggamma_vec(half)
    pref = np.exp(log_weight - half * LN_PI + lg)
    return pref * zv, np.abs(pref) * (ze + np.abs(zv) * g_rel)


def _log_gamma_line(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L = log|Gamma(1/4 + it/2)| + pi|t|/4 and an absolute bound on its error,
    from the real part of Stirling's series at s = 1/4 + iy, y = |t|/2:

        L = -ln(1/16 + y^2)/8 + y atan(1/(4y)) - 1/4 + ln(2pi)/2
            + Re sum_{k=1..4} B_2k / (2k(2k-1) s^(2k-1)).

    L is O(log t), so its rounding is a few eps (1 + ln(1/16 + y^2)/8); the
    series' truncation (_STIRLING_TAIL) stays inside that term for |t| >= 80.
    """
    y = 0.5 * np.abs(t)
    log_mod = np.log(y * y + 0.0625)
    inv = np.reciprocal(y * 1j + 0.25)
    inv_sq = np.multiply(inv, inv)
    series = np.multiply(inv_sq, _STIRLING_COEF[3])
    for c in _STIRLING_COEF[2:0:-1]:
        series += c
        series *= inv_sq
    series += _STIRLING_COEF[0]
    series *= inv
    lg = y * np.arctan(0.25 / y) - 0.125 * log_mod + series.real + (HALF_LN_2PI - 0.25)
    return lg, 4.0 * EPS * (1.0 + 0.125 * log_mod)


def _eta_rs(
    t: np.ndarray, log_weight, settings: EvalSettings = DEFAULT_SETTINGS
) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_weight) eta(1/2 + it) = exp(log_weight) pi^(-1/4) |Gamma(1/4 + it/2)| Z(|t|),
    real by construction: no Gamma phase enters.

    |Gamma| is exp(L - pi|t|/4) with L from _log_gamma_line; log_weight - pi|t|/4
    is formed in longdouble, so a weight near e^(pi|t|/4) leaves an exponent
    of O(log t) and a relative error of a few eps (1 + |exponent|).
    """
    abs_t = np.abs(t)
    zv, ze = _hardy_z(abs_t, settings)
    lg, lg_err = _log_gamma_line(abs_t)
    expo = (log_weight - _PI_4_LD * abs_t).astype(float) + (lg - 0.25 * LN_PI)
    pref = np.exp(expo)
    g_rel = lg_err + EPS * (3.0 + np.abs(expo)) + _LD_EPS * (np.abs(log_weight) + abs_t)
    return pref * zv, pref * (ze + np.abs(zv) * g_rel)


def _eta_vec(
    s: np.ndarray, settings: EvalSettings = DEFAULT_SETTINGS, log_weight=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_weight) pi^(-s/2) Gamma(s/2) zeta(s), elementwise: (values, errors).

    The log-weight enters the exponent first: a weight exp(alpha t) that grows
    while eta decays like exp(-pi|t|/4) on the line never meets it as 0 * inf.
    Points on the critical line at |t| >= RS_CROSSOVER take the Hardy Z
    kernel; every other point takes Euler-Maclaurin zeta.  Each kernel
    refuses a point whose sum needs more than settings.max_terms terms.
    """
    s = np.asarray(s, dtype=complex)
    rs = np.abs(s.imag) >= RS_CROSSOVER
    if rs.any():
        rs &= s.real == 0.5
        if rs.any():
            lw = np.broadcast_to(log_weight, s.shape)
            vals = np.empty(s.shape, dtype=complex)
            errs = np.empty(s.shape)
            vals[rs], errs[rs] = _eta_rs(s.imag[rs], lw[rs], settings)
            em = ~rs
            if em.any():
                vals[em], errs[em] = _eta_em(s[em], settings, lw[em])
            return vals, errs
    vals, errs = _eta_em(s, settings, log_weight)
    return np.asarray(vals), np.asarray(errs)  # 0-d arrays for 0-d input, not scalars


def eta_completed(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """pi^(-s/2) Gamma(s/2) zeta(s); meromorphic with poles at 0 and 1."""
    s = complex(s)
    require_finite(s, "eta_completed argument")
    if s == 0 or s == 1:
        raise PoleError(f"completed zeta has a pole at s={s}")
    v, e = _eta_vec(np.array([s]), settings)
    return checked_value(v[0], e[0], f"eta_completed({s})")


def _xi_vec(s: np.ndarray, settings: EvalSettings) -> tuple[np.ndarray, np.ndarray]:
    """xi = (1/2) s (s-1) eta off s = 0, 1; the bound adds the product's rounding."""
    ev, ee = _eta_vec(s, settings)
    ev *= 0.5 * s * (s - 1.0)  # in place: 0-d input keeps 0-d arrays
    ee *= 0.5 * np.abs(s) * np.abs(s - 1.0)
    ee += 4 * EPS * np.abs(ev)
    return ev, ee


def xi_c(s: complex, settings: EvalSettings = DEFAULT_SETTINGS) -> ValueWithError:
    """Entire xi: (1/2) s (s-1) eta(s), with the removable points patched.

    A non-finite s raises EvaluationError.  Inside discs of radius 1e-8
    around s=0 and s=1 the exact limit 1/2 is returned; the reported error
    covers the neglected variation.
    """
    s = complex(s)
    require_finite(s, "xi_c argument")
    if abs(s) <= 1e-8 or abs(s - 1.0) <= 1e-8:
        return ValueWithError(0.5 + 0.0j, 2e-8)
    v, e = _xi_vec(np.array([s]), settings)
    return checked_value(v[0], e[0], f"xi_c({s})")


def _real_part_checked(v: ValueWithError, what: str) -> float:
    require_real(v.value.real, v.value.imag, lambda _: what)
    return v.value.real


def big_xi(t: float, settings: EvalSettings = DEFAULT_SETTINGS) -> float:
    """Xi(t) = xi(1/2 + i t); real and even for real t."""
    return _real_part_checked(xi_c(complex(0.5, t), settings), f"big_xi({t})")


def rho_real(t: float, settings: EvalSettings = DEFAULT_SETTINGS) -> float:
    """eta(1/2 + i t); real-valued and even for real t."""
    return _real_part_checked(eta_completed(complex(0.5, t), settings), f"rho_real({t})")


# ---------------------------------------------------------------------------
# Confluent hypergeometric 1F1
# ---------------------------------------------------------------------------

def hyp1f1(
    a: complex, b: complex, w: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> ValueWithError:
    """Kummer's 1F1(a; b; w): hyp1f1_vec at one point."""
    a, b, w = complex(a), complex(b), complex(w)
    for name, x in (("a", a), ("b", b), ("w", w)):
        require_finite(x, f"hyp1f1 parameter {name}")
    v, e = hyp1f1_vec(np.array([a]), b, w, settings)
    return checked_value(v[0], e[0], f"hyp1f1({a}; {complex(b)}; {complex(w)})")


_HYP1F1_REL_TOL = 1e-12  # an entry stops after two terms below this share of its sum
_HYP1F1_BLOCK = 8  # terms per stopping test
_HYP1F1_CHUNK = 1 << 10  # points per column block of the term tables (0.7 MB)
_HYP1F1_ROW = np.arange(_HYP1F1_BLOCK)[:, None]  # row k of a table holds term n0 + k


def hyp1f1_vec(
    a: np.ndarray,
    b: complex,
    w: complex,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised 1F1 over an array of a-parameters of any shape (fixed b and w).

    The series runs over column blocks of _HYP1F1_CHUNK points (_hyp1f1_columns).
    Each entry stops at the same term as a term-by-term loop would, so values
    do not depend on fellow array members.  DivergenceError counts the entries
    still open after settings.max_terms terms.
    """
    a = np.asarray(a, dtype=complex)
    shape, a = a.shape, a.ravel()
    b, w = complex(b), complex(w)
    if _is_nonpositive_int(b):
        raise ParameterError(f"1F1 undefined for b={b} (nonpositive integer)")
    if w == 0:
        return np.ones(shape, dtype=complex), np.zeros(shape)
    vals = np.empty(a.shape, dtype=complex)
    errs = np.empty(a.shape)
    unconverged = sum(
        _hyp1f1_columns(a[lo:lo + _HYP1F1_CHUNK], b, w, settings.max_terms,
                        vals[lo:lo + _HYP1F1_CHUNK], errs[lo:lo + _HYP1F1_CHUNK])
        for lo in range(0, a.size, _HYP1F1_CHUNK)
    )
    if unconverged:
        raise DivergenceError(
            f"1F1 series: {unconverged} points unconverged after {settings.max_terms} terms"
        )
    return vals.reshape(shape), errs.reshape(shape)


def _hyp1f1_columns(
    a: np.ndarray, b: complex, w: complex, max_terms: int, vals: np.ndarray, errs: np.ndarray
) -> int:
    """Sum 1F1(a; b; w) at the points a into the views vals and errs; returns
    how many points are still open after max_terms terms.

    Terms n come in (n, point) tables of _HYP1F1_BLOCK rows, each
    (term * (a + n)) * (w / ((b + n)(n + 1))): two explicit np.multiply calls
    into fresh rows in that order (complex multiply is not bitwise
    commutative), then one np.add into the running-sum row.  Once per table a
    point stops at the second of two consecutive terms of at most 1e-12 of its
    sum (the streak carries across tables), and its sum, last term and largest
    partial sum are read at that term.  Open points move on to the next table;
    EvaluationError names the first a whose term or partial sum is not finite.
    """
    cols = np.arange(a.size)  # where each open point's result goes
    term = acc = np.ones(a.size, dtype=complex)
    max_partial = np.ones(a.size)
    streak = np.zeros(a.size, dtype=bool)  # the open point's last term was small
    for n0 in range(0, max_terms, _HYP1F1_BLOCK):
        row = _HYP1F1_ROW[:max_terms - n0]
        k_rows, p = row.size, a.size
        a_plus_n = np.add(a, row + n0)
        terms, sums = np.empty_like(a_plus_n), np.empty_like(a_plus_n)
        for k in range(k_rows):
            n = n0 + k
            term = np.multiply(np.multiply(term, a_plus_n[k]), w / ((b + n) * (n + 1)),
                               out=terms[k])
            acc = np.add(acc, term, out=sums[k])
        mags, size = np.abs(terms), np.abs(sums)
        small = mags <= _HYP1F1_REL_TOL * np.maximum(size, 1e-300)
        done = np.empty_like(small)  # the second small term in a row
        np.logical_and(small[0], streak, out=done[0])
        np.logical_and(small[1:], small[:-1], out=done[1:])
        stop = np.where(done, row, k_rows).min(axis=0)  # k_rows: still open
        hit = stop < k_rows
        at = np.minimum(stop, k_rows - 1), np.arange(p)
        # a non-finite term or sum leaves every later sum non-finite, so the
        # stopping row (or the last row of an open point) shows it
        finite = np.isfinite(size[at])
        if not finite.all():
            raise EvaluationError(f"1F1 series: non-finite term or partial sum at "
                                  f"a={complex(a[np.argmin(finite)])!r} by term {n0 + k_rows}")
        upto = np.maximum.reduce(size, axis=0, where=row <= stop, initial=0.0)
        np.maximum(max_partial, upto, out=max_partial)
        if hit.any():
            out = cols[hit]
            vals[out] = sums[at][hit]
            errs[out] = 2.0 * mags[at][hit] + 16.0 * EPS * max_partial[hit]
            if out.size == p:
                return 0
            keep = ~hit
            cols, a, max_partial = cols[keep], a[keep], max_partial[keep]
            term, acc, streak = terms[-1, keep], sums[-1, keep], small[-1, keep]
        else:
            streak = small[-1]
    return cols.size


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
    ev, ee = _xi_vec(0.5 + 1j * np.asarray(tau, dtype=float), settings)
    return ev.real, ee


def eta_weighted_line(
    t: np.ndarray,
    alpha: float,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """exp(alpha t) * rho(t), with alpha t as the eta kernel's log-weight.

    rho decays like exp(-pi|t|/4) while exp(alpha t) grows; fusing the
    exponents avoids 0 * inf far out on the line.  Returns (values, errors).
    """
    t = np.asarray(t, dtype=float)
    vals, errs = _eta_vec(0.5 + 1j * t, settings, alpha * t)
    return vals.real, errs
