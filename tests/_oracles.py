"""Independent oracles and frozen high-precision reference values.

The alternating-series zeta oracle and the brute-force theta sum are
implemented here from scratch so that library results are checked against a
different computational route.  The frozen tables were produced by a
50-digit computation before the library was written; they are nearest-double
renderings of the true values.
"""

from __future__ import annotations

import cmath
import math

# ---------------------------------------------------------------------------
# Route-independent oracles
# ---------------------------------------------------------------------------


def alternating_zeta(s: complex, terms: int = 64) -> complex:
    """zeta(s) from the alternating Dirichlet series with the
    Cohen-Rodriguez Villegas-Zagier acceleration (about 1.3 digits/term)."""
    s = complex(s)
    n = terms
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0 + 0.0j
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    eta_val = acc / d
    return eta_val / (1.0 - 2.0 ** (1.0 - s))


def compensated_hyp1f1(a: complex, b: complex, w: complex, rel_tol: float = 1e-12) -> complex:
    """1F1(a; b; w) by its Maclaurin series with Kahan-compensated summation,
    stopped after two consecutive terms below rel_tol * |partial sum|."""
    acc, comp, term, streak, n = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j, 0, 0
    while streak < 2:
        term = term * (a + n) * w / ((b + n) * (n + 1))
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        streak = streak + 1 if abs(term) <= rel_tol * max(abs(acc), 1e-300) else 0
        n += 1
    return acc


def direct_theta_sum(x: complex, z: complex, terms: int = 400) -> complex:
    """Brute-force sum of exp(-pi n^2 x) cos(sqrt(pi x) n z)."""
    x, z = complex(x), complex(z)
    w = cmath.sqrt(math.pi * x) * z
    acc = 0.0 + 0.0j
    for n in range(1, terms + 1):
        acc += cmath.exp(-math.pi * n * n * x) * cmath.cos(n * w)
    return acc


def euler_gamma_limit(s: complex, n: int = 400_000) -> complex:
    """Gamma via the Euler limit n! n^s / (s (s+1) ... (s+n)) in log space.

    Converges like O(1/n); good to ~1e-6 at n = 4e5, used as a sanity oracle
    next to the frozen 50-digit values.
    """
    s = complex(s)
    acc = s * math.log(n) - cmath.log(s)
    for k in range(1, n + 1):
        acc += math.log(k) - cmath.log(s + k)
    return cmath.exp(acc)


# ---------------------------------------------------------------------------
# Frozen 50-digit reference values (nearest double)
# ---------------------------------------------------------------------------

GAMMA_QUARTER = 3.625609908221908
ZETA_HALF = -1.4603545088095868
XI_HALF = 0.4971207781883141
PSI_ONE = 0.043217405606654005
PSI1_000 = 0.543217405606654
XI_INT_HARDY = 0.456782594393346
MOMENT_HARDY_A0 = -5.740099371335289
ZETA_ZEROS = (14.134725141734695, 21.022039638771556, 25.01085758014569)
# ordinates of zeta zeros 257..263, all of those in [480, 490]
# (mpmath.zetazero at 30 digits)
ZETA_ZEROS_480 = (481.8303393762866, 482.8347827909824, 483.8514272124825,
                  485.539148129356, 486.52871826165125, 488.38056709001745,
                  489.66176157795616)

# zeta(1/2 + it) high on the critical line (mpmath.zeta at 30 digits)
ZETA_LINE_HIGH = {
    101.5: complex(0.2770505973173966, 0.4863137224089815),
    1003.25: complex(0.04149439444585868, -0.038841918225480096),
    5007.5: complex(-0.027539531352820754, 0.03916277487644832),
    12003.75: complex(1.3187805757807411, -0.43292167341616056),
}

GAMMA_TABLE = {
    complex(0.25, 7.067): complex(2.31480615669624e-05, 1.8012238015295504e-06),
    complex(2.5, 30.0): complex(7.418010432131728e-18, -2.1809028456286174e-18),
    complex(-1.5, 2.0): complex(-0.0018843965411520958, 0.02093272198692183),
    complex(10.0, -40.0): complex(-9.319370349154888e-13, -2.1461951052926225e-12),
    complex(0.1, 0.3): complex(0.5686400382609745, -2.7668025190278325),
}

# Gamma far left of the imaginary axis, past 64 recurrence steps
# (mpmath.gamma at 40 digits)
GAMMA_FAR_LEFT = {
    complex(-100.3, 2.0): complex(2.9224799491420268e-161, 1.3401458197183591e-161),
    complex(-70.2, 1.0): complex(-4.5605528643881395e-102, 8.616466141868237e-102),
}

ZETA_TABLE = {
    complex(0.5, 14.0): complex(0.02224114260999359, -0.10325812326645006),
    complex(1.5, -30.0): complex(0.6908557315228129, 0.3671427473747212),
    complex(0.2, 3.0): complex(0.47596377439891335, -0.05465852979686736),
    complex(3.0, 77.0): complex(0.8574226721793935, -0.0020661370500805313),
    complex(-2.5, 10.0): complex(4.263590288889194, 1.4598166199175628),
    complex(0.9, 0.1): complex(-4.430066643279002, -4.9926221961694734),
    complex(0.5, 100.0): complex(2.692619885681324, -0.020386029602598162),
    complex(-11.0, 3.0): complex(-0.21774009165176098, -0.7669121690011694),
}

# zeta next to the trivial zeros -2 and -4, where sin(pi s/2) nearly
# vanishes (mpmath.zeta at 40 digits, at these exact doubles)
ZETA_NEAR_TRIVIAL = {
    -2.0 + 1e-9: -3.0448459610591665e-11,
    -2.0 + 1e-6: -3.0448489937660334e-08,
    -4.0000001: -7.983811185786921e-10,
}

HYP1F1_TABLE = {
    (complex(0.5), complex(0.5), complex(1.0)): complex(2.718281828459045, 0.0),
    (complex(0.3, 0.7), complex(0.5), complex(0.2, -0.4)):
        complex(1.81014687849308, -0.061731989188824235),
    (complex(-12.5, 30.0), complex(0.5), complex(0.03, 0.04)):
        complex(-0.8771049397924296, 0.16345371278535137),
    (complex(0.0, -750.0), complex(0.5), complex(0.0125, -0.03)):
        complex(-3.424847517023273, 0.9217561304524373),
    (complex(2.0, 3.0), complex(1.5), complex(-4.0, 1.0)):
        complex(0.02989556318673499, 0.3387824493220316),
}

THETA_TABLE = {
    (complex(1.0), complex(0.0)): complex(0.043217405606654005, 0.0),
    (complex(0.7), complex(0.0)): complex(0.11105254860380454, 0.0),
    (complex(10.0), complex(0.0)): complex(2.2711010683240937e-14, 0.0),
    (complex(1.25), complex(0.0)): complex(0.019703023688345096, 0.0),
    (complex(1.0), complex(1.0)): complex(-0.008658676249992095, 0.0),
    (complex(0.8, 0.1), complex(0.4, -0.2)):
        complex(0.0677897997286435, -0.007402681516743383),
    (complex(0.9, 0.3), complex(0.2, 0.0)):
        complex(0.03193335404873141, -0.04581790367955187),
}

# transform side values side(a, z): high-precision values of the integral
TRANSFORM_SIDE_TABLE = {
    (complex(1.0, 0.0), complex(0.0, 0.0)): complex(0.456782594393346, 0.0),
    (complex(1.1, 0.0), complex(0.3, 0.0)): complex(0.4516406641594455, 0.0),
    (complex(0.9, 0.0), complex(0.2, 0.1)): complex(0.45313671883687967, 0.0007779536567974551),
    (complex(1.4, 0.0), complex(-0.4, 0.05)): complex(0.412925198759521, 0.001812546702330907),
    (complex(0.7, 0.0), complex(0.0, 0.0)): complex(0.416366610297681, 0.0),
    (complex(0.9950041652780258, 0.09983341664682815), complex(0.3, 0.0)):
        complex(0.46069504703453484, -0.0018165513527262994),
    (complex(0.9800665778412416, 0.19866933079506122), complex(0.2, 0.1)):
        complex(0.4753525033686233, -0.0013746626679463452),
    (complex(0.9887710779360422, -0.14943813247359922), complex(-0.4, 0.05)):
        complex(0.46699498308257587, 0.005086251252608015),
    (complex(1.25, 0.0), complex(0.0, 0.0)): complex(0.4389604951013126, 0.0),
    (complex(0.55, 0.0), complex(0.3, 0.0)): complex(0.3749431304388392, 0.0),
    (complex(1.0, 0.0), complex(0.2, 0.1)): complex(0.45678661061427595, -1.37702217818259e-05),
    (complex(1.1, 0.0), complex(-0.4, 0.05)): complex(0.45035177213912325, 0.0007817201317546241),
    (complex(0.9, 0.0), complex(0.0, 0.0)): complex(0.4525411047978242, 0.0),
    (complex(1.4, 0.0), complex(0.3, 0.0)): complex(0.41598623301728793, 0.0),
    (complex(0.7, 0.0), complex(0.2, 0.1)): complex(0.4177534387430073, 0.0018513183736281248),
    (complex(0.9950041652780258, 0.09983341664682815), complex(-0.4, 0.05)):
        complex(0.45978846368962983, -0.0030951492586604092),
    (complex(0.9800665778412416, 0.19866933079506122), complex(0.0, 0.0)):
        complex(0.47354401559123954, 0.0),
    (complex(0.9887710779360422, -0.14943813247359922), complex(0.3, 0.0)):
        complex(0.46584719082834747, 0.0028506486728219795),
    (complex(1.25, 0.0), complex(0.2, 0.1)): complex(0.4378617690658925, -0.0014726509229837962),
    (complex(0.55, 0.0), complex(-0.4, 0.05)): complex(0.3780991225529157, -0.0018803149117171821),
}
