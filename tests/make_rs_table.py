"""Regenerate the Riemann-Siegel tables behind xishift.specfun's Hardy Z kernel.

Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it) has the Riemann-Siegel form

    Z(t) = 2 sum_{n<=N} n^(-1/2) cos(theta(t) - t ln n)
           + (-1)^(N-1) a^(-1/2) sum_{k=0}^{K} C_k(p) a^(-k) + R_K(t),

a = sqrt(t/2pi), N = floor(a), p = a - N.  The corrections C_k are derived
here from the expansion of Arias de Reyna (Math. Comp. 80 (2011); the
recursion of part II, section 3.17, at sigma = 1/2) built on the Taylor
coefficients of

    F(z) = (e^(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2)) / (2 cos(pi z))

that mpmath's rszeta.coef computes.  That expansion reads

    Z(t) - main sum = (-1)^(N-1) a^(-1/2) 2 Re(e^(i delta) sum_k a^(-k) R_k(z)),
    R_k(z) = sum_l d_{k,l} F^(3k-2l)(z) / (pi^(2k-l) (2i)^l),   z = 1 - 2p,

with delta = theta(t) - (t/2) ln(t/2pi) + t/2 + pi/8, a series in a^(-2).
Expanding e^(i delta) and collecting powers of a gives the classical (Gabcke)
corrections C_k(z) = 2 Re sum_{2m<=k} e_m R_{k-2m}(z): C_0 = Psi(p),
C_1 = -Psi'''(p)/(96 pi^2), and so on.  C_k has the parity of k in z, so a row
of the table holds the coefficients of z^(k mod 2) * z^(2j), j = 0, 1, ...,
rounded to the nearest double.  The kernel weighs C_k by a^-k with a >= 4 (t
above 2 pi 16 ~ 100.5, below its crossover), so row k is cut where its dropped
tail times 4^-k is below 1e-19.

K_MAX = 20 puts the kernel's crossover (specfun.RS_CROSSOVER: the lowest whole
height from which its Z error estimate is never larger than the
Euler-Maclaurin one) at t = 104; Gabcke's (1979) C_0..C_10 put it at 495.

Usage (mpmath is a test dependency only; the library never imports it):

    python tests/make_rs_table.py                         # the _RS_COEF literal for specfun
    PYTHONPATH=src python tests/make_rs_table.py check    # exit 1 unless specfun's table,
                                                          # crossover and cut height agree
    PYTHONPATH=src python tests/make_rs_table.py oracles  # the Gamma factor, siegelz and
                                                          # zetazero tables
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
from mpmath.functions.rszeta import coef

K_MAX = 20  # C_0 ... C_20; Gabcke's (1979) tables stop at C_10
DPS = 80
# F's Taylor series through degree ~2 * (TAYLOR_J + 2); the K_MAX = 20 rows are
# the same at 60, 70, 90 and 120 (and differ at 50)
TAYLOR_J = 90
# row k is cut where its dropped tail times A_CUT^-k is below TAIL_CUT
TAIL_CUT = 1e-19
A_CUT = 4.0


def _taylor_f(mp):
    """Taylor coefficients of F about z = 0 (odd ones vanish)."""
    c, _ = coef(mp, TAYLOR_J, mp.mpf(2) ** (-3 * DPS - 20))
    return [mp.mpc(c[n]) for n in range(max(c) + 1)]


def _d_table(mp, k_max):
    """d_{k,l} of Arias de Reyna's recursion at sigma = 1/2 (no derivatives)."""
    d = {(0, 0): mp.mpf(1)}
    get = lambda n, k: d.get((n, k), mp.mpf(0))  # noqa: E731
    for n in range(1, k_max + 1):
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                d[n, k] = -(m + 1) * get(n - 1, k - 2) + get(n - 1, k) / (4 * m)
            else:
                d[n, k] = -sum(
                    (-1) ** (k - r) * get(n, r) * mp.fac(2 * k - 2 * r) / mp.fac(k - r)
                    for r in range(k)
                )
    return get


def _theta_phase_series(mp, terms):
    """e_m with e^(i delta) = sum_m e_m a^(-2m), from the Stirling series
    delta = sum_j (1 - 2^(1-2j)) |B_2j| / (4j (2j-1) t^(2j-1)), t = 2 pi a^2."""
    delta = [mp.mpf(0)] * (terms + 1)
    for j in range(1, terms + 1):
        if 2 * j - 1 > terms:
            break
        b = (1 - mp.mpf(2) ** (1 - 2 * j)) * abs(mp.bernoulli(2 * j)) / (4 * j * (2 * j - 1))
        delta[2 * j - 1] = b * (2 * mp.pi) ** (1 - 2 * j)
    e = [mp.mpc(1)] + [mp.mpc(0)] * terms
    for n in range(1, terms + 1):  # E' = i delta' E
        e[n] = sum(1j * k * delta[k] * e[n - k] for k in range(1, n + 1)) / n
    return e


def correction_polys(k_max: int = K_MAX):
    """C_0 ... C_k_max as mpf coefficient lists in powers of z = 1 - 2p."""
    mp = mpmath.mp
    with mp.workdps(DPS):
        f = _taylor_f(mp)
        d = _d_table(mp, k_max)
        length = len(f) - 3 * K_MAX

        def deriv(j):
            return [f[n + j] * mp.fac(n + j) / mp.fac(n) for n in range(length)]

        r = []
        for k in range(k_max + 1):
            acc = [mp.mpc(0)] * length
            for ell in range(3 * k // 2 + 1):
                if d(k, ell) == 0:
                    continue
                scale = d(k, ell) / (mp.pi ** (2 * k - ell) * (2j) ** ell)
                for n, v in enumerate(deriv(3 * k - 2 * ell)):
                    acc[n] += scale * v
            r.append(acc)
        e = _theta_phase_series(mp, k_max // 2)
        polys = []
        for k in range(k_max + 1):
            polys.append([
                2 * mp.re(sum(e[m] * r[k - 2 * m][n] for m in range(k // 2 + 1)))
                for n in range(length)
            ])
        return polys


def table_rows(k_max: int = K_MAX) -> tuple[tuple[float, ...], ...]:
    """The frozen table: row k holds C_k's coefficients of z^(k mod 2 + 2j)."""
    rows = []
    for k, poly in enumerate(correction_polys(k_max)):
        row = [float(x) for x in poly[k % 2::2]]
        dropped, cut = 0.0, TAIL_CUT * A_CUT**k
        while len(row) > 1 and dropped + abs(row[-1]) < cut:
            dropped += abs(row.pop())
        rows.append(tuple(row))
    return tuple(rows)


def _print_table() -> None:
    print("_RS_COEF = (")
    for row in table_rows():
        print("    (")
        for i in range(0, len(row), 3):
            print("        " + " ".join(f"{x!r}," for x in row[i:i + 3]))
        print("    ),")
    print(")")


def crossover(specfun) -> float:
    """The lowest whole height in [40, 3000] from which specfun's Z error
    estimate is never larger than its Euler-Maclaurin zeta estimate."""
    ts = np.arange(40.0, 3001.0)
    _, em = specfun.zeta_vec(0.5 + 1j * ts)
    _, rs = specfun._hardy_z(ts)
    lose = np.flatnonzero(rs > em)
    return float(ts[lose[-1] + 1]) if lose.size else float(ts[0])


def _check() -> int:
    """0 if specfun's table and crossover are what this script derives, else 1."""
    from xishift import specfun

    rows = table_rows()
    differ = [k for k in range(max(len(rows), len(specfun._RS_COEF)))
              if rows[k:k + 1] != specfun._RS_COEF[k:k + 1]]
    failed = bool(differ)
    if differ:
        print(f"rows {differ} of specfun._RS_COEF differ from the derived C_0..C_{K_MAX}")
    height = crossover(specfun)
    if height != specfun.RS_CROSSOVER:
        print(f"specfun.RS_CROSSOVER = {specfun.RS_CROSSOVER:g}, the rule gives {height:g}")
        failed = True
    if specfun.RS_CROSSOVER < 2.0 * math.pi * A_CUT**2:
        print(f"the rows are cut for a >= {A_CUT:g}, below RS_CROSSOVER = {specfun.RS_CROSSOVER:g}")
        failed = True
    print("mismatch" if failed else f"ok: C_0..C_{len(rows) - 1}, crossover {height:g}")
    return int(failed)


def siegel_heights(lo: float) -> list[float]:
    """Oracle heights: a grid of [lo, 5000] with lo in it, each t = 2 pi n^2 there
    (a = sqrt(t/2pi) at a whole number, where N steps) and a hair below it
    (p -> 1), and a few heights up to 1e5."""
    grid = [round(float(t), 4) for t in np.linspace(lo, 5000.0, 361)]
    whole = [2.0 * math.pi * n * n for n in range(math.ceil(math.sqrt(lo / (2.0 * math.pi))), 29)]
    below = [t * (1.0 - 1e-12) for t in whole]
    high = [2.0 * math.pi * 900 - 1e-9, 6543.21, 10000.0, 23456.7, 50000.0, 77777.7, 100000.0]
    return sorted(set(grid + whole + below + high))


def gamma_heights(lo: float) -> list[float]:
    """Heights for the Gamma factor's oracle: lo, a geometric grid of [lo, 1e5]
    and a few between, positive, and the negatives of a second grid inside it."""
    grid = [round(float(t), 4) for t in np.geomspace(lo, 1e5, 21)]
    between = [300.5, 1000.3, 4999.7]
    below = [-round(float(t), 4) for t in np.geomspace(1.03 * lo, 0.97e5, 20)]
    return sorted(set(grid + between + below))


def _print_gamma_line(lo: float) -> None:
    """log|Gamma(1/4 + it/2)| + pi|t|/4, at 40 digits: every digit of the O(log t)
    value survives the cancellation of the two O(t) terms."""
    with mpmath.workdps(40):
        items = [
            f"{t!r}: {float(mpmath.re(mpmath.loggamma(0.25 + 0.5j * mpmath.mpf(t))) + mpmath.pi * abs(t) / 4)!r},"
            for t in gamma_heights(lo)
        ]
    print("GAMMA_LINE_SCALED = {")
    for i in range(0, len(items), 2):
        print("    " + " ".join(items[i:i + 2]))
    print("}")


def _print_oracles() -> None:
    from xishift.specfun import RS_CROSSOVER

    _print_gamma_line(RS_CROSSOVER)
    mpmath.mp.dps = 30
    items = [f"{t!r}: {float(mpmath.siegelz(t))!r}," for t in siegel_heights(RS_CROSSOVER)]
    print("SIEGEL_Z = {")
    for i in range(0, len(items), 2):
        print("    " + " ".join(items[i:i + 2]))
    print("}")
    lo, hi = RS_CROSSOVER, 860.0
    first, last = int(mpmath.nzeros(lo)) + 1, int(mpmath.nzeros(hi))
    print(f"# zeta zeros {first} .. {last}: mpmath.zetazero(n).imag, t in [{lo:g}, {hi:g}]")
    print(f"ZETA_ZEROS_FIRST_INDEX = {first}")
    print("ZETA_ZEROS_HIGH = (")
    zeros = [float(mpmath.zetazero(n).imag) for n in range(first, last + 1)]
    for i in range(0, len(zeros), 4):
        print("    " + " ".join(f"{x!r}," for x in zeros[i:i + 4]))
    print(")")


if __name__ == "__main__":
    if sys.argv[1:] == ["oracles"]:
        _print_oracles()
    elif sys.argv[1:] == ["check"]:
        sys.exit(_check())
    else:
        _print_table()
