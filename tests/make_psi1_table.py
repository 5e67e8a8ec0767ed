"""Regenerate the frozen psi1 jet references behind tests/test_theta.py.

psi1 is the shifted theta combination

    psi1(alpha) = e^((i/2 - lam) alpha) ( e^(-z^2/8)/2
                  + e^(z^2/8) sum_{n>=1} e^(-pi n^2 e^(2 i alpha)) cos(sqrt(pi) e^(i alpha) n z) ).

Here it is summed directly, with no modular transformation, with enough
terms that the dropped tail of every alpha-derivative through order 4 is
below 10^-45; mpmath's `diffs` then gives orders 0..4.  Near alpha = pi/4 the
direct sum cancels: its largest terms reach 10^67 at pi/4 - 10^-4 and
z = 0.4 + 0.1i.  Each (alpha, z) is summed at 40 digits plus the digits that
the largest term's majorant puts above 1 (_digits: 108 there, 41 to 47
elsewhere), so the result keeps 40.  The sample covers all of the library's
routes: -0.5 <= alpha <= pi/4 - 0.1 takes the direct sum, pi/4 - 0.01,
pi/4 - 10^-3 and pi/4 - 10^-4 (the last of the `limits` samples) the
transformed one, and -0.78 its mirror image.

Usage (mpmath is a test dependency only; the library never imports it):

    python tests/make_psi1_table.py         # the PSI1_JETS literal for _oracles
    python tests/make_psi1_table.py check   # exit 1 unless _oracles.PSI1_JETS is
                                            # what this script derives
"""

from __future__ import annotations

import math
import sys

import mpmath

DPS = 40
ALPHAS = (0.0, 0.3, 0.6, math.pi / 4 - 0.1, math.pi / 4 - 0.01, math.pi / 4 - 1e-3,
          math.pi / 4 - 1e-4, -0.5, -0.78)
ZS = (0.4 + 0.1j, -0.3 + 0.35j)
LAMS = (0.0, 0.45)
ORDER = 4


def _terms(mp, alpha, z) -> int:
    """Terms after which |n-th term| * (n-th derivative growth) < 10^-45:
    the log-majorant is -pi n^2 cos(2 alpha) + n |Im(sqrt(pi) e^(i alpha) z)|."""
    decay = math.pi * math.cos(2.0 * alpha)
    grow = abs((math.sqrt(math.pi) * complex(math.cos(alpha), math.sin(alpha)) * z).imag)
    floor = -45 * math.log(10.0)
    n = 1
    while n * decay <= grow or -decay * n * n + grow * n + 4 * math.log(40.0 * n * n) >= floor:
        n += 1
    return n


def _digits(alpha, z) -> int:
    """Working digits: DPS plus the decimal digits that the direct sum's
    largest term majorant, max_n e^(-decay n^2 + grow n) = e^(grow^2 / (4
    decay)), puts above the sum's O(1) size, as the cancellation loses them."""
    decay = math.pi * math.cos(2.0 * alpha)
    grow = abs((math.sqrt(math.pi) * complex(math.cos(alpha), math.sin(alpha)) * z).imag)
    return DPS + math.ceil(grow * grow / (4.0 * decay) / math.log(10.0))


def psi1_mp(mp, alpha, z, lam, terms):
    """psi1 at the mpf alpha by the direct sum of `terms` terms."""
    u = mp.expj(alpha)
    x = u * u
    w = mp.sqrt(mp.pi) * u * z
    theta = mp.fsum(mp.exp(-mp.pi * n * n * x) * mp.cos(n * w) for n in range(1, terms + 1))
    e8 = mp.exp(z * z / 8)
    return mp.exp((mp.mpc(0, 0.5) - lam) * alpha) * (1 / (2 * e8) + e8 * theta)


def table():
    """{(alpha, z, lam): (d^0 .. d^4 psi1 / d alpha^k)} at the exact doubles."""
    mp = mpmath.mp
    out = {}
    for alpha in ALPHAS:
        for z in ZS:
            terms = _terms(mp, alpha, z)
            with mp.workdps(_digits(alpha, z)):
                for lam in LAMS:
                    f = lambda a: psi1_mp(mp, a, mp.mpc(z), mp.mpf(lam), terms)  # noqa: E731
                    derivs = list(mp.diffs(f, mp.mpf(alpha), ORDER))
                    out[alpha, z, lam] = tuple(complex(d) for d in derivs)
    return out


def _print_table() -> None:
    print("PSI1_JETS = {")
    for (alpha, z, lam), derivs in table().items():
        print(f"    ({alpha!r}, {z!r}, {lam!r}): (")
        for d in derivs:
            print(f"        {d!r},")
        print("    ),")
    print("}")


def _check() -> int:
    """0 if _oracles.PSI1_JETS holds exactly the jets this script derives, else 1."""
    from _oracles import PSI1_JETS

    derived = table()
    differ = [key for key in derived.keys() | PSI1_JETS.keys()
              if derived.get(key) != PSI1_JETS.get(key)]
    for key in differ:
        print(f"PSI1_JETS{key!r} differs from the derived jet")
    print("mismatch" if differ else f"ok: {len(derived)} jets, orders 0..{ORDER}")
    return int(bool(differ))


if __name__ == "__main__":
    if sys.argv[1:] == ["check"]:
        sys.exit(_check())
    else:
        _print_table()
