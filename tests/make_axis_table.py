"""Regenerate the frozen near-axis term references behind tests/test_theta.py.

At x = i + delta the modular transformation gives

    psi(i + delta, z) = -1/2 + T_4 - T_1,
    T_s = delta^(-1/2) e^(-(z^2/4)(1 + i/delta)) psi(1/(s delta), i z sqrt(1 + i/delta)),

with psi(x, z) = sum_{n>=1} e^(-pi n^2 x) cos(sqrt(pi x) n z).  Here each
T_s is summed at 40 digits from that definition: the prefactor and the cosine
are evaluated apart, as the library never does, and the sum runs until the
log-majorant of the next term is 110 below the largest term's.  The sample is
z in {0.5+0.2i, 1+0.5i, 0.6+0.3i, 1.2-0.1i} x delta in {2, 0.2, 0.05, 0.01,
10^-3}.  Each term is stored as its nearest double, which is 0 for four
terms below the double range.

Usage (mpmath is a test dependency only; the library never imports it):

    python tests/make_axis_table.py         # the AXIS_TERMS literal for _oracles
    python tests/make_axis_table.py check   # exit 1 unless _oracles.AXIS_TERMS is
                                            # what this script derives
"""

from __future__ import annotations

import sys

import mpmath

DPS = 40
ZS = (0.5 + 0.2j, 1.0 + 0.5j, 0.6 + 0.3j, 1.2 - 0.1j)
DELTAS = (2.0, 0.2, 0.05, 0.01, 1e-3)
SCALES = (4, 1)


def term_mp(mp, z, delta, s):
    """T_s at the mpc z and mpf delta."""
    x = 1 / (s * delta)
    root = mp.sqrt(1 + mp.mpc(0, 1) / delta)
    w = mp.sqrt(mp.pi * x) * mp.mpc(0, 1) * z * root
    decay, grow = mp.pi * x, abs(mp.im(w))
    peak = mp.floor(grow / (2 * decay)) + 1  # past it the majorant falls
    top = -decay * peak**2 + grow * peak
    terms, n = [], 1
    while n <= peak or -decay * n * n + grow * n > top - 110:
        terms.append(mp.exp(-decay * n * n) * mp.cos(n * w))
        n += 1
    pref = mp.exp(-(z * z / 4) * (1 + mp.mpc(0, 1) / delta)) / mp.sqrt(delta)
    return pref * mp.fsum(terms)


def table():
    """{(z, delta): (T_4, T_1)} at the exact doubles."""
    mp = mpmath.mp
    with mp.workdps(DPS):
        return {(z, delta): tuple(complex(term_mp(mp, mp.mpc(z), mp.mpf(delta), s)) + 0j
                                  for s in SCALES)
                for z in ZS for delta in DELTAS}


def _print_table() -> None:
    print("AXIS_TERMS = {")
    for key, (t4, t1) in table().items():
        print(f"    {key!r}: (")
        print(f"        {t4!r},")
        print(f"        {t1!r},")
        print("    ),")
    print("}")


def _check() -> int:
    """0 if _oracles.AXIS_TERMS holds exactly the terms this script derives, else 1."""
    from _oracles import AXIS_TERMS

    derived = table()
    differ = [key for key in derived.keys() | AXIS_TERMS.keys()
              if derived.get(key) != AXIS_TERMS.get(key)]
    for key in differ:
        print(f"AXIS_TERMS{key!r} differs from the derived pair")
    print("mismatch" if differ else f"ok: {len(derived)} pairs (T_4, T_1)")
    return int(bool(differ))


if __name__ == "__main__":
    if sys.argv[1:] == ["check"]:
        sys.exit(_check())
    else:
        _print_table()
