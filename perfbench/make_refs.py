"""Generate the zero references the scan workloads check against.

Run once with mpmath installed:

    python3 perfbench/make_refs.py

It writes perfbench/refs.json.  Nothing here imports xishift, so the
references come from an independent route:

* Hardy (z = 0, one shift): zeros from mpmath.zetazero, cross-checked
  against the Turing-method counts of mpmath.nzeros at every covered
  endpoint.
* Exhibit (c = [1, .5, .25], lam = [0, 1, 2], z = 0.5+0.25i): F_z on the
  critical line built from mpmath.zeta, loggamma and hyp1f1,

      F(t) = sum_j c_j rho(t + lam_j) * 2 Re 1F1((1 - 2i(t + lam_j))/4; 1/2; z^2/4),
      rho(tau) = pi^(-s/2) Gamma(s/2) zeta(s),  s = 1/2 + i tau,

  sampled on a grid four times finer than the benchmark's scan step, with
  every sign change refined by bisection.  mpmath's unbounded
  exponent range keeps F finite where doubles underflow (t > ~450).
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

DPS = 20
PER_UNIT = 200  # grid step 1/200; shifts are whole numbers of steps
BISECT_STEPS = 52  # one grid step / 2^52 ~ 1e-18
EXHIBIT = {"coefficients": [1.0, 0.5, 0.25], "shifts": [0.0, 1.0, 2.0],
           "z_re": 0.5, "z_im": 0.25}
# Covered ranges reach past the workloads' windows by more than one scan step
# so a seed-drawn grid offset never leaves them.
COVERED = [(0.0, 460.0), (480.0, 491.0), (1000.0, 1011.0)]
EXHIBIT_COVERED = [(0.0, 203.0), (480.0, 491.0), (1000.0, 1011.0)]


def hardy_refs() -> dict:
    zeros: list[float] = []
    counts: dict[str, int] = {}
    for lo, hi in COVERED:
        n_lo, n_hi = int(mp.nzeros(lo)) if lo > 0 else 0, int(mp.nzeros(hi))
        counts[repr(lo)], counts[repr(hi)] = n_lo, n_hi
        for n in range(n_lo + 1, n_hi + 1):
            zeros.append(float(mp.zetazero(n).imag))
    for lo, hi in COVERED:
        inside = sum(1 for t in zeros if lo < t <= hi)
        if inside != counts[repr(hi)] - counts[repr(lo)]:
            raise SystemExit(f"zetazero list disagrees with nzeros on [{lo}, {hi}]")
    return {"zeros": zeros, "covered": COVERED, "nzeros": counts}


def _g(tau, w):
    """rho(tau) * 2 Re 1F1((1 - 2 i tau)/4; 1/2; w): one shift's term."""
    s = mp.mpf(0.5) + 1j * tau
    rho = mp.re(mp.exp(-s / 2 * mp.log(mp.pi) + mp.loggamma(s / 2)) * mp.zeta(s))
    return rho * 2 * mp.re(mp.hyp1f1((1 - 2j * tau) / 4, mp.mpf(0.5), w))


def _bisect(f, lo, hi, f_lo) -> float:
    """Refine a sign change by bisection on the sign alone.

    F_z decays like e^(-pi t/4), so solvers that stop on a small |f| would
    stop at once far up the line; the sign carries no scale.
    """
    for _ in range(BISECT_STEPS):
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0:
            return float(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def exhibit_refs() -> dict:
    cs = [mp.mpf(c) for c in EXHIBIT["coefficients"]]
    lams = [int(x) for x in EXHIBIT["shifts"]]
    w = mp.mpc(EXHIBIT["z_re"], EXHIBIT["z_im"]) ** 2 / 4

    def f(t):
        return sum(c * _g(t + lam, w) for c, lam in zip(cs, lams))

    zeros: list[float] = []
    for lo, hi in EXHIBIT_COVERED:
        k_lo, k_hi = int(lo * PER_UNIT), int(hi * PER_UNIT)
        # g on the tau grid once; F at t_k sums shifted grid entries
        g = [_g(mp.mpf(k) / PER_UNIT, w) for k in range(k_lo, k_hi + PER_UNIT * max(lams) + 1)]
        fs = [sum(c * g[i + PER_UNIT * lam] for c, lam in zip(cs, lams))
              for i in range(k_hi - k_lo + 1)]
        for i in range(len(fs) - 1):
            if fs[i] == 0:
                zeros.append(float(mp.mpf(k_lo + i) / PER_UNIT))
            elif fs[i] * fs[i + 1] < 0:
                zeros.append(_bisect(f, mp.mpf(k_lo + i) / PER_UNIT,
                                     mp.mpf(k_lo + i + 1) / PER_UNIT, fs[i]))
    return {"config": EXHIBIT, "zeros": zeros, "covered": EXHIBIT_COVERED,
            "grid_step": 1.0 / PER_UNIT}


def main() -> None:
    mp.mp.dps = DPS
    refs = {
        "generator": "perfbench/make_refs.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "hardy": hardy_refs(),
        "exhibit": exhibit_refs(),
    }
    out = Path(__file__).with_name("refs.json")
    out.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {out}: {len(refs['hardy']['zeros'])} Hardy zeros, "
          f"{len(refs['exhibit']['zeros'])} exhibit zeros")


if __name__ == "__main__":
    main()
