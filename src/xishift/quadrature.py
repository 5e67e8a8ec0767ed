"""Adaptive quadrature on embedded 7/15-point Gauss-Kronrod pairs.

The integrand is supplied in vectorised form (one call per refinement wave
evaluates all new panels' nodes at once).  Refinement pops the worst panels
by error estimate, ties broken by left endpoint, so the panel set -- and the
computed value -- is deterministic.  Panels whose error estimate sits at the
rounding floor of their own magnitude are accepted as is; oscillatory
integrands with heavy cancellation cannot do better in fixed precision.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["adaptive_gk", "GKOutcome", "truncation_point"]

# 15-point Kronrod nodes on [-1, 1] (nonnegative half) and weights; the
# embedded 7-point Gauss rule sits on nodes 1, 3, 5, 7.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])      # ascending, 15
_W_K = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_W_G = np.zeros(15)
_W_G[1:14:2] = np.concatenate([_WG[:3], _WG[3:4], _WG[2::-1]])

_ROUNDOFF_REL = 5e-15
_BATCH = 64  # panels split per refinement wave, one integrand call each


@dataclass
class GKOutcome:
    value: complex
    abs_err_est: float
    evaluations: int
    panels: int
    at_roundoff: bool


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate K15/G7 on a batch of panels; returns (K, err, magnitude)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    # real and imaginary parts are summed apart, so that a complex integrand
    # with zero imaginary part gives its real part's bits (numpy sums complex
    # rows in another order)
    k15 = ((vals.real * _W_K).sum(axis=1) + 1j * (vals.imag * _W_K).sum(axis=1)) * half
    g7 = ((vals.real * _W_G).sum(axis=1) + 1j * (vals.imag * _W_G).sum(axis=1)) * half
    resabs = (np.abs(vals) * _W_K[None, :]).sum(axis=1) * np.abs(half)
    return k15, np.abs(k15 - g7), resabs


def adaptive_gk(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    *,
    initial_panels: int = 8,
    max_panels: int = 40_000,
) -> GKOutcome:
    """Integrate f over [a, b] to absolute tolerance abs_tol.

    f maps an array of abscissae to (possibly complex) values.  Returns the
    Kronrod estimate with the summed panel error; at_roundoff marks panels
    whose refinement stalled at the floating-point floor.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = np.linspace(a, b, initial_panels + 1)
    k15, err, resabs = _eval_panels(f, edges[:-1], edges[1:])
    evaluations = 15 * initial_panels
    # heap of (-err, left, right, value); floored panels are kept aside
    heap = []
    floor_val = 0.0 + 0.0j
    floor_err = 0.0
    floor_cnt = 0
    for i in range(initial_panels):
        heapq.heappush(heap, (-float(err[i]), float(edges[i]), float(edges[i + 1]), complex(k15[i])))
    n_panels = initial_panels
    while True:
        live_err = sum(-e for e, *_ in heap)
        if live_err + floor_err <= abs_tol or not heap:
            break
        if n_panels >= max_panels:
            break
        n_split = min(_BATCH, len(heap), max(1, (max_panels - n_panels)))
        split = [heapq.heappop(heap) for _ in range(n_split)]
        lo = np.empty(2 * n_split)
        hi = np.empty(2 * n_split)
        for i, (_, left, right, _val) in enumerate(split):
            mid = 0.5 * (left + right)
            lo[2 * i], hi[2 * i] = left, mid
            lo[2 * i + 1], hi[2 * i + 1] = mid, right
        k15, err, resabs = _eval_panels(f, lo, hi)
        evaluations += 15 * 2 * n_split
        n_panels += n_split
        for i in range(2 * n_split):
            e = float(err[i])
            if e <= _ROUNDOFF_REL * float(resabs[i]) or (hi[i] - lo[i]) < 1e-12 * (b - a):
                floor_val += complex(k15[i])
                floor_err += e
                floor_cnt += 1
            else:
                heapq.heappush(heap, (-e, float(lo[i]), float(hi[i]), complex(k15[i])))
    total = floor_val + sum(v for *_, v in heap)
    total_err = floor_err + sum(-e for e, *_ in heap)
    return GKOutcome(
        value=complex(total),
        abs_err_est=float(total_err),
        evaluations=evaluations,
        panels=n_panels,
        at_roundoff=floor_cnt > 0 and total_err > abs_tol,
    )


def truncation_point(
    poly_pow: float, rate: float, sqrt_coef: float, target: float, floor: float
) -> float:
    """Point T >= floor where t^p exp(-rate*t + c*sqrt(t)) stays <= target.

    The majorant is unimodal; beyond t* = 2p/rate + (c/rate)^2 it is strictly
    decreasing (each derivative share drops below rate/2), so a monotone
    doubling-plus-bisection search is sound there.
    """
    if rate <= 0:
        raise ValueError("truncation majorant needs a positive decay rate")

    def g(t: float) -> float:
        expo = poly_pow * math.log(t) - rate * t + sqrt_coef * math.sqrt(t)
        return math.exp(min(expo, 700.0))

    t0 = max(floor, 2.0 * poly_pow / rate + (sqrt_coef / rate) ** 2 + 1.0)
    if g(t0) <= target:
        return t0
    lo, hi = t0, 2.0 * t0
    for _ in range(200):
        if g(hi) <= target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ValueError("majorant never drops below target; no truncation point")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) <= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi
