"""Quadrature for the critical-line integrals, and the truncation point.

nested_trapezoid is the rule every line integral runs on.  Its integrands
decay exponentially along the real axis and are analytic in a strip about
it, so the trapezoidal rule on a uniform grid converges geometrically in
1/h (Trefethen and Weideman, SIAM Review 56, 2014), at a rate set by the
nearest singularity.  Simple poles of known residue are taken off each
level's sum in closed form, so they do not set that rate.  Each grid is
anchored at 0 with h = 2^(-k), so its nodes are exact and shared by any
range that holds them; each level evaluates only the odd multiples of its
h, in blocks of at most _BLOCK nodes, so the memory held by the kernels
does not grow with the grid.  The rule never stops before level 1, so
levels 0 and 1 go to the kernels together, and each level's sums are then
taken over its own share of the values.  The level difference d_k gives
the estimate d_k^2 / d_(k-1); an end term, the integrand's own error bound
and the rounding of the sums are added to it, so an estimate never claims
less than the values allow.

adaptive_gk, on embedded 7/15-point Gauss-Kronrod pairs, has no caller in
the package; it stays as an independent reference for the tests.  Its
refinement pops the worst panels by error estimate, ties broken by left
endpoint, so the panel set -- and the computed value -- is deterministic.
Panels whose error estimate sits at the rounding floor of their own
magnitude are accepted as is.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "adaptive_gk", "GKOutcome", "nested_trapezoid", "TrapezoidOutcome", "truncation_point",
]

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


_BLOCK = 2048  # nodes per integrand call; the line kernels are batch-independent
_MAX_NODES = 1 << 19  # no level is added past this many nodes in all
_ROUNDING = float(np.finfo(float).eps)  # rounding floor, as a share of h * sum |f|


@dataclass
class TrapezoidOutcome:
    value: complex
    abs_err_est: float
    evaluations: int
    levels: int
    at_roundoff: bool


def _evaluate(f, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f's (values, error bounds) on the nodes x, in blocks of _BLOCK nodes."""
    parts = [f(x[i:i + _BLOCK]) for i in range(0, x.size, _BLOCK)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([e for _, e in parts])


def _pole_terms(poles, h: float) -> complex:
    """The share of f's simple poles (tau_p, R) in h sum_j f(jh), summed over
    the whole grid, beyond the integral of f: 2 pi i R q/(1 - q) with
    q = e^(2 pi i tau_p/h) for a pole above the real axis, and
    -2 pi i R q'/(1 - q') with q' = e^(-2 pi i tau_p/h) for one below.
    They come from the residues of f (pi/h) cot(pi tau/h) at the poles;
    |q| = e^(-2 pi |Im tau_p|/h)."""
    total = 0.0
    for tau, res in poles:
        sign = 1.0 if tau.imag > 0.0 else -1.0
        q = cmath.exp(sign * 2j * math.pi * tau / h)
        total += sign * 2j * math.pi * res * q / (1.0 - q)
    return total


def _level(a: float, b: float, k: int) -> np.ndarray:
    """The nodes level k adds on [a, b]: the integers for k = 0, the odd
    multiples of 2^(-k) after that; each is an exact binary number."""
    h = math.ldexp(1.0, -k)
    first = math.ceil(a / h) | (k > 0)  # the first odd multiple past level 0
    return np.arange(first, math.floor(b / h) + 1, 2 if k else 1) * h


def nested_trapezoid(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    a: float,
    b: float,
    abs_tol: float,
    poles: Sequence[tuple[complex, complex]] = (),
) -> TrapezoidOutcome:
    """Integrate f over [a, b] by nested trapezoidal rules anchored at 0.

    f maps an array of abscissae to (values, absolute error bounds); the
    values may be complex, and the bounds cover them at the nodes given.
    f must fall below abs_tol at both ends of [a, b]: level k sums h f, with
    full weights, over the multiples of h = 2^(-k) inside [a, b].  Level 0
    is the integers there, at least two, and each further level adds the odd
    multiples of its h; levels 0 and 1 share one evaluation of f (in blocks
    of _BLOCK nodes), unless level 1 would pass _MAX_NODES.  With d_k the
    difference between levels k and k-1, the estimate is

        d_k^2 / d_(k-1)  (d_1 at level 1)  +  h * (|f(x_first)| + |f(x_last)|)
            +  h * sum(error bounds)  +  _ROUNDING * h * sum |f|,

    the geometric-convergence extrapolation and the end term, |f| at the
    level's first and last new nodes (within 2h of a and b), so that an f
    still large at an end cannot pass as converged, plus the noise of the
    values and the rounding of the level sums.  Refinement stops when the
    estimate meets abs_tol, or when d_k has fallen into the noise terms (the
    noise plateau: no further level can show more convergence).  A d_k that
    grows is not taken for the plateau; above the noise it means h is not
    yet below the integrand's band limit.  No level is added past _MAX_NODES
    nodes.  at_roundoff marks an estimate above abs_tol that the noise terms
    dominate.

    poles lists f's simple poles off the real axis as (tau_p, residue)
    pairs.  A pole at distance c from the axis caps the plain rule's
    convergence at e^(-2 pi c/h); each level's value has the poles' share
    of its sum (_pole_terms) taken off before it is compared with the last,
    so the levels converge as the rest of f allows.  With no poles the
    values are the plain sums, bit for bit.
    """
    if any(tau.imag == 0.0 for tau, _ in poles):
        raise ValueError("poles must lie off the real axis")
    x = _level(a, b, 0)
    if x.size < 2:
        raise ValueError(f"need at least two integer nodes in [{a}, {b}]")
    # the rule never stops before level 1, so levels 0 and 1 share one
    # kernel call, unless level 1 would pass the node cap
    n = x.size
    if n + (x1 := _level(a, b, 1)).size <= _MAX_NODES:
        x = np.concatenate([x, x1])
    vals, errs = _evaluate(f, x)
    ahead = vals[n:], errs[n:]
    vals, errs = vals[:n], errs[:n]
    total, mass, noise = vals.sum(), np.abs(vals).sum(), errs.sum()
    # h = 1 cannot alias the line integrals' rho: its local frequency
    # theta'(tau) = ln(tau/2 pi)/2 stays below 2 pi/h up to tau ~ 1.8e6
    value = total - _pole_terms(poles, 1.0)
    evaluations, levels = n, 1
    disc, d_prev, floor = math.inf, 0.0, 0.0
    while evaluations + (x := _level(a, b, levels)).size <= _MAX_NODES:
        vals, errs = ahead if levels == 1 else _evaluate(f, x)
        total += vals.sum()
        mass += np.abs(vals).sum()
        noise += errs.sum()
        evaluations += x.size
        h = math.ldexp(1.0, -levels)
        levels += 1
        new = h * total - _pole_terms(poles, h)
        d = abs(new - value)
        value = new
        disc = (d * d / d_prev if d_prev > 0.0 else d) + h * (abs(vals[0]) + abs(vals[-1]))
        floor = float(h * (noise + _ROUNDING * mass))
        if disc + floor <= abs_tol or d <= floor:
            break
        d_prev = d
    est = float(disc + floor)
    return TrapezoidOutcome(
        value=complex(value),
        abs_err_est=est,
        evaluations=evaluations,
        levels=levels,
        at_roundoff=bool(est > abs_tol and disc <= floor),
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
