"""Sign-change scanning and bisection refinement on the critical line.

A scan walks a fixed grid t_i = t_lo + i*step, records strict sign changes
between consecutive nodes as brackets, and reports zeros landing exactly on
nodes as width-zero brackets.  scan_fz evaluates the grid in one call, then
bisects all brackets in lockstep, three steps per call: each call evaluates
the bisection tree of every open bracket three levels deep, and the signs
walk each bracket down its tree.  A point's value never depends on its batch
mates, so each bracket takes exactly the steps of scalar bisection.

report_rows flattens a ScanReport into SCAN_FIELDS rows; the CLI's CSV and
JSON writers are the only serialisers of scan results.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError, MaxIterError, XishiftError
from .settings import (DEFAULT_SETTINGS, UNDERFLOW_FLOOR, EvalSettings, grid_nodes,
                       require_real, underflowed)
from .shifts import ShiftConfig, fz_line_vec, validate_config

__all__ = ["ZeroBracket", "ZeroHit", "ScanReport", "scan", "bisect", "scan_fz",
           "require_resolved", "report_rows", "SCAN_FIELDS"]

ON_NODE_EPS = 1e-13
_TREE_DEPTH = 3  # bisection steps per evaluator call in scan_fz: 7 points per open bracket
SCAN_FIELDS = ("t_lo", "t_hi", "t_zero", "f_residual", "iterations")


@dataclass(frozen=True)
class ZeroBracket:
    """A sign-change interval; width zero marks a zero sitting on a grid node."""

    t_lo: float
    t_hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        on_node = self.t_lo == self.t_hi and self.f_lo == self.f_hi
        # compare signs: the product f_lo * f_hi underflows below ~1e-162
        proper = self.t_lo < self.t_hi and np.sign(self.f_lo) * np.sign(self.f_hi) < 0
        if not (on_node or proper):
            raise ConfigError(f"invalid bracket {self!r}")

    @property
    def is_on_node(self) -> bool:
        return self.t_lo == self.t_hi


@dataclass(frozen=True)
class ZeroHit:
    t: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class ScanReport:
    brackets: tuple[ZeroBracket, ...]
    zeros: tuple[ZeroHit, ...]
    grid_step: float
    t_range: tuple[float, float]
    config_digest: str


def require_resolved(ts: np.ndarray, fs: np.ndarray, errs: np.ndarray) -> None:
    """EvaluationError naming the first node whose |f| and 4*err both fell
    below UNDERFLOW_FLOOR: there the value has underflowed, and it says
    nothing about the sign or the size of the function."""
    floored = underflowed(fs, errs)
    if floored.any():
        t = float(ts[np.argmax(floored)])
        raise EvaluationError(f"value and error bound underflowed to below "
                              f"{UNDERFLOW_FLOOR:g} at t={t!r}")


def _brackets_from_values(
    ts: np.ndarray, fs: np.ndarray, errs: np.ndarray | None = None
) -> list[ZeroBracket]:
    """Sign-change extraction, ascending in t.

    A node counts as an on-node zero when |f| is indistinguishable from zero:
    below the per-node error bound when one is available, else below the
    absolute 1e-13 floor.  An absolute floor alone would misclassify genuine
    values of a function that itself decays below 1e-13.  A verdict that
    would rest on the underflow floor alone raises (require_resolved).
    """
    if errs is None:
        on_node = np.abs(fs) < ON_NODE_EPS
    else:
        require_resolved(ts, fs, errs)
        on_node = np.abs(fs) <= np.maximum(4.0 * errs, UNDERFLOW_FLOOR)
    signs = np.sign(fs)
    proper = np.zeros(len(ts), dtype=bool)
    proper[:-1] = (signs[:-1] * signs[1:] < 0) & ~on_node[:-1] & ~on_node[1:]
    starts = np.flatnonzero(on_node | proper)
    return [
        ZeroBracket(float(ts[i]), float(ts[j]), float(fs[i]), float(fs[j]))
        for i, j in zip(starts, starts + proper[starts])
    ]


def scan(
    t_lo: float, t_hi: float, step: float, f: Callable[[float], float]
) -> list[ZeroBracket]:
    """All strict sign changes of f on the grid, plus on-node zeros."""
    ts = grid_nodes(t_lo, t_hi, step)
    fs = np.empty(len(ts))
    for i, t in enumerate(ts):
        try:
            v = f(float(t))
        except XishiftError as exc:
            raise EvaluationError(f"evaluator failed at t={float(t)!r}: {exc}") from exc
        if not math.isfinite(v):
            raise EvaluationError(f"evaluator returned {v!r} at t={float(t)!r}")
        fs[i] = v
    return _brackets_from_values(ts, fs)


def _bisect_all(
    brackets: Sequence[ZeroBracket], f: Callable[[np.ndarray], np.ndarray], tol: float,
    depth: int = _TREE_DEPTH,
) -> list[ZeroHit]:
    """Bisect every bracket in lockstep, depth steps per call of the vector evaluator f.

    Each call evaluates the bisection tree of every open bracket depth levels
    deep (level k holds the 2^k midpoints that k more steps can reach, each
    0.5*(lo + hi) of its node, as one step at a time computes it) and the
    final midpoints of brackets that closed on the last level of the call
    before.  The signs then walk each bracket down its tree.  A bracket stops
    at an exact zero (residual 0) or at width <= tol, where its result is the
    final midpoint and |f| there, read one level down in the same call when
    there is one.  The tree never reaches past step 200, where MaxIterError
    is raised.  f must give each point a value that does not depend on its
    batch mates; it also sees the tree points that the walk does not take.
    """
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    lo = np.array([b.t_lo for b in brackets], dtype=float)
    hi = np.array([b.t_hi for b in brackets], dtype=float)
    # lo only ever moves to a point of f_lo's sign, so that sign never changes
    neg = np.array([b.f_lo < 0 for b in brackets], dtype=bool)
    t = lo.copy()  # on-node brackets are done: (t_lo, |f_lo|, 0)
    residual = np.array([abs(b.f_lo) for b in brackets], dtype=float)
    iterations = np.zeros(len(brackets), dtype=int)
    live = hi > lo
    pending = np.zeros(len(brackets), dtype=bool)  # closed, residual not yet evaluated
    it = 0
    while live.any() or pending.any():
        if it == 200 and live.any():
            raise MaxIterError(f"bisection did not reach width {tol:g} in 200 iterations")
        li, pi = np.flatnonzero(live), np.flatnonzero(pending)
        # edges[k][:, n] and [:, n + 1] bound node n of level k; its midpoint
        # is edges[k + 1][:, 2n + 1], and its children are nodes 2n and 2n + 1
        edges = [np.stack((lo[li], hi[li]), axis=1)]
        for _ in range(min(depth, 200 - it)):
            e = edges[-1]
            split = np.empty((len(li), 2 * e.shape[1] - 1))
            split[:, ::2], split[:, 1::2] = e, 0.5 * (e[:, :-1] + e[:, 1:])
            edges.append(split)
        vals = np.asarray(f(np.concatenate([e[:, 1::2].ravel() for e in edges[1:]] + [t[pi]])),
                          dtype=float)
        rows, node = np.arange(len(li)), np.zeros(len(li), dtype=int)
        walking = np.ones(len(li), dtype=bool)
        # closed on the level before: its node on this level is its final midpoint
        waiting = np.zeros(len(li), dtype=bool)
        node_lo, node_hi = lo[li], hi[li]
        for k, e in enumerate(edges[1:]):
            n = len(li) << k
            fm, vals = vals[:n].reshape(-1, 1 << k)[rows, node], vals[n:]
            residual[li[waiting]] = np.abs(fm[waiting])
            iterations[li[walking]] = it + k + 1
            mid = e[rows, 2 * node + 1]
            exact = walking & (fm == 0.0)
            node = np.where(walking, 2 * node + ((fm < 0) == neg[li]), node)
            node_lo, node_hi = e[rows, node], e[rows, node + 1]
            waiting = walking & ~exact & (node_hi - node_lo <= tol)
            t[li] = np.where(exact, mid, np.where(waiting, 0.5 * (node_lo + node_hi), t[li]))
            residual[li[exact]] = 0.0
            walking &= ~(exact | waiting)
        it += len(edges) - 1
        live[li] = walking
        lo[li[walking]], hi[li[walking]] = node_lo[walking], node_hi[walking]
        residual[pi], pending[pi] = np.abs(vals), False
        pending[li[waiting]] = True
    return [ZeroHit(float(a), float(r), int(n)) for a, r, n in zip(t, residual, iterations)]


def bisect(
    bracket: ZeroBracket, f: Callable[[float], float], tol: float
) -> tuple[float, float, int]:
    """Refine a bracket to width <= tol; returns (midpoint, |f(midpoint)|, iterations).

    The residual is reported, not required to be small: a flat function can
    hold a wide bracket to a tiny residual or vice versa.
    """
    (hit,) = _bisect_all([bracket], lambda ts: [f(float(t)) for t in ts], tol, depth=1)
    return hit.t, hit.residual, hit.iterations


def _fz_real(
    ts: np.ndarray, cfg: ShiftConfig, settings: EvalSettings
) -> tuple[np.ndarray, np.ndarray]:
    """Re F_z(1/2+it) and its error bound; SymmetryError if a point fails reality."""
    re, im, err = fz_line_vec(ts, cfg, settings)
    require_real(re, im, lambda i: f"t={float(ts[i])!r}")
    return re, err


def scan_fz(
    cfg: ShiftConfig,
    t_lo: float,
    t_hi: float,
    step: float,
    tol: float,
    workers: int = 1,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> ScanReport:
    """Scan F_z(1/2+it) for sign changes and refine each bracket by bisection.

    workers is validated (a positive integer) but has no effect: the scan runs
    in the calling thread, and its report is the same for any value.
    """
    validate_config(cfg)
    if not (isinstance(workers, int) and workers >= 1):
        raise ConfigError(f"workers must be a positive integer, got {workers}")
    ts = grid_nodes(t_lo, t_hi, step)
    brackets = _brackets_from_values(ts, *_fz_real(ts, cfg, settings))
    zeros = _bisect_all(brackets, lambda tarr: _fz_real(tarr, cfg, settings)[0], tol)
    return ScanReport(
        brackets=tuple(brackets),
        zeros=tuple(zeros),
        grid_step=step,
        t_range=(float(t_lo), float(t_hi)),
        config_digest=_digest(cfg, settings, t_lo, t_hi, step, tol),
    )


def _digest(
    cfg: ShiftConfig, settings: EvalSettings, t_lo: float, t_hi: float,
    step: float, tol: float
) -> str:
    payload = {
        "coefficients": list(cfg.coefficients),
        "shifts": list(cfg.shifts),
        "z_re": cfg.z.real,
        "z_im": cfg.z.imag,
        "settings": asdict(settings),
        "t_lo": t_lo,
        "t_hi": t_hi,
        "step": step,
        "tol": tol,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def report_rows(report: ScanReport) -> list[dict]:
    """One row per refined bracket, keyed by SCAN_FIELDS.

    Brackets are disjoint and ascending, so they pair 1:1 with the zeros.
    """
    return [
        dict(zip(SCAN_FIELDS, (br.t_lo, br.t_hi, hit.t, hit.residual, hit.iterations)))
        for br, hit in zip(report.brackets, report.zeros)
    ]
