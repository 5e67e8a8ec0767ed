"""Sign-change scanning and bisection refinement on the critical line.

A scan walks a fixed grid t_i = t_lo + i*step, records strict sign changes
between consecutive nodes as brackets, and reports node zeros (f exactly 0 for
scan, within its error bound for scan_fz) as width-zero brackets.  scan_fz
evaluates the grid in one call, then bisects all brackets together.  A
bracket's first call evaluates only the path that bisection would take if
the root were where inverse quadratic interpolation through its ends and a
neighbouring grid node puts it; each later call evaluates its bisection tree
three levels deep and the path to a new estimate.  Each bracket then steps
along as long as its next midpoint has a value.  A point's value never
depends on its batch mates, so each bracket takes exactly the steps of
scalar bisection, and most close in two calls.

report_rows flattens a ScanReport into SCAN_FIELDS rows; the CLI's CSV and
JSON writers are the only serialisers of scan results.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError, MaxIterError, XishiftError
from .settings import (DEFAULT_SETTINGS, UNDERFLOW_FLOOR, EvalSettings, grid_nodes,
                       require_real, underflowed)
from .shifts import ShiftConfig, fz_line_vec

__all__ = ["ZeroBracket", "ZeroHit", "ScanReport", "scan", "bisect", "scan_fz",
           "require_resolved", "report_rows", "SCAN_FIELDS"]

_TREE_DEPTH = 3  # bisection steps each evaluator call of scan_fz guarantees: 7 tree points
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

    Without error bounds a node is an on-node zero only where f is exactly
    0: an absolute floor would count the genuine values of a function that
    decays below it, such as Xi high on the line, as zeros.  With bounds it
    is one where |f| is within 4*err.  A verdict that would rest on the
    underflow floor alone raises (require_resolved), and so do two adjacent
    nodes that are both zeros by their error bounds: there the bound, not
    the function, decides the sign.
    """
    if errs is None:
        on_node = fs == 0.0
    else:
        require_resolved(ts, fs, errs)
        on_node = np.abs(fs) <= np.maximum(4.0 * errs, UNDERFLOW_FLOOR)
        stretch = on_node[:-1] & on_node[1:]
        if stretch.any():
            t = float(ts[np.argmax(stretch)])
            raise EvaluationError(f"unresolved stretch: |f| is within its error bound at "
                                  f"consecutive nodes from t={t!r}")
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
    """All strict sign changes of f on the grid, plus the nodes where f is exactly 0.
    f must refuse values it cannot resolve itself, as big_xi does below underflow."""
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


def _require_tol(tol: float) -> None:
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")


def _nearest_outside(
    lo: float, hi: float, known: dict[float, float]
) -> tuple[float, float] | None:
    """(t, f(t)) for the known t nearest outside [lo, hi], or None if there is none."""
    left, right = -math.inf, math.inf
    for t in known:
        if left < t < lo:
            left = t
        elif hi < t < right:
            right = t
    c = left if lo - left <= right - hi else right
    return (c, known[c]) if math.isfinite(c) else None


def _tree(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints of the bisection tree of [lo, hi], depth levels deep."""
    if depth == 0:
        return []
    m = 0.5 * (lo + hi)
    return [m, *_tree(lo, m, depth - 1), *_tree(m, hi, depth - 1)]


def _root_estimate(
    lo: float, hi: float, f_lo: float, f_hi: float, near: tuple[float, float] | None
) -> float:
    """A guess at the root in (lo, hi); it decides only which points are evaluated early.

    Inverse quadratic interpolation through both ends and near, a known
    point outside them (a grid neighbour on a bracket's first call, then the
    evaluated point nearest outside), else the secant through the ends
    (regula falsi when near is None, or when two of the three values are
    equal), else the midpoint: the first of these that lies inside (lo, hi).
    """
    if near is not None:
        c, f_c = near
        # scaled to at most 1 in size, so that products of tiny values do not underflow
        s = max(abs(f_lo), abs(f_hi), abs(f_c))
        a, b, q = f_lo / s, f_hi / s, f_c / s
        try:
            r = (lo * b * q / ((a - b) * (a - q)) + hi * a * q / ((b - a) * (b - q))
                 + c * a * b / ((q - a) * (q - b)))
        except ZeroDivisionError:
            r = math.nan
        if lo < r < hi:
            return r
    r = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    return r if lo < r < hi else 0.5 * (lo + hi)


class _Bisection:
    """One bracket's scalar bisection, stepped as far as the known values of f go."""

    __slots__ = ("lo", "hi", "f_lo", "f_hi", "it", "hit", "near")

    def __init__(self, bracket: ZeroBracket) -> None:
        self.lo, self.hi = float(bracket.t_lo), float(bracket.t_hi)
        self.f_lo, self.f_hi = float(bracket.f_lo), float(bracket.f_hi)
        self.it = 0
        self.near: tuple[float, float] | None = None  # see _root_estimate
        # an on-node bracket is done: (t_lo, |f_lo|, 0)
        self.hit = None if self.lo < self.hi else ZeroHit(self.lo, abs(self.f_lo), 0)

    def advance(self, value: Callable[[float], float | None], tol: float) -> None:
        """Step while value(midpoint) is not None, until the bracket is done.

        A step moves lo to the midpoint 0.5*(lo + hi) if f there has f_lo's
        sign, else hi.  Once a step leaves width <= tol the bracket is closed,
        and it is done with |f| at the next midpoint; it is also done at an
        exact zero (residual 0).  MaxIterError if it is open after step 200.
        """
        lo, hi, f_lo, f_hi, it = self.lo, self.hi, self.f_lo, self.f_hi, self.it
        neg = f_lo < 0
        while True:
            closed = it > 0 and hi - lo <= tol
            if not closed and it == 200:
                raise MaxIterError(f"bisection did not reach width {tol:g} in 200 iterations")
            mid = 0.5 * (lo + hi)
            fm = value(mid)
            if fm is None:
                break
            if closed:
                self.hit = ZeroHit(mid, abs(fm), it)
                break
            it += 1
            if fm == 0.0:
                self.hit = ZeroHit(mid, 0.0, it)
                break
            if (fm < 0) == neg:
                lo, f_lo = mid, fm
            else:
                hi, f_hi = mid, fm
        self.lo, self.hi, self.f_lo, self.f_hi, self.it = lo, hi, f_lo, f_hi, it

    def wanted(self, tol: float) -> list[float]:
        """The points the next evaluator call should give this bracket.

        A closed bracket wants its residual point.  An open one wants the
        path bisection would take if the root were at _root_estimate,
        through its final midpoint, which guarantees one step.  Unless it is
        a seeded first call (it = 0 with a grid neighbour as near), it also
        wants its bisection tree _TREE_DEPTH levels deep, which guarantees
        that many steps.  No point lies past step 200.  All lie inside the
        bracket, where the walk has not been, so none was evaluated before.
        """
        lo, hi, it = self.lo, self.hi, self.it
        if it > 0 and hi - lo <= tol:
            return [0.5 * (lo + hi)]
        seeded = it == 0 and self.near is not None
        points = [] if seeded else _tree(lo, hi, min(_TREE_DEPTH, 200 - it))
        r = _root_estimate(lo, hi, self.f_lo, self.f_hi, self.near)
        for _ in range(it, 200):
            m = 0.5 * (lo + hi)
            points.append(m)
            if m < r:
                lo = m
            else:
                hi = m
            if hi - lo <= tol:
                points.append(0.5 * (lo + hi))
                break
        return list(dict.fromkeys(points))  # the path's first steps are tree points


def _bisect_all(
    brackets: Sequence[ZeroBracket],
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ZeroHit]:
    """Bisect every bracket, each call of the vector evaluator f serving all open ones.

    Each call evaluates, for every open bracket, the points _Bisection.wanted
    names; then each bracket takes scalar bisection's steps for as long as
    the midpoint it needs next has been evaluated.  The root estimate only
    predicts which midpoints bisection will visit, so every step, midpoint,
    residual and iteration count is the one-step loop's (bisect).  f must
    give each point a value that does not depend on its batch mates; it also
    sees the points that the walk does not take.

    grid, the (nodes, values) the brackets were read from, seeds each proper
    bracket [t_i, t_i+1] with whichever of nodes i-1 and i+2 has the smaller
    |f|.  A seeded bracket's first call evaluates the estimated path alone,
    one step guaranteed, so it needs at most one call more than with the tree
    alone; an unseeded bracket needs no more.
    """
    _require_tol(tol)
    runs = [_Bisection(b) for b in brackets]
    live = [run for run in runs if run.hit is None]
    if grid is not None:
        ts, fs = (np.asarray(x, dtype=float).tolist() for x in grid)
        for run in live:
            i = bisect_left(ts, run.lo)
            outer = [j for j in (i - 1, i + 2) if 0 <= j < len(ts)]
            if outer:
                j = min(outer, key=lambda k: abs(fs[k]))
                run.near = (ts[j], fs[j])
    while live:
        wanted = [run.wanted(tol) for run in live]
        vals = np.asarray(f(np.array([t for w in wanted for t in w], dtype=float)),
                          dtype=float).tolist()
        start = 0
        for run, w in zip(live, wanted):
            known = dict(zip(w, vals[start:start + len(w)]))
            start += len(w)
            known[run.lo], known[run.hi] = run.f_lo, run.f_hi
            if run.near is not None:
                known[run.near[0]] = run.near[1]
            run.advance(known.get, tol)
            run.near = _nearest_outside(run.lo, run.hi, known)
        live = [run for run in live if run.hit is None]
    return [run.hit for run in runs]


def bisect(
    bracket: ZeroBracket, f: Callable[[float], float], tol: float
) -> tuple[float, float, int]:
    """Refine a bracket to width <= tol; returns (midpoint, |f(midpoint)|, iterations).

    f is asked for one midpoint per call, iterations + 1 calls in all (the
    last for the residual), or iterations at an exact zero.  The residual
    is reported, not required to be small: a flat function can hold a wide
    bracket to a tiny residual or vice versa.
    """
    _require_tol(tol)
    run = _Bisection(bracket)
    if run.hit is None:
        run.advance(lambda t: float(f(t)), tol)
    return run.hit.t, run.hit.residual, run.hit.iterations


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
    *,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> ScanReport:
    """Scan F_z(1/2+it) for sign changes and refine each bracket by bisection,
    in the calling thread.  settings is keyword-only, so a call that still
    passes a worker count in its place is a TypeError."""
    ts = grid_nodes(t_lo, t_hi, step)
    fs, errs = _fz_real(ts, cfg, settings)
    brackets = _brackets_from_values(ts, fs, errs)
    zeros = _bisect_all(brackets, lambda tarr: _fz_real(tarr, cfg, settings)[0], tol,
                        (ts, fs))
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
