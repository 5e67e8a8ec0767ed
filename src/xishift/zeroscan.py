"""Sign-change scanning and bisection refinement on the critical line.

A scan walks a fixed grid t_i = t_lo + i*step, records strict sign changes
between consecutive nodes as brackets, and reports node zeros (f exactly 0 for
scan, within its error bound for scan_fz) as width-zero brackets.  scan_fz
evaluates the grid in one call, then bisects all brackets together.  A
bracket's first call evaluates only the path that bisection would take if
the root were that of the polynomial through the 8 grid nodes nearest it;
each later call evaluates its bisection tree three levels deep and the path
to the secant's root.  Each bracket then steps along as long as its next
midpoint has a value, which must be finite.  A point's value never depends
on its batch mates, so each bracket takes exactly the steps of scalar
bisection, and most close in one call.

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
_STENCIL = 8  # grid nodes of a first call's interpolant: 6 leave estimates ~1e-9 off
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
    """EvaluationError naming the first node whose value has underflowed."""
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


def _tree(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints of the bisection tree of [lo, hi], depth levels deep."""
    if depth == 0:
        return []
    m = 0.5 * (lo + hi)
    return [m, *_tree(lo, m, depth - 1), *_tree(m, hi, depth - 1)]


def _stencil_root(
    lo: float, hi: float, f_lo: float, ts: list[float], fs: list[float]
) -> float | None:
    """The root in (lo, hi) of the polynomial through the nodes (ts, fs), by
    safeguarded Newton on its Newton form with values scaled to at most 1;
    None where its signs at lo and hi are not f's."""
    s = max(map(abs, fs))
    c = [v / s for v in fs]
    for k in range(1, len(c)):
        c[k:] = [(c[i] - c[i - 1]) / (ts[i] - ts[i - k]) for i in range(k, len(c))]

    def p(t: float) -> tuple[float, float]:
        v, d = c[-1], 0.0
        for i in range(len(c) - 2, -1, -1):
            d = d * (t - ts[i]) + v
            v = v * (t - ts[i]) + c[i]
        return v, d

    sgn = -1.0 if f_lo < 0 else 1.0
    a, b, width = p(lo)[0], p(hi)[0], hi - lo
    if not sgn * a > 0 > sgn * b:  # also where rounding or overflow left a NaN
        return None
    x = lo + width * (a / (a - b))
    for _ in range(64):
        v, d = p(x)
        lo, hi = (x, hi) if sgn * v > 0 else (lo, x)
        y = x - v / d if d else math.nan
        if abs(y - x) <= 1e-7 * width:  # the error left is about the step squared
            return y
        x = y if lo < y < hi else 0.5 * (lo + hi)
    return x


def _root_estimate(
    lo: float, hi: float, f_lo: float, f_hi: float,
    stencil: tuple[list[float], list[float]] | None = None,
) -> float:
    """A guess at the root in (lo, hi); it decides only which points are evaluated early.

    The first of these that lies inside (lo, hi): _stencil_root of the grid
    nodes nearest a bracket on its first call, the secant through the ends
    (regula falsi), the midpoint.
    """
    r = None if stencil is None else _stencil_root(lo, hi, f_lo, *stencil)
    if r is not None:
        return r
    r = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    return r if lo < r < hi else 0.5 * (lo + hi)


class _Bisection:
    """One bracket's scalar bisection, stepped as far as the known values of f go."""

    __slots__ = ("lo", "hi", "f_lo", "f_hi", "it", "hit", "stencil")

    def __init__(self, bracket: ZeroBracket) -> None:
        self.lo, self.hi = float(bracket.t_lo), float(bracket.t_hi)
        self.f_lo, self.f_hi = float(bracket.f_lo), float(bracket.f_hi)
        self.it = 0
        self.stencil: tuple[list[float], list[float]] | None = None
        # an on-node bracket is done: (t_lo, |f_lo|, 0)
        self.hit = None if self.lo < self.hi else ZeroHit(self.lo, abs(self.f_lo), 0)

    def advance(self, value: Callable[[float], float | None], tol: float) -> None:
        """Step while value(midpoint) is not None, until the bracket is done.

        A step moves lo to the midpoint 0.5*(lo + hi) if f there has f_lo's
        sign, else hi.  Once a step leaves width <= tol the bracket is closed,
        and it is done with |f| at the next midpoint; it is also done at an
        exact zero (residual 0).  MaxIterError if it is open after step 200,
        EvaluationError if a value it uses is not finite.
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
            if not math.isfinite(fm):
                raise EvaluationError(f"evaluator returned {fm!r} at t={mid!r}")
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
        path bisection would take if the root were at _root_estimate, through
        its final midpoint, which guarantees one step.  Unless it is a seeded
        first call (it = 0 with a grid stencil), it also wants its bisection
        tree _TREE_DEPTH levels deep, which guarantees that many steps.  No
        point lies past step 200.  All lie inside the bracket, where the walk
        has not been, so none was evaluated before.
        """
        lo, hi, it = self.lo, self.hi, self.it
        if it > 0 and hi - lo <= tol:
            return [0.5 * (lo + hi)]
        stencil = self.stencil if it == 0 else None
        points = [] if stencil else _tree(lo, hi, min(_TREE_DEPTH, 200 - it))
        r = _root_estimate(lo, hi, self.f_lo, self.f_hi, stencil)
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
    sees the points that the walk does not take, whose values are not judged.

    grid, the (nodes, values) the brackets were read from, seeds each proper
    bracket [t_i, t_i+1] with its stencil, nodes i-3 .. i+4 shifted inward at
    the ends of a grid of more than two nodes.  A seeded bracket's first call
    evaluates the estimated path alone, one step guaranteed, so it needs at
    most one call more than with the tree alone; an unseeded one no more.
    """
    _require_tol(tol)
    runs = [_Bisection(b) for b in brackets]
    live = [run for run in runs if run.hit is None]
    if grid is not None and len(grid[0]) > 2:
        ts, fs = (np.asarray(x, dtype=float).tolist() for x in grid)
        for run in live:
            i = bisect_left(ts, run.lo) - (_STENCIL // 2 - 1)
            i = max(min(i, len(ts) - _STENCIL), 0)
            run.stencil = (ts[i:i + _STENCIL], fs[i:i + _STENCIL])
    while live:
        wanted = [run.wanted(tol) for run in live]
        vals = np.asarray(f(np.array([t for w in wanted for t in w], dtype=float)),
                          dtype=float).tolist()
        start = 0
        for run, w in zip(live, wanted):
            known = dict(zip(w, vals[start:start + len(w)]))
            start += len(w)
            run.advance(known.get, tol)
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
