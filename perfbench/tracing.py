"""Spans around the calls into each xishift module, recorded from outside.

The package binds names with ``from .x import y``, so a function lives under
several module attributes (``xishift.specfun.zeta_vec`` is also reached as
the global ``zeta_vec`` of ``specfun`` itself, and ``fz_line_vec`` as a
global of ``zeroscan``).  ``Tracer.install`` replaces every such binding in
every loaded ``xishift`` module with one timing wrapper, and ``uninstall``
puts the originals back, so traced and untraced repetitions can alternate in
one process.

A span is (id, name, parent id, start, end, count).  Spans stay in memory
and are written out once, when the run ends.  The parent of a span is the
innermost open span of its own thread; a thread with no open span (the scan
pool's workers) is parented to the innermost open span of the thread that
installed the tracer, which is blocked in ``scan_fz`` while they run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _points(args, _kwargs, _result) -> int:
    return int(np.size(args[0]))


# Traced public functions, each with what its span counts.
TARGETS = {
    "specfun.zeta_vec": _points,
    "specfun.hyp1f1_vec": _points,
    "specfun.eta_line_vec": None,
    "specfun.eta_weighted_line": None,
    "specfun.xi_line_vec": None,
    "specfun.eta_completed": None,
    "theta.theta_series": lambda a, k, r: int(r.terms_used),
    "theta.series_side": None,
    "theta.psi1_alpha_derivative": None,
    "region.classify_inequality": None,
    "quadrature.adaptive_gk": lambda a, k, r: (int(r.evaluations), int(r.panels),
                                               int(bool(r.at_roundoff))),
    "integral.moment_integral": None,
    "integral.xi_integral": lambda a, k, r: int(r.evaluations),
    "shifts.fz_line_vec": _points,
    "shifts.moment_numeric": None,
    "shifts.moment_series_rhs": None,
    "zeroscan.scan_fz": None,
    "zeroscan.bisect": lambda a, k, r: int(r[2]),
    "cli.main": None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count):
        spans, ids, home_stack = self.spans, self._ids, self._home_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = home_stack[-1] if home_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, name, parent, start, end,
                          count(args, kwargs, result) if count else None))
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each target in every loaded xishift module."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "xishift" or n.startswith("xishift."))]
        for qual, count in TARGETS.items():
            mod_name, fn_name = qual.rsplit(".", 1)
            orig = getattr(sys.modules[f"xishift.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, orig, count)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, parent, start, end, count."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, parent, start, end, _count in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []))
            for sid, _name, _parent, start, end, _count in spans}


def layer_metrics(spans: list[tuple], wall: float, reps: int,
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``reps`` traced repetitions whose
    summed wall time is ``wall``.

    Counts are per repetition (they repeat exactly); self time is given as a
    share of traced wall time, since a layer a workload never calls has a
    self time of exactly 0 s.
    """
    selfs = self_times(spans)
    names = {sid: name for sid, name, *_ in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list] = defaultdict(list)
    for sid, name, _parent, _start, _end, count in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        if count is not None:
            counts[name].append(count)

    def per_rep(x: float) -> float:
        return x / reps

    def pct(name: str) -> float:
        return 100.0 * self_s[name] / wall

    def total(name: str, idx: int | None = None) -> int:
        vals = counts[name]
        return sum(v[idx] for v in vals) if idx is not None else sum(vals)

    def us_per_point(name: str) -> float:
        pts = total(name)
        return 1e6 * self_s[name] / pts if pts else 0.0

    m: dict[str, float] = {}
    for fn in ("zeta_vec", "hyp1f1_vec"):
        q = f"specfun.{fn}"
        m[f"{q}.calls"] = per_rep(calls[q])
        m[f"{q}.points"] = per_rep(total(q))
        m[f"{q}.self_pct"] = pct(q)
        m[f"{q}.us_per_point"] = us_per_point(q)
    for fn in ("eta_line_vec", "eta_weighted_line", "xi_line_vec"):
        m[f"specfun.{fn}.self_pct"] = pct(f"specfun.{fn}")
    m["specfun.eta_completed.calls"] = per_rep(calls["specfun.eta_completed"])
    m["specfun.eta_completed.self_pct"] = pct("specfun.eta_completed")

    m["theta.theta_series.calls"] = per_rep(calls["theta.theta_series"])
    m["theta.theta_series.terms"] = per_rep(total("theta.theta_series"))
    m["theta.series_side.self_pct"] = pct("theta.series_side")
    m["theta.psi1_alpha_derivative.calls"] = per_rep(calls["theta.psi1_alpha_derivative"])
    m["theta.psi1_alpha_derivative.self_pct"] = pct("theta.psi1_alpha_derivative")

    m["region.classify_inequality.calls"] = per_rep(calls["region.classify_inequality"])
    m["region.classify_inequality.self_pct"] = pct("region.classify_inequality")

    gk = "quadrature.adaptive_gk"
    m[f"{gk}.calls"] = per_rep(calls[gk])
    m[f"{gk}.evaluations"] = per_rep(total(gk, 0)) if counts[gk] else 0.0
    m[f"{gk}.panels"] = per_rep(total(gk, 1)) if counts[gk] else 0.0
    m[f"{gk}.roundoff_frac"] = total(gk, 2) / calls[gk] if calls[gk] else 0.0
    m[f"{gk}.self_pct"] = pct(gk)

    m["integral.moment_integral.calls"] = per_rep(calls["integral.moment_integral"])
    m["integral.moment_integral.self_pct"] = pct("integral.moment_integral")
    m["integral.xi_integral.calls"] = per_rep(calls["integral.xi_integral"])
    m["integral.xi_integral.self_pct"] = pct("integral.xi_integral")
    m["integral.xi_integral.evaluations"] = per_rep(total("integral.xi_integral"))

    m["shifts.fz_line_vec.calls"] = per_rep(calls["shifts.fz_line_vec"])
    m["shifts.fz_line_vec.points"] = per_rep(total("shifts.fz_line_vec"))
    m["shifts.fz_line_vec.self_pct"] = pct("shifts.fz_line_vec")
    m["shifts.moment_numeric.calls"] = per_rep(calls["shifts.moment_numeric"])
    m["shifts.moment_series_rhs.self_pct"] = pct("shifts.moment_series_rhs")

    # Grid-pass nodes are fz_line_vec points whose span sits directly under
    # scan_fz; refinement points sit under bisect.
    grid_pts = refine_pts = 0
    bisect_s = scan_s = 0.0
    for _sid, name, parent, start, end, count in spans:
        if name == "shifts.fz_line_vec":
            pname = names.get(parent)
            if pname == "zeroscan.scan_fz":
                grid_pts += count
            elif pname == "zeroscan.bisect":
                refine_pts += count
        elif name == "zeroscan.bisect":
            bisect_s += end - start
        elif name == "zeroscan.scan_fz":
            scan_s += end - start
    n_bisect = calls["zeroscan.bisect"]
    m["zeroscan.scan_fz.calls"] = per_rep(calls["zeroscan.scan_fz"])
    m["zeroscan.scan_fz.self_pct"] = pct("zeroscan.scan_fz")
    m["zeroscan.grid_points"] = per_rep(grid_pts)
    m["zeroscan.bisect.calls"] = per_rep(n_bisect)
    m["zeroscan.bisect.iterations"] = per_rep(total("zeroscan.bisect"))
    m["zeroscan.refine_points_per_zero"] = refine_pts / n_bisect if n_bisect else 0.0
    m["zeroscan.refine_share"] = 100.0 * bisect_s / scan_s if scan_s else 0.0

    m["cli.main.calls"] = per_rep(calls["cli.main"])
    m["cli.main.self_pct"] = pct("cli.main")
    m["cli.output_bytes"] = per_rep(output_bytes)
    return m
