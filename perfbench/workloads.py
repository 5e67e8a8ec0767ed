"""The four benchmark workloads: inputs from a seed, tasks, checks.

``write_inputs`` draws a workload's inputs from its seed and writes them to a
work directory: shift configs in the CLI's JSON format plus ``spec.json``
with every task's parameters.  ``load_configs`` is the set-up step that
``setup_s`` times: it parses and validates the configs through the public
API.  ``load`` adds the task closures.  Only ``write_inputs`` draws random
numbers, so the program sees generated inputs and never the seed.

Every task runs its library or CLI call and then checks the result against
a reference or an identity gate; a task that raises counts as failed.  Probe
tasks check windows where the scanner is known to fail (see NOTES.md); they
run once per benchmark run, untimed.

Library calls go through module attributes (``xs.moment_numeric``,
``cli.main``) looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import xishift as xs
from xishift import cli
from xishift.settings import EvalSettings

WORKLOADS = ("scan-shifted", "scan-hardy", "moments", "identities")
REFS_PATH = Path(__file__).with_name("refs.json")

HARDY = {"coefficients": [1.0], "shifts": [0.0], "z_re": 0.0, "z_im": 0.0}
EXHIBIT = {"coefficients": [1.0, 0.5, 0.25], "shifts": [0.0, 1.0, 2.0],
           "z_re": 0.5, "z_im": 0.25}
MOMENT_SERIES = {"coefficients": [1.0, 0.5], "shifts": [0.0, 1.0],
                 "z_re": 0.3, "z_im": -0.2}

ZERO_TOL = 1e-6  # acceptance criterion 9: each zero within 1e-6 of its reference
PROBE_HEIGHTS = (480.0, 1000.0)
SCAN = {
    # name: (config, reference key, windows, width, step, workers)
    "scan-shifted": (EXHIBIT, "exhibit", 40, 5.0, 0.02, 1),
    "scan-hardy": (HARDY, "hardy", 45, 10.0, 0.05, 2),
}
SCAN_TOL = 1e-8
SMALL_WIDTH = 0.5

# (centre, half-width, draws per band); each alpha is checked for m = 0 and 1.
# Quadrature cost climbs steeply towards pi/4, so the upper band is narrow and
# the draws stratified: the seed moves the inputs, not the amount of work.
# Band sizes keep the median and the tail task inside the 0.5 band.
MOMENT_BANDS = ((0.2, 0.02, 7), (0.5, 0.02, 8), (0.7, 0.005, 1))
SMALL_MOMENT_BANDS = ((0.2, 0.02, 10),)
SERIES_GATES = {0: 1e-5, 1: 1e-4}
LIMIT_GATE = 5e-3
SERIES_SETTINGS = EvalSettings(quad_abs_tol=1e-9)

# identities: every task is one bundle of all six checks, so the tasks
# respond alike to a busy host and the median and tail task keep their place
# from seed to seed.  Items per bundle; psi1_limit takes one config per task
# (every shift).
IDENTITY_TASKS, SMALL_IDENTITY_TASKS = 32, 20
IDENTITY_ITEMS = {"transform": 2, "general_theta": 150, "jacobi": 190,
                  "functional_eq": 8, "region": 1250}
SMALL_IDENTITY_ITEMS = {"transform": 1, "general_theta": 5, "jacobi": 5,
                        "functional_eq": 1, "region": 50}
GATES = {"transform": 1e-6, "general_theta": 1e-9, "jacobi": 1e-12,
         "functional_eq": 1e-9, "psi1_limit": 1e-2}


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: float | None  # log10(gate / observed error); None for yes/no checks
    detail: str
    out_bytes: int = 0


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Check]


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple[Task, ...]
    probes: tuple[Task, ...]


def _digits(gate: float, err: float) -> float:
    return math.log10(gate / max(err, 1e-300))


def _strata(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal slices of [lo, hi)."""
    return [lo + (hi - lo) * (i + rng.uniform()) / k for i in range(k)]


# ---------------------------------------------------------------------------
# Inputs from the seed
# ---------------------------------------------------------------------------

def write_inputs(name: str, seed: int, workdir: Path, small: bool = False) -> None:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    configs: dict[str, dict] = {}
    tasks: list[dict] = []
    probes: list[dict] = []
    if name in SCAN:
        cfg, _ref, n_win, width, step, workers = SCAN[name]
        configs["scan"] = cfg
        offset = float(rng.uniform(0.0, step))
        common = {"config": "scan", "step": step, "tol": SCAN_TOL, "workers": workers}
        for i in range(n_win):
            lo = width * i + offset
            hi = lo + (SMALL_WIDTH if small else width)
            tasks.append({"kind": "scan", "lo": lo, "hi": hi, **common})
        for h in PROBE_HEIGHTS:
            probes.append({"kind": "scan", "lo": h + offset, "hi": h + offset + 10.0,
                           **common})
    elif name == "moments":
        configs["series"] = MOMENT_SERIES
        configs["hardy"] = HARDY
        for centre, half, k in (SMALL_MOMENT_BANDS if small else MOMENT_BANDS):
            for alpha in _strata(rng, centre - half, centre + half, k):
                for m in (0, 1):
                    tasks.append({"kind": "series", "config": "series", "m": m,
                                  "alpha": alpha})
        tasks.append({"kind": "limit", "config": "hardy", "m": 0})
    else:
        n_tasks = SMALL_IDENTITY_TASKS if small else IDENTITY_TASKS
        counts = SMALL_IDENTITY_ITEMS if small else IDENTITY_ITEMS
        # |arg a| of the transform sets its truncation point: one draw per slice
        thetas = _strata(rng, 0.05, 0.45, n_tasks)
        for j in range(n_tasks):
            cname = f"psi1_{j:02d}"
            z = _disc(rng, 0.5)
            configs[cname] = {"coefficients": [1.0, 0.5, 0.25],
                              "shifts": sorted(_strata(rng, 0.0, 0.6, 3)),
                              "z_re": z[0], "z_im": z[1]}
            task = {"kind": "identities", "config": cname}
            for kind, n in counts.items():
                task[kind] = _identity_items(kind, n, rng, thetas[j])
            tasks.append(task)
    for cname, cfg in configs.items():
        (workdir / f"{cname}.json").write_text(json.dumps(cfg) + "\n")
    spec = {"workload": name, "tasks": tasks, "probes": probes}
    (workdir / "spec.json").write_text(json.dumps(spec) + "\n")


def _disc(rng: np.random.Generator, radius: float) -> list[float]:
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _identity_items(kind: str, n: int, rng: np.random.Generator, theta: float) -> list:
    if kind == "transform":
        # a real in [0.8, 1.25], then a = e^(+-i theta)
        a_list = [[float(rng.uniform(0.8, 1.25)), 0.0]]
        sign = rng.choice([-1.0, 1.0])
        a_list.append([math.cos(theta), sign * math.sin(theta)])
        return [{"a": a, "z": _disc(rng, 0.5)} for a in a_list[:n]]
    if kind == "general_theta":
        items = []
        while len(items) < n:  # criterion 3's draws: Re(a^2) > 0.05, |z| <= 1.5
            if len(items) % 2:
                phi = rng.uniform(-0.6, 0.6)
                a = [math.cos(phi), math.sin(phi)]
            else:
                a = [rng.uniform(0.5, 1.6), rng.uniform(-0.6, 0.6)]
            z = [float(v) for v in rng.uniform(-1.05, 1.05, 2)]
            if (a[0] ** 2 - a[1] ** 2) <= 0.05 or math.hypot(*z) > 1.5:
                continue
            items.append({"a": [float(a[0]), float(a[1])], "z": z})
        return items
    if kind == "jacobi":
        return [float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, n)]
    if kind == "functional_eq":
        return [[float(rng.uniform(0.2, 0.8)), float(rng.uniform(-30.0, 30.0))]
                for _ in range(n)]
    if kind == "region":
        return rng.uniform(-4.0, 4.0, size=(n, 2)).tolist()
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Set-up: parse and validate, build the tasks
# ---------------------------------------------------------------------------

def load_configs(workdir: Path) -> dict[str, tuple[str, object]]:
    """Parse and validate the workload's shift configs: the step ``setup_s``
    times after the import.  Returns name -> (path, ShiftConfig)."""
    paths = {p.stem: str(p) for p in sorted(workdir.glob("*.json")) if p.name != "spec.json"}
    return {name: (path, cli.parse_config(path)) for name, path in paths.items()}


def load(workdir: Path) -> Workload:
    """Configs plus the task closures built from ``spec.json``."""
    spec = json.loads((workdir / "spec.json").read_text())
    configs = load_configs(workdir)
    name = spec["workload"]
    refs = json.loads(REFS_PATH.read_text()) if name in SCAN else None

    def build(i: int, t: dict, prefix: str) -> Task:
        kind = t["kind"]
        label = f"{prefix}{i:02d}-{kind}"
        if kind == "scan":
            ref_key = SCAN[name][1]
            return Task(label, _scan_task(configs[t["config"]][0], t, refs[ref_key],
                                          workdir / "out" / f"{label}.csv"))
        if kind == "series":
            return Task(label, _series_task(configs[t["config"]][1], t["m"], t["alpha"]))
        if kind == "limit":
            return Task(label, _limit_task(configs[t["config"]][1], t["m"]))
        return Task(label, _identity_bundle(t, configs[t["config"]][1]))

    tasks = tuple(build(i, t, "task") for i, t in enumerate(spec["tasks"]))
    probes = tuple(build(i, t, "probe") for i, t in enumerate(spec["probes"]))
    return Workload(name, tasks, probes)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _reference_zeros(ref: dict, lo: float, hi: float) -> list[float]:
    if not any(a <= lo and hi <= b for a, b in ref["covered"]):
        raise ValueError(f"window [{lo}, {hi}] lies outside the stored references")
    return [t for t in ref["zeros"] if lo <= t <= hi]


def _scan_task(cfg_path: str, t: dict, ref: dict, out: Path) -> Callable[[], Check]:
    lo, hi = t["lo"], t["hi"]
    expected = _reference_zeros(ref, lo, hi)
    argv = ["scan", "--config", cfg_path, "--out", str(out),
            "--t-min", repr(lo), "--t-max", repr(hi), "--step", repr(t["step"]),
            "--tol", repr(t["tol"]), "--workers", str(t["workers"])]

    def run() -> Check:
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            return Check(False, None, f"exit code {code}")
        data = out.read_bytes()
        rows = data.decode().splitlines()[1:]
        found = [float(r.split(",")[2]) for r in rows]
        if len(found) != len(expected):
            return Check(False, None, f"[{lo:.3f}, {hi:.3f}]: {len(found)} zeros, "
                                      f"reference {len(expected)}", len(data))
        err = max((abs(a - b) for a, b in zip(found, expected)), default=0.0)
        digits = _digits(ZERO_TOL, err) if found else None
        return Check(err < ZERO_TOL, digits,
                     f"{len(found)} zeros, worst offset {err:.1e}", len(data))

    return run


def _series_task(cfg, m: int, alpha: float) -> Callable[[], Check]:
    gate = SERIES_GATES[m]

    def run() -> Check:
        numeric = xs.moment_numeric(m, alpha, cfg, SERIES_SETTINGS)
        assembled = xs.moment_series_rhs(m, alpha, cfg, SERIES_SETTINGS)
        diff = abs(numeric - assembled)
        return Check(diff < gate, _digits(gate, diff),
                     f"m={m} alpha={alpha:.5f}: |numeric - series| = {diff:.2e}")

    return run


def _limit_task(cfg, m: int) -> Callable[[], Check]:
    def run() -> Check:
        rel = xs.moment_limit_check(m, cfg)
        return Check(rel < LIMIT_GATE, _digits(LIMIT_GATE, rel),
                     f"m={m} limit: relative discrepancy {rel:.2e}")

    return run


def _psi1(cfg) -> Callable[[], Check]:
    """Criterion 7's boundary limit of psi1 itself (order 0) at every shift.

    Order 2 is left out: for a thin set of (z, lam) the exact distance of the
    second derivative from its limit dips at alpha = pi/4 - 10^-2 below its
    value at 10^-3 (mpmath agrees with the library there to 1e-13), so a
    seeded draw can break the strictly-decreasing premise with no numerical
    fault.  The moments workload checks order 2 against quadrature.
    """
    gate = GATES["psi1_limit"]

    def run() -> Check:
        ok, worst = True, 0.0
        for lam in cfg.shifts:
            lim = xs.psi1_limit_value(cfg.z, lam, 0)
            res = [abs(xs.psi1_alpha_derivative(math.pi / 4.0 - 10.0 ** -k, cfg.z, lam, 0)
                       - lim) for k in (1, 2, 3)]
            ok &= res[0] > res[1] > res[2] and res[2] < gate
            worst = max(worst, res[2])
        return Check(ok, _digits(gate, worst), f"boundary limits, final <= {worst:.2e}")

    return run


def _worst_check(gate: float, what: str, residuals) -> Check:
    worst = max(residuals)
    return Check(worst < gate, _digits(gate, worst), f"{what}: worst residual {worst:.2e}")


def _transform(items) -> Callable[[], Check]:
    pairs = [(complex(*it["a"]), complex(*it["z"])) for it in items]
    return lambda: _worst_check(GATES["transform"], "integral vs both series sides",
                                (xs.transform_identity_residual(a, z) for a, z in pairs))


def _general_theta(items) -> Callable[[], Check]:
    pairs = [(complex(*it["a"]), complex(*it["z"])) for it in items]
    return lambda: _worst_check(GATES["general_theta"], "generalized transformation",
                                (xs.general_theta_residual(a, z) for a, z in pairs))


def _jacobi(items) -> Callable[[], Check]:
    return lambda: _worst_check(GATES["jacobi"], "Jacobi transformation",
                                (xs.jacobi_residual(x) for x in items))


def _functional_eq(items) -> Callable[[], Check]:
    points = [complex(*it) for it in items]

    def residual(s: complex) -> float:
        e1 = xs.eta_completed(s).value
        e2 = xs.eta_completed(1.0 - s).value
        return abs(e1 - e2) / max(1.0, abs(e1))

    return lambda: _worst_check(GATES["functional_eq"], "functional equation",
                                (residual(s) for s in points))


def _region(items) -> Callable[[], Check]:
    points = [complex(x, y) for x, y in items]

    def run() -> Check:
        disagree = 0
        for z in points:
            v1 = xs.classify_inequality(z)
            if abs(v1.margin) <= 1e-9:
                continue
            disagree += v1.inside != xs.classify_decomposition(z).inside
        return Check(disagree == 0, None, f"{disagree} disagreements on {len(points)} points")

    return run


def _identity_bundle(t: dict, psi1_cfg) -> Callable[[], Check]:
    checks = [_transform(t["transform"]), _general_theta(t["general_theta"]),
              _jacobi(t["jacobi"]), _functional_eq(t["functional_eq"]),
              _psi1(psi1_cfg), _region(t["region"])]

    def run() -> Check:
        results = [check() for check in checks]
        digits = [r.digits for r in results if r.digits is not None]
        failed = [r.detail for r in results if not r.ok]
        return Check(not failed, min(digits),
                     "; ".join(failed) or f"all six identities hold, {min(digits):.2f} digits")

    return run
