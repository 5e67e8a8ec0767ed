"""xishift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: scan-shifted, scan-hardy, moments, identities (see NOTES.md).

A run writes the workload's seeded inputs, repeats the workload's timed
task set for about ``--seconds`` (at least once) and runs the probe windows
once, untimed.  Every timed task sits between calibration slices, and
times are reported in reference seconds (``calibrate.py``), so that the
host's changes of speed do not show as changes of the program.  With
``--trace 0`` it also times ``setup_s`` in fresh interpreters between
repetitions and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics
and the tracing overhead.  The last line of stdout is the result object; the
line before it holds the details (repetitions, measured times and speed
factors, tail percentile and task count, probe outcomes, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 9  # at least; one more is taken after every repetition
TAIL_BEYOND = 10  # the tail percentile leaves at least this many tasks beyond it
# numpy's BLAS pool does no work here; pin it so the run stays within 2 threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _setup_sample(workdir: Path, calibrate) -> tuple[float, float]:
    """(measured seconds, speed factor from the slices just before and after)."""
    before = calibrate.time_slice()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True, env=os.environ,
    )
    after = calibrate.time_slice()
    return float(out.stdout.strip().splitlines()[-1]), calibrate.factor([before, after])


def _run_rep(tasks, workloads, calibrate=None) -> dict:
    """One pass over the task set; failures are recorded, not raised.  With
    ``calibrate``, calibration slices come before the first task and after
    every task, outside the task times."""
    clock = time.perf_counter
    times, checks = [], []
    groups = [calibrate.slices_after(0.0)] if calibrate else []
    for task in tasks:
        t0 = clock()
        try:
            check = task.run()
        except Exception as exc:  # a task that raises counts as failed
            check = workloads.Check(False, None, f"raised {type(exc).__name__}: {exc}")
        times.append(clock() - t0)
        checks.append(check)
        if calibrate:
            groups.append(calibrate.slices_after(times[-1]))
    rep = {"wall": sum(times), "times": times, "checks": checks}
    if calibrate:
        # each task is rescaled by the slices on both sides of it
        ref = [t * calibrate.factor(groups[i] + groups[i + 1]) for i, t in enumerate(times)]
        rep.update(ref_times=ref, ref_wall=sum(ref), factor=sum(ref) / sum(times))
    return rep


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs with the same task structure (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "xishift" / "__init__.py").is_file():
        print(f"error: no xishift sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workloads.write_inputs(args.workload, args.seed, workdir, args.small)
        wl = workloads.load(workdir)
        setup = (lambda: _setup_sample(workdir, calibrate)) if args.trace == 0 else None
        result, detail = _measure(wl, args, setup, tracing, workloads, calibrate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _measure(wl, args, setup, tracing, workloads, calibrate) -> tuple[dict, dict]:
    """Repetitions, probes and metrics.  ``setup`` takes one set-up sample, or
    is None; samples are spread over the run like the repetitions, so both
    see the same spells of a busy host."""
    tracer = tracing.Tracer() if args.trace else None
    calibrate.time_slice()  # warm-up: first-call costs stay out of the factors
    setup_samples = [setup() for _ in range(3)] if setup else []
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rep = _run_rep(wl.tasks, workloads, calibrate)
        finally:
            if traced:
                tracer.uninstall()
        rep["traced"] = traced
        rep["span"] = time.perf_counter() - t0
        reps.append(rep)
        if setup:
            setup_samples.append(setup())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["span"] for r in reps)
        if len(reps) >= (2 if tracer else 1) and elapsed + typical > args.seconds:
            break
    while setup and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup())
    probes = []
    for probe in wl.probes:
        run = _run_rep([probe], workloads)
        check = run["checks"][0]
        probes.append({"name": probe.name, "ok": check.ok, "detail": check.detail,
                       "seconds": run["wall"]})

    plain = [r for r in reps if not r["traced"]]
    n_tasks = len(wl.tasks)
    per_task = [statistics.median(r["ref_times"][i] for r in plain) for i in range(n_tasks)]
    task_ok = [all(r["checks"][i].ok for r in reps) for i in range(n_tasks)]
    executions = [(t.name, c) for r in reps for t, c in zip(wl.tasks, r["checks"])]
    failed = [f"{name}: {c.detail}" for name, c in executions if not c.ok]
    digits = [c.digits for _name, c in executions if c.ok and c.digits is not None]
    passed = sum(task_ok) + sum(p["ok"] for p in probes)
    wall = statistics.median(r["ref_wall"] for r in plain)

    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "reps": len(reps), "rep_walls_s": [r["wall"] for r in reps],
        "rep_factors": [r["factor"] for r in reps],
        "tasks": n_tasks, "probes": probes,
        "task_median_ref_s": {t.name: v for t, v in zip(wl.tasks, per_task)},
        "pass_frac": f"{passed}/{n_tasks + len(probes)} tasks and probes passed",
        "failures": failed[:20],
        "setup_samples_s": [s for s, _k in setup_samples],
        "setup_factors": [k for _s, k in setup_samples],
    }
    if args.trace == 0:
        # per repetition, so each figure sees the host as one repetition did
        p50 = statistics.median(statistics.median(r["ref_times"]) for r in plain)
        tail = statistics.median(_tail(r["ref_times"])[0] for r in plain)
        detail["task_tail"] = {"percentile": _tail(per_task)[1], "n": n_tasks}
        metrics = {
            "setup_s": _metric(statistics.median(s * k for s, k in setup_samples), "s"),
            "wall_s": _metric(wall, "s"),
            "task_p50_s": _metric(p50, "s"),
            "task_tail_s": _metric(tail, "s"),
            "pass_frac": _metric(passed / (n_tasks + len(probes)), "frac"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": _metric(min(digits, default=0.0), "digits"),
        }
    else:
        traced = [r for r in reps if r["traced"]]
        traced_wall = sum(r["wall"] for r in traced)
        out_bytes = sum(c.out_bytes for r in traced for c in r["checks"])
        layers = tracing.layer_metrics(tracer.spans, traced_wall, len(traced), out_bytes)
        units = {"self_pct": "%", "us_per_point": "us", "refine_share": "%",
                 "roundoff_frac": "frac", "output_bytes": "B"}
        metrics = {k: _metric(v, units.get(k.rsplit(".", 1)[1], "count"))
                   for k, v in layers.items()}
        traced_med = statistics.median(r["ref_wall"] for r in traced)
        metrics["trace.wall_s"] = _metric(traced_med, "s")
        metrics["trace.overhead_s"] = _metric(traced_med - wall, "s")
        metrics["trace.spans"] = _metric(len(tracer.spans) / len(traced), "count")
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{wl.name}-s{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(HERE.parent))
    result = {
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
