"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload with ``--small`` (same task structure, tiny sizes) in
both trace modes and checks that

* the last stdout line has exactly the result keys and every metric that
  BENCHMARK.json names for that mode, with its unit and a finite value;
* every timed task passes;
* on the scan workloads the probe windows the scanner is known to fail are
  counted in ``pass_frac`` and kept out of the timings;
* a directory holding only BENCHMARK.json and the benchmark's files makes
  the benchmark exit non-zero without a result.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_run(workload: str, trace: int) -> list[str]:
    errors: list[str] = []
    proc = _run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: timed tasks failed: {detail['failures']}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} is {got}, unit should be {m['unit']}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            errors.append(f"{where}: {m['name']} value {got['value']!r}")
    # probes run untimed: timed executions and per-task timings hold tasks only
    if result["attempted"] != detail["reps"] * detail["tasks"]:
        errors.append(f"{where}: attempted {result['attempted']} includes probes")
    if workload.startswith("scan"):
        failed_probes = [p for p in detail["probes"] if not p["ok"]]
        if not failed_probes:
            errors.append(f"{where}: the known-failing probe windows passed")
        if trace == 0:
            total = detail["tasks"] + len(detail["probes"])
            expect = (total - len(failed_probes)) / total  # every timed task passed
            if abs(result["metrics"]["pass_frac"]["value"] - expect) > 1e-12:
                errors.append(f"{where}: pass_frac does not count the failed probes")
            if detail["task_tail"]["n"] != detail["tasks"]:
                errors.append(f"{where}: probes entered the task percentiles")
    return errors


def _check_bare_directory() -> list[str]:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run("identities", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    errors: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errs = _check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not errs else 'FAIL'}")
            errors += errs
    errs = _check_bare_directory()
    print(f"bare directory exits non-zero: {'ok' if not errs else 'FAIL'}")
    errors += errs
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
