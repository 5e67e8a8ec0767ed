"""The package still serves the benchmark: each workload's first task passes.

perfbench/workloads.py is loaded by path, as the benchmark runner loads it,
so a renamed entry point or settings keyword that the benchmark uses fails
here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["scan-shifted", "scan-hardy", "moments", "identities"])
def test_first_task_passes(workloads, name, tmp_path):
    assert name in workloads.WORKLOADS
    workdir = tmp_path / name
    workloads.write_inputs(name, 3, workdir, small=True)
    task = workloads.load(workdir).tasks[0]
    check = task.run()
    assert check.ok, (task.name, check.detail)
