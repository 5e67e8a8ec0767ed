"""Every function the benchmark's tracer wraps must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name in tracing.TARGETS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"xishift.{module}"), attr, None)
        assert callable(fn), name
