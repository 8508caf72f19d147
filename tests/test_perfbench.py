"""The benchmark harness in perfbench/ reaches into chaosrng by name: its
output checks import package functions, and its tracer wraps the functions
listed in ``tracing.WRAPPED`` and reads counters off their results. These
tests fail when the package drops or reshapes a name the harness needs."""
import importlib
import importlib.util
import sys
from pathlib import Path

from chaosrng.maps import builtin_pair
from chaosrng.symbolic import refine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_perfbench_checks_import():
    _load("checks")


def test_perfbench_wrapped_names_resolve():
    tracing = _load("tracing")
    for span, (module, attr) in tracing.WRAPPED.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), span
    table = refine(*builtin_pair("tailed-tent"), 6)
    counters = tracing.COUNTERS["symbolic.refine"]((), table)
    assert counters["intervals"] == table.interval_count(6)
    assert tracing.COUNTERS["cli.SequenceTable.to_csv"]((), table.to_csv())["bytes"] > 0
