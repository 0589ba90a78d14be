"""The benchmark tracer wraps functions by name; a name it cannot find reads
as zero calls, so every name it lists must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # loaded by path and never installed: install patches modules process-wide
    spec = importlib.util.spec_from_file_location("amalgam_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_functions_resolve():
    tracer = _load_tracer()
    assert tracer.FUNCTIONS
    for module_name, attr, span in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is missing"


def test_tracer_patched_methods_exist():
    from amalgam.grid import Region
    from amalgam.orlicz import YoungFunction

    assert callable(getattr(Region, "node_indices", None))
    assert callable(getattr(YoungFunction, "__call__", None))
    assert "__call__" in vars(YoungFunction)
