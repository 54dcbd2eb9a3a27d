"""The benchmark's tracer must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, fn_name, _, _ in tracer.TARGETS:
        mod = importlib.import_module(f"heunspec.{mod_name}")
        if not callable(getattr(mod, fn_name, None)):
            missing.append(f"heunspec.{mod_name}.{fn_name}")
    assert missing == []
