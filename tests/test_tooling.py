"""Tooling guards: the benchmark's tracer finds every function it wraps,
and the package imports no scipy root finder or integrator."""

import ast
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


SRC = Path(__file__).resolve().parent.parent / "src" / "heunspec"
BANNED = ("scipy.optimize", "scipy.integrate")


def test_no_module_imports_scipy_solvers():
    # the root finders and integrators are the package's own; no module,
    # at top level or inside a function, imports scipy's
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if any(name == m or name.startswith(m + ".")
                             for m in BANNED)]
    assert found == []
