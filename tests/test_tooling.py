"""Tooling guards: the benchmark's tracer finds every function it wraps,
the package imports no scipy root finder or integrator, and every
function defined in the package is used in it or listed with a reason."""

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


# Functions kept in src although no code in src calls them, each with
# the reason it stays.
UNREFERENCED = {
    "spectrum._cf_value": "the continued-fraction reference for sections; "
                          "a tracer target",
    "spectrum.infinite_energy": "a tracer target until the benchmark's "
                                "tracer is retargeted",
    "special_functions.tilde_F": "the scalar kernel reference; a tracer "
                                 "target",
    "special_functions._tilde_f_rows": "the row reference for _tilde_f_sum",
    "shooting.monodromy_match_table": "kept for the monodromy oracle in "
                                      "verify",
}


def test_every_function_is_referenced_in_src():
    # every function and non-dunder method defined in the package is
    # named somewhere in its code (a call, an attribute or a value;
    # docstrings are not code), or stands on UNREFERENCED with a reason
    defined, named = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreferenced = {name for name in defined
                    if name.rpartition(".")[2] not in named}
    assert unreferenced == set(UNREFERENCED)
