"""Tooling guards: the benchmark's tracer finds every function it wraps
and measures the parameter it names, the package imports no scipy root
finder or integrator, every function defined in the package is used in
it or listed with a reason, every dataclass field and module constant
is read in it, every parameter default is overridden by some call in
it, every subcommand option is read by the command line, the docs (the
tests' too) name only what the package defines, the README's library
quickstart runs and prints what its comments say, its command-line
examples run, and no command sums 2F1 kernel rows one term at a time."""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import math
import re
import shlex
import tokenize
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    missing = []
    for mod_name, fn_name, _, _ in _tracer().TARGETS:
        mod = importlib.import_module(f"heunspec.{mod_name}")
        if not callable(getattr(mod, fn_name, None)):
            missing.append(f"heunspec.{mod_name}.{fn_name}")
    assert missing == []


def test_tracer_measures_read_one_parameter():
    # a size measure reads its argument as a[i] when the call passed it by
    # position, else as kw[name]: parameter i of the wrapped function must
    # be name, or a signature edit makes --trace 1 measure another value
    [targets] = [node.value for node in ast.parse(TRACER.read_text()).body
                 if isinstance(node, ast.AnnAssign)
                 and node.target.id == "TARGETS"]
    read = []
    for entry in targets.elts:
        mod_name, fn_name = (const.value for const in entry.elts[:2])
        measure = entry.elts[3]
        if not isinstance(measure, ast.Lambda):
            continue
        subscripts = [node for node in ast.walk(measure.body)
                      if isinstance(node, ast.Subscript)]
        [pos] = [node.slice.value for node in subscripts
                 if node.value.id == measure.args.args[0].arg]
        [name] = [node.slice.value for node in subscripts
                  if node.value.id == measure.args.args[1].arg]
        fn = getattr(importlib.import_module(f"heunspec.{mod_name}"), fn_name)
        read.append((f"{mod_name}.{fn_name}",
                     list(inspect.signature(fn).parameters)[pos], name))
    assert len(read) == sum(measure is not None
                            for *_, measure in _tracer().TARGETS)
    assert [(fn, at) for fn, at, name in read if at != name] == []


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute)
                and target.attr == "dataclass"):
            return True
    return False


def test_every_dataclass_field_is_read_in_src():
    # every field of a dataclass defined in the package is read as an
    # attribute (obj.field, not an assignment) somewhere in its code
    fields, read = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [f"{path.stem}.{node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    assert fields
    assert [f for f in fields if f.rpartition(".")[2] not in read] == []


def test_every_module_constant_is_read_in_src():
    # every name a module of the package assigns at top level is read
    # (loaded as a name or an attribute) somewhere in its code
    assigned, read = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            assigned += [f"{path.stem}.{node.id}" for target in targets
                         for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    assert assigned
    assert [a for a in assigned if a.rpartition(".")[2] not in read] == []


# Parameters with a default that no call in src passes, each with the
# reason the default stays.
DEFAULTS_UNSET = {
    "cli.main.argv": "the entry point; tests and the benchmark pass argv",
    "spectrum.infinite_energy.bracket": "infinite_energy stands on "
                                        "UNREFERENCED",
}


def test_every_parameter_default_is_set_in_src():
    # every parameter with a default, of every function in the package,
    # is passed by some call of that name in its code (by keyword, by
    # position, or through * or **), or stands on DEFAULTS_UNSET; a
    # default that no caller changes is a constant, not a parameter
    defaulted, calls = [], {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                # a method's call sites do not pass self or cls
                skip = int(bool(positional)
                           and positional[0].arg in ("self", "cls"))
                first = len(positional) - len(a.defaults)
                defaulted += [(path.stem, node.name, arg.arg, i - skip)
                              for i, arg in enumerate(positional)
                              if i >= first]
                defaulted += [(path.stem, node.name, arg.arg, None)
                              for arg, default in zip(a.kwonlyargs,
                                                      a.kw_defaults)
                              if default is not None]
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), keywords))
    unset = {f"{mod}.{fn}.{arg}" for mod, fn, arg, pos in defaulted
             if not any(arg in kws or None in kws
                        or (pos is not None and n > pos)
                        for n, kws in calls.get(fn, ()))}
    assert unset == set(DEFAULTS_UNSET)


def _args_read(func: ast.FunctionDef) -> set[str]:
    """Names read as args.<name> in func."""
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
            and isinstance(node.ctx, ast.Load)}


def test_no_subcommand_accepts_an_option_it_ignores():
    # every option of a subcommand (but --help) is read as args.<dest> by
    # its handler, or by a cli function the handler passes args to
    from heunspec.cli import build_parser
    funcs = {node.name: node
             for node in ast.parse((SRC / "cli.py").read_text()).body
             if isinstance(node, ast.FunctionDef)}
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    ignored = []
    for name, sub in subparsers.choices.items():
        handler = funcs[sub.get_default("func").__name__]
        helpers = {node.func.id for node in ast.walk(handler)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id in funcs
                   and any(isinstance(arg, ast.Name) and arg.id == "args"
                           for arg in node.args)}
        read = _args_read(handler).union(*(_args_read(funcs[h])
                                           for h in helpers))
        ignored += [f"{name}/{action.dest}" for action in sub._actions
                    if action.dest != "help" and action.dest not in read]
    assert ignored == []


README = Path(__file__).resolve().parent.parent / "README.md"


def _defined_in_src() -> dict[str, set[str]]:
    """The names each module of the package defines: its functions,
    classes and methods, and every name it assigns."""
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        defined[path.stem] = {
            node.name if hasattr(node, "name") else node.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return defined


# a private name: _ and a letter, not part of a word or of D'_n
PRIVATE = re.compile(r"(?<![\w'])_[A-Za-z]\w*")
# module.name, or heunspec.module.name, not part of a longer dotted name
DOTTED = re.compile(r"(?<![\w.])(?:heunspec\.)?([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def _docs(text: str) -> list[str]:
    """The docstrings and comments of the Python source text."""
    docs = [ast.get_docstring(node) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef))]
    docs += [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(text).readline) if tok.type == tokenize.COMMENT]
    return [doc for doc in docs if doc]


def test_docs_name_only_what_src_defines():
    # every private name in a docstring or comment of the package is
    # defined in it, every module.name in a docstring or comment of the
    # tests names what that module of the package defines, and every
    # backticked module.name or _name of the README is defined in the
    # package (module.name in that module)
    defined = _defined_in_src()
    anywhere = set().union(*defined.values())
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        stale += [f"{path.name}: {name}" for doc in _docs(path.read_text())
                  for name in PRIVATE.findall(doc) if name not in anywhere]
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        stale += [f"{path.name}: {module}.{name}"
                  for doc in _docs(path.read_text())
                  for module, name in DOTTED.findall(doc)
                  if module in defined and name not in defined[module]]
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    spans = [span.removeprefix("heunspec.")
             for span in re.findall(r"`([^`\n]+)`", text)]
    assert any(span.partition(".")[0] in defined for span in spans)
    stale += [f"README: {span}" for span in spans
              if re.fullmatch(r"_[A-Za-z]\w*", span) and span not in anywhere
              or re.fullmatch(r"\w+\.\w+", span)
              and span.partition(".")[0] in defined
              and span.partition(".")[2] not in defined[span.partition(".")[0]]]
    assert stale == []


def test_readme_quickstart_runs_as_documented():
    # the "Library quickstart" block, run as it stands: its three prints
    # and E0 must show what the block's comments claim
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    names, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), names)
    energies, residual, roots = out.getvalue().splitlines()
    energies, roots = ast.literal_eval(energies), ast.literal_eval(roots)
    assert str(energies[0]).startswith("-9.3166")
    assert str(energies[1]).startswith("-2.6833")
    assert float(residual) < 1e-9
    assert len(roots) == 2
    assert all(abs(r - E) <= 1e-6 for r, E in zip(roots, energies))
    assert str(names["E0"]).startswith("2.42843703")


def test_readme_cli_examples_run():
    # each "heunspec ..." command of the "Command line" block, through
    # cli.main: it exits 0 and prints something
    from heunspec.cli import main
    section = README.read_text()
    section = section[section.index("## Command line"):]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("heunspec ")]
    assert len(commands) == 4
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0 and out.getvalue(), argv


def test_cli_never_sums_kernel_rows_one_term_at_a_time(monkeypatch):
    # _series_rows, the per-term grid loop, is a test reference: a
    # half-odd-l bold and bar eigenfunction, an integer-l verify and a
    # two-sided spectrum all run with it raising
    from heunspec import special_functions
    from heunspec.cli import main

    def reference_only(*args):
        raise AssertionError("_series_rows reached")
    monkeypatch.setattr(special_functions, "_series_rows", reference_only)
    for argv in (
            ["eigenfunction", "--potential", "v1", "--l", "5.5", "--k2",
             "0.5", "--family", "bold5", "--index", "3"],
            ["eigenfunction", "--potential", "v2", "--l", "5.5", "--k2",
             "0.75", "--family", "bar7", "--index", "5", "--format", "json"],
            ["verify", "--potential", "v2", "--l", "2", "--k2", "0.5"],
            ["spectrum", "--potential", "v1", "--l", "4.5", "--k2", "0.5",
             "--family", "bold6"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0 and out.getvalue(), argv
