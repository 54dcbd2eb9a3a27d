"""Per-layer tracing from outside the program.

Wraps public functions of heunspec modules so each call records a call
count, a size measure where one is named, and self time (the call's
duration minus the time spent in traced calls it made).  A function is
replaced under every name any heunspec module bound it to, because the
modules import each other's functions by name.  Import times come from
fresh interpreters run with -X importtime.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from typing import Callable, Optional

import numpy as np

# (module, function, name of the size measure, measure from the call args)
TARGETS: tuple[tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("spectrum", "_cf_value", "depth_total",
     lambda a, kw: a[3] if len(a) > 3 else kw["depth"]),
    ("spectrum", "infinite_energy", None, None),
    ("spectrum", "finite_spectrum", None, None),
    ("series_engine", "recurrence", None, None),
    ("series_engine", "solve_coeffs_infinite", None, None),
    ("series_engine", "solve_coeffs_finite", None, None),
    ("series_engine", "evaluate_grid", "points",
     lambda a, kw: int(np.size(a[1] if len(a) > 1 else kw["us"]))),
    ("heun_core", "transformed_params", None, None),
    ("special_functions", "tilde_F", None, None),
    ("special_functions", "jacobi", None, None),
    ("shooting", "matching_values", "energies",
     lambda a, kw: int(np.size(a[2] if len(a) > 2 else kw["energies"]))),
    ("shooting", "shooting_match_table", None, None),
    ("verify", "ode_residual", None, None),
    ("verify", "equivalence_suite", None, None),
    ("cli", "cmd_spectrum", None, None),
    ("cli", "cmd_eigenfunction", None, None),
    ("cli", "cmd_verify", None, None),
)

IMPORT_MODULES = (
    "heunspec", "heunspec.exceptions", "heunspec.special_functions",
    "heunspec.heun_core", "heunspec.series_engine", "heunspec.spectrum",
    "heunspec.shooting", "heunspec.verify", "heunspec.cli",
    "scipy.linalg", "scipy.optimize", "scipy.integrate",
)
# Cumulative time only where it differs from self time in a way that
# matters: the whole CLI import and the scipy packages it pulls in.
IMPORT_CUMULATIVE = ("heunspec.cli", "scipy.linalg", "scipy.optimize",
                     "scipy.integrate")


class _Stat:
    __slots__ = ("calls", "size", "self_s", "no_root")

    def __init__(self):
        self.calls = 0
        self.size = 0
        self.self_s = 0.0
        self.no_root = 0


class Tracer:
    """Call counts and self times of the TARGETS, reset per pass."""

    def __init__(self):
        self.stats = {}
        self._children = []   # time spent in traced callees, per open call

    def install(self) -> None:
        from heunspec.exceptions import NoRootError
        modules = [m for name, m in list(sys.modules.items())
                   if name == "heunspec" or name.startswith("heunspec.")]
        for mod_name, fn_name, _, measure in TARGETS:
            orig = getattr(importlib.import_module(f"heunspec.{mod_name}"),
                           fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, measure,
                                 NoRootError)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def reset(self) -> None:
        self.stats = {f"{m}.{f}": _Stat() for m, f, _, _ in TARGETS}

    def _wrap(self, key: str, fn: Callable, measure: Optional[Callable],
              no_root: type) -> Callable:
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[key]
            st.calls += 1
            if measure is not None:
                st.size += measure(args, kwargs)
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except no_root:
                st.no_root += 1
                raise
            finally:
                dt = clock() - t0
                st.self_s += dt - children.pop()
                if children:
                    children[-1] += dt
        return wrapper


def layer_metrics(passes: list[tuple[dict[str, _Stat], float]],
                  pass_wall: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from the first pass, self times as the
    median over passes (every pass runs the same operations), and the
    median wall time of a traced pass.

    passes holds each pass's stats with the factor that scales its raw
    times to reference speed; pass_wall is already scaled.
    """
    first = passes[0][0]
    out = {}
    for mod_name, fn_name, size_name, _ in TARGETS:
        key = f"{mod_name}.{fn_name}"
        st = first[key]
        out[f"{key}.calls"] = (st.calls, "count")
        if size_name is not None:
            out[f"{key}.{size_name}"] = (st.size, "count")
        out[f"{key}.self_s"] = (
            statistics.median(p[key].self_s * f for p, f in passes), "s")
    ie = first["spectrum.infinite_energy"]
    out["spectrum.infinite_energy.rejected"] = (ie.no_root, "count")
    out["spectrum.infinite_energy.accept_ratio"] = (
        (ie.calls - ie.no_root) / ie.calls if ie.calls else 0.0, "ratio")
    out["traced.wall_s"] = (statistics.median(pass_wall), "s")
    return out


def import_metrics(cmd: list[str], env: dict, cwd: str,
                   starts: int) -> dict[str, tuple[float, str]]:
    """Self and cumulative import time of IMPORT_MODULES, median over
    `starts` fresh interpreters run with -X importtime."""
    samples = {m: ([], []) for m in IMPORT_MODULES}
    for _ in range(starts):
        proc = subprocess.run(cmd[:1] + ["-X", "importtime"] + cmd[1:],
                              env=env, cwd=cwd, capture_output=True,
                              text=True, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in samples and self_us.strip().isdigit():
                samples[name][0].append(int(self_us) * 1.0e-6)
                samples[name][1].append(int(cum_us) * 1.0e-6)
    out = {}
    for name, (self_s, cum_s) in samples.items():
        out[f"import.{name}.self_s"] = (
            statistics.median(self_s) if self_s else 0.0, "s")
        if name in IMPORT_CUMULATIVE:
            out[f"import.{name}.cum_s"] = (
                statistics.median(cum_s) if cum_s else 0.0, "s")
    return out
