"""Benchmark of the heunspec command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are in workloads.py.  One
process calls heunspec.cli.main with stdout captured, one operation
after another (a closed loop with one client and no extra threads).
After one untimed operation it runs whole passes over the seed's
operation list until the next pass would end after --seconds.  Every
output is checked (see workloads.py), every pass must repeat the first
pass byte for byte, and each check must reject a detuned or shortened
copy of a real output.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: setup_s (median fresh-interpreter import of
heunspec.cli), wall_s and cpu_s (median wall and process CPU time of
one pass) and op_p50_s (median operation latency).  With --trace 1 it
carries the per-layer metrics of tracer.py instead, from a traced run.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; the sandbox has 2 cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer as tracing
from workloads import WORKLOADS, Output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 5
SETUP_PROBES = 9
IMPORT_STARTS = 3
SETUP_CMD = [sys.executable, "-c", "import heunspec.cli"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Median time from a fresh interpreter to heunspec.cli imported,
    scaled to reference speed."""
    times = []
    before = speed.probe(SETUP_PROBES)
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(SETUP_CMD, env=_child_env(), cwd=ROOT, check=True)
        elapsed = time.perf_counter() - t0
        after = speed.probe(SETUP_PROBES)
        times.append(speed.scaled(elapsed, before.wall, after.wall))
        before = after
    return statistics.median(times)


def run_op(cli, op) -> Output:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=err)
            code = None
    if code != 0:
        sys.stderr.write(f"operation {op.argv()} failed ({code}): "
                         f"{err.getvalue().strip()}\n")
    return Output(code, out.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heunspec" / "cli.py").is_file():
        sys.stderr.write(f"heunspec sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from heunspec import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"heunspec was imported from {cli.__file__}, "
                         f"not from {SRC}\n")
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = workload.ops(random.Random(args.seed))

    # One CPU for this process and the interpreters it starts, so the
    # speed samples come from the CPU the measured code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics = tracing.import_metrics(SETUP_CMD, _child_env(), ROOT,
                                         IMPORT_STARTS)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.reset()
    else:
        setup_s = measure_setup()
    run_op(cli, ops[0])   # untimed warm-up
    first = None
    repeated = True
    pass_wall, pass_cpu, op_s, layer_passes, raw_pass = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    before = speed.probe()
    while True:
        if args.trace:
            tracer.reset()
        outs = []
        wall = cpu = raw_wall = 0.0
        for op in ops:
            w0, c0 = time.perf_counter(), time.process_time()
            outs.append(run_op(cli, op))
            w, c = time.perf_counter() - w0, time.process_time() - c0
            after = speed.probe()
            op_s.append(speed.scaled(w, before.wall, after.wall))
            wall += op_s[-1]
            cpu += speed.scaled(c, before.cpu, after.cpu)
            raw_wall += w
            before = after
        pass_wall.append(wall)
        pass_cpu.append(cpu)
        raw_pass.append(raw_wall)
        if args.trace:
            layer_passes.append((tracer.stats, wall / raw_wall))
        failed += sum(out.code != 0 for out in outs)
        if first is None:
            first = outs
        repeated = repeated and outs == first
        if time.perf_counter() - start + raw_wall > args.seconds:
            break

    problems = workload.check(ops, first)
    if not repeated:
        problems.append("a pass gave other output than the first pass")
    for name, bad in workload.controls(ops, first):
        if not workload.check(ops, bad):
            problems.append(f"the checks accepted a {name}")
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")

    if args.trace:
        metrics.update(tracing.layer_metrics(layer_passes, pass_wall))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(pass_wall), "s"),
            "cpu_s": (statistics.median(pass_cpu), "s"),
            "op_p50_s": (statistics.median(op_s), "s"),
        }
    sys.stderr.write(f"{args.workload}: {len(pass_wall)} passes of "
                     f"{len(ops)} operations, {failed} failed, "
                     f"{len(problems)} check failures; unscaled pass "
                     f"wall time {statistics.median(raw_pass):.3f} s\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(pass_wall),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
