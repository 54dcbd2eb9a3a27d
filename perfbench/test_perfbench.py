"""The benchmark's own tests: its checks pass real output, reject a
detuned level and a shortened level list, and its metric names match
BENCHMARK.json.  Each workload runs on a cheap subset of its operations.
"""

import json
import random
import sys

import pytest

import run
import tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
from heunspec import cli  # noqa: E402

SUBSETS = {
    "cf_lowest": lambda op: op.family == "ring5" and op.kind == "v1",
    "hyper_levels": lambda op: op.l <= 0.5,
    "oracle_verify": lambda op: op.l <= 2.0,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_real_output_and_reject_controls(name):
    workload = WORKLOADS[name]
    ops = [op for op in workload.ops(random.Random(7)) if SUBSETS[name](op)]
    outs = [run.run_op(cli, op) for op in ops]
    assert all(out.code == 0 for out in outs)
    assert workload.check(ops, outs) == []
    controls = workload.controls(ops, outs)
    assert {c for c, _ in controls} >= {"detuned level"}
    for control, bad in controls:
        assert workload.check(ops, bad), f"{name}: {control} was accepted"


def test_seed_draws_inputs_but_not_the_make_up():
    def make_up(ops):
        return sorted((op.command, op.kind, op.family or "", op.l,
                       op.index or 0) for op in ops)

    for workload in WORKLOADS.values():
        a = workload.ops(random.Random(3))
        b = workload.ops(random.Random(4))
        assert a == workload.ops(random.Random(3))
        assert a != b
        assert make_up(a) == make_up(b)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "op_p50_s"}
    t = tracer.Tracer()
    t.reset()
    layer = tracer.layer_metrics([(t.stats, 1.0)], [0.0])
    layer.update(tracer.import_metrics(run.SETUP_CMD, run._child_env(),
                                       run.ROOT, 1))
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (k, unit) for k, (_, unit) in layer.items()}
