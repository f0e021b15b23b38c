"""Tests of the benchmark's own code: generator, metric names, span
arithmetic, checks and the determinism of the seed-only metrics.

Run with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from layers import Recorder, Span, layer_rows, self_times
from repro.scheduler.events import AttemptOutcome, TraceEntry, Violation

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def describe(inputs: workloads.Inputs) -> tuple:
    """Everything the program receives, as comparable text."""
    workflow = inputs.workflow
    return (
        [
            (i.suffix, repr(i.scripts), sorted(map(repr, i.expect_occur)),
             sorted(map(repr, i.expect_absent)))
            for i in inputs.instances
        ],
        inputs.net_seed,
        None if workflow is None else (
            list(map(repr, workflow.dependencies)),
            sorted((repr(e), s) for e, s in workflow.sites.items()),
            sorted((repr(e), repr(a)) for e, a in workflow.attributes.items()),
        ),
        None if inputs.template is None else list(
            map(repr, inputs.template.dependencies)
        ),
        list(map(repr, inputs.cross_dependencies)),
        repr(inputs.fault_plan),
        inputs.loss,
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = describe(workloads.generate(workload, 7, 1, instances=8))
    again = describe(workloads.generate(workload, 7, 1, instances=8))
    other = describe(workloads.generate(workload, 8, 1, instances=8))
    assert first == again
    assert first != other


def test_mutex_workloads_share_their_inputs():
    coupled = workloads.generate("mutex_coupled", 3, 0, instances=8)
    sharded = workloads.generate("mutex_sharded", 3, 0, instances=8)
    assert describe(coupled)[0] == describe(sharded)[0]
    assert describe(coupled)[4] == describe(sharded)[4]


def test_metric_names_and_counts():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(per_layer) <= 128
    for name in e2e + per_layer + list(benchmark_workloads()):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)


def benchmark_workloads():
    return [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_json_matches_the_runner():
    assert benchmark_workloads() == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        run.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_times_subtract_children():
    spans = [
        Span("batch", 0.0, 10.0, None, 1),
        Span("setup", 1.0, 4.0, 0, 1),
        Span("temporal.synthesis", 1.5, 3.0, 1, 1),
        Span("scheduler.construct", 3.0, 3.5, 1, 1),
        Span("scheduler.run", 4.0, 7.0, 0, 1),
        Span("algebra.verify", 7.0, 9.5, 0, 1),
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 3.0 - 2.5, 3.0 - 2.0, 1.5, 0.5, 3.0, 2.5]
    )
    rows = layer_rows(spans, self_times(spans))
    assert rows == {1: pytest.approx({
        "residual": 2.5, "temporal.synthesis": 1.5,
        "scheduler.construct": 0.5, "scheduler.run": 3.0,
        "algebra.verify": 2.5,
    })}
    assert sum(rows[1].values()) == pytest.approx(10.0)


def test_self_times_clip_children_to_the_parent():
    spans = [Span("batch", 0.0, 2.0, None, 1), Span("setup", 1.5, 3.0, 0, 1)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_recorded_self_times_add_up_to_each_batch():
    rec = Recorder(traced=True)
    for batch in (1, 2):
        rec.begin_batch(batch)
        with rec.span("batch"):
            with rec.span("setup"):
                with rec.span("temporal.synthesis"):
                    sum(range(1000))
            with rec.span("scheduler.run"):
                sum(range(1000))
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0, None, 4, 5, 4]
    rows = layer_rows(rec.spans, self_times(rec.spans))
    roots = [s for s in rec.spans if s.parent is None]
    for row, root in zip(rows.values(), roots):
        assert sum(row.values()) == pytest.approx(root.end - root.start)


def test_mean_fastest_takes_each_variants_fastest_repeat():
    samples = [(0, 3.0), (1, 5.0), (0, 1.0), (1, 4.0), (0, 2.0)]
    assert run.mean_fastest(samples) == pytest.approx((1.0 + 4.0) / 2)


def small(monkeypatch, instances=8, variants=2):
    for name, spec in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(
            workloads.WORKLOADS, name,
            dataclasses.replace(
                spec, instances=instances, variants=variants,
                reference=variants,
            ),
        )


def run_once(workload, seed, trace=0, out=None):
    args = types.SimpleNamespace(
        workload=workload, seed=seed, seconds=0.0, trace=trace, out=out
    )
    return run.run(args)


SEED_ONLY = (
    "makespan_vt", "decision_vt_p50", "decision_vt_p99",
    "msgs_per_instance", "ok_frac",
)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_only_metrics_repeat_exactly(monkeypatch, workload):
    small(monkeypatch)
    first = run_once(workload, 5)
    again = run_once(workload, 5)
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == 8 * 2  # the reference cycle alone
    for name in SEED_ONLY:
        assert first["metrics"][name] == again["metrics"][name], name
    assert set(first["metrics"]) == set(run.END_TO_END)


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    small(monkeypatch)
    result = run_once("travel_merged", 2, trace=1, out=str(tmp_path))
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0
    lines = (tmp_path / "spans_travel_merged_seed2.jsonl").read_text()
    names = {json.loads(line)["name"] for line in lines.splitlines()}
    assert names == {
        "batch", "setup", "temporal.synthesis", "scheduler.construct",
        "scheduler.run", "algebra.verify",
    }


def fake_outcome(entries=(), unsettled=(), violations=()):
    inputs = workloads.generate("travel_merged", 1, 0, instances=2)
    return layers.BatchOutcome(
        inputs=inputs,
        entries=list(entries),
        violations=list(violations),
        unsettled=list(unsettled),
        makespan=1.0,
        report={},
        recovery_latencies=[],
        messages=1,
    )


def settled(*events):
    return [TraceEntry(e, 1.0, 0.0, AttemptOutcome.ACCEPTED) for e in events]


def test_failed_instances_counts_wrong_and_unsettled_outcomes():
    inputs = workloads.generate("travel_merged", 1, 0, instances=2)
    right = [
        e for inst in inputs.instances for e in sorted(
            inst.expect_occur, key=repr
        )
    ]
    assert run.failed_instances(fake_outcome(settled(*right))) == 0
    missing = [e for e in right if not e.name.endswith("_i1")]
    assert run.failed_instances(fake_outcome(settled(*missing))) == 1
    absent = sorted(inputs.instances[0].expect_absent, key=repr)
    assert run.failed_instances(
        fake_outcome(settled(*right, *absent))
    ) == 1
    base = sorted(inputs.instances[1].expect_occur, key=repr)[0].base
    assert run.failed_instances(
        fake_outcome(settled(*right), unsettled=[base])
    ) == 1


def test_theorem_6_violation_is_fatal():
    outcome = fake_outcome(violations=[Violation("dependency", "x")])
    with pytest.raises(run.CheckFailed, match="Theorem 6"):
        run.Reference().add(outcome)


def test_sharded_settled_set_mismatch_is_fatal():
    inputs = workloads.generate("travel_merged", 1, 0, instances=2)
    events = sorted(inputs.instances[0].expect_occur, key=repr)
    with pytest.raises(run.CheckFailed, match="settle different events"):
        run.Reference().add(
            fake_outcome(settled(*events)),
            fake_outcome(settled(*events[1:])),
        )


def test_exits_2_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "travel_merged",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
