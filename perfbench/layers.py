"""Run one batch through the program's public layer functions, timing
each call from outside.

Every call into a layer sits inside a :meth:`Recorder.span`, so the
same code gives the untraced per-layer durations (end-to-end metrics)
and, with ``traced=True``, a span tree per batch::

    batch
      setup
        temporal.synthesis | workflows.template
        scheduler.construct
      | setup
        scale.plan
      scheduler.run | scale.run_sharded
      algebra.verify            (merged paths; shards verify in-worker)

``batch`` also covers the generator and cache clearing, so a batch's
self times -- ``batch`` and ``setup`` forming the residual -- add up
to its wall time.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.helpers import clear_symbolic_caches
from repro.scale import instance_spec, plan_shards, run_sharded, shutdown_pool
from repro.scheduler import DistributedScheduler
from repro.sim.network import ConstantLatency, NetworkStats
from repro.temporal.guards import workflow_guards
from repro.workflows.template import WorkflowTemplate

from workloads import Inputs, generate

#: spans of the harness itself rather than of a program layer
STRUCTURAL = ("batch", "setup")
#: shards per sharded plan (SC7 uses 4)
SHARDS = 4


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the run's span list
    batch: int


class Recorder:
    """Durations of the current batch's spans; with ``traced`` also
    the span records (kept in memory until the run ends)."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.batch = 0
        self.durations: dict[str, float] = {}
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin_batch(self, batch: int) -> None:
        self.batch = batch
        self.durations = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        if self.traced:
            self._stack.append(len(self.spans))
            self.spans.append(None)  # placeholder keeps parent indices
        try:
            yield
        finally:
            end = time.perf_counter()
            self.durations[name] = self.durations.get(name, 0.0) + end - start
            if self.traced:
                index = self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                self.spans[index] = Span(name, start, end, parent, self.batch)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one parent never overlap (the harness is sequential),
    but are clipped to the parent's interval all the same.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            covered[span.parent] += max(0.0, hi - lo)
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_rows(
    spans: list, selfs: list[float]
) -> dict[int, dict[str, float]]:
    """Per timed batch id, the self time of each layer; ``batch`` and
    ``setup`` -- the harness's own spans -- fold into ``residual``.
    Each row sums to its batch's wall time.  The warm-up batch is
    left out."""
    rows: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        if span.batch == 0:
            continue
        row = rows.setdefault(span.batch, {})
        key = "residual" if span.name in STRUCTURAL else span.name
        row[key] = row.get(key, 0.0) + own
    return rows


def _counter(report: dict, name: str) -> float:
    return report.get("counters", {}).get(name, {}).get("total", 0)


@dataclass
class BatchOutcome:
    """What one batch produced, as plain data for metrics and checks."""

    inputs: Inputs
    entries: list  # TraceEntry, in settlement order
    violations: list
    unsettled: list
    makespan: float
    report: dict  # metrics_report() or the sharded merged metrics
    recovery_latencies: list[float]
    #: messages on the wire, acks, retransmits and cross-shard included
    messages: int
    table_size: int = 0
    guard_cubes: int = 0
    verify_deps: int = 0
    actors: int = 0
    plan: dict = field(default_factory=dict)

    def counts(self) -> dict[str, float]:
        """The per-layer counts of one batch, from the public reports."""
        report = self.report
        network = report.get("network", {})
        by_kind = network.get("by_kind", {})
        watch = report.get("kernel", {}).get("watch", {})
        attempts = _counter(report, "attempts")
        fresh = NetworkStats(**network).fresh_payloads() if network else 0
        plan = self.plan
        return {
            "temporal.guard_cubes": self.guard_cubes,
            "temporal.table_size": self.table_size,
            "scheduler.actors": self.actors,
            "scheduler.guard_evals": _counter(report, "guard_evals"),
            "scheduler.parked": _counter(report, "parked"),
            "scheduler.not_yet_rounds": _counter(report, "not_yet_rounds"),
            "scheduler.promises_granted": _counter(
                report, "promises_granted"
            ),
            "scheduler.fire_ratio": (
                _counter(report, "fired") / attempts if attempts else 0.0
            ),
            "temporal.watch_wakes": watch.get("wakes", 0),
            "temporal.watch_skips": watch.get("skips", 0),
            "sim.messages": self.messages,
            "sim.announce_messages": by_kind.get("announce", 0),
            "sim.dropped": network.get("dropped", 0),
            "sim.duplicated": network.get("duplicated", 0),
            "sim.retransmits": network.get("retransmits", 0),
            "sim.dedup_discards": network.get("dedup_discards", 0),
            "sim.acks": network.get("acks_sent", 0),
            "sim.retransmit_ratio": (
                network.get("retransmits", 0) / fresh if fresh else 0.0
            ),
            "sim.recovery_vt": (
                statistics.mean(self.recovery_latencies)
                if self.recovery_latencies else 0.0
            ),
            "algebra.verify_deps": self.verify_deps,
            "algebra.trace_len": len(self.entries),
            "scale.cut_weight": plan.get("cut_weight", 0),
            "scale.cross_messages": plan.get("cross_messages", 0),
            "scale.shard_skew": plan.get("shard_skew", 0.0),
            "scale.workers": plan.get("workers", 0),
        }


def _merged_batch(inputs: Inputs, rec: Recorder) -> BatchOutcome:
    workflow = inputs.workflow
    with rec.span("setup"):
        if inputs.template is not None:
            with rec.span("workflows.template"):
                workflow, guards = WorkflowTemplate(
                    inputs.template
                ).instantiate_merged(i.suffix for i in inputs.instances)
        else:
            with rec.span("temporal.synthesis"):
                guards = workflow_guards(workflow.dependencies)
        with rec.span("scheduler.construct"):
            sched = DistributedScheduler(
                workflow.dependencies,
                sites=workflow.sites,
                attributes=workflow.attributes,
                guards=guards,
                latency=ConstantLatency(1.0),
                rng=random.Random(inputs.net_seed),
                drop_probability=inputs.loss,
                duplicate_probability=inputs.loss,
                reliable=inputs.fault_plan is not None,
                fault_plan=inputs.fault_plan,
            )
    with rec.span("scheduler.run"):
        result = sched.run(inputs.scripts, verify=False)
    with rec.span("algebra.verify"):
        result.verify(workflow.dependencies)
    return BatchOutcome(
        inputs=inputs,
        entries=result.entries,
        violations=result.violations,
        unsettled=result.unsettled,
        makespan=result.makespan,
        report=sched.metrics_report(),
        recovery_latencies=sched.chaos_report().recovery_latencies,
        messages=result.messages,
        table_size=len(guards),
        guard_cubes=sum(len(g.cubes) for g in guards.values()),
        verify_deps=len(workflow.dependencies),
        actors=len(sched.actors),
    )


def _sharded_batch(inputs: Inputs, rec: Recorder) -> BatchOutcome:
    specs = [instance_spec(i.suffix, i.scripts) for i in inputs.instances]
    workers = min(2, os.cpu_count() or 1)
    with rec.span("setup"):
        with rec.span("scale.plan"):
            plan = plan_shards(
                inputs.template,
                specs,
                SHARDS,
                seed=inputs.net_seed,
                placement="min_cut",
                cross_deps=inputs.cross_dependencies,
            )
    with rec.span("scale.run_sharded"):
        sharded = run_sharded(plan, workers=workers)
    # the next batch forks fresh workers from a cache-cleared parent,
    # as a new `repro run --shards` process would
    shutdown_pool()
    sizes = [len(part) for part in plan.assignment]
    result = sharded.result
    return BatchOutcome(
        inputs=inputs,
        entries=result.entries,
        violations=result.violations,
        unsettled=result.unsettled,
        makespan=result.makespan,
        report=sharded.metrics,
        recovery_latencies=[],
        messages=result.messages,
        plan={
            "cut_weight": plan.cut_weight,
            "cross_messages": sharded.cross_messages,
            "shard_skew": max(sizes) * len(sizes) / sum(sizes),
            "workers": sharded.workers,
        },
    )


def run_batch(
    workload: str,
    seed: int,
    variant: int,
    rec: Recorder,
    instances: int | None = None,
) -> BatchOutcome:
    """Generate one batch from cold symbolic caches and run it;
    ``instances`` overrides the workload's batch size."""
    with rec.span("batch"):
        clear_symbolic_caches()
        gc.collect()
        inputs = generate(workload, seed, variant, instances)
        if workload == "mutex_sharded":
            return _sharded_batch(inputs, rec)
        return _merged_batch(inputs, rec)
