"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload travel_merged --seed 1 \\
        --seconds 25 --trace 0

The loop is closed: one client submits a batch of ``N`` workflow
instances, waits for the verified maximal trace, then submits the
next.  Every batch starts from cleared symbolic caches, as a fresh
``repro run`` process would.  The run first goes once through the
seed's reference input draws (see ``workloads.py``): this cycle yields
every virtual-time and count metric and runs every correctness check.
It then repeats the timed draws until ``--seconds`` have passed, and
each repeat must settle exactly like its reference.  A timing is the
mean over the timed draws of each draw's fastest repeat, stage by
stage: other tenants of a shared host slow single batches by up to
1.8x in bursts, and the fastest of many repeats of identical inputs
is the one they disturbed least.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` pairs
every batch with a traced twin, writes the span file under ``--out``
and prints the per-layer metrics and a self-time table.  The last
line of standard output is the JSON result.  A Theorem-6 violation,
a sharded-vs-merged settled-set mismatch or a repeat that settles
differently exits 1 without a result; a checkout without the program
exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Put the checkout's sources on the path; exit 2 without them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "helpers.py"
    ).is_file():
        print(
            f"perfbench: no program next to {HERE} (expected src/repro "
            "and benchmarks/helpers.py); run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT), str(HERE)]


#: end-to-end metrics, printed with --trace 0: name -> unit
END_TO_END = {
    "instances_per_s": "instances/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "decision_vt_p50": "vt",
    "decision_vt_p99": "vt",
    "makespan_vt": "vt",
    "msgs_per_instance": "msgs/instance",
    "ok_frac": "ratio",
}

#: per-layer metrics, printed with --trace 1: name -> unit.  Counts
#: are per batch, averaged over the reference draws; times are per
#: batch, timed like the end-to-end ones over the traced batches, and
#: 0 where the workload never calls the layer.
PER_LAYER = {
    "temporal.synthesis_s": "s",
    "temporal.guard_cubes": "count",
    "temporal.table_size": "count",
    "workflows.template_s": "s",
    "scheduler.construct_s": "s",
    "scheduler.actors": "count",
    "scheduler.run_s": "s",
    "scheduler.us_per_msg": "us/msg",
    "scheduler.guard_evals": "count",
    "scheduler.parked": "count",
    "scheduler.not_yet_rounds": "count",
    "scheduler.promises_granted": "count",
    "scheduler.fire_ratio": "ratio",
    "temporal.watch_wakes": "count",
    "temporal.watch_skips": "count",
    "sim.messages": "count",
    "sim.announce_messages": "count",
    "sim.dropped": "count",
    "sim.duplicated": "count",
    "sim.retransmits": "count",
    "sim.dedup_discards": "count",
    "sim.acks": "count",
    "sim.retransmit_ratio": "ratio",
    "sim.recovery_vt": "vt",
    "algebra.verify_s": "s",
    "algebra.verify_deps": "count",
    "algebra.trace_len": "count",
    "scale.plan_s": "s",
    "scale.run_sharded_s": "s",
    "scale.cut_weight": "count",
    "scale.cross_messages": "count",
    "scale.shard_skew": "ratio",
    "scale.workers": "count",
    "obs.trace_overhead": "ratio",
    "obs.residual_s": "s",
    "obs.decision_samples": "count",
}

#: the leaf span each timed per-layer metric reads
LAYER_TIMES = {
    "temporal.synthesis_s": "temporal.synthesis",
    "workflows.template_s": "workflows.template",
    "scheduler.construct_s": "scheduler.construct",
    "scheduler.run_s": "scheduler.run",
    "algebra.verify_s": "algebra.verify",
    "scale.plan_s": "scale.plan",
    "scale.run_sharded_s": "scale.run_sharded",
}

#: the stages between "inputs generated" and "verified maximal trace"
WALL_SPANS = ("setup", "scheduler.run", "scale.run_sharded", "algebra.verify")


class CheckFailed(Exception):
    """An output the benchmark refuses to time: exit 1."""


def instance_of(event) -> int:
    """The instance index encoded in an event's ``_i<k>`` suffix."""
    return int(event.base.name.rsplit("_i", 1)[1])


def failed_instances(outcome) -> int:
    """Instances left unsettled or settled to the wrong outcome."""
    occurred = {entry.event for entry in outcome.entries}
    unsettled = {instance_of(base) for base in outcome.unsettled}
    failed = 0
    for index, inst in enumerate(outcome.inputs.instances):
        if (
            index in unsettled
            or not inst.expect_occur <= occurred
            or inst.expect_absent & occurred
        ):
            failed += 1
    return failed


def fingerprint(outcome) -> tuple:
    """What must repeat exactly when a batch's inputs repeat."""
    return (
        tuple(
            (repr(e.event), e.time, e.attempted_at) for e in outcome.entries
        ),
        outcome.messages,
        outcome.makespan,
    )


def settled_set(outcome) -> frozenset[str]:
    return frozenset(repr(entry.event) for entry in outcome.entries)


def mean_fastest(samples) -> float:
    """The mean over variants of each variant's fastest sample, from
    ``(variant, seconds)`` pairs."""
    best: dict[int, float] = {}
    for variant, seconds in samples:
        best[variant] = min(seconds, best.get(variant, seconds))
    return statistics.mean(best.values())


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile, as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Reference:
    """The first cycle: one batch per reference draw.  It runs every
    check and yields every metric that is a pure function of the seed;
    later cycles only have to repeat its fingerprints."""

    def __init__(self):
        self.fingerprints: list[tuple] = []
        #: every decision latency of the cycle, pooled
        self.decisions: list[float] = []
        self.makespans: list[float] = []
        self.messages = 0
        self.instances = 0
        self.failed = 0
        self.counts: list[dict[str, float]] = []

    def add(self, outcome, merged=None) -> None:
        """Record a variant's first outcome; ``merged`` is the
        mutex_coupled outcome the sharded one must settle like."""
        if outcome.violations:
            violation = outcome.violations[0]
            raise CheckFailed(
                f"Theorem 6: {len(outcome.violations)} violation(s) in "
                f"variant {outcome.inputs.variant}; first: "
                f"{violation.kind}: {violation.detail}"
            )
        if merged is not None and settled_set(outcome) != settled_set(merged):
            diff = sorted(settled_set(outcome) ^ settled_set(merged))
            raise CheckFailed(
                f"variant {outcome.inputs.variant}: mutex_sharded and "
                f"mutex_coupled settle different events, e.g. {diff[:6]}"
            )
        self.fingerprints.append(fingerprint(outcome))
        self.decisions.extend(e.decision_latency for e in outcome.entries)
        self.makespans.append(outcome.makespan)
        self.messages += outcome.messages
        self.instances += len(outcome.inputs.instances)
        self.failed += failed_instances(outcome)
        self.counts.append(outcome.counts())

    def end_to_end(self) -> dict[str, float]:
        return {
            "decision_vt_p50": statistics.median(self.decisions),
            "decision_vt_p99": percentile(self.decisions, 99),
            "makespan_vt": statistics.mean(self.makespans),
            "msgs_per_instance": self.messages / self.instances,
            "ok_frac": 1.0 - self.failed / self.instances,
        }

    def mean_counts(self) -> dict[str, float]:
        return {
            name: statistics.mean(c[name] for c in self.counts)
            for name in self.counts[0]
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any worker it waited for."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # Linux reports KiB


def wall(durations: dict[str, float]) -> float:
    return sum(durations.get(name, 0.0) for name in WALL_SPANS)


def fastest_wall(timings: list[tuple[int, dict[str, float]]]) -> float:
    """A batch's wall time from each stage's fastest repeat: the sum
    over stages of the mean over draws of each draw's fastest time."""
    return sum(
        mean_fastest(
            (variant, durations.get(name, 0.0))
            for variant, durations in timings
        )
        for name in WALL_SPANS
    )


def run(args) -> dict:
    from layers import Recorder, layer_rows, run_batch, self_times
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]

    def batch(variant: int, rec: Recorder, workload: str = args.workload):
        return run_batch(workload, args.seed, variant, rec, spec.instances)

    def draw(index: int) -> int:
        """The input draw of the run's ``index``-th batch."""
        return index if index < spec.reference else index % spec.variants

    plain = Recorder()
    traced = Recorder(traced=True) if args.trace else None
    ref = Reference()
    #: (variant, span durations) of every untraced batch of a timed draw
    timings: list[tuple[int, dict[str, float]]] = []
    #: untraced and traced wall times after the warm-up batch
    walls: list[float] = []
    traced_walls: list[float] = []
    attempted = failed = 0
    # everything alive now (the program's modules) stays alive; the
    # per-batch collection then only walks the last batch's garbage
    gc.freeze()
    stop = time.perf_counter() + args.seconds
    index = 0
    # the first cycle is the reference; then repeat until time is up
    while index < spec.reference or time.perf_counter() < stop:
        variant = draw(index)
        # traced batches alternate sides so drift does not bias the ratio
        order = [plain] if traced is None else (
            [plain, traced] if index % 2 == 0 else [traced, plain]
        )
        for rec in order:
            rec.begin_batch(index)
            outcome = batch(variant, rec)
            if len(ref.fingerprints) == variant:
                merged = None
                if args.workload == "mutex_sharded":
                    merged = batch(variant, Recorder(), "mutex_coupled")
                ref.add(outcome, merged)
            elif fingerprint(outcome) != ref.fingerprints[variant]:
                raise CheckFailed(
                    f"variant {variant} settled differently on a repeat "
                    "of the same inputs (nondeterminism)"
                )
            attempted += len(outcome.inputs.instances)
            failed += failed_instances(outcome)
            if rec is plain and variant < spec.variants:
                timings.append((variant, rec.durations))
            if index == 0:
                continue  # warm-up: first calls in a fresh process
            if rec is plain:
                walls.append(wall(rec.durations))
            else:
                traced_walls.append(wall(rec.durations))
        index += 1

    if traced is None:
        metrics = {
            "instances_per_s": spec.instances / fastest_wall(timings),
            "setup_s": mean_fastest(
                (variant, durations["setup"])
                for variant, durations in timings
            ),
            "peak_rss_mb": peak_rss_mb(),
            **ref.end_to_end(),
        }
        units = END_TO_END
        print(
            f"{args.workload}: seed {args.seed}, {len(timings)} timed "
            f"batches of {spec.instances} instances over {spec.variants} "
            f"draws, timed by each draw's fastest repeat; seed-only metrics "
            f"over {spec.reference} draws, decision latency over "
            f"{len(ref.decisions)} samples"
        )
    else:
        rows = layer_rows(traced.spans, self_times(traced.spans))

        def fastest(key: str) -> float:
            return mean_fastest(
                (draw(batch), row.get(key, 0.0))
                for batch, row in rows.items()
                if draw(batch) < spec.variants
            )

        metrics = ref.mean_counts()
        for name, span_name in LAYER_TIMES.items():
            metrics[name] = fastest(span_name)
        run_s = metrics["scheduler.run_s"] or metrics["scale.run_sharded_s"]
        metrics["scheduler.us_per_msg"] = 1e6 * run_s / metrics["sim.messages"]
        metrics["obs.trace_overhead"] = sum(traced_walls) / sum(walls)
        metrics["obs.residual_s"] = fastest("residual")
        metrics["obs.decision_samples"] = len(ref.decisions)
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        span_file = out / f"spans_{args.workload}_seed{args.seed}.jsonl"
        with open(span_file, "w") as fh:
            for span in traced.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
        print_self_times(rows, span_file)

    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def print_self_times(
    rows: dict[int, dict[str, float]], span_file: Path
) -> None:
    """Median self time per layer over the traced batches; the layers
    plus the residual add up to the batch wall time row by row."""
    rows = list(rows.values())
    keys = sorted({key for row in rows for key in row})
    walls = [sum(row.values()) for row in rows]
    print(f"self time per layer, median of {len(rows)} traced batches "
          f"(spans in {span_file}):")
    for key in keys:
        own = statistics.median(row.get(key, 0.0) for row in rows)
        print(f"  {key:28s} {own:10.6f} s")
    print(f"  {'batch wall':28s} {statistics.median(walls):10.6f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=".bench_out",
        help="directory for the traced run's span file",
    )
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    try:
        result = run(args)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        from repro.scale import shutdown_pool

        shutdown_pool()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
