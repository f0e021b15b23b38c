"""Seeded input generator for the benchmark's four workloads.

Everything here builds *inputs* only: workflows, agent scripts, fault
plans and the outcome each instance is expected to reach.  Nothing
synthesizes guards, constructs schedulers or runs anything -- those
are the layers :mod:`layers` times.  The same ``(workload, seed,
variant)`` always yields structurally identical inputs, so every
virtual-time and count metric is a pure function of the seed.

Each input draw is one *batch*: ``instances`` workflow instances
submitted together to one program call (or one sharded plan).  A run
first goes once through ``reference`` draws, then repeats the first
``variants`` of them until its time is up.  Batches are small, a few
to tens of milliseconds of work, so that a run repeats each timed
draw many times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.sim import FaultPlan, SiteCrash
from repro.workflows.primitives import klein_precedes, mutex
from repro.workflows.spec import Workflow
from repro.workloads.scenarios import make_travel_booking


@dataclass(frozen=True)
class WorkloadSpec:
    """The fixed shape of one workload; the seed fills in the rest."""

    name: str
    #: workflow instances per batch (the "N" of instances_per_s)
    instances: int
    #: input draws the run repeats and times
    variants: int
    #: input draws the reference cycle checks and takes the seed-only
    #: metrics from (the first ``variants`` of them are the timed ones)
    reference: int


#: The workloads, in the order ``BENCHMARK.json`` lists them (with the
#: reason each was chosen).  The seed-only metrics pool the reference
#: cycle's instances, so its size sets how steady they are across
#: seeds; the faulty travel_chaos batches need the most.  Fewer timed
#: draws mean more repeats of each, so a fastest repeat is found more
#: surely; a workload needs more of them where the seed changes the
#: cost of a draw.  Five travel_merged draws are one outcome block.  A
#: mutex batch holds whole clusters; a sharded batch holds two, so that
#: the min-cut plan has a cut to route across.
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("travel_merged", 2, 5, 256),
        WorkloadSpec("mutex_coupled", 4, 4, 128),
        WorkloadSpec("travel_chaos", 2, 32, 512),
        WorkloadSpec("mutex_sharded", 8, 2, 32),
    )
}

#: mutex instances contending for one resource (SC7 uses 4)
MUTEX_CLUSTER = 4
#: the k-th task of a cluster to try entering does so at about
#: ``k * MUTEX_ENTER_GAP`` and exits about ``MUTEX_HOLD`` later; both
#: times carry a seeded jitter below the gap, so entry order holds
MUTEX_ENTER_GAP = 0.5
MUTEX_HOLD = 3.0
MUTEX_JITTER = 0.4
#: drop and duplicate probability of the chaos fabric
CHAOS_LOSS = 0.1
#: one crashed site per this many instances, spread evenly over the
#: variants (a two-instance batch crashes a site in every eighth draw)
CHAOS_INSTANCES_PER_CRASH = 16
#: when each chaos crash happens and how long its site stays down
CHAOS_CRASH_AT = 2.0
CHAOS_DOWNTIME = 4.0


@dataclass(frozen=True)
class Instance:
    """One workflow instance and the outcome it must settle to."""

    suffix: str
    scripts: tuple[AgentScript, ...]
    expect_occur: frozenset[Event]
    expect_absent: frozenset[Event]


@dataclass
class Inputs:
    """Everything the program receives for one batch."""

    variant: int
    instances: list[Instance]
    #: network / shard seed drawn for this batch
    net_seed: int
    #: the merged workflow (every instance, plus cross dependencies);
    #: None where the program builds it (template and sharded paths)
    workflow: Workflow | None = None
    #: the un-suffixed template (template and sharded paths)
    template: Workflow | None = None
    cross_dependencies: list[Expr] = field(default_factory=list)
    fault_plan: FaultPlan | None = None
    loss: float = 0.0

    @property
    def scripts(self) -> list[AgentScript]:
        return [s for inst in self.instances for s in inst.scripts]


def _rng(workload: str, seed: int, variant: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{variant}")


def _suffixed(event: Event, suffix: str) -> Event:
    base = Event(f"{event.base.name}{suffix}")
    return base.complement if event.negated else base


def _merge(name: str, workflows: list[Workflow]) -> Workflow:
    merged = Workflow(name)
    for w in workflows:
        merged.dependencies.extend(w.dependencies)
        merged.attributes.update(w.attributes)
        merged.sites.update(w.sites)
    return merged


#: travel outcomes come in blocks of this many instances, numbered
#: across the draws, each holding exactly TRAVEL_SUCCESSES successes in
#: a seeded order; the 70/30 mix is then exact in every few draws
TRAVEL_BLOCK = 10
TRAVEL_SUCCESSES = 7


def _travel_outcomes(
    workload: str, seed: int, variant: int, count: int
) -> list[str]:
    outcomes = []
    for index in range(variant * count, (variant + 1) * count):
        block, slot = divmod(index, TRAVEL_BLOCK)
        pattern = ["success"] * TRAVEL_SUCCESSES + ["failure"] * (
            TRAVEL_BLOCK - TRAVEL_SUCCESSES
        )
        random.Random(f"{workload}/{seed}/outcomes/{block}").shuffle(pattern)
        outcomes.append(pattern[slot])
    return outcomes


def travel_merged(seed: int, variant: int, count: int) -> Inputs:
    """SC1: suffixed travel instances merged into one workflow."""
    rng = _rng("travel_merged", seed, variant)
    scenarios = [
        (f"_i{i}", make_travel_booking(outcome, suffix=f"_i{i}"))
        for i, outcome in enumerate(
            _travel_outcomes("travel_merged", seed, variant, count)
        )
    ]
    return Inputs(
        variant=variant,
        instances=[
            Instance(suffix, tuple(s.scripts), s.expect_occur, s.expect_absent)
            for suffix, s in scenarios
        ],
        net_seed=rng.randrange(2**31),
        workflow=_merge("travel", [s.workflow for _, s in scenarios]),
    )


def travel_chaos(seed: int, variant: int, count: int) -> Inputs:
    """SC5: travel instances for the template path, with a seeded
    drop/dup fabric and a crash/restart schedule."""
    rng = _rng("travel_chaos", seed, variant)
    instances = []
    for i, outcome in enumerate(
        _travel_outcomes("travel_chaos", seed, variant, count)
    ):
        suffix = f"_i{i}"
        scenario = make_travel_booking(outcome)
        instances.append(Instance(
            suffix,
            tuple(
                AgentScript(
                    f"{script.site}{suffix}",
                    [
                        ScriptedAttempt(
                            a.time,
                            _suffixed(a.event, suffix),
                            None if a.after is None
                            else _suffixed(a.after, suffix),
                        )
                        for a in script.attempts
                    ],
                )
                for script in scenario.scripts
            ),
            frozenset(_suffixed(e, suffix) for e in scenario.expect_occur),
            frozenset(_suffixed(e, suffix) for e in scenario.expect_absent),
        ))
    crashes_due = (
        count * (variant + 1) // CHAOS_INSTANCES_PER_CRASH
        - count * variant // CHAOS_INSTANCES_PER_CRASH
    )
    crashed = rng.sample(range(count), crashes_due)
    crashes = []
    for index in crashed:
        site = rng.choice(("airline", "car_rental"))
        crashes.append(SiteCrash(
            f"{site}_i{index}", CHAOS_CRASH_AT, CHAOS_CRASH_AT + CHAOS_DOWNTIME
        ))
    return Inputs(
        variant=variant,
        instances=instances,
        net_seed=rng.randrange(2**31),
        template=make_travel_booking().workflow,
        fault_plan=FaultPlan.of(crashes),
        loss=CHAOS_LOSS,
    )


def mutex_task(suffix: str = "") -> Workflow:
    """One Example-13 critical-section task; ``suffix`` names the
    instance (the un-suffixed task is the sharded path's template)."""
    b, e = Event(f"b{suffix}"), Event(f"e{suffix}")
    task = Workflow(f"mutex_cs{suffix}")
    task.add(klein_precedes(b, e))
    # a task that enters its critical section is guaranteed to leave it
    task.add(f"~b{suffix} + e{suffix}")
    task.set_attributes(e, guaranteed=True)
    task.place_task(f"cs{suffix}", b, e)
    return task


def _mutex(workload: str, seed: int, variant: int, count: int) -> Inputs:
    """SC7: ``count`` critical-section tasks in clusters of
    :data:`MUTEX_CLUSTER`; the seed orders each cluster's entries."""
    rng = _rng("mutex", seed, variant)
    instances: dict[int, Instance] = {}
    cross: list[Expr] = []
    for start in range(0, count, MUTEX_CLUSTER):
        members = list(range(start, min(start + MUTEX_CLUSTER, count)))
        order = members[:]
        rng.shuffle(order)
        for rank, k in enumerate(order):
            suffix = f"_i{k}"
            b, e = Event(f"b{suffix}"), Event(f"e{suffix}")
            enter = rank * MUTEX_ENTER_GAP + rng.uniform(0.0, MUTEX_JITTER)
            hold = MUTEX_HOLD + rng.uniform(0.0, MUTEX_JITTER)
            instances[k] = Instance(
                suffix,
                (AgentScript(f"cs{suffix}", [
                    ScriptedAttempt(enter, b),
                    ScriptedAttempt(enter + hold, e, after=b),
                ]),),
                frozenset({b, e}),
                frozenset(),
            )
        for j, k in zip(members, members[1:]):
            bj, ej = Event(f"b_i{j}"), Event(f"e_i{j}")
            bk, ek = Event(f"b_i{k}"), Event(f"e_i{k}")
            cross.append(mutex(bj, ej, bk, ek))
            cross.append(mutex(bk, ek, bj, ej))
    inputs = Inputs(
        variant=variant,
        instances=[instances[k] for k in range(count)],
        net_seed=rng.randrange(2**31),
        cross_dependencies=cross,
    )
    if workload == "mutex_sharded":
        inputs.template = mutex_task()
    else:
        inputs.workflow = _merge(
            "mutex", [mutex_task(i.suffix) for i in inputs.instances]
        )
        inputs.workflow.dependencies.extend(cross)
    return inputs


def mutex_coupled(seed: int, variant: int, count: int) -> Inputs:
    return _mutex("mutex_coupled", seed, variant, count)


def mutex_sharded(seed: int, variant: int, count: int) -> Inputs:
    return _mutex("mutex_sharded", seed, variant, count)


GENERATORS = {
    "travel_merged": travel_merged,
    "mutex_coupled": mutex_coupled,
    "travel_chaos": travel_chaos,
    "mutex_sharded": mutex_sharded,
}


def generate(
    workload: str, seed: int, variant: int, instances: int | None = None
) -> Inputs:
    """The inputs of one batch; ``instances`` overrides the workload's
    batch size (tests use small batches)."""
    spec = WORKLOADS[workload]
    return GENERATORS[workload](
        seed, variant, spec.instances if instances is None else instances
    )
