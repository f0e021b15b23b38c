"""The compiled guard automata are an optimization, not a semantics
change.

A ``DistributedScheduler`` evaluates each actor's guard by following
interned decision-diagram edges instead of re-simplifying the cube
DNF.  The engine is receiver-side only -- fan-out, message streams,
and rng draws are untouched -- so it must stay in lock-step with the
cube specification under **any** fault schedule: drops, duplicates,
crash/restart plans, Example 14 resurrection, and run-time guard
growth (incremental recompile).  The differential harness here runs
the runtime engine and three test-only arms (:mod:`.reference_engine`:
the naive cube reference, the cube reference with the watch index,
and the runtime automata with the watch index off) over fuzzed
workflows with identical fault schedules and asserts byte-identical
timelines, final actor states, and causal traces (``diff_traces``
already ignores the volatile wall-clock fields).

Below the scheduler, a pure kernel property checks the automaton
itself: a :class:`GuardCursor` driven through randomized guard tables
and knowledge orders must report, at every step, exactly the verdict,
residual, and watch set the ``simplify_under`` engine computes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.obs import Tracer
from repro.obs.diff import diff_traces
from repro.params.distributed import DistributedParamRunner
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.network import ConstantLatency
from repro.temporal.compiled import CompiledGuardEngine
from repro.temporal.cubes import FULL, literal
from repro.temporal.watch import watch_bases
from repro.workloads.scenarios import make_travel_booking

from .reference_engine import ReferenceEngine, UnwatchedEngine
from .test_chaos_properties import fault_schedules, scenario_sites
from .test_watch_equivalence import (
    SCENARIOS,
    final_state,
    observables,
)

#: guard-engine factories: the runtime engine (``None`` -- the
#: scheduler's default) and the test-only arms it must match
ARMS = {
    "cube": ReferenceEngine,
    "watch": lambda: ReferenceEngine(watching=True),
    "compiled": UnwatchedEngine,
    "engine": lambda: None,
}


def run_arm(scenario, plan, seed, arm, drop=0.0, dup=0.0, tracer=None):
    """One deterministic run of one arm."""
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
        reliable=True,
        fault_plan=plan,
        guard_engine=ARMS[arm](),
        tracer=tracer,
    )
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def assert_arms_equivalent(scenario, plan, seed, drop=0.0, dup=0.0):
    """Run every arm; each must match the naive cube reference."""
    tracers = {arm: Tracer() for arm in ARMS}
    runs = {
        arm: run_arm(scenario, plan, seed, arm, drop=drop, dup=dup,
                     tracer=tracers[arm])
        for arm in ARMS
    }
    ref_sched, ref = runs["cube"]
    for arm, (sched, result) in runs.items():
        if arm == "cube":
            continue
        if observables(result) != observables(ref):
            # localize before failing: diff the causal traces (minus
            # the guard-evaluation records the unwatched arms emit
            # extra) so the report names the first divergent
            # site/event instead of dumping two observables dicts
            diff = diff_traces(
                [r for r in tracers["cube"].records
                 if r.get("cat") != "guard"],
                [r for r in tracers[arm].records
                 if r.get("cat") != "guard"],
            )
            raise AssertionError(
                f"{arm} arm diverged from cube engine "
                f"(seed {seed}, drop {drop}, dup {dup}); trace diff:\n"
                + diff.summary()
            )
        assert final_state(sched) == final_state(ref_sched), arm
    return runs


@st.composite
def compiled_cases(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    scenario = SCENARIOS[name]()
    plan = draw(fault_schedules(scenario_sites(scenario), False))
    drop = draw(st.sampled_from([0.0, 0.15, 0.3]))
    dup = draw(st.sampled_from([0.0, 0.15, 0.3]))
    seed = draw(st.integers(0, 2**16))
    return name, scenario, plan, drop, dup, seed


class TestCompiledEquivalence:
    """runtime engine == every reference arm on Examples 10-13 under
    fuzzed faults."""

    @settings(max_examples=60, deadline=None)
    @given(compiled_cases())
    def test_fuzzed_faults_are_observably_identical(self, case):
        name, scenario, plan, drop, dup, seed = case
        assert_arms_equivalent(scenario, plan, seed, drop=drop, dup=dup)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(SCENARIOS)), st.integers(0, 2**16))
    def test_traces_are_byte_identical(self, name, seed):
        """Same wake sets, cube vs automata: the causal traces must
        agree record for record -- including the guard-evaluation
        records, whose verdict/residual/knowledge payloads the
        compiled automata reproduce exactly (``diff_traces`` ignores
        only the volatile wall-clock fields)."""
        scenario = SCENARIOS[name]()
        for cube_arm, compiled_arm in (
            ("cube", "compiled"),
            ("watch", "engine"),
        ):
            a, b = Tracer(), Tracer()
            run_arm(scenario, None, seed, cube_arm, tracer=a)
            run_arm(scenario, None, seed, compiled_arm, tracer=b)
            diff = diff_traces(a.records, b.records)
            assert diff.identical, (
                f"{cube_arm} vs {compiled_arm} trace diff:\n"
                + diff.summary()
            )

    def test_compiled_engine_actually_engages(self):
        """The interned automaton must serve real transitions on the
        examples, or the suite is comparing the cube engine to
        itself."""
        hops = 0
        for factory in SCENARIOS.values():
            runs = assert_arms_equivalent(factory(), None, 0)
            counts = runs["engine"][0].guard_engine.counts()
            hops += counts["hops"] + counts["reused"]
            assert counts["cursors"] > 0
        assert hops > 0

    def test_counters_surface_in_metrics_report(self, kernel_schema):
        sched, _ = run_arm(make_travel_booking("success"), None, 0, "engine")
        kernel = sched.metrics_report()["kernel"]
        kernel_schema(kernel)
        assert kernel["compiled"]["nodes"] == len(sched.guard_engine)
        assert kernel["compiled"]["cursors"] == len(sched.actors)


class TestCompiledRuntimeGrowth:
    """Run-time guard-table modification recompiles incrementally."""

    DEP = "~ship + pay . ship"

    def _grow_run(self, arm, extra):
        sched = DistributedScheduler(
            [parse(self.DEP)],
            latency=ConstantLatency(1.0),
            rng=random.Random(5),
            guard_engine=ARMS[arm](),
        )
        pay, ship = Event("pay"), Event("ship")
        sched.attempt(ship)  # parks: pay has not settled
        sched.sim.run()
        if extra:
            # growth: ship now also needs the audit to have run
            assert sched.add_dependency_runtime(parse("~ship + audit . ship"))
            sched.attempt(Event("audit"))
            sched.sim.run()
        sched.attempt(pay)
        result = sched.run(settle=True, verify=False)
        return sched, result

    def test_added_dependency_equivalence(self):
        for extra in (False, True):
            ref_sched, ref = self._grow_run("cube", extra)
            for arm in ("compiled", "engine"):
                sched, result = self._grow_run(arm, extra)
                assert observables(result) == observables(ref), arm
                assert final_state(sched) == final_state(ref_sched), arm
                if extra:
                    # strengthen_guard re-entered the automaton
                    assert sched.guard_engine.counts()["recompiles"] > 0

    def test_removed_dependency_equivalence(self):
        def run(arm):
            sched = DistributedScheduler(
                [parse(self.DEP)],
                latency=ConstantLatency(1.0),
                rng=random.Random(5),
                guard_engine=ARMS[arm](),
            )
            sched.attempt(Event("ship"))  # parks behind pay
            sched.sim.run()
            assert sched.remove_dependency_runtime(parse(self.DEP))
            return sched, sched.run(settle=True, verify=False)

        ref_sched, ref = run("cube")
        for arm in ("compiled", "engine"):
            sched, result = run(arm)
            assert observables(result) == observables(ref), arm
            assert final_state(sched) == final_state(ref_sched), arm


class TestResurrectionEquivalence:
    """Example 14: parametrized loops mint fresh instances; compiled
    cursors must attach to every materialized actor and follow
    crash-reset re-entries."""

    TEMPLATES = [
        "b2[y] . b1[x] + ~e1[x] + ~b2[y] + e1[x] . b2[y]",
        "b1[x] . b2[y] + ~e2[y] + ~b1[x] + e2[y] . b1[x]",
        "~b1[x] + e1[x]",
        "~b2[y] + e2[y]",
    ]

    def _run(self, tokens, arm):
        runner = DistributedParamRunner(
            self.TEMPLATES, guard_engine=ARMS[arm]()
        )
        for name, value in tokens:
            runner.attempt(Event(name, params=(value,)))
        result = runner.finish(verify=False)
        return runner.sched, result

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["b1", "e1", "b2", "e2"]),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    def test_token_sequences_are_observably_identical(self, tokens):
        ref_sched, ref = self._run(tokens, "cube")
        for arm in ("compiled", "engine"):
            sched, result = self._run(tokens, arm)
            assert observables(result) == observables(ref), arm
            assert final_state(sched) == final_state(ref_sched), arm


# ----------------------------------------------------------------------
# kernel-level: the automaton vs the cube engine, no scheduler


EVENTS = [Event(name) for name in "abcd"]
SIGNED = EVENTS + [e.complement for e in EVENTS]
KINDS = ["box", "dia", "notyet"]


@st.composite
def guard_exprs(draw):
    """Random cube-DNF guards over a small base pool."""
    cubes = []
    for _ in range(draw(st.integers(1, 3))):
        lits = [
            literal(draw(st.sampled_from(KINDS)), draw(st.sampled_from(SIGNED)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        cube = lits[0]
        for lit in lits[1:]:
            cube = cube & lit
        cubes.append(cube)
    g = cubes[0]
    for cube in cubes[1:]:
        g = g | cube
    return g


@st.composite
def knowledge_steps(draw):
    """A fuzzed interleaving of learns and assimilation passes."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(EVENTS),   # which base settles further
                st.integers(1, FULL),      # the arriving mask
                st.booleans(),             # run simplify_under after?
            ),
            max_size=12,
        )
    )


class TestCursorTracksCubeEngine:
    """compiled verdicts == ``simplify_under`` verdicts, stepwise."""

    @settings(max_examples=200, deadline=None)
    @given(guard_exprs(), knowledge_steps())
    def test_verdict_residual_and_watches_agree(self, guard, steps):
        engine = CompiledGuardEngine()
        cursor = engine.cursor(guard)
        residual = guard
        knowledge: dict[Event, int] = {}
        for base, mask, assimilate in steps:
            current = knowledge.get(base, FULL)
            updated = current & mask
            if updated != current:
                # exactly EventActor.learn's commit + cursor hook
                knowledge[base] = updated
                cursor.learn(base, updated)
            if assimilate:
                residual = residual.simplify_under(knowledge)
                assert cursor.assimilate() == residual
            expected = (
                "fire" if residual.region_subsumes(knowledge)
                else "never" if not residual.possible_under(knowledge)
                else "park"
            )
            assert cursor.verdict() == expected, (residual, knowledge)
            assert cursor.watches() == watch_bases(residual, knowledge)

    @settings(max_examples=100, deadline=None)
    @given(guard_exprs(), knowledge_steps(), knowledge_steps())
    def test_knowledge_order_is_immaterial(self, guard, first, second):
        """Two cursors reaching the same (residual, knowledge) state
        through different orders land on the *same interned node* --
        the hash-consing that makes repeat evaluation O(1)."""
        engine = CompiledGuardEngine()

        def drive(steps):
            cursor = engine.cursor(guard)
            knowledge: dict[Event, int] = {}
            for base, mask, assimilate in steps:
                current = knowledge.get(base, FULL)
                updated = current & mask
                if updated != current:
                    knowledge[base] = updated
                    cursor.learn(base, updated)
                if assimilate:
                    cursor.assimilate()
            return cursor

        a, b = drive(first), drive(second)
        if a.node.residual == b.node.residual and a.node.know == b.node.know:
            assert a.node is b.node
