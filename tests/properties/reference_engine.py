"""The naive cube guard engine, kept as the differential reference.

``DistributedScheduler(guard_engine=ReferenceEngine())`` runs every
actor on a :class:`ReferenceCursor`: the same interface as
:class:`repro.temporal.compiled.GuardCursor`, but each call is the
specification it stands for -- ``simplify_under`` for assimilation,
``region_subsumes`` / ``possible_under`` for the verdict -- evaluated
afresh over the actor's whole knowledge map.  ``watches()`` is
:data:`~repro.temporal.watch.ALL`, so every announcement wakes every
subscribed actor and nothing is ever skipped: the naive engine, which
re-assimilates and re-decides every subscriber on every delivery.

``ReferenceEngine(watching=True)`` instead registers the cube
specification of the wake set, :func:`~repro.temporal.watch.
watch_bases` over the live residual and knowledge.  It skips exactly
the deliveries the runtime engine skips, so the two must produce
byte-identical causal traces, guard-evaluation records included.
:class:`UnwatchedEngine` is the converse: the runtime automata with
every wake set widened to ``ALL``, record-for-record comparable with
the naive reference.

The watch and compiled differential harnesses run the runtime engine
against these references and demand identical outcomes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.algebra.symbols import Event
from repro.temporal.compiled import CompiledGuardEngine, GuardCursor
from repro.temporal.cubes import FULL, GuardExpr
from repro.temporal.watch import ALL, watch_bases


def _verdict(guard: GuardExpr, knowledge: Mapping[Event, int]) -> str:
    """Section 4.3's evaluation rule, straight from the cube algebra."""
    if guard.region_subsumes(knowledge):
        return "fire"
    if not guard.possible_under(knowledge):
        return "never"
    return "park"


class ReferenceCursor:
    """One actor's ``(residual guard, knowledge)`` pair, held as is."""

    def __init__(
        self,
        guard: GuardExpr,
        knowledge: Mapping[Event, int],
        watching: bool,
    ):
        self.watching = watching
        self.reset(guard, knowledge)

    def learn(self, base: Event, mask: int) -> None:
        self.knowledge[base] = mask

    def assimilate(self) -> GuardExpr:
        self.guard = self.guard.simplify_under(self.knowledge)
        return self.guard

    def verdict(self) -> str:
        return _verdict(self.guard, self.knowledge)

    def watches(self):
        if not self.watching:
            return ALL
        return watch_bases(self.guard, self.knowledge)

    def transient_verdict(self, facts: Iterable[tuple[Event, int]]) -> str:
        transient = dict(self.knowledge)
        for base, mask in facts:
            transient[base] = transient.get(base, FULL) & mask
        return _verdict(self.guard, transient)

    def reset(self, guard: GuardExpr, knowledge: Mapping[Event, int]) -> None:
        self.guard = guard
        self.knowledge = dict(knowledge)


class ReferenceEngine:
    """Hands out :class:`ReferenceCursor` objects; keeps no automata."""

    def __init__(self, watching: bool = False):
        self.watching = watching

    def cursor(
        self, guard: GuardExpr, knowledge: Mapping[Event, int] | None = None
    ) -> ReferenceCursor:
        return ReferenceCursor(guard, knowledge or {}, self.watching)

    def counts(self) -> dict:
        return {}


class UnwatchedCursor(GuardCursor):
    """A runtime cursor whose wake set is always :data:`ALL`."""

    __slots__ = ()

    def watches(self):
        return ALL


class UnwatchedEngine(CompiledGuardEngine):
    """The runtime compiled engine with the watch index switched off:
    every announcement reaches every cursor, so each of its verdicts
    can be held against the naive reference record for record."""

    def cursor(
        self, guard: GuardExpr, knowledge: Mapping[Event, int] | None = None
    ) -> UnwatchedCursor:
        return UnwatchedCursor(self, guard, knowledge or {})
