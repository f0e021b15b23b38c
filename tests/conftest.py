"""Shared fixtures: the paper's running events and dependencies.

Also registers the Hypothesis profiles the suite runs under:

* ``ci`` -- what the CI workflow selects (``--hypothesis-profile=ci``):
  at least 100 examples per property and *derandomized*, so a CI run
  is reproducible and a failure can be replayed locally byte-for-byte;
* ``dev`` -- a quick local profile for tight edit-test loops;
* ``default`` -- what a bare ``pytest`` run gets: derandomized like
  ``ci`` so the tier-1 suite is deterministic run-to-run (randomized
  exploration is opt-in via ``--hypothesis-profile=dev``).
"""

import pytest
from hypothesis import settings as hypothesis_settings

from repro.algebra.parser import parse
from repro.algebra.symbols import Event

hypothesis_settings.register_profile(
    "ci", max_examples=100, derandomize=True, deadline=None
)
hypothesis_settings.register_profile(
    "dev", max_examples=20, deadline=None
)
hypothesis_settings.register_profile(
    "default", max_examples=50, derandomize=True, deadline=None
)
hypothesis_settings.load_profile("default")


KERNEL_STATS_KEYS = {
    "interning", "synthesis", "simplify", "watch", "compiled", "memo"
}
WATCH_STATS_KEYS = {"wakes", "skips", "rewatches"}
#: scheduler-local watch counters ``metrics_report`` overlays
WATCH_INDEX_KEYS = {"registered"}
COMPILED_STATS_KEYS = {
    "nodes", "reused", "edges", "hops", "expansions", "cursors", "recompiles"
}


def assert_kernel_schema(stats):
    """The expected shape of ``kernel_stats()`` (and the ``kernel``
    section of ``metrics_report()``), asserted in one place so a new
    kernel subsystem updates every consumer test at once.

    Accepts supersets per section, except the watch section, whose
    keys are exactly the process-wide counters plus, in
    ``metrics_report``, the scheduler-local ``registered`` overlay;
    missing keys are the failure mode this guards against."""
    assert KERNEL_STATS_KEYS <= set(stats), sorted(stats)
    assert {"exprs", "events"} <= set(stats["interning"])
    assert WATCH_STATS_KEYS <= set(stats["watch"]), sorted(stats["watch"])
    assert set(stats["watch"]) <= WATCH_STATS_KEYS | WATCH_INDEX_KEYS, sorted(
        stats["watch"]
    )
    for counter in WATCH_STATS_KEYS:
        assert isinstance(stats["watch"][counter], int)
    assert COMPILED_STATS_KEYS <= set(stats["compiled"]), sorted(
        stats["compiled"]
    )
    for counter in COMPILED_STATS_KEYS:
        assert isinstance(stats["compiled"][counter], int)
    assert {"residuate", "to_normal_form"} <= set(stats["memo"])


@pytest.fixture
def kernel_schema():
    """Fixture handle on :func:`assert_kernel_schema`."""
    return assert_kernel_schema


@pytest.fixture
def e():
    return Event("e")


@pytest.fixture
def f():
    return Event("f")


@pytest.fixture
def g():
    return Event("g")


@pytest.fixture
def d_arrow():
    """Klein's ``e -> f`` (Example 2)."""
    return parse("~e + f")


@pytest.fixture
def d_prec():
    """Klein's ``e < f`` (Example 3)."""
    return parse("~e + ~f + e . f")
