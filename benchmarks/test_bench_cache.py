"""Smoke benchmark of the caching operating-point engine.

Replays repeated allocation rounds over a frozen ``rush_hour`` system state —
the always-on DNN plus the full camera wave, exactly what the manager faces
every 500 ms during the rush — through the allocator of a cached and an
uncached :class:`RuntimeManager`, and asserts the cached allocation is at
least twice as fast.  In practice the gap is one-to-two orders of magnitude
(a cache hit replaces a full grid enumeration plus Pareto pass), so the 2x
floor leaves plenty of headroom for CI jitter while still failing loudly if
the cache stops being consulted.

The allocator is timed rather than ``decide``: a cached manager answers an
epoch whose decision inputs repeat the previous epoch's by replaying that
decision, so repeated ``decide`` calls on one frozen state never reach the
operating-point cache at all (asserted below).
"""

from __future__ import annotations

import time

import pytest

from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.rtm.state import AppRuntimeState, SystemState
from repro.workloads.scenarios import build_scenario
from repro.workloads.tasks import DNNApplication

EPOCHS = 5


def _rush_hour_state() -> SystemState:
    """The rush-hour DNN population on a fresh platform, pre-placement."""
    scenario = build_scenario("rush_hour", seed=0)
    soc = scenario.build_platform()
    apps = {
        app.app_id: AppRuntimeState(application=app)
        for app in scenario.applications
        if isinstance(app, DNNApplication)
    }
    return SystemState(time_ms=0.0, soc=soc, apps=apps)


def _run_epochs(manager: RuntimeManager, state: SystemState, epochs: int = EPOCHS) -> float:
    start = time.perf_counter()
    for _ in range(epochs):
        manager.allocator.allocate(state)
    return time.perf_counter() - start


def _points(manager: RuntimeManager, state: SystemState) -> dict:
    allocation = manager.allocator.allocate(state)
    return {app_id: decision.point for app_id, decision in allocation.decisions.items()}


@pytest.mark.smoke
def test_bench_cached_decisions_at_least_twice_as_fast(benchmark):
    state = _rush_hour_state()
    uncached = RuntimeManager(config=RTMConfig(enable_op_cache=False))
    cached = RuntimeManager()

    uncached_s = _run_epochs(uncached, state)
    # Warm the cache outside the timed region: steady-state epochs are what a
    # long scenario repeats hundreds of times.
    _run_epochs(cached, state, epochs=1)
    cached_s = benchmark.pedantic(
        _run_epochs, args=(cached, state), rounds=1, iterations=1
    )

    stats = cached.cache_stats()
    assert stats is not None and stats.hits > 0, "cached manager never hit its cache"
    assert uncached.cache_stats() is None

    # Identical decisions first — a fast-but-different decision path would be
    # a bug, not an optimisation.
    assert _points(cached, state) == _points(uncached, state)

    assert cached_s * 2.0 <= uncached_s, (
        f"cached epochs ({cached_s:.3f}s for {EPOCHS}) are not 2x faster than "
        f"uncached ({uncached_s:.3f}s)"
    )


@pytest.mark.smoke
def test_repeated_decide_is_replayed_without_the_cache():
    state = _rush_hour_state()
    manager = RuntimeManager()
    # The first epochs record the applications' home clusters (part of the
    # decision inputs); after that the inputs repeat exactly.
    manager.decide(state)
    first = manager.decide(state)
    stats = manager.cache_stats()
    counters = (stats.hits, stats.misses)
    again = manager.decide(state)
    assert (stats.hits, stats.misses) == counters
    assert again.allocation is None
    assert again.actions == first.actions
