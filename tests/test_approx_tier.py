"""Approximate-tier suite: the engine's sketch-serving floor.

The claims under test, matching ``docs/architecture.md``'s ladder
semantics and ``docs/observability.md``'s schema:

* an ``approx=True`` engine never sheds an approx-capable query:
  admission overflow (including the injected ``overload`` phantom
  fault and batch admission rounds) is answered from the influence
  sketch instead — labelled, bounded, and within its advertised error,
* the ``exact-down`` parent fault force-opens every exact tier's
  breaker and the ladder bottoms out at the approx floor (reason
  ``"breakers"``) instead of serial,
* engines without ``approx=True`` are completely unchanged: overload
  still sheds, the ladder floor is serial, serial has no breaker,
* observability keeps up: JSONL records carry ``quality``/
  ``error_bound``/``approx_reason``, the ``pinls_approx_*`` metric
  series exist, sketch cache traffic is counted, and approx queries
  trace ``sketch``/``estimate`` spans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import QueryEngine
from repro.engine import (
    EXACT_TIERS,
    TIERS,
    CacheBudget,
    DegradationLadder,
    FaultInjector,
    FaultSpec,
    QueryShedError,
    read_trace_file,
)
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects

TAU = 0.7


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(21)
    return make_objects(rng, 300, n_range=(2, 10))


@pytest.fixture(scope="module")
def candidates():
    return make_candidates(np.random.default_rng(22), 15)


def overload_engine(fleet, query, **kwargs):
    """An approx engine whose admission refuses query id ``query``."""
    return QueryEngine(
        fleet,
        approx=True,
        approx_k=64,
        max_inflight=1,
        fault_injector=FaultInjector(
            [FaultSpec(kind="overload", query=query, times=1)]
        ),
        **kwargs,
    )


# ----------------------------------------------------------------------
# Tier constants and ladder shape
# ----------------------------------------------------------------------
def test_tier_constants():
    assert TIERS == ("pool", "serial", "approx")
    assert EXACT_TIERS == ("pool", "serial")


def test_ladder_floor_without_approx():
    ladder = DegradationLadder()
    assert ladder.floor == "serial"
    assert "serial" not in ladder.breakers  # serial never breaks
    assert ladder.select(("serial",)) == "serial"


def test_ladder_floor_with_approx():
    ladder = DegradationLadder(approx_floor=True)
    assert ladder.floor == "approx"
    assert set(ladder.breakers) == set(EXACT_TIERS)
    ladder.trip_exact_tiers()
    assert all(state == "open" for state in ladder.states().values())
    assert ladder.select(("pool", "serial", "approx")) == "approx"
    # force_open of an already-open breaker must not re-count the trip
    trips = ladder.trips
    ladder.trip_exact_tiers()
    assert ladder.trips == trips


# ----------------------------------------------------------------------
# Overload -> approx instead of shed
# ----------------------------------------------------------------------
def test_overload_answers_approx(fleet, candidates):
    pf = PowerLawPF()
    engine = overload_engine(fleet, query=1)
    try:
        exact = engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
        approx = engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
        assert engine.stats.queries_shed == 0
        assert engine.stats.approx_queries == 1
        assert exact.quality == "exact" and exact.error_bound is None
        assert approx.quality == "approx"
        assert approx.error_bound is not None and approx.error_bound > 0
        err = max(
            abs(approx.influences[j] - exact.influences[j])
            for j in range(len(candidates))
        )
        assert err <= approx.error_bound
        record = engine.metrics_log[-1]
        assert record["tier"] == "approx"
        assert record["quality"] == "approx"
        assert record["approx_reason"] == "overload"
        assert record["error_bound"] == pytest.approx(approx.error_bound)
        exact_record = engine.metrics_log[-2]
        assert exact_record["quality"] == "exact"
        assert exact_record["error_bound"] is None
        assert exact_record["approx_reason"] is None
    finally:
        engine.close()


def test_without_approx_overload_still_sheds(fleet, candidates):
    engine = QueryEngine(
        fleet,
        max_inflight=1,
        fault_injector=FaultInjector(
            [FaultSpec(kind="overload", query=0, times=1)]
        ),
    )
    try:
        with pytest.raises(QueryShedError):
            engine.query(candidates, tau=TAU)
        assert engine.stats.queries_shed == 1
    finally:
        engine.close()


def test_batch_overflow_answered_approx(fleet, candidates):
    pf = PowerLawPF()
    engine = overload_engine(fleet, query=None)  # phantom on the batch
    engine.fault_injector = FaultInjector(
        [FaultSpec(kind="overload", query=None, times=1)]
    )
    try:
        out = engine.query_batch(
            [candidates, candidates], pf=pf, tau=TAU, algorithm="PIN"
        )
        assert engine.stats.queries_shed == 0
        assert all(hasattr(r, "best_candidate") for r in out)
        assert engine.stats.approx_queries == len(out)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# exact-down -> approx via breakers
# ----------------------------------------------------------------------
def test_exact_down_routes_to_approx_floor(fleet, candidates):
    pf = PowerLawPF()
    engine = QueryEngine(
        fleet,
        approx=True,
        approx_k=64,
        fault_injector=FaultInjector([FaultSpec.parse("exact-down::0")]),
    )
    try:
        result = engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN-VO")
        assert result.quality == "approx"
        record = engine.metrics_log[-1]
        assert record["tier"] == "approx"
        assert record["approx_reason"] == "breakers"
        health = engine.health()
        assert health["tier"] == "approx"
        assert health["status"] == "degraded"
        assert engine.stats.breaker_trips == len(EXACT_TIERS)
    finally:
        engine.close()


def test_exact_down_parses():
    spec = FaultSpec.parse("exact-down::3")
    assert spec.kind == "exact-down"
    assert spec.query == 3


def test_approx_tier_result_matches_exact_when_exhaustive(fleet, candidates):
    """Default k exceeds this fleet: the approx tier answers exactly."""
    pf = PowerLawPF()
    engine = QueryEngine(fleet, approx=True)  # default k=1024 >= 300
    try:
        engine.ladder.trip_exact_tiers()
        approx = engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
        assert approx.quality == "exact"  # honest label: bound is 0
        assert approx.error_bound == 0.0
        assert engine.stats.approx_queries == 1
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Observability: caches, metrics, traces
# ----------------------------------------------------------------------
def test_sketch_cache_reuse_and_metrics(fleet, candidates):
    pf = PowerLawPF()
    engine = overload_engine(fleet, query=None)
    engine.fault_injector = FaultInjector([
        FaultSpec(kind="overload", query=1, times=1),
        FaultSpec(kind="overload", query=2, times=1),
    ])
    try:
        for _ in range(3):
            engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
        assert engine.stats.sketch_misses == 1  # built once
        assert engine.stats.sketch_hits == 1  # second approx query reuses
        info = engine.cache_info()
        assert info["sketches"] == 1
        text = engine.metrics_text()
        assert "pinls_approx_queries_total" in text
        assert 'reason="overload"' in text
        assert "pinls_sketch_builds_total 1" in text
        assert 'pinls_cache_hits_total{cache="sketches"} 1' in text
        assert "pinls_approx_latency_seconds" in text
        assert "pinls_approx_error_bound" in text
    finally:
        engine.close()


def test_sketch_cache_is_bounded(fleet, candidates):
    pf = PowerLawPF()
    engine = QueryEngine(
        fleet,
        approx=True,
        approx_k=32,
        cache_budget=CacheBudget(max_sketches=1),
    )
    try:
        engine.ladder.trip_exact_tiers()
        engine.query(candidates, pf=pf, tau=0.6, algorithm="PIN")
        engine.query(candidates, pf=pf, tau=0.8, algorithm="PIN")
        assert len(engine._sketches) == 1
        assert engine.stats.sketch_evictions == 1
        assert engine.health()["caches"]["sketches"]["evictions"] == 1
    finally:
        engine.close()


def test_approx_query_traces_sketch_and_estimate(fleet, candidates, tmp_path):
    pf = PowerLawPF()
    trace_file = tmp_path / "traces.jsonl"
    engine = overload_engine(fleet, query=0, trace_path=trace_file)
    try:
        engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
    finally:
        engine.close()
    traces = read_trace_file(trace_file)
    assert len(traces) == 1
    names = [child["name"] for child in traces[0]["children"]]
    assert "sketch" in names and "estimate" in names
    sketch_span = next(
        c for c in traces[0]["children"] if c["name"] == "sketch"
    )
    assert sketch_span["attrs"]["k"] == 64
    assert sketch_span["attrs"]["cached"] is False
    assert traces[0]["attrs"]["tier"] == "approx"


def test_approx_jsonl_schema(fleet, candidates, tmp_path):
    pf = PowerLawPF()
    metrics_file = tmp_path / "metrics.jsonl"
    engine = overload_engine(fleet, query=0, metrics_path=metrics_file)
    try:
        engine.query(candidates, pf=pf, tau=TAU, algorithm="PIN")
    finally:
        engine.close()
    lines = metrics_file.read_text().splitlines()
    record = json.loads(lines[-1])
    assert record["schema"] == 2
    assert record["tier"] == "approx"
    assert record["quality"] == "approx"
    assert record["approx_reason"] == "overload"
    assert record["error_bound"] > 0
    assert record["shed"] is False


def test_engine_validates_approx_knobs(fleet):
    with pytest.raises(ValueError):
        QueryEngine(fleet, approx=True, approx_k=0)
    with pytest.raises(ValueError):
        QueryEngine(fleet, approx=True, approx_delta=1.5)
