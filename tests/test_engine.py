"""The serving engine: cache correctness, parallel identity, metrics.

The load-bearing property throughout is *bit-identity*: a query served
from the engine's caches — or sharded across worker processes — must
return exactly what a fresh ``select_location`` call returns, down to
the full influence table and the logical work counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.core.result import Instrumentation
from repro.engine import fork_available
from repro.engine.pool import column_spans
from repro.model import Candidate, MovingObject
from repro.prob import PowerLawPF

from .helpers import make_candidates, make_objects

ALGORITHMS = ["NA", "PIN", "PIN-VO", "PIN-VO*"]
#: logical (time-free) work counters that must replay exactly
COUNT_FIELDS = (
    "pairs_total",
    "pairs_pruned_ia",
    "pairs_pruned_nib",
    "pairs_validated",
    "dead_objects",
    "heap_pops",
)


def assert_same_result(got, want, *, counters: bool = False):
    assert got.algorithm == want.algorithm
    assert got.best_candidate.candidate_id == want.best_candidate.candidate_id
    assert got.best_influence == want.best_influence
    assert got.influences == want.influences
    if counters:
        for fld in COUNT_FIELDS:
            assert getattr(got.instrumentation, fld) == getattr(
                want.instrumentation, fld
            ), fld


@pytest.fixture(scope="module")
def world(demo_dataset):
    return demo_dataset.objects


@pytest.fixture(scope="module")
def candidates(demo_candidates):
    return demo_candidates[0][:20]


class TestEquivalence:
    """engine.query == fresh select_location, for every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tau", [0.5, 0.7, 0.9])
    def test_matches_fresh_solver(self, world, candidates, pf, algorithm, tau):
        engine = QueryEngine(world)
        got = engine.query(candidates, pf=pf, tau=tau, algorithm=algorithm)
        want = select_location(
            world, candidates, pf=pf, tau=tau, algorithm=algorithm
        )
        assert_same_result(got, want, counters=True)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_repeat_query_is_cache_hit_and_identical(
        self, world, candidates, pf, algorithm
    ):
        engine = QueryEngine(world)
        first = engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
        hits_before = engine.stats.hits
        second = engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
        assert_same_result(second, first, counters=True)
        assert engine.stats.hits > hits_before
        assert engine.stats.candidate_hits >= 1

    def test_equal_parameter_pf_instances_share_tables(
        self, world, candidates
    ):
        engine = QueryEngine(world)
        engine.query(candidates, pf=PowerLawPF(rho=0.9, lam=1.0), tau=0.7)
        assert engine.stats.table_misses == 1
        engine.query(candidates, pf=PowerLawPF(rho=0.9, lam=1.0), tau=0.7)
        assert engine.stats.table_hits == 1
        # Different parameters must NOT share a table.
        engine.query(candidates, pf=PowerLawPF(rho=0.8, lam=1.0), tau=0.7)
        assert engine.stats.table_misses == 2

    def test_pruning_cache_replays_counters(self, world, candidates, pf):
        engine = QueryEngine(world)
        first = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN-VO")
        assert engine.stats.pruning_misses == 1
        second = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN-VO")
        assert engine.stats.pruning_hits == 1
        assert_same_result(second, first, counters=True)
        # The hit skipped the pruning phase, so it reports no time there.
        assert second.instrumentation.pruning_seconds == 0.0

    def test_cache_info_reports_pruning_cache_size(
        self, world, candidates, pf
    ):
        # Regression: cache_info() used to omit the PIN-VO pruning
        # cache, the one cache warm PIN-VO traffic actually exercises.
        engine = QueryEngine(world)
        assert engine.cache_info()["prunings"] == 0
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN-VO")
        info = engine.cache_info()
        assert info["prunings"] == 1
        assert info["tables"] == 1
        engine.query(candidates, pf=pf, tau=0.8, algorithm="PIN-VO")
        assert engine.cache_info()["prunings"] == 2

    def test_rtree_reused_across_queries(self, world, candidates, pf):
        engine = QueryEngine(world)
        engine.query(
            candidates, pf=pf, tau=0.7, algorithm="PIN", use_rtree=True
        )
        assert engine.stats.rtree_misses == 1
        got = engine.query(
            candidates, pf=pf, tau=0.7, algorithm="PIN", use_rtree=True
        )
        assert engine.stats.rtree_hits == 1
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN", use_rtree=True
        )
        assert_same_result(got, want, counters=True)

    def test_rejects_bad_inputs(self, world, candidates, pf):
        engine = QueryEngine(world)
        with pytest.raises(ValueError):
            engine.query([], pf=pf, tau=0.7)
        with pytest.raises(ValueError):
            engine.query(candidates, pf=pf, tau=0.0)
        with pytest.raises(ValueError):
            engine.query(candidates, pf=pf, tau=1.0)
        with pytest.raises(ValueError):
            QueryEngine([])
        with pytest.raises(ValueError):
            QueryEngine(world, workers=-1)


@given(
    n_objects=st.integers(min_value=1, max_value=12),
    n_candidates=st.integers(min_value=1, max_value=8),
    tau=st.sampled_from([0.3, 0.7, 0.95]),
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_property_engine_matches_fresh(
    n_objects, n_candidates, tau, algorithm, seed
):
    """Random worlds: cold and cached engine queries match select_location."""
    rng = np.random.default_rng(seed)
    objects = make_objects(rng, n_objects, n_range=(1, 8))
    candidates = make_candidates(rng, n_candidates)
    pf = PowerLawPF()
    want = select_location(
        objects, candidates, pf=pf, tau=tau, algorithm=algorithm
    )
    engine = QueryEngine(objects)
    assert_same_result(
        engine.query(candidates, pf=pf, tau=tau, algorithm=algorithm),
        want,
        counters=True,
    )
    # Re-query through the warmed caches — still identical.
    assert_same_result(
        engine.query(candidates, pf=pf, tau=tau, algorithm=algorithm),
        want,
        counters=True,
    )


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestWorkers:
    """workers > 1 (the worker pool) never changes any part of the result."""

    @pytest.mark.parametrize("algorithm", ["NA", "PIN", "PIN-VO", "PIN-VO*"])
    def test_sharded_equals_serial(self, world, candidates, pf, algorithm):
        serial = QueryEngine(world, workers=1)
        with QueryEngine(world, workers=4) as sharded:
            a = serial.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
            b = sharded.query(
                candidates, pf=pf, tau=0.7, algorithm=algorithm
            )
            assert_same_result(b, a, counters=True)
            assert sharded.metrics_log[-1]["tier"] == "pool"
            # And again through the warmed caches on both sides.
            assert_same_result(
                sharded.query(
                    candidates, pf=pf, tau=0.7, algorithm=algorithm
                ),
                serial.query(candidates, pf=pf, tau=0.7, algorithm=algorithm),
                counters=True,
            )

    def test_worker_override_per_query(self, world, candidates, pf):
        with QueryEngine(world, workers=4) as engine:
            a = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
            b = engine.query(
                candidates, pf=pf, tau=0.7, algorithm="PIN", workers=0
            )
            assert engine.metrics_log[-1]["tier"] == "serial"
        assert_same_result(b, a, counters=True)

    def test_scalar_naive_falls_back_to_serial(self, world, candidates, pf):
        with QueryEngine(world, workers=4) as engine:
            got = engine.query(
                candidates, pf=pf, tau=0.7, algorithm="NA", kernel="scalar"
            )
            assert engine.metrics_log[-1]["tier"] == "serial"
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="NA", kernel="scalar"
        )
        assert_same_result(got, want, counters=True)

    def test_pool_false_with_workers_is_rejected(self, world):
        with pytest.raises(ValueError, match="worker pool"):
            QueryEngine(world, workers=2, pool=False)

    def test_column_spans_partition_the_axis(self):
        for m in (1, 2, 7, 24, 100):
            for shards in (1, 2, 3, 8, 200):
                spans = column_spans(m, shards)
                assert spans[0][0] == 0 and spans[-1][1] == m
                for (_, hi), (lo, _) in zip(spans, spans[1:]):
                    assert hi == lo
                assert len(spans) <= min(shards, m)


class TestAdversarialWorlds:
    """Degenerate inputs where pruning/validation edge cases live."""

    def test_all_objects_dead(self, pf):
        # Single-position objects need P(0-distance) >= tau; the default
        # power-law PF caps at 0.9, so tau=0.99 kills every object.
        rng = np.random.default_rng(5)
        objects = make_objects(rng, 10, n_range=(1, 1))
        candidates = make_candidates(rng, 6)
        engine = QueryEngine(objects)
        for algorithm in ALGORITHMS:
            got = engine.query(
                candidates, pf=pf, tau=0.99, algorithm=algorithm
            )
            want = select_location(
                objects, candidates, pf=pf, tau=0.99, algorithm=algorithm
            )
            assert got.best_influence == 0
            assert_same_result(got, want, counters=True)

    def test_duplicate_candidate_coordinates(self, pf):
        rng = np.random.default_rng(6)
        objects = make_objects(rng, 15, n_range=(1, 6))
        base = make_candidates(rng, 5)
        # Clone the strongest-looking candidate under new (higher) ids.
        dupes = [
            Candidate(100 + i, base[0].x, base[0].y) for i in range(3)
        ]
        candidates = base + dupes
        engine = QueryEngine(objects)
        for algorithm in ALGORITHMS:
            got = engine.query(
                candidates, pf=pf, tau=0.5, algorithm=algorithm
            )
            want = select_location(
                objects, candidates, pf=pf, tau=0.5, algorithm=algorithm
            )
            assert_same_result(got, want)

    def test_single_object_single_candidate(self, pf):
        objects = [MovingObject(0, np.array([[1.0, 1.0]]))]
        candidates = [Candidate(0, 1.0, 1.0)]
        engine = QueryEngine(objects)
        for algorithm in ALGORITHMS:
            got = engine.query(
                candidates, pf=pf, tau=0.5, algorithm=algorithm
            )
            assert got.best_influence == 1
            assert got.influences == {0: 1}


class TestMetrics:
    """Per-query JSONL records carry timings and cache counters."""

    REQUIRED_KEYS = {
        "query", "algorithm", "tau", "pf", "candidates", "workers",
        "elapsed_seconds", "pruning_seconds", "validation_seconds",
        "pairs_total", "pairs_pruned_ia", "pairs_pruned_nib",
        "pairs_validated", "cache_hits", "cache_misses",
        "best_candidate", "best_influence",
    }

    def test_jsonl_record_per_query(self, world, candidates, pf, tmp_path):
        path = tmp_path / "metrics.jsonl"
        engine = QueryEngine(world, metrics_path=path)
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        engine.query(candidates, pf=pf, tau=0.5, algorithm="NA")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 3
        assert records == engine.metrics_log
        for record in records:
            assert self.REQUIRED_KEYS <= set(record)
        assert [r["query"] for r in records] == [0, 1, 2]
        # The repeat PIN query must show up as cache hits in its record.
        assert records[1]["cache_hits"] > records[0]["cache_hits"]
        assert records[1]["table_hits"] == 1

    def test_phase_seconds_populated(self, world, candidates, pf):
        engine = QueryEngine(world)
        pin = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        assert pin.instrumentation.pruning_seconds > 0.0
        assert pin.instrumentation.validation_seconds > 0.0
        na = engine.query(candidates, pf=pf, tau=0.7, algorithm="NA")
        assert na.instrumentation.validation_seconds > 0.0
        record = engine.metrics_log[0]
        assert record["pruning_seconds"] == pin.instrumentation.pruning_seconds
        assert (
            record["validation_seconds"]
            == pin.instrumentation.validation_seconds
        )

    def test_timings_also_flow_through_select_location(
        self, world, candidates, pf
    ):
        result = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm="PIN-VO"
        )
        inst = result.instrumentation
        assert inst.pruning_seconds > 0.0
        assert inst.pruning_seconds + inst.validation_seconds <= (
            result.elapsed_seconds + 1e-6
        )


class TestInstrumentationMerge:
    def test_merge_adds_every_field(self):
        a = Instrumentation(pairs_total=10, pairs_validated=4)
        a.pruning_seconds = 0.5
        b = Instrumentation(pairs_total=3, pairs_validated=1, heap_pops=7)
        b.validation_seconds = 0.25
        a.merge(b)
        assert a.pairs_total == 13
        assert a.pairs_validated == 5
        assert a.heap_pops == 7
        assert a.pruning_seconds == 0.5
        assert a.validation_seconds == 0.25

    def test_phase_rejects_unknown_name(self):
        counters = Instrumentation()
        with pytest.raises(ValueError):
            with counters.phase("warmup"):
                pass
