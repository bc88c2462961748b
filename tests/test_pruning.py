"""Tests for candidate classification (IA / band / NIB split)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.object_table import ObjectTable
from repro.core.pruning import (
    VerificationSets,
    choose_grid,
    classify_candidates,
    classify_span,
    join_cells,
)
from repro.index import RTree
from repro.model import MovingObject
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects
from tests.oracles import dense_pruning, ia_sets


def brute_split(entry, cand_xy):
    """The three-way split computed straight from the definitions."""
    certain, maybe, pruned = [], [], []
    for j, (x, y) in enumerate(cand_xy):
        if entry.mbr.max_dist(x, y) <= entry.radius:
            certain.append(j)
        elif entry.mbr.min_dist(x, y) > entry.radius:
            pruned.append(j)
        else:
            maybe.append(j)
    return certain, maybe, pruned


@pytest.fixture()
def table_and_candidates(pf, rng):
    objects = make_objects(rng, 15, extent=50.0, n_range=(1, 30))
    candidates = make_candidates(rng, 80, extent=50.0)
    cand_xy = np.array([(c.x, c.y) for c in candidates])
    table = ObjectTable(objects, pf, 0.7)
    return table, cand_xy


class TestClassifyCandidates:
    def test_matches_brute_force_with_rtree(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        rtree = RTree.bulk_load(cand_xy)
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, rtree)
            certain, maybe, pruned = brute_split(entry, cand_xy)
            assert sorted(outcome.certain.tolist()) == certain
            assert sorted(outcome.maybe.tolist()) == maybe
            assert outcome.pruned_nib == len(pruned)

    def test_matches_brute_force_without_rtree(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, None)
            certain, maybe, pruned = brute_split(entry, cand_xy)
            assert sorted(outcome.certain.tolist()) == certain
            assert sorted(outcome.maybe.tolist()) == maybe
            assert outcome.pruned_nib == len(pruned)

    def test_partition_is_complete(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        m = cand_xy.shape[0]
        rtree = RTree.bulk_load(cand_xy)
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, rtree)
            assert (
                outcome.certain.size + outcome.maybe.size + outcome.pruned_nib == m
            )
            overlap = set(outcome.certain.tolist()) & set(outcome.maybe.tolist())
            assert not overlap


def per_entry_sets(split, r):
    """``(ia, band)`` candidate lists per entry from a join output."""
    ia = [[] for _ in range(r)]
    band = [[] for _ in range(r)]
    for i, j in zip(split.ia_obj.tolist(), split.ia_cand.tolist()):
        ia[i].append(j)
    for i, j in zip(split.band_obj.tolist(), split.band_cand.tolist()):
        band[i].append(j)
    return [sorted(x) for x in ia], [sorted(x) for x in band]


def assert_same_split(split, oracle):
    """The join output equals the dense oracle, set order included."""
    np.testing.assert_array_equal(split.ia_counts, oracle["min_inf"])
    assert split.nib_pairs == oracle["nib_pairs"]
    assert split.ia_pairs == oracle["ia_pairs"]
    vs = split.verification_sets()
    assert len(vs) == len(oracle["vs"])
    for got, want in zip(vs, oracle["vs"]):
        np.testing.assert_array_equal(got, want)
    if split.ia_obj is not None:
        for got, want in zip(ia_sets(split), oracle["ia_sets"]):
            np.testing.assert_array_equal(got, want)


class TestClassifyChunk:
    """The cell-block join classifies each block's pairs exactly."""

    def test_matches_per_object_classification(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        split = classify_span(
            *table.mbr_radius_arrays(), cand_xy, with_ia=True
        )
        ia, band = per_entry_sets(split, table.live_count)
        for i, entry in enumerate(table.entries):
            certain, maybe, _ = brute_split(entry, cand_xy)
            assert ia[i] == certain
            assert band[i] == maybe

    def test_ia_and_band_disjoint(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        split = join_cells(
            *table.mbr_radius_arrays(), cand_xy, (6, 5), with_ia=True
        )
        ia = set(zip(split.ia_obj.tolist(), split.ia_cand.tolist()))
        band = set(zip(split.band_obj.tolist(), split.band_cand.tolist()))
        assert not ia & band
        assert len(ia) == split.ia_pairs
        assert len(band) == split.band_pairs

    def test_chunks_cover_all_entries(self, table_and_candidates):
        # Blocks of 4 pairs still reach every entry with a live pair.
        table, cand_xy = table_and_candidates
        split = join_cells(
            *table.mbr_radius_arrays(), cand_xy, (4, 4), with_ia=True,
            block_pairs=4,
        )
        ia, band = per_entry_sets(split, table.live_count)
        for i, entry in enumerate(table.entries):
            certain, maybe, _ = brute_split(entry, cand_xy)
            assert (ia[i], band[i]) == (certain, maybe)
        m = cand_xy.shape[0]
        assert (
            split.ia_pairs + split.band_pairs + split.nib_pairs
            == table.live_count * m
        )

    def test_chunking_invariant_to_chunk_size(self, table_and_candidates):
        table, cand_xy = table_and_candidates
        mbrs, radii = table.mbr_radius_arrays()
        base = join_cells(mbrs, radii, cand_xy, (7, 3), with_ia=True)
        for block in (1, 3, 50):
            got = join_cells(
                mbrs, radii, cand_xy, (7, 3), with_ia=True,
                block_pairs=block,
            )
            np.testing.assert_array_equal(got.ia_counts, base.ia_counts)
            for g, b in zip(ia_sets(got), ia_sets(base)):
                np.testing.assert_array_equal(g, b)
            for g, b in zip(got.verification_sets(), base.verification_sets()):
                np.testing.assert_array_equal(g, b)


class TestChunkSizeValidation:
    """Regression: a bad block size must fail loudly, not classify nothing.

    The join runs in blocks of ``block_pairs`` tested pairs; zero or a
    negative size would loop forever or emit no pair at all (an
    all-zero influence table downstream).
    """

    @pytest.mark.parametrize("bad", [0, -1, -1024])
    def test_classify_chunks_rejects_bad_chunk_size(
        self, table_and_candidates, bad
    ):
        table, cand_xy = table_and_candidates
        with pytest.raises(ValueError, match="block_pairs must be >= 1"):
            join_cells(
                *table.mbr_radius_arrays(), cand_xy, (2, 2),
                block_pairs=bad,
            )

    @pytest.mark.parametrize("bad", [0, -1, -1024])
    def test_classify_table_chunks_rejects_bad_chunk_size(
        self, table_and_candidates, bad
    ):
        table, cand_xy = table_and_candidates
        with pytest.raises(ValueError, match="block_pairs must be >= 1"):
            classify_span(
                *table.mbr_radius_arrays(), cand_xy, block_pairs=bad
            )

    def test_rejects_eagerly_without_iteration(self, table_and_candidates):
        # The error fires even when there is nothing to classify.
        table, cand_xy = table_and_candidates
        mbrs, radii = table.mbr_radius_arrays()
        with pytest.raises(ValueError):
            join_cells(mbrs[:0], radii[:0], cand_xy, (1, 1), block_pairs=-4)
        with pytest.raises(ValueError):
            classify_span(mbrs, radii, cand_xy[:0], block_pairs=-4)


class TestColumnarIdentity:
    """The join splits exactly like the dense oracle and the R-tree."""

    def test_classify_span_matches_classify_chunk(
        self, table_and_candidates
    ):
        table, cand_xy = table_and_candidates
        mbrs, radii = table.mbr_radius_arrays()
        oracle = dense_pruning(mbrs, radii, cand_xy)
        assert_same_split(
            classify_span(mbrs, radii, cand_xy, with_ia=True), oracle
        )
        for grid in [(1, 1), (3, 8), (12, 12)]:
            assert_same_split(
                join_cells(mbrs, radii, cand_xy, grid, with_ia=True), oracle
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_objects=st.integers(0, 30),
        m=st.integers(1, 40),
        tau=st.sampled_from([0.5, 0.7, 0.9]),
        grid=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    )
    def test_property_columnar_matches_rtree_and_legacy(
        self, seed, n_objects, m, tau, grid
    ):
        # Random fleets with every other object degenerate (a single
        # position, so a zero-area MBR), including the empty fleet.
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, n_objects, n_range=(1, 12))
        objects = [
            MovingObject(obj.object_id, obj.positions[:1])
            if i % 2 == 0
            else obj
            for i, obj in enumerate(objects)
        ]
        candidates = make_candidates(rng, m)
        cand_xy = np.array([(c.x, c.y) for c in candidates])
        pf = PowerLawPF(rho=0.9, lam=1.0)
        table = ObjectTable(objects, pf, tau)
        mbrs, radii = table.mbr_radius_arrays()

        split = join_cells(mbrs, radii, cand_xy, grid, with_ia=True)
        assert_same_split(split, dense_pruning(mbrs, radii, cand_xy))

        # Per-object R-tree path.
        ia, band = per_entry_sets(split, table.live_count)
        rtree = RTree.bulk_load(cand_xy)
        for i, entry in enumerate(table.entries):
            outcome = classify_candidates(entry, cand_xy, rtree)
            assert ia[i] == sorted(outcome.certain.tolist())
            assert band[i] == sorted(outcome.maybe.tolist())


class TestVerificationSets:
    def test_from_pairs_groups_by_candidate_in_entry_order(self):
        obj = np.array([0, 0, 1, 2, 2, 5], dtype=np.uint32)
        cand = np.array([2, 0, 2, 1, 2, 0], dtype=np.uint32)
        vs = VerificationSets.from_pairs(obj, cand, 4)
        assert [v.tolist() for v in vs] == [[0, 5], [2], [0, 1, 2], []]
        assert vs.rows.dtype == np.uint32
        np.testing.assert_array_equal(vs.sizes(), [2, 1, 3, 0])
        assert vs.nbytes == vs.rows.nbytes + vs.offsets.nbytes == 6 * 4 + 5 * 8

    def test_concat_joins_candidate_spans(self):
        a = VerificationSets.from_pairs(
            np.array([1, 3], np.uint32), np.array([1, 0], np.uint32), 2
        )
        b = VerificationSets.from_pairs(
            np.array([0, 2], np.uint32), np.array([0, 0], np.uint32), 3
        )
        vs = VerificationSets.concat([a, b])
        assert [v.tolist() for v in vs] == [[3], [1], [0, 2], [], []]

    def test_everything_shares_one_row_array(self):
        vs = VerificationSets.everything(7, 3)
        assert len(vs) == 3
        assert all(v.tolist() == list(range(7)) for v in vs)
        np.testing.assert_array_equal(vs.sizes(), [7, 7, 7])
        assert vs.nbytes == 7 * 4
        merged = VerificationSets.concat(
            [vs, VerificationSets.everything(7, 2)]
        )
        assert len(merged) == 5 and merged.nbytes == 7 * 4

    def test_packed_sets_decode_to_the_same_rows(self):
        rng = np.random.default_rng(2)
        obj = np.sort(rng.integers(0, 200_000, size=5_000)).astype(np.uint32)
        cand = rng.integers(0, 40, size=5_000).astype(np.uint32)
        vs = VerificationSets.from_pairs(obj, cand, 41)
        packed = vs.packed()
        assert packed is not vs
        assert packed.rows.dtype == np.uint16
        assert packed.nbytes == 5_000 * 2 + 42 * 8 + 41 * 4 < vs.nbytes
        np.testing.assert_array_equal(packed.sizes(), vs.sizes())
        for got, want in zip(packed, vs):
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, want)

    def test_packing_keeps_sets_whose_steps_overflow(self):
        vs = VerificationSets.from_pairs(
            np.array([3, 70_000], np.uint32), np.array([0, 0], np.uint32), 1
        )
        assert vs.packed() is vs
        everything = VerificationSets.everything(4, 2)
        assert everything.packed() is everything

    def test_pickle_round_trip(self):
        import pickle

        vs = VerificationSets.from_pairs(
            np.array([4, 4, 9], np.uint32), np.array([0, 1, 1], np.uint32), 2
        )
        for sets in (vs, vs.packed(), VerificationSets.everything(5, 2)):
            back = pickle.loads(pickle.dumps(sets))
            assert type(back) is type(sets)
            assert [v.tolist() for v in back] == [v.tolist() for v in sets]


class TestChooseGrid:
    @staticmethod
    def sparse_world(n, m, extent, seed=3):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, extent, size=(n, 2))
        mbrs = np.hstack([lo, lo + 2.0])
        radii = np.full(n, 5.0)
        return mbrs, radii, rng.uniform(0.0, extent, size=(m, 2))

    def test_large_sparse_world_gets_a_fine_grid(self):
        mbrs, radii, cand_xy = self.sparse_world(20_000, 500, 1_000.0)
        gx, gy = choose_grid(mbrs, radii, cand_xy)
        assert gx * gy >= 64

    @pytest.mark.parametrize("n, m", [(100, 20), (20_000, 4)])
    def test_small_or_narrow_queries_stay_dense(self, n, m):
        # The join's set-up and expansion cannot pay for themselves:
        # a hundred objects, or a subscription's 4 candidates.
        mbrs, radii, cand_xy = self.sparse_world(n, m, 1_000.0)
        assert choose_grid(mbrs, radii, cand_xy) == (1, 1)

    def test_degenerate_candidate_sets(self):
        mbrs, radii, cand_xy = self.sparse_world(20_000, 500, 1_000.0)
        assert choose_grid(mbrs, radii, cand_xy[:1]) == (1, 1)
        same = np.repeat(cand_xy[:1], 500, axis=0)
        assert choose_grid(mbrs, radii, same) == (1, 1)
        assert choose_grid(mbrs[:0], radii[:0], cand_xy) == (1, 1)
        # collinear candidates get a one-dimensional grid
        line = cand_xy.copy()
        line[:, 1] = 500.0
        gx, gy = choose_grid(mbrs, radii, line)
        assert gy == 1 and gx > 1


class TestEdgeCases:
    def test_all_candidates_far_away(self, pf, rng):
        objects = make_objects(rng, 3, extent=5.0, n_range=(2, 4))
        table = ObjectTable(objects, pf, 0.9)
        cand_xy = np.array([[1e5, 1e5], [-1e5, -1e5]])
        for entry in table:
            outcome = classify_candidates(entry, cand_xy, None)
            assert outcome.certain.size == 0
            assert outcome.maybe.size == 0
            assert outcome.pruned_nib == 2

    def test_candidate_in_mbr_is_never_nib_pruned(self, pf, rng):
        # minDist is zero inside the MBR, so the NIB rule can't fire.
        objects = make_objects(rng, 5, extent=20.0, n_range=(5, 30))
        table = ObjectTable(objects, pf, 0.9)
        for entry in table:
            center = entry.mbr.center
            cand_xy = np.array([[center.x, center.y]])
            outcome = classify_candidates(entry, cand_xy, None)
            assert outcome.pruned_nib == 0

    def test_empty_rtree_query_result(self, pf, rng):
        objects = make_objects(rng, 2, extent=5.0)
        table = ObjectTable(objects, pf, 0.9)
        cand_xy = np.array([[1e4, 1e4]])
        rtree = RTree.bulk_load(cand_xy)
        outcome = classify_candidates(table.entries[0], cand_xy, rtree)
        assert outcome.pruned_nib == 1
