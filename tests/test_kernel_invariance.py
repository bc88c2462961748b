"""Exactness must be invariant to every batching/tuning knob.

Chunk sizes, batch sizes, the classification join's block size and its
grid are performance knobs; none of them may change any answer.  These
tests sweep the knobs over shared random instances.
"""

import numpy as np
import pytest

from repro.core.influence import (
    influence_threshold_log,
    batch_validate_objects,
    validate_pair,
)
from repro.core.naive import NaiveAlgorithm
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.core.pruning import join_cells
from repro.core.object_table import ObjectTable
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects
from tests.oracles import ia_sets

PF = PowerLawPF()


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(77)
    return (
        make_objects(rng, 25, extent=30.0, n_range=(1, 50)),
        make_candidates(rng, 20, extent=30.0),
    )


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 32, 1000])
    def test_validate_pair_chunk_size(self, instance, chunk):
        objects, candidates = instance
        log_thr = influence_threshold_log(0.65)
        for obj in objects[:10]:
            for cand in candidates[:5]:
                base = validate_pair(
                    PF, obj.positions, cand.x, cand.y, log_thr,
                    kernel="vector", chunk=32,
                )
                got = validate_pair(
                    PF, obj.positions, cand.x, cand.y, log_thr,
                    kernel="vector", chunk=chunk,
                )
                assert got == base

    @pytest.mark.parametrize("head", [1, 4, 16, 64, 10_000])
    def test_batch_validate_head_size(self, instance, head):
        objects, __ = instance
        log_thr = influence_threshold_log(0.65)
        positions = [o.positions for o in objects]
        base = batch_validate_objects(PF, positions, 15.0, 15.0, log_thr)
        got = batch_validate_objects(
            PF, positions, 15.0, 15.0, log_thr, head=head
        )
        np.testing.assert_array_equal(got, base)

    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 4096])
    def test_classification_chunk_size(self, instance, chunk_size):
        # The join's block size bounds its transients and must not move
        # a single pair, on the 1x1 grid and on a fine one alike.
        objects, candidates = instance
        cand_xy = np.array([(c.x, c.y) for c in candidates])
        table = ObjectTable(objects, PF, 0.7)
        mbrs, radii = table.mbr_radius_arrays()
        for grid in [(1, 1), (5, 4)]:
            base = join_cells(mbrs, radii, cand_xy, grid, with_ia=True)
            got = join_cells(
                mbrs, radii, cand_xy, grid, with_ia=True,
                block_pairs=chunk_size,
            )
            np.testing.assert_array_equal(got.ia_counts, base.ia_counts)
            for g, b in zip(ia_sets(got), ia_sets(base)):
                np.testing.assert_array_equal(g, b)
            for g, b in zip(got.verification_sets(), base.verification_sets()):
                np.testing.assert_array_equal(g, b)

    @pytest.mark.parametrize("batch", [1, 5, 64, 100_000])
    def test_pinvo_batch_objects(self, instance, batch):
        objects, candidates = instance
        reference = NaiveAlgorithm().select(objects, candidates, PF, 0.7)
        solver = PinocchioVO()
        solver.BATCH_OBJECTS = batch
        result = solver.select(objects, candidates, PF, 0.7)
        assert result.best_influence == reference.best_influence

    @pytest.mark.parametrize("max_entries", [2, 4, 8, 32])
    def test_rtree_node_capacity(self, instance, max_entries):
        objects, candidates = instance
        reference = NaiveAlgorithm().select(objects, candidates, PF, 0.7)
        result = Pinocchio(
            use_rtree=True, rtree_max_entries=max_entries
        ).select(objects, candidates, PF, 0.7)
        assert result.influences == reference.influences
