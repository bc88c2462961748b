"""The cell-block join against the dense oracle, and serial against pool.

The join (:func:`repro.core.pruning.join_cells`) may test far fewer
pairs than the dense broadcast but must emit the same split: the same
``minInf``, every verification set with the same entries in the same
(ascending) order, and the same IA/NIB counts — on the grid the cost
model picks and on any forced grid.  Worlds come from the composable
strategies of ``tests/strategies.py``.

The second half runs PIN and PIN-VO end to end with the grid forced
to 1×1 (the plain broadcast) and to a fine grid, serially and on the
worker pool: every answer and work counter must agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, select_location
from repro.core import pruning
from repro.core.pruning import classify_span, join_cells, join_parts
from repro.engine import fork_available
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects
from tests.oracles import dense_pruning, ia_sets
from tests.strategies import (
    clustered_fleets,
    fine_grids,
    giant_fleets,
    grids,
    worlds,
)
from tests.test_engine import assert_same_result
from tests.test_faults import assert_no_orphans, fast_policy


def assert_matches_oracle(split, oracle) -> None:
    np.testing.assert_array_equal(split.ia_counts, oracle["min_inf"])
    assert split.ia_pairs == oracle["ia_pairs"]
    assert split.nib_pairs == oracle["nib_pairs"]
    sets = split.verification_sets()
    assert len(sets) == len(oracle["vs"])
    for got, want in zip(sets, oracle["vs"]):
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, want)
    for got, want in zip(ia_sets(split), oracle["ia_sets"]):
        np.testing.assert_array_equal(got, want)


class TestJoinMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds(), grid=grids)
    def test_any_world_any_grid(self, world, grid):
        mbrs, radii, cand_xy = world
        oracle = dense_pruning(mbrs, radii, cand_xy)
        assert_matches_oracle(
            join_cells(mbrs, radii, cand_xy, grid, with_ia=True), oracle
        )
        assert_matches_oracle(
            classify_span(mbrs, radii, cand_xy, with_ia=True), oracle
        )

    @settings(max_examples=60, deadline=None)
    @given(world=worlds(fleet=giant_fleets), grid=fine_grids)
    def test_overflow_list_keeps_entry_order(self, world, grid):
        # Giant boxes go on the overflow list and are tested against
        # every candidate; their pairs interleave with the cell blocks'.
        mbrs, radii, cand_xy = world
        assert_matches_oracle(
            join_cells(
                mbrs, radii, cand_xy, grid, with_ia=True, block_pairs=7
            ),
            dense_pruning(mbrs, radii, cand_xy),
        )

    @settings(max_examples=60, deadline=None)
    @given(world=worlds(fleet=clustered_fleets), grid=grids)
    def test_clustered_worlds(self, world, grid):
        mbrs, radii, cand_xy = world
        assert_matches_oracle(
            join_cells(mbrs, radii, cand_xy, grid, with_ia=True),
            dense_pruning(mbrs, radii, cand_xy),
        )

    def test_overflow_and_cell_blocks_interleave(self):
        # Every third object is a giant; the rest are small boxes that
        # go through the cells.  Small blocks put both kinds in one
        # block, whose pairs must come out in entry order.
        rng = np.random.default_rng(6)
        lo = rng.uniform(0.0, 100.0, size=(90, 2))
        mbrs = np.hstack([lo, lo + 1.0])
        giant = np.arange(90) % 3 == 0
        radii = np.where(giant, 1e5, 3.0)
        cand_xy = rng.uniform(0.0, 100.0, size=(60, 2))
        oracle = dense_pruning(mbrs, radii, cand_xy)
        # each giant is one incidence of the overflow cell (gx·gy),
        # which holds all 60 candidates
        cells = pruning._plan_cells(mbrs, radii, cand_xy, (10, 10), 90, 64)
        assert (cells.nx[giant] * cells.ny[giant] == 1).all()
        assert (cells.by0[giant] * 10 + cells.bx0[giant] == 100).all()
        assert cells.count[100] == 60
        assert not (cells.nx[~giant] * cells.ny[~giant] == 100).any()
        for block in (5, 64, 10_000):
            assert_matches_oracle(
                join_cells(
                    mbrs, radii, cand_xy, (10, 10), with_ia=True,
                    block_pairs=block,
                ),
                oracle,
            )

    def test_dilated_edges_survive_float_rounding(self):
        # Candidates exactly on min_x - r / max_x + r, at magnitudes
        # where the subtraction rounds: the box must still contain them.
        rng = np.random.default_rng(4)
        lo = rng.uniform(-1e6, 1e6, size=(300, 2))
        mbrs = np.hstack([lo, lo + rng.uniform(0.0, 3.0, size=(300, 2))])
        radii = rng.uniform(0.0, 1e-3, size=300) * 10.0 ** rng.integers(
            -6, 4, size=300
        )
        cand_xy = np.concatenate(
            [
                np.stack([mbrs[:, 0] - radii, mbrs[:, 1]], axis=1),
                np.stack([mbrs[:, 2] + radii, mbrs[:, 3]], axis=1),
                np.stack([mbrs[:, 0], mbrs[:, 1] - radii], axis=1),
                np.stack([mbrs[:, 2], mbrs[:, 3] + radii], axis=1),
            ]
        )
        oracle = dense_pruning(mbrs, radii, cand_xy)
        assert oracle["ia_pairs"] + sum(v.size for v in oracle["vs"]) > 0
        for grid in [(40, 40), (200, 3)]:
            assert_matches_oracle(
                join_cells(mbrs, radii, cand_xy, grid, with_ia=True), oracle
            )

    # squares of ~1e308 overflow inside the exact tests themselves (the
    # oracle's and the join's alike)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "xs",
        [
            [0.0, 5e-324, 1e-320],         # extents that underflow a cell
            [-1.7e308, 0.0, 1.7e308],      # an extent that overflows
            [1e-200, 2e-200, 3e-200],      # an area that underflows
        ],
    )
    def test_degenerate_extents(self, xs):
        cand_xy = np.array([[x, y] for x in xs for y in xs])
        mbrs = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 2.0, 2.0]])
        radii = np.array([1e-300, 3.0])
        oracle = dense_pruning(mbrs, radii, cand_xy)
        gx, gy = pruning.choose_grid(mbrs, radii, cand_xy)
        assert gx >= 1 and gy >= 1
        for grid in [(gx, gy), (12, 12), (1, 7)]:
            assert_matches_oracle(
                join_cells(mbrs, radii, cand_xy, grid, with_ia=True), oracle
            )

    @pytest.mark.parametrize("m", [4, 40])
    @pytest.mark.parametrize("grid", [(1, 1), (5, 5)])
    def test_band_by_object_yields_each_entry_once(self, m, grid):
        # PIN's per-object validation gets one call per banded entry,
        # with that entry's candidates, on the dense and the cell path.
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.0, 30.0, size=(200, 2))
        mbrs = np.hstack([lo, lo + 1.0])
        radii = np.full(200, 4.0)
        cand_xy = rng.uniform(0.0, 30.0, size=(m, 2))
        oracle = dense_pruning(mbrs, radii, cand_xy)
        want = {}
        for j, entries in enumerate(oracle["vs"]):
            for i in entries.tolist():
                want.setdefault(i, []).append(j)
        split = join_cells(mbrs, radii, cand_xy, grid)
        got = [(i, sorted(c.tolist())) for i, c in split.band_by_object()]
        assert [i for i, _ in got] == sorted(want)
        assert dict(got) == want

    @settings(max_examples=80, deadline=None)
    @given(
        world=worlds(), grid=grids, part=st.integers(1, 9),
        block=st.sampled_from([3, 50, 32_768]),
    )
    def test_parts_concatenate_to_the_whole(self, world, grid, part, block):
        # PIN, weighted and the portfolio validate part by part: the
        # parts must tile the entries in order and add up to the
        # whole-table join, pair for pair.
        mbrs, radii, cand_xy = world
        r = int(radii.shape[0])
        whole = join_cells(mbrs, radii, cand_xy, grid, with_ia=True)
        parts = list(
            join_parts(
                mbrs, radii, cand_xy, grid, with_ia=True,
                part_entries=part, block_pairs=block,
            )
        )
        assert [(p.start, p.stop) for p in parts] == [
            (s, min(r, s + part)) for s in range(0, max(r, 1), part)
        ]
        for name in ("band_obj", "band_cand", "ia_obj", "ia_cand"):
            got = np.concatenate([getattr(p, name) for p in parts])
            np.testing.assert_array_equal(got, getattr(whole, name))
        for p in parts:
            inside = np.concatenate([p.band_obj, p.ia_obj])
            assert ((inside >= p.start) & (inside < p.stop)).all()
        np.testing.assert_array_equal(
            sum(p.ia_counts for p in parts), whole.ia_counts
        )
        assert sum(p.nib_pairs for p in parts) == whole.nib_pairs
        assert sum(p.pairs_tested for p in parts) == whole.pairs_tested

    def test_part_entries_must_be_positive(self):
        mbrs = np.zeros((3, 4))
        radii = np.ones(3)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="part_entries"):
                join_parts(mbrs, radii, mbrs[:, :2], (1, 1), part_entries=bad)

    def test_pairs_tested_is_output_sensitive(self):
        # A sparse world: the fine grid tests a small share of n·m.
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 1_000.0, size=(5_000, 2))
        mbrs = np.hstack([lo, lo + 2.0])
        radii = np.full(5_000, 4.0)
        cand_xy = rng.uniform(0.0, 1_000.0, size=(400, 2))
        split = classify_span(mbrs, radii, cand_xy)
        assert split.grid != (1, 1)
        assert split.pairs_tested < 0.05 * 5_000 * 400
        dense = join_cells(mbrs, radii, cand_xy, (1, 1))
        assert dense.pairs_tested == 5_000 * 400
        np.testing.assert_array_equal(split.ia_counts, dense.ia_counts)


def force_grid(monkeypatch, grid):
    """Pin the cost model's choice (pool workers fork after this, so
    they inherit it)."""
    monkeypatch.setattr(pruning, "choose_grid", lambda *_: grid)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSerialMatchesPool:
    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(11)
        return make_objects(rng, 60, extent=60.0, n_range=(1, 12))

    @pytest.fixture(scope="class")
    def candidates(self):
        return make_candidates(np.random.default_rng(12), 24, extent=60.0)

    @pytest.mark.parametrize("grid", [(1, 1), (9, 7)])
    @pytest.mark.parametrize("algorithm", ["PIN", "PIN-VO"])
    def test_serial_and_pool_agree(
        self, monkeypatch, world, candidates, grid, algorithm
    ):
        force_grid(monkeypatch, grid)
        pf = PowerLawPF()
        want = select_location(
            world, candidates, pf=pf, tau=0.7, algorithm=algorithm
        )
        with QueryEngine(
            world, workers=2, supervisor_policy=fast_policy()
        ) as engine:
            got = engine.query(candidates, pf=pf, tau=0.7, algorithm=algorithm)
            assert engine.stats.spans_dispatched > 0
        assert_same_result(got, want, counters=True)
        assert_no_orphans()

    @pytest.mark.parametrize("grid", [(1, 1), (9, 7)])
    def test_pin_vo_agrees_with_pin_table(
        self, monkeypatch, world, candidates, grid
    ):
        force_grid(monkeypatch, grid)
        pf = PowerLawPF()
        table = select_location(world, candidates, pf=pf, algorithm="PIN")
        vo = select_location(world, candidates, pf=pf, algorithm="PIN-VO")
        assert vo.best_influence == table.best_influence
        for j, value in vo.influences.items():
            assert table.influences[j] == value
