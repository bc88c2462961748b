"""Tests for weighted PRIME-LS."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pruning
from repro.core.naive import NaiveAlgorithm, exact_probability
from repro.core.portfolio import influence_bitsets
from repro.core.weighted import WeightedPrimeLS
from repro.prob import PowerLawPF

from tests.helpers import make_candidates, make_objects


def brute_weighted(objects, weights, candidates, pf, tau):
    return {
        j: sum(
            w
            for obj, w in zip(objects, weights)
            if exact_probability(obj, cand.x, cand.y, pf) >= tau - 1e-12
        )
        for j, cand in enumerate(candidates)
    }


class TestWeighted:
    def test_unit_weights_reduce_to_plain(self, pf, rng):
        objects = make_objects(rng, 15)
        candidates = make_candidates(rng, 12)
        plain = NaiveAlgorithm().select(objects, candidates, pf, 0.6)
        weighted = WeightedPrimeLS([1.0] * 15).select(objects, candidates, pf, 0.6)
        for j in range(12):
            assert weighted.influences[j] == pytest.approx(plain.influences[j])

    def test_matches_brute_force(self, pf, rng):
        objects = make_objects(rng, 12)
        weights = rng.uniform(0.1, 5.0, 12).tolist()
        candidates = make_candidates(rng, 10)
        result = WeightedPrimeLS(weights).select(objects, candidates, pf, 0.5)
        expected = brute_weighted(objects, weights, candidates, pf, 0.5)
        for j in range(10):
            assert result.influences[j] == pytest.approx(expected[j])

    def test_dict_weights_by_object_id(self, pf, rng):
        objects = make_objects(rng, 8)
        weights = {obj.object_id: float(obj.object_id + 1) for obj in objects}
        candidates = make_candidates(rng, 6)
        by_dict = WeightedPrimeLS(weights).select(objects, candidates, pf, 0.5)
        by_list = WeightedPrimeLS(
            [weights[o.object_id] for o in objects]
        ).select(objects, candidates, pf, 0.5)
        for j in range(6):
            assert by_dict.influences[j] == pytest.approx(by_list.influences[j])

    def test_missing_dict_weight_defaults_to_one(self, pf, rng):
        objects = make_objects(rng, 5)
        candidates = make_candidates(rng, 4)
        partial = WeightedPrimeLS({}).select(objects, candidates, pf, 0.5)
        plain = NaiveAlgorithm().select(objects, candidates, pf, 0.5)
        for j in range(4):
            assert partial.influences[j] == pytest.approx(plain.influences[j])

    def test_zero_weight_object_is_ignored(self, pf, rng):
        objects = make_objects(rng, 6)
        candidates = make_candidates(rng, 5)
        weights = [1.0] * 6
        weights[2] = 0.0
        weighted = WeightedPrimeLS(weights).select(objects, candidates, pf, 0.5)
        without = NaiveAlgorithm().select(
            objects[:2] + objects[3:], candidates, pf, 0.5
        )
        for j in range(5):
            assert weighted.influences[j] == pytest.approx(without.influences[j])

    def test_negative_weight_rejected(self, pf, rng):
        objects = make_objects(rng, 3)
        candidates = make_candidates(rng, 3)
        with pytest.raises(ValueError, match="non-negative"):
            WeightedPrimeLS([1.0, -0.5, 1.0]).select(objects, candidates, pf, 0.5)

    def test_length_mismatch_rejected(self, pf, rng):
        objects = make_objects(rng, 3)
        candidates = make_candidates(rng, 3)
        with pytest.raises(ValueError, match="weights for"):
            WeightedPrimeLS([1.0]).select(objects, candidates, pf, 0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1_000), tau=st.floats(0.1, 0.9))
    def test_random_instances_property(self, seed, tau):
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 8, extent=20.0, n_range=(1, 15))
        weights = rng.uniform(0.0, 3.0, 8).tolist()
        candidates = make_candidates(rng, 8, extent=20.0)
        result = WeightedPrimeLS(weights).select(objects, candidates, pf, tau)
        expected = brute_weighted(objects, weights, candidates, pf, tau)
        for j in range(8):
            assert result.influences[j] == pytest.approx(expected[j])


class TestFloatTies:
    """Candidates whose weighted influences tie in exact arithmetic can
    differ in the last bit with the order the weights are added.  The
    sums run per 1,024-entry part (the IA weights as one matrix product,
    then the validated hits entry by entry), whatever grid the join
    picks, so the winner of such a tie is fixed."""

    WEIGHTS = [0.1, 0.2, 0.3, 0.7, 1.1]

    # (seed, the exactly tied best candidate that wins by rounding):
    # summing all IA weights in entry order with one bincount instead
    # picks another of the tied candidates on each of these worlds
    @pytest.mark.parametrize(
        "seed, winner", [(7, 7), (20, 9), (27, 7), (44, 4)]
    )
    @pytest.mark.parametrize("grid", [None, (1, 1), (4, 4)])
    def test_winner_of_an_exact_tie(self, seed, winner, grid, monkeypatch):
        if grid is not None:
            monkeypatch.setattr(pruning, "choose_grid", lambda *_: grid)
        pf = PowerLawPF()
        rng = np.random.default_rng(seed)
        objects = make_objects(rng, 200, extent=10.0, n_range=(1, 5))
        candidates = make_candidates(rng, 10, extent=10.0)
        weights = [self.WEIGHTS[i] for i in rng.integers(0, 5, size=200)]
        tau = 0.15
        result = WeightedPrimeLS(weights).select(objects, candidates, pf, tau)
        # who influences whom, as the solvers decide it
        masks = influence_bitsets(objects, candidates, pf, tau)
        assert all(mask.size == len(objects) for mask in masks)
        exact = [
            sum(
                (Fraction(str(weights[i])) for i in np.flatnonzero(mask)),
                Fraction(0),
            )
            for mask in masks
        ]
        tied = [j for j, e in enumerate(exact) if e == max(exact)]
        assert winner in tied and len(tied) > 1
        assert len({result.influences[j] for j in tied}) > 1
        assert result.best_candidate is candidates[winner]

    def test_influences_do_not_depend_on_the_grid(self, monkeypatch):
        pf = PowerLawPF()
        rng = np.random.default_rng(12)
        objects = make_objects(rng, 2_500, extent=200.0, n_range=(1, 6))
        candidates = make_candidates(rng, 60, extent=200.0)
        weights = rng.choice(self.WEIGHTS, size=2_500).tolist()
        runs = []
        for grid in [(1, 1), (8, 8), (30, 2)]:
            monkeypatch.setattr(pruning, "choose_grid", lambda *_: grid)
            runs.append(
                WeightedPrimeLS(weights).select(objects, candidates, pf, 0.4)
            )
        for other in runs[1:]:
            assert other.influences == runs[0].influences
