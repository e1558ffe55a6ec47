"""Unit tests for the numpy-accelerated planner."""

import time

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    by_expected_devices,
    conference_call_heuristic,
    conference_call_heuristic_fast,
    expected_paging_float,
    optimize_cuts,
    optimize_cuts_fast,
    plan_batch,
    prefix_stop_probabilities_fast,
)
from repro.errors import InfeasibleError
from repro.solvers import get_solver
from tests.conftest import random_instance


class TestPrefixStops:
    def test_matches_reference(self, rng):
        instance = random_instance(rng, num_devices=3, num_cells=9)
        order = by_expected_devices(instance)
        reference = instance.prefix_find_probabilities(order)
        fast = prefix_stop_probabilities_fast(instance.as_array(), order)
        assert np.allclose([float(v) for v in reference], fast)

    def test_endpoint_values(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=5)
        fast = prefix_stop_probabilities_fast(
            instance.as_array(), tuple(range(5))
        )
        assert fast[0] == 0.0
        assert fast[-1] == pytest.approx(1.0)


class TestOptimizeCutsFast:
    def test_matches_reference_values(self, rng):
        for _ in range(10):
            instance = random_instance(rng, num_devices=2, num_cells=9, max_rounds=4)
            order = by_expected_devices(instance)
            finds = [
                float(v) for v in instance.prefix_find_probabilities(order)
            ]
            slow_sizes, slow_value = optimize_cuts(finds, 4)
            fast_sizes, fast_value = optimize_cuts_fast(np.array(finds), 4)
            assert fast_value == pytest.approx(slow_value)
            assert fast_sizes == slow_sizes

    def test_matches_reference_with_cap(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=8, max_rounds=4)
        finds = [
            float(v)
            for v in instance.prefix_find_probabilities(tuple(range(8)))
        ]
        slow = optimize_cuts(finds, 4, max_group_size=3)
        fast = optimize_cuts_fast(np.array(finds), 4, max_group_size=3)
        assert fast[1] == pytest.approx(slow[1])
        assert max(fast[0]) <= 3

    def test_rejects_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimize_cuts_fast(np.array([0.0, 1.0]), 5)
        with pytest.raises(InfeasibleError):
            optimize_cuts_fast(np.array([0.0, 0.5, 1.0]), 2, max_group_size=0)


class TestFastHeuristic:
    def test_matches_reference_strategy(self, rng):
        for _ in range(8):
            instance = random_instance(rng, num_devices=3, num_cells=10, max_rounds=3)
            reference = conference_call_heuristic(instance)
            fast = conference_call_heuristic_fast(instance)
            assert float(fast.expected_paging) == pytest.approx(
                float(reference.expected_paging)
            )
            assert fast.order == reference.order

    def test_value_matches_strategy(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=12, max_rounds=4)
        fast = conference_call_heuristic_fast(instance)
        assert float(fast.expected_paging) == pytest.approx(
            expected_paging_float(instance, fast.strategy)
        )

    def test_bandwidth_cap(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=12, max_rounds=4)
        fast = conference_call_heuristic_fast(instance, max_group_size=4)
        assert max(fast.group_sizes) <= 4

    def test_large_instance_runs_quickly(self, rng):
        matrix = rng.dirichlet(np.ones(800), size=4)
        from repro.core import PagingInstance

        instance = PagingInstance.from_array(matrix, max_rounds=5)
        start = time.perf_counter()
        result = conference_call_heuristic_fast(instance)
        elapsed = time.perf_counter() - start
        assert sum(result.group_sizes) == 800
        assert elapsed < 5.0  # generous bound; typically well under 1s

    def test_round_override(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=10, max_rounds=5)
        fast = conference_call_heuristic_fast(instance, max_rounds=2)
        assert len(fast.group_sizes) == 2


class TestExactAgreementWithReference:
    """On continuous random rows, fast and reference plan the same strategy."""

    @pytest.mark.parametrize("case", range(60))
    def test_same_order_and_group_sizes(self, case):
        rng = np.random.default_rng(np.random.SeedSequence(4708, spawn_key=(case,)))
        cells = int(rng.integers(2, 31))
        devices = int(rng.integers(1, 5))
        rounds = int(rng.integers(1, min(cells, 5) + 1))
        instance = PagingInstance.from_array(
            rng.dirichlet(np.ones(cells), size=devices), rounds
        )
        reference = conference_call_heuristic(instance)
        fast = conference_call_heuristic_fast(instance)
        assert fast.order == reference.order
        assert fast.group_sizes == reference.group_sizes


#: A float-tie instance captured from a contended run (perfbench
#: ``contended``, seed 801, replica 1): two cut sequences tie in exact
#: arithmetic, and the reference and the float planners round them apart.
_TIE_ROWS = [
    ["0x1.5555555555555p-4"] * 2 + ["0x1.0p-3"] * 3
    + ["0x1.5555555555555p-4"] * 2 + ["0x1.2aaaaaaaaaaabp-2"],
    ["0x1.af286bca1af28p-5"] * 2
    + ["0x1.af286bca1af28p-4", "0x1.435e50d79435ep-4", "0x1.79435e50d7943p-3",
       "0x1.435e50d79435ep-3"]
    + ["0x1.79435e50d7943p-3"] * 2,
]


class TestFloatTieDisagreement:
    """Where fast and reference are only approximately equal.

    On instances with exact ties between cut sequences, the reference
    (``heuristic``) and the float planners (``heuristic-fast`` and
    ``heuristic-batch``, which agree with each other bit for bit) can
    break the tie differently.  Neither is consistently lower: the two
    expected-paging values differ only in the last bits.
    """

    def _instance(self):
        rows = [[float.fromhex(value) for value in row] for row in _TIE_ROWS]
        return PagingInstance(rows, 3, allow_zero=True)

    def test_reference_and_fast_break_the_tie_differently(self):
        instance = self._instance()
        reference = get_solver("heuristic")(instance)
        fast = get_solver("heuristic-fast")(instance)
        assert reference.extras["order"] == fast.extras["order"]
        assert reference.extras["group_sizes"] == (3, 3, 2)
        assert fast.extras["group_sizes"] == (4, 2, 2)
        # 5.679824561403509 vs 5.6798245614035086: one ulp apart
        assert float(reference.expected_paging).hex() == "0x1.6b823ee08fb83p+2"
        assert float(fast.expected_paging).hex() == "0x1.6b823ee08fb82p+2"

    def test_batch_rows_follow_fast(self):
        instance = self._instance()
        fast = conference_call_heuristic_fast(instance)
        for backend in ("numpy", "auto"):
            row = plan_batch(instance.float_rows()[None], 3, backend=backend)
            assert tuple(row.orders[0].tolist()) == fast.order
            assert tuple(row.group_sizes[0].tolist()) == fast.group_sizes == (4, 2, 2)
            assert row.values[0] == fast.expected_paging
