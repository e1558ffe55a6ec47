"""Unit tests for the paging engine."""

import numpy as np
import pytest

from repro.cellnet import (
    AdaptivePager,
    FaultInjector,
    FaultModel,
    RecoveryPolicy,
    ResilientPager,
    build_sub_instance,
    execute_groups,
    plan_groups,
)
from repro.cellnet.metrics import LinkUsageMetrics
from repro.errors import SimulationError
from repro.solvers import get_solver


def uniform_priors(num_devices, num_cells):
    return [np.full(num_cells, 1.0 / num_cells) for _ in range(num_devices)]


def lossless_injector():
    """An injector that drops nothing: the fault-aware budget rules apply."""
    return FaultInjector(FaultModel(), np.random.default_rng(0), LinkUsageMetrics())


class TestSubInstance:
    def test_restricts_and_renormalizes(self):
        priors = [np.array([0.5, 0.3, 0.2, 0.0])]
        instance, cells = build_sub_instance(priors, [1, 2], max_rounds=2)
        assert cells == (1, 2)
        assert instance.probability(0, 0) == pytest.approx(0.6)
        assert instance.probability(0, 1) == pytest.approx(0.4)

    def test_zero_mass_cells_get_floor(self):
        priors = [np.array([1.0, 0.0, 0.0])]
        instance, _cells = build_sub_instance(priors, [1, 2], max_rounds=2)
        assert sum(instance.row(0)) == pytest.approx(1.0)
        assert all(p > 0 for p in instance.row(0))

    def test_round_budget_clamped_to_cells(self):
        priors = uniform_priors(1, 5)
        instance, _cells = build_sub_instance(priors, [0, 1], max_rounds=9)
        assert instance.max_rounds == 2

    def test_rejects_empty_candidates(self):
        with pytest.raises(SimulationError):
            build_sub_instance(uniform_priors(1, 4), [], max_rounds=2)


def _per_cell_sub_instance(priors, candidate_cells, max_rounds, floor=1e-12):
    """The original per-cell restriction loop, kept as the bit-level oracle."""
    cells = tuple(int(cell) for cell in candidate_cells)
    rows = []
    for prior in priors:
        restricted = np.array([max(float(prior[cell]), floor) for cell in cells])
        rows.append(restricted / restricted.sum())
    d = max(1, min(int(max_rounds), len(cells)))
    return rows, d, cells


class TestSubInstanceMatchesPerCellLoop:
    """The vectorised restriction equals the per-cell loop bit for bit."""

    @pytest.mark.parametrize("case", range(40))
    def test_rows_bit_identical(self, case):
        rng = np.random.default_rng(np.random.SeedSequence(1207, spawn_key=(case,)))
        num_cells = int(rng.integers(1, 80))
        devices = int(rng.integers(1, 6))
        priors = rng.dirichlet(np.ones(num_cells), size=devices)
        # zero prior mass on some cells exercises the floor
        priors[rng.random(priors.shape) < 0.3] = 0.0
        priors = [row for row in priors]
        size = int(rng.integers(1, num_cells + 1))
        candidates = rng.choice(num_cells, size=size, replace=False)
        if case % 2:
            candidates = [int(cell) for cell in candidates]
        rounds = int(rng.integers(1, 6))
        instance, cells = build_sub_instance(priors, candidates, rounds)
        rows, d, expected_cells = _per_cell_sub_instance(priors, candidates, rounds)
        assert cells == expected_cells
        assert instance.max_rounds == d
        assert instance.rows == tuple(tuple(row) for row in rows)
        assert [
            [value.hex() for value in row] for row in instance.float_rows().tolist()
        ] == [[float(value).hex() for value in row] for row in rows]

    def test_all_zero_candidates_share_the_floor_evenly(self):
        priors = [np.array([1.0, 0.0, 0.0, 0.0])]
        instance, _cells = build_sub_instance(priors, [1, 2, 3], max_rounds=2)
        rows, _d, _cells = _per_cell_sub_instance(priors, [1, 2, 3], 2)
        assert instance.rows == (tuple(rows[0]),)
        assert instance.row(0) == (1 / 3, 1 / 3, 1 / 3)

    def test_empty_candidate_set_raises(self):
        for empty in ([], (), np.array([], dtype=int)):
            with pytest.raises(SimulationError):
                build_sub_instance(uniform_priors(2, 4), empty, max_rounds=2)


class TestPlanGroups:
    def test_blanket_is_one_sorted_group(self):
        groups = plan_groups(uniform_priors(1, 6), [4, 1, 2], 3, None)
        assert groups == [[1, 2, 4]]

    def test_blanket_rejects_empty_candidates(self):
        with pytest.raises(SimulationError):
            plan_groups(uniform_priors(1, 4), [], 2, None)

    def test_solver_groups_map_to_global_cells(self, rng):
        priors = [rng.dirichlet(np.ones(9)) for _ in range(2)]
        candidates = [1, 3, 4, 6, 8]
        groups = plan_groups(priors, candidates, 3, get_solver("heuristic"))
        instance, cells = build_sub_instance(priors, candidates, 3)
        expected = get_solver("heuristic")(instance).strategy.groups
        assert groups == [sorted(cells[j] for j in group) for group in expected]


class TestPageWithStrategy:
    """:func:`execute_groups` on a schedule planned elsewhere."""

    def test_stops_when_all_found(self):
        outcome = execute_groups(
            [[10, 11], [12, 13]], (10, 11, 12, 13), true_cells=(10, 11),
            max_rounds=2, num_cells=14,
        )
        assert outcome.complete
        assert (outcome.cells_paged, outcome.rounds_used) == (2, 1)
        assert outcome.found_cells == {0: 10, 1: 11}
        assert not outcome.used_fallback

    def test_incomplete_when_device_outside(self):
        # With an injector the sweep must fit the budget d; here it does not.
        outcome = execute_groups(
            [[10, 11]], (10, 11), true_cells=(10, 99), max_rounds=1,
            num_cells=100, injector=lossless_injector(), policy=RecoveryPolicy(),
        )
        assert not outcome.complete
        assert outcome.found_cells == {0: 10}
        assert outcome.failed_devices == (1,)
        assert (outcome.cells_paged, outcome.rounds_used) == (2, 1)

    def test_fallback_budget_rule(self):
        """Fault-free, the sweep may take round d+1; with an injector, never."""
        priors = uniform_priors(2, 6)
        free = ResilientPager("blanket").search(
            priors, [0, 1, 2], true_cells=[1, 5], max_rounds=1, num_cells=6
        )
        assert free.used_fallback
        assert free.rounds_used == 2
        assert free.found_cells == {0: 1, 1: 5}
        faulty = ResilientPager("blanket", lossless_injector()).search(
            priors, [0, 1, 2], true_cells=[1, 5], max_rounds=1, num_cells=6
        )
        assert not faulty.used_fallback
        assert faulty.rounds_used == 1
        assert faulty.failed_devices == (1,)


class TestPagers:
    def test_blanket_pages_all_candidates(self):
        pager = ResilientPager("blanket")
        outcome = pager.search(
            uniform_priors(2, 6), [0, 1, 2], true_cells=[1, 2], max_rounds=3,
            num_cells=6,
        )
        assert outcome.cells_paged == 3
        assert outcome.rounds_used == 1
        assert not outcome.used_fallback

    def test_heuristic_uses_multiple_rounds(self, rng):
        priors = [rng.dirichlet(np.ones(8)) for _ in range(2)]
        pager = ResilientPager("heuristic")
        outcome = pager.search(
            priors, list(range(8)), true_cells=[0, 1], max_rounds=3, num_cells=8
        )
        assert outcome.found_cells == {0: 0, 1: 1}
        assert outcome.cells_paged <= 8

    def test_fallback_sweeps_network(self):
        pager = ResilientPager("heuristic")
        outcome = pager.search(
            uniform_priors(1, 10), [0, 1, 2], true_cells=[7], max_rounds=2,
            num_cells=10,
        )
        assert outcome.used_fallback
        assert outcome.found_cells == {0: 7}
        assert outcome.cells_paged == 10  # candidates + the 7-cell sweep

    def test_adaptive_finds_devices(self, rng):
        priors = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        pager = AdaptivePager()
        outcome = pager.search(
            priors, list(range(6)), true_cells=[3, 4], max_rounds=3, num_cells=6
        )
        assert outcome.found_cells == {0: 3, 1: 4}
        assert outcome.rounds_used <= 3

    def test_adaptive_fallback_outside_candidates(self):
        pager = AdaptivePager()
        outcome = pager.search(
            uniform_priors(1, 8), [0, 1], true_cells=[5], max_rounds=2, num_cells=8
        )
        assert outcome.used_fallback
        assert outcome.found_cells == {0: 5}


class TestCostAwarePager:
    def test_finds_devices(self, rng):
        from repro.cellnet import CostAwarePager

        costs = [float(v) for v in rng.uniform(1.0, 5.0, size=8)]
        pager = CostAwarePager(costs)
        priors = [rng.dirichlet(np.ones(8)) for _ in range(2)]
        outcome = pager.search(
            priors, list(range(8)), true_cells=[2, 6], max_rounds=3, num_cells=8
        )
        assert outcome.found_cells == {0: 2, 1: 6}
        assert outcome.rounds_used <= 3

    def test_unit_costs_match_heuristic_pager(self, rng):
        from repro.cellnet import CostAwarePager

        priors = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        flat = CostAwarePager([1.0] * 6).search(
            priors, list(range(6)), true_cells=[0, 1], max_rounds=3, num_cells=6
        )
        plain = ResilientPager("heuristic").search(
            priors, list(range(6)), true_cells=[0, 1], max_rounds=3, num_cells=6
        )
        assert flat.cells_paged == plain.cells_paged

    def test_avoids_expensive_cells_early(self, rng):
        """A pricey cell leaves the first round when costs are considered."""
        from repro.cellnet import CostAwarePager

        priors = [np.full(6, 1.0 / 6) for _ in range(2)]
        priors[0] = np.array([0.4, 0.12, 0.12, 0.12, 0.12, 0.12])
        costs = [50.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        pager = CostAwarePager(costs)
        instance_cells = list(range(6))
        outcome = pager.search(
            priors, instance_cells, true_cells=[1, 2], max_rounds=2, num_cells=6
        )
        assert outcome.found_cells == {0: 1, 1: 2}

    def test_validation(self):
        from repro.cellnet import CostAwarePager

        with pytest.raises(SimulationError):
            CostAwarePager([1.0, 0.0])
        pager = CostAwarePager([1.0] * 4)
        with pytest.raises(SimulationError, match="cost table"):
            pager.search(
                uniform_priors(1, 8), [0, 1], true_cells=[0], max_rounds=2,
                num_cells=8,
            )

    def test_cost_of_cells(self):
        from repro.cellnet import CostAwarePager

        pager = CostAwarePager([1.0, 2.0, 3.0])
        assert pager.cost_of_cells([0, 2]) == 4.0
