"""The paging engine: executing search strategies over real cells.

Bridges the optimizer (which works on a contiguous sub-instance) and the
simulated network (global cell ids, true device positions).  A search:

1. restricts each wanted device's prior to the candidate cells and
   renormalizes,
2. plans a strategy (:func:`plan_groups`) — blanket (the GSM baseline),
   the paper's heuristic, or (fault-free) the adaptive replanner,
3. pages group by group against the true locations, counting every cell
   paged (:func:`execute_groups`, with or without a fault injector), and
4. falls back to sweeping the rest of the network if a device was outside
   the candidate set (possible under lazy reporting policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.adaptive import adaptive_search
from ..core.instance import PagingInstance
from ..errors import InfeasibleError, SimulationError
from ..solvers import get_solver

if TYPE_CHECKING:
    from .faults import FaultInjector, RecoveryPolicy

#: The registry planner behind each ``SimulationConfig.pager`` name
#: (``None`` = blanket); "adaptive" plans it only under faults.
PAGER_SOLVERS: Mapping[str, Optional[str]] = {
    "blanket": None,
    "heuristic": "heuristic",
    "heuristic-batch": "heuristic-batch",
    "adaptive": "heuristic",
}


@dataclass(frozen=True)
class PagingOutcome:
    """The result of one search operation.

    A fault-free search always locates everyone, so ``failed_devices`` is
    empty and ``retries_used`` zero; under faults both are filled when a
    search degrades into a partial conference (docs/robustness.md).
    """

    found_cells: Dict[int, int]  # device -> cell where it answered
    cells_paged: int
    rounds_used: int
    used_fallback: bool
    #: local participant indices the search gave up on (degraded call)
    failed_devices: Tuple[int, ...] = ()
    #: re-page retry rounds spent by the recovery policy
    retries_used: int = 0

    @property
    def complete(self) -> bool:
        """True when every wanted device was located."""
        return not self.failed_devices


def build_sub_instance(
    priors: Sequence[np.ndarray],
    candidate_cells: Sequence[int],
    max_rounds: int,
    *,
    floor: float = 1e-12,
) -> Tuple[PagingInstance, Tuple[int, ...]]:
    """Restrict per-device priors to the candidate cells and renormalize.

    Returns the sub-instance plus the map from sub-index to global cell id.
    ``floor`` keeps renormalized rows strictly positive so the optimizer's
    model assumptions hold even when the prior gives a candidate cell zero
    mass.  The rows are bit-identical to restricting and renormalizing
    each prior cell by cell.
    """
    index = np.asarray(candidate_cells, dtype=np.intp)
    if not index.size:
        raise SimulationError("cannot page an empty candidate set")
    cells = tuple(index.tolist())
    # np.take keeps the restricted rows C-contiguous, so each row sums in
    # the same (pairwise) order as a 1-D sum; ``stack[:, index]`` would
    # come out column-major and sum in a different order.
    restricted = np.maximum(
        np.take(np.array(priors, dtype=np.float64), index, axis=1), floor
    )
    rows = restricted / restricted.sum(axis=1, keepdims=True)
    d = max(1, min(int(max_rounds), len(cells)))
    return PagingInstance(rows, d, allow_zero=True), cells


def plan_groups(
    priors: Sequence[np.ndarray],
    candidate_cells: Sequence[int],
    rounds: int,
    solver: Optional[object],
) -> List[List[int]]:
    """Plan one call's oblivious page schedule over the candidate cells.

    ``solver=None`` is blanket paging: every candidate in one round.
    Otherwise the priors are restricted to the candidates
    (:func:`build_sub_instance`) and planned in at most ``rounds`` rounds:
    a batch-capable registry solver (``supports_batch``) plans a one-row
    ``run_batch``, any other solver is called on the sub-instance.  Each
    group comes back as sorted global cell ids.  Raises
    :class:`~repro.errors.InfeasibleError` when the batch row has no
    feasible plan.
    """
    if solver is None:
        cells = sorted(int(cell) for cell in candidate_cells)
        if not cells:
            raise SimulationError("cannot page an empty candidate set")
        return [cells]
    instance, cells = build_sub_instance(priors, candidate_cells, rounds)
    if getattr(solver, "supports_batch", False):
        plans = solver.run_batch(
            instance.float_rows()[None], max_rounds=instance.max_rounds
        )
        if not plans.feasible[0]:
            raise InfeasibleError(
                f"no feasible plan for {len(cells)} cells in "
                f"{instance.max_rounds} rounds"
            )
        order = plans.orders[0].tolist()
        groups = []
        start = 0
        for size in plans.group_sizes[0].tolist():
            groups.append(order[start : start + size])
            start += size
    else:
        groups = solver(instance).strategy.groups
    return [sorted([cells[j] for j in group]) for group in groups]


def _page(
    cells: Sequence[int],
    remaining: Dict[int, int],
    found: Dict[int, int],
    injector: Optional["FaultInjector"],
    time: int,
) -> None:
    """Page ``cells`` in one round; move every device that answers to ``found``."""
    if injector is not None:
        cells = [cell for cell in cells if injector.page_delivered(cell, time)]
    delivered = set(cells)
    for device in sorted(remaining):
        if remaining[device] in delivered:
            found[device] = remaining.pop(device)


def execute_groups(
    groups: Sequence[Sequence[int]],
    candidate_cells: Sequence[int],
    true_cells: Sequence[int],
    max_rounds: int,
    num_cells: int,
    *,
    injector: Optional["FaultInjector"] = None,
    policy: Optional["RecoveryPolicy"] = None,
    time: int = 0,
) -> PagingOutcome:
    """Page a planned schedule against the devices' true cells.

    Phase 1 pages ``groups`` one round each until everyone answered.
    Without an ``injector`` every page is delivered, nothing is drawn from
    the rng and nothing is retried; a device outside the candidate set
    costs one complement sweep, which may take round ``d + 1``.  With an
    injector, lost pages go unanswered, phase 2 re-pages the candidate set
    after ``policy``'s backoff waits, and every round — paging, waiting and
    sweeping alike — counts against ``policy.budget(max_rounds)``, so the
    search never pages past round ``d``; whoever is still missing is
    reported in ``failed_devices``.
    """
    if injector is None:
        budget, max_retries = max_rounds + 1, 0
    else:
        assert policy is not None
        budget, max_retries = policy.budget(max_rounds), policy.max_retries
    remaining = {device: int(cell) for device, cell in enumerate(true_cells)}
    found: Dict[int, int] = {}
    paged = 0
    rounds = 0
    retries = 0

    # Phase 1 — the planned strategy, one round per group.
    for group in groups:
        if not remaining or rounds >= budget:
            break
        rounds += 1
        paged += len(group)
        _page(group, remaining, found, injector, time)

    # Phase 2 — bounded re-page retries with exponential backoff; each
    # retry blankets the candidate set (a lost page says nothing about
    # where the device is, so no cell can be ruled out).
    candidates = sorted({int(cell) for cell in candidate_cells})
    for attempt in range(1, max_retries + 1):
        if not remaining:
            break
        wait = policy.backoff(attempt)
        if rounds + wait + 1 > budget:
            break  # the retry would overrun the delay constraint
        rounds += wait + 1
        retries += 1
        paged += len(candidates)
        _page(candidates, remaining, found, injector, time)

    # Phase 3 — the system-wide fallback sweep for devices the registry
    # mislaid entirely, if (and only if) it still fits the budget.
    used_fallback = False
    candidate_set = set(candidates)
    if (
        remaining
        and rounds < budget
        and any(cell not in candidate_set for cell in remaining.values())
    ):
        sweep = [cell for cell in range(num_cells) if cell not in candidate_set]
        if sweep:
            rounds += 1
            used_fallback = True
            paged += len(sweep)
            _page(sweep, remaining, found, injector, time)

    # Phase 4 — graceful degradation: the conference proceeds without
    # whoever is still missing once the budget is exhausted.
    return PagingOutcome(
        found_cells=found,
        cells_paged=paged,
        rounds_used=rounds,
        used_fallback=used_fallback,
        failed_devices=tuple(sorted(remaining)),
        retries_used=retries,
    )


class AdaptivePager:
    """The Section 5 adaptive replanner (fault-free runs only)."""

    name = "adaptive"

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
        index_of = {cell: j for j, cell in enumerate(cells)}
        if not all(cell in index_of for cell in true_cells):
            # Some device left the candidate set; page it all, then sweep.
            return execute_groups(
                plan_groups(priors, cells, max_rounds, None),
                cells,
                true_cells,
                max_rounds,
                num_cells,
            )
        local_locations = [index_of[cell] for cell in true_cells]
        trace = adaptive_search(instance, local_locations)
        found = {device: cell for device, cell in enumerate(true_cells)}
        return PagingOutcome(
            found_cells=found,
            cells_paged=trace.cells_paged,
            rounds_used=trace.rounds_used,
            used_fallback=False,
        )


class CostAwarePager:
    """Plans with heterogeneous per-cell paging costs (density ordering).

    ``costs`` maps every global cell id to a positive paging cost (airtime,
    channel load, sector count).  Planning minimizes expected *cost* via the
    weighted Fig. 1 analogue; the returned outcome still reports cells paged
    so results stay comparable with the other pagers.
    """

    name = "cost-aware"

    def __init__(self, costs: Sequence[float]) -> None:
        if any(float(cost) <= 0 for cost in costs):
            raise SimulationError("paging costs must be strictly positive")
        self._costs = [float(cost) for cost in costs]

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        if len(self._costs) != num_cells:
            raise SimulationError(
                f"cost table covers {len(self._costs)} cells, network has {num_cells}"
            )
        solver = partial(
            get_solver("weighted-heuristic"),
            costs=[self._costs[int(cell)] for cell in candidate_cells],
        )
        groups = plan_groups(priors, candidate_cells, max_rounds, solver)
        return execute_groups(
            groups, candidate_cells, true_cells, max_rounds, num_cells
        )

    def cost_of_cells(self, paged_cells: Sequence[int]) -> float:
        """Total cost of an explicit list of paged cells."""
        return sum(self._costs[cell] for cell in paged_cells)
