"""Fault injection and resilience for the cellular substrate.

The paper's model (Section 2, Lemma 2.1) assumes a perfect network: every
paging message is delivered, every paged device answers within its round,
and the location registry always reflects the latest report.  Production
paging systems enjoy none of that — pages are lost on congested downlinks,
cells go down for maintenance or failure, and location registries serve
stale fixes (the imperfect-information setting of the mobility-tracking
literature PAPERS.md collects, e.g. Rose & Yates' paging-under-delay model).

This module makes those failure modes *representable and recoverable*:

* :class:`FaultModel` / :class:`CellOutage` — a declarative, validated
  description of the faults to inject: a base per-page loss probability,
  per-cell overrides, scheduled cell outages, location-update (uplink) loss,
  and a registry staleness window after which confirmed fixes are
  distrusted.
* :class:`RecoveryPolicy` — bounded re-page retries with exponential
  backoff over rounds, plus an optional per-call round timeout.
* :class:`FaultInjector` — draws concrete fault events from the simulation's
  seeded ``np.random.Generator`` (so a faulty run is reproducible
  byte-for-byte) and accounts for them in
  :class:`~repro.cellnet.metrics.LinkUsageMetrics`, which emits the
  ``faults.*`` trace counters at the end of a run.
* :class:`ResilientPager` — the synchronous search: plans with the paper's
  machinery (Fig. 1 heuristic, or blanket paging) and executes the plan on
  :func:`~repro.cellnet.paging.execute_groups` under faults: lost pages go
  unanswered, retries re-page the candidate set after backoff waits, and a
  final complement sweep covers devices the registry mislaid.

Every recovery round — paging, backoff wait, and fallback sweep alike — is
counted against the delay budget ``d`` (``SimulationConfig.max_paging_rounds``),
so a resilient search **never pages past round d**; when the budget runs out
the call degrades gracefully into a partial conference and the unreachable
devices are reported in ``PagingOutcome.failed_devices``.  A zero fault
model builds no injector: fault-free runs go through the same search with
every page delivered, no rng draws and no retries, so ``EP`` stays exactly
comparable to Lemma 2.1's closed form.

One deliberate restriction: under faults the ``adaptive`` pager plans the
*oblivious* heuristic strategy.  Section 5's conditional replanning treats a
non-answer as proof of absence, which is unsound when the non-answer may be
a lost page; the oblivious plan keeps the executed strategy honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..solvers import get_solver
from .metrics import LinkUsageMetrics
from .paging import PAGER_SOLVERS, PagingOutcome, execute_groups, plan_groups

# Bound only so that perfbench/probes.py can patch it in this namespace;
# planning calls it from .paging.
from .paging import build_sub_instance  # noqa: F401


@dataclass(frozen=True)
class CellOutage:
    """One scheduled outage: ``cell`` is down for ``start <= time < end``."""

    cell: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.cell < 0:
            raise SimulationError("outage cell must be a valid cell id")
        if self.start < 0 or self.end < self.start:
            raise SimulationError("outage needs 0 <= start <= end")

    def active(self, time: int) -> bool:
        return self.start <= time < self.end


def _validate_probability(name: str, value: float) -> None:
    if not 0.0 <= float(value) <= 1.0:
        raise SimulationError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultModel:
    """Declarative fault description; all-zero by construction default.

    ``page_loss`` is the base probability that one downlink paging message
    to one cell is lost; ``cell_page_loss`` overrides it per cell id.
    ``update_loss`` applies to uplink location-update messages: a lost
    update costs the device its wireless message but never reaches the
    registry, which therefore serves stale beliefs.  ``stale_after`` ages
    out *confirmed* fixes: a fix older than that many steps is distrusted
    and the search falls back to the reported-area candidates.  ``outages``
    take cells down for whole time windows; pages to a down cell are never
    delivered.
    """

    page_loss: float = 0.0
    cell_page_loss: Mapping[int, float] = field(default_factory=dict)
    update_loss: float = 0.0
    stale_after: Optional[int] = None
    outages: Tuple[CellOutage, ...] = ()

    def __post_init__(self) -> None:
        _validate_probability("page_loss", self.page_loss)
        _validate_probability("update_loss", self.update_loss)
        for cell, probability in dict(self.cell_page_loss).items():
            if int(cell) < 0:
                raise SimulationError("cell_page_loss keys must be cell ids")
            _validate_probability(f"cell_page_loss[{cell}]", probability)
        if self.stale_after is not None and self.stale_after < 1:
            raise SimulationError("stale_after must be a positive step count")
        for outage in self.outages:
            if not isinstance(outage, CellOutage):
                raise SimulationError("outages must be CellOutage entries")

    @property
    def is_zero(self) -> bool:
        """True when the model injects nothing (the simulator builds no injector)."""
        if self.page_loss > 0.0 or self.update_loss > 0.0:
            return False
        if any(float(p) > 0.0 for p in dict(self.cell_page_loss).values()):
            return False
        return not self.outages and self.stale_after is None

    def loss_probability(self, cell: int) -> float:
        return float(dict(self.cell_page_loss).get(cell, self.page_loss))

    def cell_down(self, cell: int, time: int) -> bool:
        return any(o.cell == cell and o.active(time) for o in self.outages)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded re-page retries with exponential backoff, inside budget ``d``.

    Retry ``k`` (1-based) waits ``backoff_base * 2**(k-1)`` rounds and then
    re-pages the candidate set in one round.  Waits and retry rounds are
    counted against the call's delay budget, so the initial strategy is
    planned over ``budget - reserved_rounds()`` rounds (floor 1) to leave
    headroom.  ``call_timeout_rounds`` optionally tightens the budget below
    ``d``; it never extends it.
    """

    max_retries: int = 1
    backoff_base: int = 1
    call_timeout_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SimulationError("max_retries must be non-negative")
        if self.backoff_base < 1:
            raise SimulationError("backoff_base must be at least 1")
        if self.call_timeout_rounds is not None and self.call_timeout_rounds < 1:
            raise SimulationError("call_timeout_rounds must be positive")

    def backoff(self, attempt: int) -> int:
        """Rounds waited before retry ``attempt`` (1-based)."""
        return self.backoff_base * (2 ** (attempt - 1))

    def reserved_rounds(self) -> int:
        """Worst-case rounds consumed by the full retry schedule."""
        return sum(self.backoff(k) + 1 for k in range(1, self.max_retries + 1))

    def budget(self, max_rounds: int) -> int:
        """The hard per-call round cap: never beyond the delay constraint."""
        if self.call_timeout_rounds is None:
            return max_rounds
        return min(max_rounds, self.call_timeout_rounds)

    def planning_rounds(self, max_rounds: int) -> int:
        """Rounds handed to the strategy planner (retry headroom reserved)."""
        return max(1, self.budget(max_rounds) - self.reserved_rounds())


#: The default recovery behavior when a fault model is active.
DEFAULT_RECOVERY = RecoveryPolicy()


class FaultInjector:
    """Draws fault events from the simulation RNG and accounts for them.

    One injector per simulator run: it shares the simulator's seeded
    ``Generator`` so fault draws are part of the same reproducible stream,
    and it reports what it injected to the run's
    :class:`~repro.cellnet.metrics.LinkUsageMetrics` (a private one when
    ``metrics`` is omitted).
    """

    def __init__(
        self,
        model: FaultModel,
        rng: np.random.Generator,
        metrics: Optional[LinkUsageMetrics] = None,
    ) -> None:
        self.model = model
        self._rng = rng
        self._metrics = LinkUsageMetrics() if metrics is None else metrics

    def page_delivered(self, cell: int, time: int) -> bool:
        """One paging message to ``cell``: delivered, lost, or blocked."""
        if self.model.cell_down(cell, time):
            self._metrics.outage_pages += 1
            return False
        probability = self.model.loss_probability(cell)
        if probability <= 0.0:
            return True
        if self._rng.random() < probability:
            self._metrics.pages_lost += 1
            return False
        return True

    def update_delivered(self, time: int) -> bool:
        """One uplink location-update message: delivered or lost."""
        probability = self.model.update_loss
        if probability <= 0.0:
            return True
        if self._rng.random() < probability:
            self._metrics.updates_lost += 1
            return False
        return True


class ResilientPager:
    """The synchronous search: plan through
    :func:`~repro.cellnet.paging.plan_groups`, page on
    :func:`~repro.cellnet.paging.execute_groups`.

    ``pager`` picks the planner in
    :data:`~repro.cellnet.paging.PAGER_SOLVERS`.  Without an ``injector``
    the search is fault-free and ``policy`` is ignored; with one, the plan
    leaves ``policy``'s retry headroom inside the budget and ``search``
    takes the call's ``time`` (outages and loss draws depend on it).
    """

    name = "resilient"

    def __init__(
        self,
        pager: str,
        injector: Optional[FaultInjector] = None,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if pager not in PAGER_SOLVERS:
            raise SimulationError(f"unknown base pager {pager!r}")
        solver = PAGER_SOLVERS[pager]
        self._solver = None if solver is None else get_solver(solver)
        self._injector = injector
        self._policy = policy if policy is not None else DEFAULT_RECOVERY

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
        *,
        time: int = 0,
    ) -> PagingOutcome:
        rounds = max_rounds
        if self._injector is not None:
            rounds = self._policy.planning_rounds(max_rounds)
        return execute_groups(
            plan_groups(priors, candidate_cells, rounds, self._solver),
            candidate_cells,
            true_cells,
            max_rounds,
            num_cells,
            injector=self._injector,
            policy=self._policy,
            time=time,
        )
