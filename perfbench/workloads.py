"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs, sets itself up, and then
runs *units* of work — one simulation replica, one closed-loop chunk of
service requests, or one pair of Hajek–Mitzel–Yang fixed-point runs.
The first ``fixed_units`` units always run: the simulated metrics are
taken over exactly those, so they are exact for a given seed.  The timed
run keeps running further units until its time is up.  The traced run
covers the first ``trace_units`` units.

Every unit also checks the program's outputs; a violation is a failed
operation.  The reasons each workload exists, and the layers it loads,
are in NOTES.md.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cellnet import (
    CellTopology,
    CellularSimulator,
    FaultModel,
    LinkUsageMetrics,
    LocationAreaPlan,
    RandomWalk,
    RecoveryPolicy,
    SimulationConfig,
    random_walk_transition_matrix,
    timevary,
)
from repro.service import PagingController, PlanRequest, ServiceConfig
from repro.service import request_instance
from repro.solvers import get_solver

from probes import Probe


@dataclass
class Unit:
    """What one unit of work produced."""

    wall_s: float
    #: the throughput numerator: offered calls, requests, or plans priced
    work: int
    #: operations attempted (offered calls, requests, fixed-point runs)
    attempted: int
    violations: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)
    #: operations that broke a check (at least one per violation)
    failed: int = 0

    def __post_init__(self) -> None:
        self.failed = max(self.failed, len(self.violations))


def _rate(units: List[Unit]) -> float:
    """Work per second of unit time, over every unit of the run."""
    return sum(unit.work for unit in units) / sum(unit.wall_s for unit in units)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------

class SimulatorWorkload:
    """Replicas of one ``CellularSimulator`` configuration.

    Replica ``k`` gets its own generator and initial cells, both drawn
    from ``(seed, k)``; the network, models and config come from set-up.
    """

    name = ""
    radius = 0
    areas = 0
    devices = 0
    horizon = 0
    fixed_units = 0
    trace_units = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self) -> SimulationConfig:
        raise NotImplementedError

    # -- inputs -----------------------------------------------------------
    def replica_inputs(self, k: int) -> Tuple[int, Tuple[int, ...]]:
        rng = np.random.default_rng([self.seed, k])
        cells = 3 * self.radius * (self.radius + 1) + 1
        entropy = int(rng.integers(2**63))
        initial = tuple(int(c) for c in rng.integers(cells, size=self.devices))
        return entropy, initial

    def input_digest(self, units: int) -> str:
        return _digest(*(repr(self.replica_inputs(k)).encode() for k in range(units)))

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        self.topology = CellTopology.hexagonal_disk(self.radius)
        self.plan = LocationAreaPlan.by_bfs(self.topology, self.areas)
        self.models = [
            RandomWalk(self.topology, stay_probability=0.3)
            for _ in range(self.devices)
        ]
        self.sim_config = self.config()
        # A short warm-up replica runs every lazy initialisation (hop-distance
        # table, kernels, planner imports) inside set-up, not in the timing.
        # Its generator is the same for every seed, so set-up does the same
        # work on every seed.
        warm = dataclasses.replace(self.sim_config, horizon=10)
        CellularSimulator(
            self.topology, self.plan, self.models, warm,
            rng=np.random.default_rng(0),
        ).run()

    # -- one replica ------------------------------------------------------
    def unit(self, k: int, probe: Probe) -> Unit:
        entropy, initial = self.replica_inputs(k)
        offered_before = probe.counts["calls.offered"]
        start = time.perf_counter()
        simulator = CellularSimulator(
            self.topology, self.plan, self.models, self.sim_config,
            rng=np.random.default_rng(entropy), initial_cells=initial,
        )
        metrics = simulator.run().metrics
        wall = time.perf_counter() - start
        # A simulator holds reference cycles; collecting them here, outside
        # the timing, keeps peak memory independent of when the cycle
        # collector happens to run.
        del simulator
        gc.collect()
        offered = probe.counts["calls.offered"] - offered_before
        violations = []
        ended = metrics.calls_handled + metrics.blocked_calls
        if ended != offered:
            violations.append(
                f"replica {k}: {offered} calls offered but {ended} ended"
            )
        if self.sim_config.contention_active:
            if metrics.offered_calls != offered:
                violations.append(
                    f"replica {k}: engine admitted {metrics.offered_calls} "
                    f"of {offered} offered calls"
                )
        elif metrics.blocked_calls:
            violations.append(f"replica {k}: blocked calls without contention")
        if metrics.calls_handled and metrics.cells_paged < metrics.calls_handled:
            violations.append(f"replica {k}: a completed call paged no cell")
        return Unit(wall, offered, offered, violations, {"metrics": metrics})

    # -- metrics ----------------------------------------------------------
    @staticmethod
    def pooled(units: List[Unit]) -> LinkUsageMetrics:
        pool = LinkUsageMetrics(record_calls=False, contention=True)
        for unit in units:
            m = unit.data["metrics"]
            pool.calls_handled += m.calls_handled
            pool.cells_paged += m.cells_paged
            pool.offered_calls += m.offered_calls
            pool.blocked_calls += m.blocked_calls
            pool.deferred_steps += m.deferred_steps
            pool.degraded_calls += m.degraded_calls
            pool.retry_rounds += m.retry_rounds
            pool.pages_lost += m.pages_lost
            for table, other in (
                (pool.setup_latency_histogram, m.setup_latency_histogram),
                (pool.channel_occupancy, m.channel_occupancy),
            ):
                for key, value in other.items():
                    table[key] = table.get(key, 0) + value
        return pool

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        pool = self.pooled(units[: self.fixed_units])
        return {
            "calls_per_s": _rate(units),
            "cells_paged_per_call": pool.mean_cells_per_call,
        }

    def figures(self, units: List[Unit]) -> Dict[str, float]:
        fixed = units[: self.fixed_units]
        pool = self.pooled(fixed)
        out = {"degraded_share": pool.degraded_calls / sum(u.attempted for u in fixed)}
        if self.sim_config.contention_active:
            out["blocking_probability"] = pool.blocking_probability
            out["setup_latency_p95_steps"] = pool.setup_latency_percentile(95)
        return out

    def layer_counts(self, units: List[Unit]) -> Dict[str, float]:
        pool = self.pooled(units)
        return {
            "engine.deferred_steps": pool.deferred_steps,
            "engine.channel_occupancy_mean": pool.mean_channel_occupancy,
            "faults.retry_rounds": pool.retry_rounds,
            "faults.pages_lost": pool.pages_lost,
            "simulator.blocked_calls": pool.blocked_calls,
            "simulator.degraded_calls": pool.degraded_calls,
        }


class Contended(SimulatorWorkload):
    name = "contended"
    radius, areas, devices = 3, 4, 10
    horizon = 400
    fixed_units = 48

    def config(self) -> SimulationConfig:
        return SimulationConfig(
            horizon=self.horizon,
            call_rate=2.0,
            arrival_mode="poisson",
            max_paging_rounds=3,
            prior_mode="online",
            channel_capacity=1,
            carriers=2,
            max_wait=8,
            record_calls=False,
        )


class UnboundedFaults(SimulatorWorkload):
    name = "unbounded_faults"
    radius, areas, devices = 4, 6, 40
    horizon = 300
    fixed_units = 24

    def config(self) -> SimulationConfig:
        return SimulationConfig(
            horizon=self.horizon,
            call_rate=0.9,
            arrival_mode="bernoulli",
            max_paging_rounds=3,
            reporting="distance",
            distance_threshold=3,
            prior_mode="conditional",
            faults=FaultModel(page_loss=0.1, update_loss=0.1),
            recovery=RecoveryPolicy(max_retries=2),
            channel_capacity=None,
            record_calls=False,
        )


# ---------------------------------------------------------------------------
# The paging service
# ---------------------------------------------------------------------------

class ServiceStream:
    """A warmed ``PagingController`` under a closed loop of one caller."""

    name = "service_stream"
    areas, pooled_per_area, devices, cells, rounds = 64, 8, 3, 40, 3
    chunk = 16384
    poll_interval = 256
    hot_fraction = 0.8
    checked_per_chunk = 8
    fixed_units = trace_units = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def _profile(rng: np.random.Generator, devices: int, cells: int) -> np.ndarray:
        matrix = rng.random((devices, cells))
        matrix /= matrix.sum(axis=1, keepdims=True)
        return np.ascontiguousarray(matrix)

    # -- inputs -----------------------------------------------------------
    def pools(self) -> List[List[np.ndarray]]:
        rng = np.random.default_rng([self.seed, 0])
        return [
            [self._profile(rng, self.devices, self.cells)
             for _ in range(self.pooled_per_area)]
            for _ in range(self.areas)
        ]

    def chunk_inputs(
        self, k: int, pools: List[List[np.ndarray]]
    ) -> Tuple[List[PlanRequest], List[int]]:
        rng = np.random.default_rng([self.seed, 1, k])
        n = self.chunk
        areas = rng.integers(self.areas, size=n)
        hot = rng.random(n) < self.hot_fraction
        picks = rng.integers(self.pooled_per_area, size=n)
        fresh = rng.random((n - int(hot.sum()), self.devices, self.cells))
        fresh /= fresh.sum(axis=2, keepdims=True)
        fresh_rows = iter(fresh)
        requests = [
            PlanRequest(
                f"area-{area}",
                pools[area][pick] if is_hot else next(fresh_rows),
                self.rounds,
            )
            for area, is_hot, pick in zip(areas.tolist(), hot.tolist(), picks.tolist())
        ]
        checked = sorted(int(i) for i in rng.choice(n, self.checked_per_chunk, replace=False))
        return requests, checked

    def input_digest(self, units: int) -> str:
        pools = self.pools()
        parts = [m.tobytes() for pool in pools for m in pool]
        for k in range(units):
            requests, checked = self.chunk_inputs(k, pools)
            parts.extend(r.area.encode() + r.matrix.tobytes() for r in requests)
            parts.append(repr(checked).encode())
        return _digest(*parts)

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        self.pool_profiles = self.pools()
        self.controller = PagingController(
            ServiceConfig(
                num_shards=4,
                cache_size=4096,
                batch_window=64,
                solver="heuristic-batch",
                backend="auto",
            )
        )
        warm = [
            PlanRequest(f"area-{area}", matrix, self.rounds)
            for area, pool in enumerate(self.pool_profiles)
            for matrix in pool
        ]
        tickets = self.controller.run(warm)
        bad = [t for t in tickets if t.status != "ok"]
        if bad:
            raise RuntimeError(f"cache warm-up left {len(bad)} tickets unanswered")
        self.warm_stats = self.controller.stats()

    # -- one closed-loop chunk --------------------------------------------
    def unit(self, k: int, probe: Probe) -> Unit:
        requests, checked = self.chunk_inputs(k, self.pool_profiles)
        controller = self.controller
        clock = time.perf_counter
        latency = np.empty(len(requests))
        missed = np.zeros(len(requests), dtype=bool)
        tickets = []
        waiting: Dict[int, List[Tuple[int, float, object]]] = {}
        kept = {}
        checked_set = set(checked)
        refused = []  # resolved tickets that were shed or failed

        def settle(shards) -> None:
            now = clock()
            for shard in shards:
                still = []
                for index, begin, ticket in waiting.get(shard, ()):
                    if ticket.status == "pending":
                        still.append((index, begin, ticket))
                        continue
                    latency[index] = now - begin
                    if ticket.status != "ok":
                        refused.append(index)
                waiting[shard] = still

        start = clock()
        for index, request in enumerate(requests):
            begin = clock()
            ticket = controller.submit(request)
            tickets.append(ticket)
            if ticket.cache_hit:
                latency[index] = clock() - begin
            else:
                missed[index] = True
                waiting.setdefault(ticket.shard, []).append((index, begin, ticket))
                if ticket.status != "pending":
                    # the submit flushed this shard's batch group
                    settle((ticket.shard,))
            if index in checked_set:
                kept[index] = ticket
            if (index + 1) % self.poll_interval == 0 and controller.poll():
                settle(tuple(waiting))
        controller.flush()
        settle(tuple(waiting))
        wall = clock() - start
        paged = sum(
            float(t.plan.expected_paging) for t in tickets if t.plan is not None
        )

        violations = []
        unresolved = sum(len(queue) for queue in waiting.values())
        if unresolved:
            violations.append(f"chunk {k}: {unresolved} tickets left pending")
        if refused:
            violations.append(f"chunk {k}: {len(refused)} tickets shed or failed")
        # Keep copies of the checked requests, not views into this chunk's
        # block of fresh profiles, which can then be freed.
        checked_plans = {
            index: (
                PlanRequest(t.request.area, t.request.matrix.copy(), t.request.rounds),
                t.status,
                t.plan,
            )
            for index, t in kept.items()
        }
        data = {"checked": checked_plans, "paged": paged}
        if k < self.fixed_units:
            # Only the fixed chunks keep their latencies, so the memory the
            # benchmark holds does not grow with the number of chunks run.
            data.update(latency=latency, missed=missed)
        return Unit(
            wall, len(requests), len(requests), violations, data,
            failed=unresolved + len(refused),
        )

    def verify(self, units: List[Unit]) -> List[str]:
        """Sampled tickets against a scalar ``heuristic-fast`` solve."""
        scalar = get_solver("heuristic-fast")
        violations = []
        for k, unit in enumerate(units):
            for index, (request, status, plan) in unit.data["checked"].items():
                if status != "ok" or plan is None:
                    violations.append(f"chunk {k} request {index}: no plan")
                    continue
                expected = scalar(request_instance(request)).extras
                if (
                    tuple(int(j) for j in expected["order"]) != plan.order
                    or tuple(int(s) for s in expected["group_sizes"]) != plan.group_sizes
                ):
                    violations.append(
                        f"chunk {k} request {index}: plan differs from the scalar solve"
                    )
        return violations

    def backends_used(self, units: List[Unit]) -> List[str]:
        return sorted({
            str(plan.backend)
            for unit in units
            for _, _, plan in unit.data["checked"].values()
            if plan is not None
        })

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        fixed = units[: self.fixed_units]
        return {
            "calls_per_s": _rate(units),
            # the expected cells paged of the plans the service returned
            "cells_paged_per_call": sum(u.data["paged"] for u in fixed)
            / sum(u.attempted for u in fixed),
        }

    def _stats(self) -> Dict[str, int]:
        stats = self.controller.stats()
        return {key: stats[key] - self.warm_stats[key]
                for key in ("requests", "cache_hits", "batches", "planned")}

    def figures(self, units: List[Unit]) -> Dict[str, float]:
        fixed = units[: self.fixed_units]
        latency_ms = np.concatenate([u.data["latency"] for u in fixed]) * 1e3
        miss_ms = np.concatenate(
            [u.data["latency"][u.data["missed"]] for u in fixed]
        ) * 1e3
        stats = self._stats()
        return {
            "request_ms_p50": float(np.percentile(latency_ms, 50)),
            "request_ms_p99": float(np.percentile(latency_ms, 99)),
            "request_samples": latency_ms.size,
            "miss_ms_p50": float(np.median(miss_ms)),
            "hit_rate": stats["cache_hits"] / stats["requests"],
        }

    def layer_counts(self, units: List[Unit]) -> Dict[str, float]:
        stats = self._stats()
        return {
            "service.hit_rate": stats["cache_hits"] / stats["requests"],
            "service.batches": stats["batches"],
            "service.batch_rows_mean": stats["planned"] / stats["batches"],
        }


# ---------------------------------------------------------------------------
# Joint paging/registration pricing
# ---------------------------------------------------------------------------

class RegistrationHMY:
    """Distance and timer fixed points of the HMY iteration, priced together.

    The seed picks which report cells the iteration averages over: the
    same share of every ring around the centre, so every seed prices the
    same mix of cycle sizes and the timing does not depend on the seed.
    """

    name = "registration_hmy"
    radius, stay, rounds, call_rate = 4, 0.4, 3, 0.08
    start_share = 0.8
    runs = (("distance", (1, 2, 3)), ("timer", (5, 10, 20)))
    fixed_units = trace_units = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start_cells(self, topology: CellTopology) -> Tuple[int, ...]:
        cells = range(topology.num_cells)
        centre = next(
            c for c in cells
            if all(topology.hop_distance(c, other) <= self.radius for other in cells)
        )
        rng = np.random.default_rng([self.seed, 0])
        chosen: List[int] = []
        for ring in range(self.radius + 1):
            members = [c for c in cells if topology.hop_distance(centre, c) == ring]
            take = round(len(members) * self.start_share)
            chosen.extend(int(c) for c in rng.choice(members, take, replace=False))
        return tuple(sorted(chosen))

    def input_digest(self, units: int) -> str:
        topology = CellTopology.hexagonal_disk(self.radius)
        return _digest(repr(self.start_cells(topology)).encode())

    def setup(self) -> None:
        self.topology = CellTopology.hexagonal_disk(self.radius)
        walk = RandomWalk(self.topology, stay_probability=self.stay)
        self.matrix = random_walk_transition_matrix(walk, self.topology)
        self.starts = self.start_cells(self.topology)
        # First call into the batched planner, on one cheap evaluation.
        timevary.evaluate_registration(
            self.topology, self.matrix, kind="timer", threshold=2,
            max_rounds=self.rounds, call_rate=self.call_rate,
            start_cells=self.starts[:1],
        )
        self.reference: Optional[Tuple[Tuple[int, float], ...]] = None

    def unit(self, k: int, probe: Probe) -> Unit:
        plans_before = probe.counts["timevary.plans"]
        results = []
        start = time.perf_counter()
        for kind, candidates in self.runs:
            results.append(
                timevary.hmy_fixed_point(
                    self.topology, self.matrix, kind=kind, candidates=candidates,
                    max_rounds=self.rounds, call_rate=self.call_rate,
                    start_cells=self.starts,
                )
            )
        wall = time.perf_counter() - start
        plans = probe.counts["timevary.plans"] - plans_before
        violations = []
        for (kind, candidates), result in zip(self.runs, results):
            if not result.converged:
                violations.append(f"unit {k}: {kind} iteration did not converge")
            if result.threshold not in candidates:
                violations.append(
                    f"unit {k}: {kind} threshold {result.threshold} is not a candidate"
                )
        outcome = tuple(
            (r.threshold, r.evaluation.combined_cost, r.evaluation.paging_per_call)
            for r in results
        )
        if self.reference is None:
            self.reference = outcome
        elif outcome != self.reference:
            violations.append(f"unit {k}: same inputs gave {outcome}, not {self.reference}")
        return Unit(wall, plans, len(results), violations, {"outcome": outcome})

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        outcome = units[0].data["outcome"]
        return {
            "calls_per_s": _rate(units),
            # expected cells paged per call at the two fixed points
            "cells_paged_per_call": statistics.mean(paged for _, _, paged in outcome),
        }

    def figures(self, units: List[Unit]) -> Dict[str, float]:
        return {"hmy_cost": float(sum(cost for _, cost, _ in units[0].data["outcome"]))}

    def layer_counts(self, units: List[Unit]) -> Dict[str, float]:
        return {}


WORKLOADS = {
    cls.name: cls
    for cls in (Contended, UnboundedFaults, ServiceStream, RegistrationHMY)
}
