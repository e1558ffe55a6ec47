#!/usr/bin/env python
"""Fault-matrix smoke check for the resilience layer (``make faults-smoke``).

Runs a tiny grid of fault configurations through the cellular simulator and
asserts the three invariants the layer guarantees (see docs/robustness.md):

1. a zero fault model builds no injector — bit-identical metrics to
   ``faults=None``;
2. a faulty run is byte-for-byte reproducible from its seed;
3. no call, however faulty, ever pages past the delay constraint ``d``.

Exits non-zero on the first violation; prints one summary line per cell of
the matrix so CI logs show what was exercised.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy as np

    from repro.cellnet import (
        CellOutage,
        CellTopology,
        CellularSimulator,
        FaultModel,
        LocationAreaPlan,
        RandomWalk,
        RecoveryPolicy,
        SimulationConfig,
    )

    SEED = 11
    ROUNDS = 5

    def run(faults=None, recovery=None, pager="heuristic"):
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
        config = SimulationConfig(
            horizon=120,
            call_rate=0.1,
            max_paging_rounds=ROUNDS,
            reporting="la",
            pager=pager,
            faults=faults,
            recovery=recovery,
        )
        rng = np.random.default_rng(SEED)
        return CellularSimulator(topology, plan, models, config, rng=rng).run()

    # (label, faults, recovery, pager)
    matrix = [
        ("zero", FaultModel(), None, "heuristic"),
        (
            "page-loss",
            FaultModel(page_loss=0.3),
            RecoveryPolicy(max_retries=1),
            "heuristic",
        ),
        (
            "batch-loss",
            FaultModel(page_loss=0.3),
            RecoveryPolicy(max_retries=1),
            "heuristic-batch",
        ),
        (
            "lossy-cell",
            FaultModel(cell_page_loss={2: 0.9}),
            RecoveryPolicy(max_retries=2),
            "heuristic",
        ),
        (
            "outage+stale",
            FaultModel(
                page_loss=0.2,
                update_loss=0.2,
                stale_after=15,
                outages=(CellOutage(cell=4, start=30, end=80),),
            ),
            RecoveryPolicy(max_retries=1),
            "heuristic",
        ),
    ]

    baseline = run()
    failures = 0
    for label, faults, recovery, pager in matrix:
        first = run(faults=faults, recovery=recovery, pager=pager)
        second = run(faults=faults, recovery=recovery, pager=pager)
        checks = {
            "reproducible": first.metrics == second.metrics,
            "within-budget": all(
                record.rounds_used <= ROUNDS
                for record in first.metrics.call_records
            ),
        }
        if label == "zero":
            checks["matches-fault-free"] = first.metrics == baseline.metrics
        summary = first.summary()
        status = "ok" if all(checks.values()) else "FAIL"
        failures += status == "FAIL"
        print(
            f"{label:>12}: {status}  calls={summary['calls']:.0f} "
            f"degraded={summary['degraded_calls']:.0f} "
            f"pages_lost={summary['pages_lost']:.0f} "
            f"retry_rounds={summary['retry_rounds']:.0f} "
            f"checks={sorted(k for k, v in checks.items() if not v) or 'all'}"
        )
    if failures:
        print(f"faults-smoke: {failures} configuration(s) failed", file=sys.stderr)
        raise SystemExit(1)
    print("faults-smoke: all invariants hold")
