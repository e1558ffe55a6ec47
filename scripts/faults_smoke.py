#!/usr/bin/env python
"""Fault-matrix smoke check for the resilience layer (``make faults-smoke``).

Runs a tiny grid of fault configurations through the cellular simulator and
asserts the invariants the layer guarantees (see docs/robustness.md):

1. a zero fault model builds no injector — bit-identical metrics to
   ``faults=None``;
2. a faulty run is byte-for-byte reproducible from its seed;
3. no synchronous call, however faulty, ever pages past the delay
   constraint ``d``;
4. the run's trace tallies equal its ``LinkUsageMetrics`` (one accounting,
   docs/observability.md), on the synchronous and the contended path.

Exits non-zero on the first violation; prints one summary line per cell of
the matrix so CI logs show what was exercised.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    from collections import Counter

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
    from repro.obs import summarize, tracing

    SEED = 11
    ROUNDS = 5
    #: trace counter -> summary key it must equal
    TRACED = {
        "cellnet.calls": "calls",
        "cellnet.cells_paged": "cells_paged",
        "cellnet.fallback_searches": "fallbacks",
        "cellnet.retries": "retry_rounds",
        "cellnet.degraded_calls": "degraded_calls",
        "faults.pages_lost": "pages_lost",
        "faults.updates_lost": "updates_lost",
        "faults.outage_pages": "outage_pages",
        "faults.stale_lookups": "stale_lookups",
        "engine.deferred_steps": "deferred_steps",
        "engine.blocked_calls": "blocked_calls",
    }

    def trace_matches(report, trace):
        summary = report.summary()
        records = report.metrics.call_records
        return all(
            trace.counters.get(name, 0) == summary.get(key, 0)
            for name, key in TRACED.items()
        ) and trace.histograms.get("cellnet.rounds_to_find", {}) == dict(
            Counter(record.rounds_used for record in records)
        )

    def run(faults=None, recovery=None, **options):
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
        config = SimulationConfig(
            horizon=120,
            call_rate=0.1,
            max_paging_rounds=ROUNDS,
            reporting="la",
            faults=faults,
            recovery=recovery,
            **options,
        )
        rng = np.random.default_rng(SEED)
        simulator = CellularSimulator(topology, plan, models, config, rng=rng)
        with tracing(close=False) as tracer:
            report = simulator.run()
            tracer.flush()
        return report, summarize(tracer.sink.events)

    # (label, faults, recovery, config options)
    matrix = [
        ("zero", FaultModel(), None, {}),
        (
            "page-loss",
            FaultModel(page_loss=0.3),
            RecoveryPolicy(max_retries=1),
            {},
        ),
        (
            "batch-loss",
            FaultModel(page_loss=0.3),
            RecoveryPolicy(max_retries=1),
            {"pager": "heuristic-batch"},
        ),
        (
            "lossy-cell",
            FaultModel(cell_page_loss={2: 0.9}),
            RecoveryPolicy(max_retries=2),
            {},
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
            {},
        ),
        (
            "contended",
            FaultModel(page_loss=0.3),
            RecoveryPolicy(max_retries=1),
            {"channel_capacity": 1, "carriers": 2},
        ),
    ]

    baseline, _ = run()
    failures = 0
    for label, faults, recovery, options in matrix:
        first, trace = run(faults=faults, recovery=recovery, **options)
        second, _ = run(faults=faults, recovery=recovery, **options)
        checks = {
            "reproducible": first.metrics == second.metrics,
            "trace-matches-metrics": trace_matches(first, trace),
        }
        if "channel_capacity" not in options:
            # queued setup may outlast d; only synchronous calls are capped
            checks["within-budget"] = all(
                record.rounds_used <= ROUNDS
                for record in first.metrics.call_records
            )
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
