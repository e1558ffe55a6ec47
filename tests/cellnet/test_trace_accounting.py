"""A traced run's tallies are its LinkUsageMetrics (one accounting).

Each configuration runs once under an in-memory tracer.  The flushed
``cellnet.*`` / ``faults.*`` / ``engine.*`` counters and histograms must
equal the run's metrics, field by field and call record by call record, so
the trace and ``summary()`` cannot disagree.  The pinned counters below
were recorded before the simulator derived its trace from the metrics;
each keeps its value, and the only names a configuration may gain are the
per-call histograms and the contended path's fallback/retry counters.
"""

from collections import Counter

import numpy as np
import pytest

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

FAULTS = FaultModel(
    page_loss=0.2,
    update_loss=0.2,
    stale_after=2,
    outages=(CellOutage(cell=4, start=30, end=80),),
)
CONTENDED = {"channel_capacity": 1, "carriers": 2}

CASES = {
    "sync": {"reporting": "distance"},
    "sync-faults": {"faults": FAULTS},
    "adaptive": {"pager": "adaptive"},
    "blanket": {"pager": "blanket"},
    "contended": {**CONTENDED, "reporting": "never"},
    "contended-faults": {**CONTENDED, "faults": FAULTS},
}

_SYNC_EVENTS = {"engine.events.arrival": 300, "engine.events.movement": 300}
_OUTAGE_EVENTS = {
    "engine.events.outage-end": 1,
    "engine.events.outage-start": 1,
    "engine.outage_transitions": 1,
}

#: every counter each configuration's trace carried before the change
PINNED_COUNTERS = {
    "sync": {
        **_SYNC_EVENTS,
        "cellnet.calls": 145,
        "cellnet.cells_paged": 1138,
        "cellnet.fallback_searches": 5,
    },
    "sync-faults": {
        **_SYNC_EVENTS,
        **_OUTAGE_EVENTS,
        "cellnet.calls": 147,
        "cellnet.cells_paged": 2471,
        "cellnet.degraded_calls": 44,
        "cellnet.retries": 84,
        "faults.outage_pages": 45,
        "faults.pages_lost": 505,
        "faults.stale_lookups": 12,
        "faults.updates_lost": 132,
    },
    "adaptive": {**_SYNC_EVENTS, "cellnet.calls": 145, "cellnet.cells_paged": 1057},
    "blanket": {**_SYNC_EVENTS, "cellnet.calls": 145, "cellnet.cells_paged": 1572},
    "contended": {
        **_SYNC_EVENTS,
        "cellnet.calls": 145,
        "cellnet.cells_paged": 2107,
        "engine.deferred_steps": 1,
        "engine.events.paging-round": 300,
        "engine.pages_sent": 2107,
    },
    "contended-faults": {
        **_SYNC_EVENTS,
        **_OUTAGE_EVENTS,
        "cellnet.calls": 137,
        "cellnet.cells_paged": 2641,
        "cellnet.degraded_calls": 13,
        "engine.blocked_calls": 19,
        "engine.deferred_steps": 181,
        "engine.events.paging-round": 300,
        "engine.events.retry": 86,
        "engine.pages_sent": 2788,
        "faults.pages_lost": 562,
        "faults.stale_lookups": 11,
        "faults.updates_lost": 150,
    },
}

#: the only trace names a configuration may have gained
ADDED_NAMES = {
    "cellnet.cells_paged_per_call",
    "cellnet.failed_devices_per_call",
    "cellnet.fallback_searches",
    "cellnet.retries",
}

_SYNC_HISTOGRAMS = {"cellnet.cells_paged_per_call", "cellnet.rounds_to_find"}
_CONTENDED_HISTOGRAMS = {
    "cellnet.rounds_to_find",
    "engine.queue_depth",
    "engine.setup_latency",
    "engine.slot_occupancy",
    "planner.batch_size",
}

#: every histogram each configuration's trace carried before the change
PINNED_HISTOGRAMS = {
    "sync": _SYNC_HISTOGRAMS,
    "sync-faults": _SYNC_HISTOGRAMS | {"cellnet.failed_devices_per_call"},
    "adaptive": _SYNC_HISTOGRAMS,
    "blanket": _SYNC_HISTOGRAMS,
    "contended": _CONTENDED_HISTOGRAMS,
    "contended-faults": _CONTENDED_HISTOGRAMS,
}

#: trace names that are not LinkUsageMetrics tallies
_UNACCOUNTED = (
    "engine.events.",
    "engine.queue_depth",
    "engine.slot_occupancy",
    "engine.outage_transitions",
    "planner.",
)


def _traced_run(name):
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [RandomWalk(topology, stay_probability=0.6) for _ in range(12)]
    config = SimulationConfig(
        horizon=300,
        call_rate=0.5,
        arrival_mode="poisson",
        max_paging_rounds=4,
        recovery=RecoveryPolicy(max_retries=1),
        **CASES[name],
    )
    simulator = CellularSimulator(
        topology, plan, models, config, rng=np.random.default_rng(3)
    )
    with tracing(close=False) as tracer:
        report = simulator.run()
        tracer.flush()
    return report.metrics, summarize(tracer.sink.events)


def _expected_trace(metrics):
    """The docs/observability.md table, computed from the metrics alone."""
    counters = {
        "cellnet.calls": metrics.calls_handled,
        "cellnet.cells_paged": metrics.cells_paged,
        "cellnet.fallback_searches": metrics.fallback_searches,
        "cellnet.retries": metrics.retry_rounds,
        "cellnet.degraded_calls": metrics.degraded_calls,
        "faults.pages_lost": metrics.pages_lost,
        "faults.updates_lost": metrics.updates_lost,
        "faults.outage_pages": metrics.outage_pages,
        "faults.stale_lookups": metrics.stale_lookups,
        "engine.pages_sent": sum(
            slots * cells for slots, cells in metrics.channel_occupancy.items()
        ),
        "engine.deferred_steps": metrics.deferred_steps,
        "engine.blocked_calls": metrics.blocked_calls,
    }
    records = metrics.call_records
    histograms = {
        "cellnet.rounds_to_find": Counter(r.rounds_used for r in records),
        "cellnet.cells_paged_per_call": Counter(r.cells_paged for r in records),
        "cellnet.failed_devices_per_call": Counter(
            r.failed_devices for r in records
        ),
    }
    if metrics.contention:
        histograms["engine.setup_latency"] = Counter(
            r.setup_latency for r in records
        )
    return (
        {k: v for k, v in counters.items() if v},
        {k: dict(v) for k, v in histograms.items()},
    )


@pytest.fixture(scope="module", params=sorted(CASES))
def traced(request):
    return request.param, *_traced_run(request.param)


class TestTraceMatchesMetrics:
    def test_counters_and_histograms_equal_the_metrics(self, traced):
        _name, metrics, summary = traced
        counters, histograms = _expected_trace(metrics)
        assert len(metrics.call_records) == metrics.calls_handled > 0

        def accounted(names):
            return {n: v for n, v in names.items() if not n.startswith(_UNACCOUNTED)}

        assert accounted(summary.counters) == counters
        assert accounted(summary.histograms) == histograms
        assert metrics.rounds_histogram == histograms["cellnet.rounds_to_find"]

    def test_pinned_counters_keep_their_values(self, traced):
        name, _metrics, summary = traced
        pinned = PINNED_COUNTERS[name]
        assert {k: summary.counters.get(k) for k in pinned} == pinned
        gained = set(summary.counters) - set(pinned)
        assert gained <= ADDED_NAMES
        if not name.startswith("contended"):
            assert not gained

    def test_histograms_gain_only_listed_names(self, traced):
        name, _metrics, summary = traced
        pinned = PINNED_HISTOGRAMS[name]
        assert pinned <= set(summary.histograms)
        gained = set(summary.histograms) - pinned
        if name.startswith("contended"):
            assert gained == {
                "cellnet.cells_paged_per_call",
                "cellnet.failed_devices_per_call",
            }
        else:  # fault-free runs: an all-zero failed-device histogram at most
            assert gained <= {"cellnet.failed_devices_per_call"}
            failed = summary.histograms.get("cellnet.failed_devices_per_call", {})
            assert set(failed) <= {0} or name == "sync-faults"
