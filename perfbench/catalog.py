"""The benchmark's metric catalogue: names and units.

Every workload prints every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``).  Direction and regression bound of the
end-to-end metrics live in ``BENCHMARK.json`` at the repository root;
``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict

#: name -> unit; each is measured, and never 0, on every workload
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "cells_paged_per_call": "cells",
    "peak_rss_mb": "MB",
}

#: name -> unit of the workload's own figures, printed on the context line
#: of the untraced run; each workload prints the ones that describe it
FIGURES: Dict[str, str] = {
    "blocking_probability": "ratio",
    "setup_latency_p95_steps": "steps",
    "degraded_share": "ratio",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "request_samples": "count",
    "miss_ms_p50": "ms",
    "hit_rate": "ratio",
    "hmy_cost": "msgs/step",
    "calls_per_s_measured": "1/s",
    "setup_s_measured": "s",
    "host_slowdown": "ratio",
}

#: the spanned layer entry points (see probes.layer_entries)
SPANNED = (
    "simulator.init", "simulator.run", "calls.arrivals", "mobility.step",
    "database.lookup", "timevary.distribution", "engine.plan_pending_call",
    "engine.serve_round", "faults.search", "paging.build_sub_instance",
    "solvers.plan", "solvers.run_batch", "service.submit", "service.poll",
    "service.flush", "cache.key", "cache.get", "timevary.hmy_fixed_point",
    "timevary.evaluate_registration",
)

#: name -> unit, reported on every workload by the traced run.  A layer's
#: time is its share of the traced wall time, 0 where the layer does not
#: run; the only per-layer metrics in seconds are the three that every
#: workload exercises.
PER_LAYER: Dict[str, str] = {}
for _name in SPANNED:
    PER_LAYER[_name + ".self_share"] = "ratio"
    PER_LAYER[_name + ".calls"] = "count"
PER_LAYER.update({
    "topology.hop_distance.calls": "count",
    "cache.put.calls": "count",
    "solvers.us_per_row": "us",
    "solvers.run_batch.rows_per_call": "rows",
    "engine.deferred_steps": "count",
    "engine.channel_occupancy_mean": "slots",
    "faults.retry_rounds": "count",
    "faults.pages_lost": "count",
    "simulator.blocked_calls": "count",
    "simulator.degraded_calls": "count",
    "service.hit_rate": "ratio",
    "service.batches": "count",
    "service.batch_rows_mean": "rows",
    "timevary.plans": "count",
    "trace.wall_s": "s",
    "trace.outside_s": "s",
    "trace.outside_share": "ratio",
    "trace.overhead_share": "ratio",
})
