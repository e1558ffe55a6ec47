"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload contended --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's units for ``--seconds`` with no tracing,
sets the workload up again on throwaway copies between units, and prints
the end-to-end metrics.  ``--trace 1`` runs the workload's trace units
once untraced and once with every layer entry point wrapped, and prints
the per-layer metrics; the spans are written to
``<build dir>/perfbench/trace-<workload>-<seed>.npz``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the machine context and the workload's own
figures (blocking, request latency, HMY cost, and the timings before they
are scaled to the reference host speed).  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
# The compiled planner kernel is cached, and its compiler keeps its
# temporary files, inside the checkout.
os.environ["REPRO_CACHE_DIR"] = str(BUILD / "repro-cache")
os.environ["TMPDIR"] = str(BUILD / "tmp")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Dict, List  # noqa: E402

from catalog import END_TO_END, FIGURES, PER_LAYER, SPANNED  # noqa: E402

SETUP_REPEATS = 24
#: seconds ``_calibrate`` takes on the reference host: the 2-CPU Xeon host
#: the benchmark was built on, in a quiet phase
REFERENCE_S = 0.0011
#: the CPUs this process may run on, before any pinning
CPUS = sorted(os.sched_getaffinity(0))


def _cached_kernels() -> set:
    return set((BUILD / "repro-cache").glob("cut_dp-*.so"))


def _calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work the program does:
    dict and tuple work in the interpreter, small numpy calls, and small
    matrix products, about a third of the time each."""
    import numpy as np

    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    for i in range(2000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    row = np.linspace(0.0, 1.0, 40)
    for _ in range(150):
        row = np.maximum(row, 1e-9)
        row = row / row.sum()
    matrix = np.eye(61) + np.linspace(0.0, 1.0, 61 * 61).reshape(61, 61)
    power = matrix
    for _ in range(32):
        power = matrix @ power
        power /= power.max()
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> float:
    """Pin the process to the allowed CPU that runs ``_calibrate`` fastest,
    and return that CPU's time for it.

    On a shared host, other tenants slow one CPU at a time, by up to 2x,
    for seconds to minutes.  Choosing again before every unit keeps the
    measured work off the CPU that is being contended.
    """
    timings = []
    for cpu in CPUS:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {cpu})
        timings.append((min(_calibrate(), _calibrate()), cpu))
    fastest, cpu = min(timings)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {cpu})
    return fastest


def run_units(workload, probe, fixed: int, seconds: float, between=None):
    """The fixed units, then more until ``seconds`` of unit time is spent.

    Returns the units and, per unit, the calibration time measured just
    before it.
    """
    units, calibration = [], []
    spent = 0.0
    while len(units) < fixed or spent < seconds:
        calibration.append(pin_to_quietest_cpu())
        unit = workload.unit(len(units), probe)
        units.append(unit)
        spent += unit.wall_s
        if between is not None:
            between()
    return units, calibration


def timed_setup(workload) -> float:
    # A set-up starts from a collected heap, so that it does not pay for
    # a cycle collection of the garbage the units before it left.
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def layer_metrics(workload, probe, units, wall: float) -> Dict[str, float]:
    """Per-layer metrics of a traced pass whose units took ``wall`` seconds."""
    self_s, total_s, top = probe.layer_times()
    counts = probe.counts
    out: Dict[str, float] = {}
    for name in SPANNED:
        out[name + ".self_share"] = self_s[name] / wall
        out[name + ".calls"] = counts[name + ".calls"]
    out["topology.hop_distance.calls"] = counts["topology.hop_distance.calls"]
    out["cache.put.calls"] = counts["cache.put.calls"]
    # A scalar plan is one row; every workload plans, so this is never 0.
    batches = counts["solvers.run_batch.calls"]
    rows = counts["solvers.run_batch.rows"]
    out["solvers.us_per_row"] = (
        (total_s["solvers.plan"] + total_s["solvers.run_batch"])
        / (counts["solvers.plan.calls"] + rows) * 1e6
    )
    out["solvers.run_batch.rows_per_call"] = rows / batches if batches else 0.0
    out.update({name: 0.0 for name in PER_LAYER if name not in out})
    out.update(workload.layer_counts(units))
    out["timevary.plans"] = counts["timevary.plans"]
    out["trace.wall_s"] = wall
    out["trace.outside_s"] = wall - top
    out["trace.outside_share"] = (wall - top) / wall
    return out


def machine_context(workload, units, so_before: set) -> Dict[str, object]:
    import numpy as np
    from repro.core import backends

    available = backends.compiled_available()
    built = _cached_kernels() - so_before
    context: Dict[str, object] = {
        "nproc": len(CPUS),
        "cpu_count": os.cpu_count(),
        "compiled_backend_available": available,
        "compiled_so_from_cache": available and not built,
        "heuristic_batch_backend_auto": backends.resolve_backend("auto"),
        "blas_threads_pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        context["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    if hasattr(workload, "backends_used"):
        context["heuristic_batch_backend_used"] = workload.backends_used(units)
    return context


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    so_before = _cached_kernels()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from probes import Probe, layer_entries, tally_entries
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    setup_times = [timed_setup(workload)]

    def extra_setup() -> None:
        # Further set-ups run on throwaway copies, spread over the run so
        # they meet the same host conditions as the units.
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(timed_setup(WORKLOADS[args.workload](args.seed)))

    if not args.trace:
        with Probe(tally_entries()) as probe:
            units, calibration = run_units(
                workload, probe, workload.fixed_units, args.seconds, extra_setup
            )
        # The timings are scaled to the reference host speed: the shared
        # host's speed drifts by tens of percent over minutes, and the
        # calibration slice, timed before every unit, drifts with it.
        slowdown = statistics.median(calibration) / REFERENCE_S
        metrics = workload.end_to_end(units)
        own = dict(workload.figures(units))
        own["calls_per_s_measured"] = metrics["calls_per_s"]
        own["setup_s_measured"] = statistics.median(setup_times)
        own["host_slowdown"] = slowdown
        metrics["calls_per_s"] *= slowdown
        metrics["setup_s"] = own["setup_s_measured"] / slowdown
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        figures = {
            name: {"value": float(value), "unit": FIGURES[name]}
            for name, value in sorted(own.items())
        }
        units_of = END_TO_END
    else:
        # Two identical set-ups: unit k runs untraced on one and traced on
        # the other, interleaved, so host slowdowns hit both passes alike.
        twin = WORKLOADS[args.workload](args.seed)
        twin.setup()
        plain, probe = Probe(tally_entries()), Probe(layer_entries())
        untraced, traced = [], []
        wall = 0.0
        for k in range(workload.trace_units):
            pin_to_quietest_cpu()
            with plain:
                untraced.append(twin.unit(k, plain))
            with probe:
                start = time.perf_counter()
                traced.append(workload.unit(k, probe))
                wall += time.perf_counter() - start
        metrics = layer_metrics(workload, probe, traced, wall)
        metrics["trace.overhead_share"] = (
            sum(u.wall_s for u in traced) / sum(u.wall_s for u in untraced) - 1.0
        )
        probe.write(
            BUILD / "perfbench" / f"trace-{args.workload}-{args.seed}.npz",
            {"workload": args.workload, "seed": args.seed, "wall_s": wall,
             "self_s": probe.layer_times()[0]},
        )
        units_of = PER_LAYER
        units = traced + untraced
        figures = {}

    violations = [v for unit in units for v in unit.violations]
    failed = sum(unit.failed for unit in units)
    if hasattr(workload, "verify"):
        mismatches = workload.verify(units)
        violations += mismatches
        failed += len(mismatches)
    for line in violations[:20]:
        print(f"perfbench: violation: {line}", file=sys.stderr)
    attempted = sum(unit.attempted for unit in units)
    failed = min(attempted, failed)
    if set(metrics) != set(units_of):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units_of))} are missing or not listed"
        )
    print(json.dumps({
        "context": machine_context(workload, units, so_before),
        "figures": figures,
    }))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units_of[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
