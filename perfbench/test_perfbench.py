"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q

The CLI tests start ``perfbench/run.py`` as a subprocess, exactly as a
benchmark run does; each takes a few seconds because the fixed units of
a workload always run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from catalog import END_TO_END, FIGURES, PER_LAYER, SPANNED  # noqa: E402
from repro.cellnet import CellTopology  # noqa: E402
from probes import Probe, layer_entries, tally_entries  # noqa: E402
from workloads import WORKLOADS, Contended, RegistrationHMY  # noqa: E402


def run_cli(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    """The result line, with the figures of the context line beside it."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["figures"] = json.loads(lines[-2])["figures"]
    return result


class SmallContended(Contended):
    """The contended workload on short replicas, for in-process tests."""

    horizon = 40
    fixed_units = 2


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert WORKLOADS[name](5).input_digest(3) == WORKLOADS[name](5).input_digest(3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name):
    assert WORKLOADS[name](5).input_digest(3) != WORKLOADS[name](6).input_digest(3)


# -- simulated metrics repeat exactly ---------------------------------------

def _simulated(workload_cls, seed):
    workload = workload_cls(seed)
    workload.setup()
    with Probe(tally_entries()) as probe:
        units = [workload.unit(k, probe) for k in range(workload.fixed_units)]
    assert not [v for unit in units for v in unit.violations]
    simulated = dict(workload.figures(units))
    simulated["cells_paged_per_call"] = workload.end_to_end(units)["cells_paged_per_call"]
    return simulated


def test_simulated_metrics_repeat_for_a_seed():
    first = _simulated(SmallContended, 3)
    assert set(first) == {
        "blocking_probability", "setup_latency_p95_steps", "degraded_share",
        "cells_paged_per_call",
    }
    assert first == _simulated(SmallContended, 3)
    assert first != _simulated(SmallContended, 4)


def _hmy(seed):
    result = result_of(run_cli("registration_hmy", seed))
    return result["figures"]["hmy_cost"], result["metrics"]["cells_paged_per_call"]


def test_hmy_cost_repeats_for_a_seed():
    first = _hmy(3)
    assert first == _hmy(3)
    assert first[0] != _hmy(4)[0]


def test_hmy_start_cells_take_the_same_share_of_every_ring():
    topology = CellTopology.hexagonal_disk(RegistrationHMY.radius)
    first = RegistrationHMY(1).start_cells(topology)
    other = RegistrationHMY(2).start_cells(topology)
    assert len(set(first)) == len(first) == len(other) == 1 + 5 + 10 + 14 + 19
    assert first != other
    assert all(0 <= c < 61 for c in first)


# -- the trace ----------------------------------------------------------------

def test_layer_self_times_add_up_to_the_wall():
    workload = SmallContended(2)
    workload.setup()
    probe = Probe(layer_entries())
    wall = 0.0
    for k in range(workload.fixed_units):
        with probe:
            start = time.perf_counter()
            workload.unit(k, probe)
            wall += time.perf_counter() - start
    self_s, total_s, top = probe.layer_times()
    outside = wall - top
    assert outside >= 0.0
    assert sum(self_s.values()) + outside == pytest.approx(wall, rel=1e-9)
    assert self_s["simulator.run"] > 0.0
    assert total_s["simulator.run"] >= self_s["solvers.plan"]


def test_probe_restores_the_program():
    from repro.solvers import registry

    original = registry.RegisteredSolver.__dict__["__call__"]
    with Probe(layer_entries()):
        assert registry.RegisteredSolver.__dict__["__call__"] is not original
    assert registry.RegisteredSolver.__dict__["__call__"] is original


def test_traced_run_reports_every_layer_metric():
    proc = run_cli("registration_hmy", 1, trace=1)
    result = result_of(proc)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    self_total = sum(metrics[n + ".self_share"]["value"] for n in SPANNED)
    assert self_total + metrics["trace.outside_share"]["value"] == pytest.approx(1.0)
    assert metrics["trace.outside_s"]["value"] == pytest.approx(
        metrics["trace.outside_share"]["value"] * metrics["trace.wall_s"]["value"]
    )
    assert metrics["timevary.plans"]["value"] > 0
    assert metrics["solvers.run_batch.calls"]["value"] > 0
    assert metrics["engine.serve_round.calls"]["value"] == 0
    # the per-layer times in seconds are measured on every workload
    assert all(
        metrics[name]["value"] > 0 for name, unit in PER_LAYER.items() if unit in ("s", "us")
    )


# -- the catalogue ------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(name):
    result = result_of(run_cli(name, 1))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(FIGURES[m] == v["unit"] for m, v in result["figures"].items())
    # both timing metrics are the measured ones scaled by one host factor
    figures = {m: v["value"] for m, v in result["figures"].items()}
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert metrics["calls_per_s"] / figures["calls_per_s_measured"] == pytest.approx(
        figures["setup_s_measured"] / metrics["setup_s"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("contended", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
