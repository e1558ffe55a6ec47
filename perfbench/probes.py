"""Entry-point probes: spans and counts recorded from the benchmark's side.

The program under test carries no benchmark code.  A :class:`Probe`
replaces selected public entry points of the ``repro`` layers with thin
wrappers for the duration of a ``with`` block and restores them on exit:

* a *span* entry records ``(name, start, end, parent)`` for every call,
  kept in flat in-memory arrays and written out once at the end; a
  layer's self time is its spans' duration minus the duration of their
  child spans;
* a *count* entry only counts calls.  Hot tiny functions are counted,
  not spanned: timing them would inflate their caller's self time by
  more than the function itself costs;
* a *tally* adds a number taken from each call's arguments or result to
  a named counter (rows per batch, plans per evaluation, arrivals per
  step).  Tallies are what the untimed correctness checks need, so the
  untraced runs install the tally entries alone, as counts without spans.

Module-level functions are patched in the namespace their caller looks
them up in (``plan_pending_call`` in ``repro.cellnet.simulator``,
``plan_cache_key`` in ``repro.service.controller``, ...).  The probe is
single-threaded, like every workload it serves.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Tally = Callable[[tuple, object], int]


@dataclass(frozen=True)
class Entry:
    """One public entry point to wrap: ``owners[i].attr`` for every owner."""

    name: str
    owners: Tuple[object, ...]
    attr: str
    #: "span" records timed spans; "count" only counts calls
    kind: str = "span"
    #: optional per-call number added to the counter ``tally_name``
    tally: Optional[Tally] = None
    tally_name: Optional[str] = None


def layer_entries() -> List[Entry]:
    """The layer boundaries the benchmark traces, in per-layer table order."""
    from repro.cellnet import calls, database, engine, faults, mobility
    from repro.cellnet import paging, simulator, timevary, topology
    from repro.service import cache, controller
    from repro.solvers import registry

    return [
        Entry("simulator.init", (simulator.CellularSimulator,), "__init__"),
        Entry("simulator.run", (simulator.CellularSimulator,), "run"),
        Entry("calls.arrivals", (calls.PoissonConferenceCalls,), "arrivals",
              tally=lambda args, result: len(result), tally_name="calls.offered"),
        Entry("mobility.step", (mobility.RandomWalk,), "step"),
        Entry("database.lookup", (database.LocationRegistry,), "lookup"),
        Entry("timevary.distribution", (timevary.BeliefPropagator,), "distribution"),
        Entry("engine.plan_pending_call", (simulator,), "plan_pending_call"),
        Entry("engine.serve_round", (engine.ChannelScheduler,), "serve_round"),
        Entry("faults.search", (faults.ResilientPager,), "search"),
        Entry("paging.build_sub_instance", (engine, faults, paging),
              "build_sub_instance"),
        Entry("solvers.plan", (registry.RegisteredSolver,), "__call__"),
        Entry("solvers.run_batch", (registry.RegisteredSolver,), "run_batch",
              tally=lambda args, result: len(args[1]),
              tally_name="solvers.run_batch.rows"),
        Entry("service.submit", (controller.PagingController,), "submit"),
        Entry("service.poll", (controller.PagingController,), "poll"),
        Entry("service.flush", (controller.PagingController,), "flush"),
        Entry("cache.key", (controller,), "plan_cache_key"),
        Entry("cache.get", (cache.PlanCache,), "get"),
        Entry("cache.put", (cache.PlanCache,), "put", kind="count"),
        Entry("timevary.hmy_fixed_point", (timevary,), "hmy_fixed_point"),
        Entry("timevary.evaluate_registration", (timevary,), "evaluate_registration",
              tally=lambda args, result: result.plans, tally_name="timevary.plans"),
        Entry("topology.hop_distance", (topology.CellTopology,), "hop_distance",
              kind="count"),
    ]


def tally_entries() -> List[Entry]:
    """The entries the untraced runs keep, as counts, for their checks."""
    return [
        Entry(entry.name, entry.owners, entry.attr, "count", entry.tally,
              entry.tally_name)
        for entry in layer_entries()
        if entry.tally is not None
    ]


class Probe:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, entries: Sequence[Entry]) -> None:
        self.entries = list(entries)
        self.names: List[str] = [entry.name for entry in self.entries]
        self.counts: Dict[str, int] = {}
        # One row per finished span: name index, parent row, start, end.
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Probe":
        for index, entry in enumerate(self.entries):
            for owner in entry.owners:
                original = owner.__dict__[entry.attr]
                self._saved.append((owner, entry.attr, original))
                setattr(owner, entry.attr, self._wrap(index, entry, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, index: int, entry: Entry, original: Callable) -> Callable:
        counts = self.counts
        name = entry.name
        calls_key = name + ".calls"
        counts.setdefault(calls_key, 0)
        tally, tally_name = entry.tally, entry.tally_name
        if tally_name is not None:
            counts.setdefault(tally_name, 0)

        if entry.kind == "count":
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                result = original(*args, **kwargs)
                if tally is not None:
                    counts[tally_name] += tally(args, result)
                return result

            return counted

        clock = time.perf_counter
        stack = self._stack
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end

        def spanned(*args, **kwargs):
            row = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(row)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()
            counts[calls_key] += 1
            if tally is not None:
                counts[tally_name] += tally(args, result)
            return result

        return spanned

    # -- results --------------------------------------------------------
    def span_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """``(self seconds, inclusive seconds)`` per entry name, plus the
        summed duration of top-level spans."""
        spans = self.span_arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        child_time = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child_time, parent[nested], duration[nested])
        own = duration - child_time
        size = len(self.names)
        self_s = np.bincount(spans["name"], weights=own, minlength=size)
        total_s = np.bincount(spans["name"], weights=duration, minlength=size)
        top = float(duration[~nested].sum())
        return (
            {name: float(self_s[i]) for i, name in enumerate(self.names)},
            {name: float(total_s[i]) for i, name in enumerate(self.names)},
            top,
        )

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """Write every span (compressed arrays) plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, counts=self.counts)
        np.savez_compressed(
            path, header=np.array(json.dumps(header)), **self.span_arrays()
        )
