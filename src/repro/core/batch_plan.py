"""Batched Fig. 1 planning: thousands of instances through one kernel.

The scalar planners (:mod:`repro.core.heuristic`, :mod:`repro.core.fast`)
optimize one instance per call.  That is the wrong shape for the workloads
the related literature actually runs — Hajek-style joint paging/registration
iterations and residence-time sweeps re-plan from *families* of conditional
distributions, thousands of same-shape instances at a time.  This module
lifts the whole Fig. 1 pipeline (weight ordering, prefix stop
probabilities, Lemma 4.7 cut DP, backtrack) to a batch axis:

* :func:`plan_batch` — ``(batch, devices, cells)`` probability stack in,
  per-instance orders, group sizes, and expected-paging values out;
* :func:`prefix_stop_probabilities_batch` / :func:`optimize_cuts_batch` —
  the two pipeline stages, batched, for callers that bring their own
  orders or find probabilities;
* :class:`BatchPlanResult` — the result container, with a lazy
  :meth:`~BatchPlanResult.result` view that reconstructs the scalar
  :class:`~repro.core.dp.OrderedDPResult` for any row.

Two interchangeable backends execute the cut DP (see
:mod:`repro.core.backends`): the pure-numpy ``(batch, prev, j)`` broadcast
recurrence, and an optional C kernel compiled on demand.  Both are
bit-identical to the scalar :func:`repro.core.fast.optimize_cuts_fast` —
same IEEE operations in the same order, asserted float-for-float by the
property suite in ``tests/core/test_batch_plan.py``.

All instances in a batch share one shape ``(devices, cells)`` and one
``(num_rounds, max_group_size)`` budget; feasibility is therefore a
property of the shape (``d * b >= c``), and :func:`plan_batch` raises
:class:`~repro.errors.InfeasibleError` exactly when the scalar planner
would.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import InfeasibleError
from ..obs.instrument import observe, span
from .backends import resolve_kernel
from .dp import OrderedDPResult
from .fast import _gap_tables
from .instance import PagingInstance
from .strategy import Strategy

#: Target size of the numpy DP's transient ``(chunk, c+1, c+1)`` candidate
#: tensor.  The broadcast recurrence is memory-bound, so the sweet spot is
#: a tensor that stays cache-resident: measured on the bench machine, a
#: fixed chunk of 64 is ~3x slower than this bound at c = 250 and the
#: bound is within noise of the best fixed chunk at c = 40 and c = 120.
_CHUNK_TARGET_BYTES = 3 << 19  # 1.5 MB

#: Chunk ceiling; beyond this the per-chunk numpy call overhead is already
#: negligible and bigger tensors only evict cache.
MAX_CHUNK = 256


def _auto_chunk(c: int) -> int:
    rows = _CHUNK_TARGET_BYTES // (8 * (c + 1) * (c + 1))
    return int(min(MAX_CHUNK, max(1, rows)))


@dataclass(frozen=True)
class BatchPlanResult:
    """Per-instance plans from one :func:`plan_batch` call.

    Row ``i`` of every array describes instance ``i`` of the input stack.
    ``feasible`` is all-True whenever the call returned (shape-infeasible
    batches raise instead); it is part of the schema so kernel-level
    callers can keep per-row flags.
    """

    #: ``(batch, cells)`` — each row a permutation (the weight ordering)
    orders: np.ndarray
    #: ``(batch, rounds)`` — group sizes along the order, zero-padded never
    group_sizes: np.ndarray
    #: ``(batch,)`` — expected cells paged (NaN on an infeasible row)
    values: np.ndarray
    #: ``(batch,)`` bool — False marks rows without a feasible cut sequence
    feasible: np.ndarray
    #: the backend that actually ran ("numpy" or "compiled")
    backend: str

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def strategy(self, index: int) -> Strategy:
        """The row's plan as a :class:`~repro.core.strategy.Strategy`."""
        if not self.feasible[index]:
            raise InfeasibleError(f"batch row {index} has no feasible plan")
        order = tuple(int(j) for j in self.orders[index])
        sizes = tuple(int(size) for size in self.group_sizes[index])
        return Strategy.from_order_and_sizes(order, sizes)

    def result(self, index: int) -> OrderedDPResult:
        """Row ``index`` repackaged as the scalar planner's result type."""
        strategy = self.strategy(index)
        return OrderedDPResult(
            strategy=strategy,
            expected_paging=float(self.values[index]),
            order=tuple(int(j) for j in self.orders[index]),
            group_sizes=tuple(int(size) for size in self.group_sizes[index]),
        )


def stack_instances(
    instances: Sequence[PagingInstance],
) -> np.ndarray:
    """Stack same-shape instances into one ``(batch, devices, cells)`` array."""
    if len(instances) == 0:
        raise ValueError("cannot stack an empty instance sequence")
    arrays = [instance.as_array() for instance in instances]
    shape = arrays[0].shape
    for index, array in enumerate(arrays):
        if array.shape != shape:
            raise ValueError(
                f"instance {index} has shape {array.shape}, expected {shape}; "
                "batched planning requires one shared (devices, cells) shape"
            )
    return np.ascontiguousarray(np.stack(arrays), dtype=np.float64)


def prefix_stop_probabilities_batch(
    matrices: np.ndarray, orders: np.ndarray
) -> np.ndarray:
    """Batched :func:`repro.core.fast.prefix_stop_probabilities_fast`.

    ``matrices`` is ``(batch, devices, cells)``, ``orders`` ``(batch,
    cells)``; returns the ``(batch, cells + 1)`` find-probability table
    ``F[i, k] = prod_dev P_dev(first k cells of orders[i])``, each row
    bit-identical to the scalar call on the same order.
    """
    stacked = np.asarray(matrices, dtype=np.float64)
    ordered = np.take_along_axis(stacked, np.asarray(orders)[:, None, :], axis=2)
    prefix_sums = np.concatenate(
        [np.zeros(ordered.shape[:2] + (1,)), np.cumsum(ordered, axis=2)], axis=2
    )
    return np.prod(prefix_sums, axis=1)


def _validate_budget(c: int, d: int, b: Optional[int]) -> int:
    """Shared shape-level feasibility checks, mirroring the scalar planner."""
    if not 1 <= d <= c:
        raise InfeasibleError(f"number of rounds must satisfy 1 <= d <= {c}, got {d}")
    cap = c if b is None else int(b)
    if cap < 1 or d * cap < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {cap} cells each"
        )
    # A group can never exceed c cells, so any cap above c plans identically
    # to cap == c (the scalar planner's gap band enforces this implicitly).
    # Clamping here keeps the compiled kernel's gap loop inside its padded
    # scratch rows and canonicalizes the _gap_tables cache key.
    return min(cap, c)


def _cut_dp_numpy(
    finds: np.ndarray, c: int, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The ``(batch, prev, j)`` broadcast of the Lemma 4.7 recurrence.

    Same candidate expression, masking, and first-occurrence ``argmax`` as
    :func:`repro.core.fast.optimize_cuts_fast`, with the batch axis in
    front — every intermediate float matches the scalar loop bit for bit.
    """
    batch = finds.shape[0]
    positions = np.arange(c + 1)
    gap_matrix, valid = _gap_tables(c, b)
    neg_inf = -np.inf

    best = np.broadcast_to(
        np.where((positions >= 1) & (positions <= b), 0.0, neg_inf), (batch, c + 1)
    ).copy()
    parents = []
    for _level in range(2, d + 1):
        candidate = best[:, :, None] + gap_matrix[None, :, :] * finds[:, :, None]
        candidate = np.where(
            valid[None, :, :] & np.isfinite(best)[:, :, None], candidate, neg_inf
        )
        parent = np.argmax(candidate, axis=1)
        best = np.take_along_axis(candidate, parent[:, None, :], axis=1)[:, 0, :]
        parents.append(parent)

    values = c - best[:, c]
    feasible = np.isfinite(best[:, c])
    rows = np.arange(batch)
    cuts = np.empty((batch, d + 1), dtype=np.intp)
    cuts[:, d] = c
    cuts[:, 0] = 0
    cursor = np.full(batch, c, dtype=np.intp)
    for level in range(d - 1, 0, -1):
        cursor = parents[level - 1][rows, cursor]
        cuts[:, level] = cursor
    sizes = np.diff(cuts, axis=1)
    sizes[~feasible] = 0
    values = np.where(feasible, values, np.nan)
    return sizes, values, feasible


_WORD = np.dtype(np.intp).itemsize


def _address(array: np.ndarray) -> int:
    """The address of an array's first byte, for the kernel's ``void *``s."""
    return array.__array_interface__["data"][0]


def _kernel_outputs(
    batch: int, c: int, d: int
) -> "tuple[tuple[np.ndarray, ...], tuple[int, ...]]":
    """The C kernel's four output arrays, laid out in one allocation.

    Returns the ``(batch, c)`` orders, ``(batch, d)`` group sizes,
    ``(batch,)`` values and ``(batch,)`` feasibility flags as views into
    one word-aligned block, plus each array's address.  One allocation
    and one address lookup replace four of each: at one row, that fixed
    cost outweighs the kernel itself.
    """
    sizes_at = batch * c
    values_at = sizes_at + batch * d
    feasible_at = values_at + batch
    block = np.empty(feasible_at + -(-batch // _WORD), dtype=np.intp)
    arrays = (
        block[:sizes_at].reshape(batch, c),
        block[sizes_at:values_at].reshape(batch, d),
        block[values_at:feasible_at].view(np.float64),
        block[feasible_at:].view(np.bool_)[:batch],
    )
    base = _address(block)
    return arrays, (
        base,
        base + sizes_at * _WORD,
        base + values_at * _WORD,
        base + feasible_at * _WORD,
    )


def _cut_dp_compiled(
    lib: ctypes.CDLL, finds: np.ndarray, c: int, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Dispatch the cut DP to the C kernel (``repro_optimize_cuts_batch``)."""
    batch = finds.shape[0]
    (_orders, sizes, values, feasible), addresses = _kernel_outputs(batch, 0, d)
    status = lib.repro_optimize_cuts_batch(
        _address(finds), batch, c, d, b, *addresses[1:]
    )
    if status != 0:
        raise MemoryError("planner kernel could not allocate scratch space")
    return sizes, values, feasible


def optimize_cuts_batch(
    prefix_stops: np.ndarray,
    num_rounds: int,
    *,
    max_group_size: Optional[int] = None,
    backend: str = "auto",
    chunk: Optional[int] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched :func:`repro.core.fast.optimize_cuts_fast`.

    ``prefix_stops`` is ``(batch, cells + 1)``; returns ``(group_sizes,
    values)`` with shapes ``(batch, num_rounds)`` and ``(batch,)``, each
    row bit-identical to the scalar call.  Raises
    :class:`~repro.errors.InfeasibleError` for budgets the scalar planner
    rejects (shape-level: every row shares ``(c, d, b)``).
    """
    finds = np.ascontiguousarray(prefix_stops, dtype=np.float64)
    if finds.ndim != 2:
        raise ValueError(f"expected a (batch, cells+1) array, got shape {finds.shape}")
    c = finds.shape[1] - 1
    d = int(num_rounds)
    b = _validate_budget(c, d, max_group_size)
    chosen, lib = resolve_kernel(backend)
    if lib is not None:
        sizes, values, _feasible = _cut_dp_compiled(lib, finds, c, d, b)
        return sizes, values
    if finds.shape[0] == 0:
        return np.empty((0, d), dtype=np.intp), np.empty(0, dtype=np.float64)
    step = _auto_chunk(c) if chunk is None else max(1, int(chunk))
    sizes_parts, values_parts = [], []
    for start in range(0, finds.shape[0], step):
        part = finds[start : start + step]
        sizes, values, _feasible = _cut_dp_numpy(part, c, d, b)
        sizes_parts.append(sizes)
        values_parts.append(values)
    return np.concatenate(sizes_parts), np.concatenate(values_parts)


def plan_batch(
    instances: Union[np.ndarray, Sequence[PagingInstance]],
    num_rounds: Optional[int] = None,
    *,
    max_group_size: Optional[int] = None,
    backend: str = "auto",
    chunk: Optional[int] = None,
) -> BatchPlanResult:
    """Run the Fig. 1 heuristic over a whole stack of instances at once.

    ``instances`` is either a ``(batch, devices, cells)`` float array or a
    sequence of same-shape :class:`~repro.core.instance.PagingInstance`
    objects (in which case ``num_rounds`` defaults to their shared
    ``max_rounds``).  Every row's order, group sizes, and value are
    bit-identical to :func:`repro.core.fast.conference_call_heuristic_fast`
    on that instance.

    ``backend`` selects the cut-DP implementation: ``"numpy"``,
    ``"compiled"``, or ``"auto"`` (compiled when available, else numpy —
    see :mod:`repro.core.backends` for the fallback rules and environment
    overrides).  ``chunk`` bounds the numpy backend's transient memory.

    replint: solver
    """
    if isinstance(instances, np.ndarray):
        stacked = np.ascontiguousarray(instances, dtype=np.float64)
        if stacked.ndim != 3:
            raise ValueError(
                f"expected a (batch, devices, cells) array, got shape {stacked.shape}"
            )
        if num_rounds is None:
            raise ValueError("num_rounds is required when passing a raw array")
    else:
        stacked = stack_instances(instances)
        if num_rounds is None:
            rounds = {instance.max_rounds for instance in instances}
            if len(rounds) != 1:
                raise ValueError(
                    f"instances disagree on max_rounds ({sorted(rounds)}); "
                    "pass num_rounds explicitly"
                )
            num_rounds = rounds.pop()
    batch, m, c = stacked.shape
    d = int(num_rounds)
    b = _validate_budget(c, d, max_group_size)
    chosen, lib = resolve_kernel(backend)
    with span(
        "planner.batch", backend=chosen, batch=batch, cells=c, devices=m, rounds=d
    ):
        observe("planner.batch_size", batch)
        if lib is not None:
            orders, sizes, values, feasible = _plan_compiled(lib, stacked, d, b)
        else:
            orders, sizes, values, feasible = _plan_numpy(stacked, d, b, chunk)
    return BatchPlanResult(
        orders=orders,
        group_sizes=sizes,
        values=values,
        feasible=feasible,
        backend=chosen,
    )


def _plan_numpy(
    stacked: np.ndarray, d: int, b: int, chunk: Optional[int]
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Full pipeline on the numpy backend.

    A stable ascending argsort of ``-weights`` is the same permutation as
    the scalar planner's ``np.lexsort((arange(c), -weights))`` — descending
    by weight, ties by original index.
    """
    weights = stacked.sum(axis=1)
    orders = np.argsort(-weights, axis=1, kind="stable").astype(np.intp)
    finds = prefix_stop_probabilities_batch(stacked, orders)
    batch, _m, c = stacked.shape
    if batch == 0:
        # Keep batch == 0 well-defined and backend-agnostic: the compiled
        # kernel naturally returns empty arrays, so the numpy path must too.
        return (
            orders,
            np.empty((0, d), dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=bool),
        )
    step = _auto_chunk(c) if chunk is None else max(1, int(chunk))
    sizes_parts, values_parts, feasible_parts = [], [], []
    for start in range(0, batch, step):
        part = finds[start : start + step]
        sizes, values, feasible = _cut_dp_numpy(part, c, d, b)
        sizes_parts.append(sizes)
        values_parts.append(values)
        feasible_parts.append(feasible)
    return (
        orders,
        np.concatenate(sizes_parts),
        np.concatenate(values_parts),
        np.concatenate(feasible_parts),
    )


def _plan_compiled(
    lib: ctypes.CDLL, stacked: np.ndarray, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Full pipeline on the C kernel (``repro_plan_batch``)."""
    batch, m, c = stacked.shape
    outputs, addresses = _kernel_outputs(batch, c, d)
    status = lib.repro_plan_batch(_address(stacked), batch, m, c, d, b, *addresses)
    if status != 0:
        raise MemoryError("planner kernel could not allocate scratch space")
    return outputs
