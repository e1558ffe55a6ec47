"""Property suite: the batched planner is bit-identical to the scalar one.

Over SeedSequence-seeded random batches (varying devices, cells, rounds,
group-size caps), every row that :func:`repro.core.batch_plan.plan_batch`
produces — order, group sizes, expected paging — must equal the per-
instance :func:`repro.core.fast.conference_call_heuristic_fast` /
:func:`repro.core.fast.optimize_cuts_fast` results *exactly* (``==`` on
floats, not ``approx``), on every available backend.  Infeasible budgets
must raise exactly when the scalar planner raises.
"""

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    available_backends,
    conference_call_heuristic_fast,
    optimize_cuts_batch,
    optimize_cuts_fast,
    plan_batch,
    stack_instances,
)
from repro.errors import InfeasibleError

ROOT_SEED = 20020722

#: (batch, devices, cells, rounds, max_group_size) — includes tight caps
#: (d * b barely >= c), d = 1, c = 1, cap-free rows, and a cap above the
#: cell count (b > c must plan exactly like b == c, and must stay inside
#: the compiled kernel's scratch padding).
SHAPES = [
    (16, 2, 12, 3, None),
    (16, 4, 30, 5, None),
    (8, 3, 25, 4, 7),
    (8, 1, 10, 2, 5),
    (4, 2, 1, 1, None),
    (32, 4, 40, 8, 5),
    (8, 2, 10, 2, 40),
]

BACKENDS = available_backends()


def _random_batch(shape_index):
    """Instances plus the exact float matrix both pipelines will see.

    ``PagingInstance.from_array`` renormalizes rows (and renormalization
    is not a bit-level fixed point), so bit-identity claims only make
    sense when the scalar planner and the batch kernel consume the same
    ``as_array()`` bits — build the instances once and stack them.
    """
    batch, devices, cells, rounds, _cap = SHAPES[shape_index]
    seed = np.random.SeedSequence(ROOT_SEED, spawn_key=(shape_index,))
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(cells), size=(batch, devices))
    instances = [PagingInstance.from_array(row, rounds) for row in raw]
    matrices = np.stack([instance.as_array() for instance in instances])
    return instances, matrices


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape_index", range(len(SHAPES)))
def test_plan_batch_rows_equal_scalar_planner(shape_index, backend):
    batch, devices, cells, rounds, cap = SHAPES[shape_index]
    instances, matrices = _random_batch(shape_index)
    result = plan_batch(matrices, rounds, max_group_size=cap, backend=backend)
    assert result.backend == backend
    assert len(result) == batch
    assert bool(result.feasible.all())
    for i, instance in enumerate(instances):
        reference = conference_call_heuristic_fast(
            instance, max_group_size=cap
        )
        row = result.result(i)
        assert row.order == reference.order
        assert row.group_sizes == reference.group_sizes
        # Bit-identity, not approx: both pipelines run the same IEEE ops.
        assert row.expected_paging == reference.expected_paging
        assert row.strategy == reference.strategy


@pytest.mark.parametrize("backend", BACKENDS)
def test_optimize_cuts_batch_equals_scalar_including_exact_ties(backend):
    # linspace find tables create exact float ties between cut candidates,
    # exercising the first-occurrence argmax/backtrack rule.
    c, d = 20, 4
    tied = np.linspace(0.0, 1.0, c + 1)
    rng = np.random.default_rng(np.random.SeedSequence(ROOT_SEED, spawn_key=(99,)))
    random_rows = np.sort(rng.random((6, c + 1)), axis=1)
    random_rows[:, 0] = 0.0
    finds = np.vstack([tied, np.zeros(c + 1), np.ones(c + 1), random_rows])
    for cap in (None, 6, c, 3 * c):
        sizes, values = optimize_cuts_batch(
            finds, d, max_group_size=cap, backend=backend
        )
        for i in range(finds.shape[0]):
            ref_sizes, ref_value = optimize_cuts_fast(
                finds[i], d, max_group_size=cap
            )
            assert tuple(int(s) for s in sizes[i]) == ref_sizes
            assert values[i].item() == ref_value


@pytest.mark.parametrize("backend", BACKENDS)
def test_numpy_chunking_is_invisible(backend):
    _instances, matrices = _random_batch(1)
    rounds = SHAPES[1][3]
    one_shot = plan_batch(matrices, rounds, backend=backend)
    chunked = plan_batch(matrices, rounds, backend=backend, chunk=3)
    assert np.array_equal(one_shot.orders, chunked.orders)
    assert np.array_equal(one_shot.group_sizes, chunked.group_sizes)
    assert np.array_equal(one_shot.values, chunked.values)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled backend unavailable")
def test_backends_agree_bit_for_bit():
    _instances, matrices = _random_batch(5)
    rounds, cap = SHAPES[5][3], SHAPES[5][4]
    results = [
        plan_batch(matrices, rounds, max_group_size=cap, backend=backend)
        for backend in BACKENDS
    ]
    for other in results[1:]:
        assert np.array_equal(results[0].orders, other.orders)
        assert np.array_equal(results[0].group_sizes, other.group_sizes)
        assert np.array_equal(results[0].values, other.values)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled backend unavailable")
@pytest.mark.parametrize("shape_index", range(len(SHAPES)))
def test_backends_agree_row_by_row_and_in_one_row_stacks(shape_index):
    # The contention engine plans one call per kernel call: a (1, m, c)
    # stack must give the same row on both backends as the full batch.
    _instances, matrices = _random_batch(shape_index)
    rounds, cap = SHAPES[shape_index][3], SHAPES[shape_index][4]
    full = {
        backend: plan_batch(matrices, rounds, max_group_size=cap, backend=backend)
        for backend in BACKENDS
    }
    for i in range(len(matrices)):
        rows = [
            plan_batch(matrices[i : i + 1], rounds, max_group_size=cap, backend=backend)
            for backend in BACKENDS
        ]
        for backend, row in zip(BACKENDS, rows):
            assert row.orders.dtype == np.intp and row.group_sizes.dtype == np.intp
            assert row.values.dtype == np.float64 and row.feasible.dtype == bool
            assert row.orders.tolist() == [full[backend].orders[i].tolist()]
            assert row.group_sizes.tolist() == [full[backend].group_sizes[i].tolist()]
            assert row.values.tolist() == [full[backend].values[i]]
            assert row.feasible.tolist() == [True]
        assert rows[0].orders.tolist() == rows[1].orders.tolist()
        assert rows[0].group_sizes.tolist() == rows[1].group_sizes.tolist()
        assert rows[0].values.tolist() == rows[1].values.tolist()


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_budgets_raise_exactly_like_the_scalar_planner(backend):
    _instances, matrices = _random_batch(0)
    matrices = matrices[:4]
    cells = matrices.shape[2]
    # d * b < c: the scalar planner raises, so the batch must too.
    with pytest.raises(InfeasibleError):
        optimize_cuts_fast(np.zeros(cells + 1), 3, max_group_size=2)
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, 3, max_group_size=2, backend=backend)
    # d outside 1 <= d <= c.
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, cells + 1, backend=backend)
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, 0, backend=backend)


def test_plan_batch_accepts_instance_sequences(rng):
    matrices = rng.dirichlet(np.ones(9), size=(5, 2))
    instances = [PagingInstance.from_array(row, 3) for row in matrices]
    result = plan_batch(instances)  # num_rounds from the shared max_rounds
    for i, instance in enumerate(instances):
        assert result.result(i).order == conference_call_heuristic_fast(instance).order


def test_plan_batch_rejects_ambiguous_rounds(rng):
    matrices = rng.dirichlet(np.ones(9), size=(2, 2))
    instances = [
        PagingInstance.from_array(matrices[0], 2),
        PagingInstance.from_array(matrices[1], 3),
    ]
    with pytest.raises(ValueError, match="disagree on max_rounds"):
        plan_batch(instances)
    # Explicit num_rounds resolves the disagreement.
    assert len(plan_batch(instances, 2)) == 2


def test_plan_batch_raw_array_requires_rounds(rng):
    matrices = rng.dirichlet(np.ones(6), size=(3, 2))
    with pytest.raises(ValueError, match="num_rounds"):
        plan_batch(matrices)
    with pytest.raises(ValueError, match="batch, devices, cells"):
        plan_batch(matrices[0], 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cap_above_cell_count_plans_like_uncapped(backend):
    # Any cap above c is equivalent to cap == c; the oversized cap must not
    # read outside the compiled kernel's padded scratch rows.
    _instances, matrices = _random_batch(3)
    rounds = SHAPES[3][3]
    cells = matrices.shape[2]
    huge = plan_batch(matrices, rounds, max_group_size=4 * cells, backend=backend)
    capped = plan_batch(matrices, rounds, max_group_size=cells, backend=backend)
    assert bool(huge.feasible.all())
    assert np.array_equal(huge.orders, capped.orders)
    assert np.array_equal(huge.group_sizes, capped.group_sizes)
    assert np.array_equal(huge.values, capped.values)
    assert (huge.group_sizes <= cells).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_batch_returns_empty_result(backend):
    c, d = 8, 2
    result = plan_batch(np.empty((0, 2, c)), d, backend=backend)
    assert len(result) == 0
    assert result.orders.shape == (0, c)
    assert result.group_sizes.shape == (0, d)
    assert result.values.shape == (0,)
    assert result.feasible.shape == (0,)
    sizes, values = optimize_cuts_batch(np.empty((0, c + 1)), d, backend=backend)
    assert sizes.shape == (0, d)
    assert values.shape == (0,)


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_zero_weights_tie_break_by_index(backend):
    # np.argsort treats -0.0 == 0.0 as ties broken by original index; a raw
    # bit-pattern sort would put -0.0 (sign bit set) before every positive
    # weight.  Both backends must order ties identically.
    c = 6
    matrices = np.zeros((2, 2, c))
    matrices[:, :, 1] = -0.0
    matrices[:, :, 4] = -0.0
    matrices[:, :, 3] = 0.25
    result = plan_batch(matrices, 2, backend=backend)
    expected = np.argsort(
        -matrices.sum(axis=1), axis=1, kind="stable"
    ).astype(np.intp)
    assert np.array_equal(result.orders, expected)


def test_stack_instances_rejects_mixed_shapes(rng):
    a = PagingInstance.from_array(rng.dirichlet(np.ones(6), size=2), 2)
    b = PagingInstance.from_array(rng.dirichlet(np.ones(7), size=2), 2)
    with pytest.raises(ValueError, match="shape"):
        stack_instances([a, b])
    with pytest.raises(ValueError, match="empty"):
        stack_instances([])
