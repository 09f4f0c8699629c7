"""Cocycle products, limit points, idempotents, and the induced splitting."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mjlslab.splitting
from mjlslab import (
    AmbiguousRankError,
    ClosureBudgetWarning,
    IdempotentNotFoundError,
    LimitPointSet,
    MarkovChain,
    MatrixSet,
    Splitting,
    Subspace,
    SwitchingSequence,
    cocycle_products_at,
    find_idempotent,
    grassmann_distance,
    idempotency_defect,
    limit_points,
    log_norm_histories,
    matrix_log_norm_history,
    periodic_split,
    preextremal_norm,
    return_times,
    sample_trajectory,
    sequence_split,
    split_from_idempotent,
    tail_slope,
    tail_start,
    vector_log_norm_history,
    verify_splitting,
)
from mjlslab.splitting import (
    RENORM_EVERY,
    _checkpoint,
    _closure,
    _first_come_reps,
    _row_norms,
    _top_singular_values,
)
import oracles
from oracles import (
    oracle_best_idempotent,
    oracle_closure,
    oracle_cluster_reps,
    oracle_log_norm_history,
    oracle_norm2,
    oracle_row_kernel,
    oracle_step_kernel,
    oracle_word_product,
    rotation,
)

HALF_SHEAR = MatrixSet.from_list([[[0.5, 1.0], [0.0, 1.0]]])
SHRINK = MatrixSet.from_list([np.diag([0.5, 1.0])])
ROT = MatrixSet.from_list([rotation(np.pi / 6)])
NILPOTENT_PAIR = MatrixSet.from_list([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
FAMILY3 = MatrixSet.from_list(
    [0.99 * rotation(np.pi / 6), np.diag([0.9, 0.95]), [[1.0, 0.5], [0.0, 0.8]]]
)


def _reducible_paths(trials: int, horizon: int) -> np.ndarray:
    # a 2-cycle plus an absorbing state: most transitions have zero mass
    chain = MarkovChain(
        [0.4, 0.4, 0.2], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return np.stack(
        [sample_trajectory(chain, horizon, 7, stream=t) for t in range(trials)]
    )


def _nilpotent_paths(horizon: int) -> np.ndarray:
    # alternating rows never meet the nilpotent word (1, 1); random rows do
    rng = np.random.default_rng(32)
    alternating = np.resize([1, 2], horizon)
    return np.stack(
        [alternating, 3 - alternating, *rng.integers(1, 3, size=(4, horizon))]
    )


def test_cocycle_products_match_direct_products():
    rng = np.random.default_rng(30)
    mats = [rng.standard_normal((2, 2)) for _ in range(2)]
    s = MatrixSet.from_list(mats)
    symbols = rng.integers(1, 3, size=30)
    prods = cocycle_products_at(s, symbols, [1, 5, 17, 30])
    for t, p in zip([1, 5, 17, 30], prods):
        assert np.allclose(p, oracle_word_product(mats, symbols[:t]), atol=1e-12)


def test_vector_log_norm_history_exact_decay():
    seq = SwitchingSequence.periodic([1])
    hist = vector_log_norm_history(SHRINK, seq.prefix(300), [1.0, 0.0])
    ns = np.arange(1, 301)
    assert np.allclose(hist, ns * np.log(0.5), atol=1e-9)
    # renormalization keeps the history accurate far below underflow
    assert hist[-1] < -200.0


def test_vector_log_norm_history_exact_zero_gives_neginf():
    nil = MatrixSet.from_list([[[0.0, 1.0], [0.0, 0.0]]])
    # e1 N = e2, e2 N = 0
    hist = vector_log_norm_history(nil, np.array([1, 1, 1]), [1.0, 0.0])
    assert hist[0] == 0.0
    assert np.isneginf(hist[1]) and np.isneginf(hist[2])


@pytest.mark.parametrize(
    "family, paths",
    [(FAMILY3, _reducible_paths(6, 120)), (NILPOTENT_PAIR, _nilpotent_paths(120))],
    ids=["reducible-k3", "nilpotent-pair"],
)
def test_log_norm_histories_stack_equals_row_calls(family, paths):
    mats = list(family.matrices)
    starts = np.random.default_rng(33).standard_normal((len(paths), family.dim))
    vec = log_norm_histories(family, paths, starts)
    mat = log_norm_histories(family, paths)
    shared = vector_log_norm_history(family, paths[2], starts)
    for r, (path, x) in enumerate(zip(paths, starts)):
        np.testing.assert_array_equal(vec[r], vector_log_norm_history(family, path, x))
        np.testing.assert_array_equal(mat[r], matrix_log_norm_history(family, path))
        np.testing.assert_array_equal(
            shared[r], vector_log_norm_history(family, paths[2], x)
        )
        np.testing.assert_allclose(
            vec[r], oracle_log_norm_history(mats, path, x), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            mat[r], oracle_log_norm_history(mats, path), rtol=0, atol=1e-12
        )
    if family is NILPOTENT_PAIR:
        assert np.isfinite(mat[:2]).all() and np.isneginf(mat[2:, -1]).all()


def _kernel_case(case: str, seed: int, horizon: int):
    if case == "reducible-k3":
        return FAMILY3, _reducible_paths(5, horizon)
    if case == "nilpotent-pair":
        return NILPOTENT_PAIR, _nilpotent_paths(horizon)
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    mats = rng.standard_normal((k, d, d)) * rng.uniform(0.3, 1.5)
    return MatrixSet.from_list(list(mats)), rng.integers(1, k + 1, size=(4, horizon))


@given(
    case=st.sampled_from(["reducible-k3", "nilpotent-pair", "random"]),
    seed=st.integers(0, 2**16),
    horizon=st.sampled_from([2, 3, 49, 50, 51, 130]),
    reps=st.integers(0, 3),
    cut=st.floats(0.0, 1.0),
)
def test_windowed_stacked_kernel_equals_full_history(case, seed, horizon, reps, cut):
    family, paths = _kernel_case(case, seed, horizon)
    mats, trials = list(family.matrices), len(paths)
    xs = np.random.default_rng(seed + 1).standard_normal((reps, family.dim))
    stack = np.repeat(xs, trials, axis=0)  # row i * trials + t follows path t
    full_mat = log_norm_histories(family, paths)
    full_vec = log_norm_histories(family, paths, stack)
    assert full_vec.shape == (reps * trials, horizon)

    tail = tail_start(horizon)
    for window in (tail, int(cut * horizon)):
        np.testing.assert_array_equal(
            log_norm_histories(family, paths, window=window), full_mat[:, window:]
        )
        np.testing.assert_array_equal(
            log_norm_histories(family, paths, stack, window), full_vec[:, window:]
        )
    win_mat = log_norm_histories(family, paths, window=tail)
    win_vec = log_norm_histories(family, paths, stack, tail)
    np.testing.assert_array_equal(tail_slope(win_mat, horizon), tail_slope(full_mat))
    np.testing.assert_array_equal(tail_slope(win_vec, horizon), tail_slope(full_vec))
    assert tail_slope(win_vec, horizon).shape == (reps * trials,)

    for i, x in enumerate(xs):
        single = log_norm_histories(family, paths, np.tile(x, (trials, 1)), tail)
        np.testing.assert_array_equal(win_vec[i * trials : (i + 1) * trials], single)
        for t, path in enumerate(paths):
            np.testing.assert_allclose(
                full_vec[i * trials + t],
                oracle_log_norm_history(mats, path, x),
                rtol=1e-12,
                atol=1e-9,
            )
    for t, path in enumerate(paths):
        np.testing.assert_allclose(
            full_mat[t], oracle_log_norm_history(mats, path), rtol=1e-12, atol=1e-9
        )


@given(
    case=st.sampled_from(["reducible-k3", "nilpotent-pair", "random"]),
    seed=st.integers(0, 2**16),
    horizon=st.sampled_from([49, 50, 51, 100, 101]),
    reps=st.integers(0, 3),
    window=st.sampled_from([0, 49, 50, 51, 99, 100, 101]),
    last=st.sampled_from([1, 0]),
)
@example("nilpotent-pair", 0, 101, 0, 50, 1)
@example("reducible-k3", 0, 100, 1, 99, 0)
@example("random", 3, 50, 1, 49, 1)  # seeds 3, 2, 1 and 0 draw d = 1, 2, 3 and 4
@example("random", 2, 51, 2, 51, 0)
@example("random", 1, 101, 3, 100, 1)
@example("random", 0, 49, 1, 0, 0)
def test_kernel_equals_the_row_kernel_oracle(case, seed, horizon, reps, window, last):
    # trial blocks round like one row at a time: products at every d, vectors
    # at d <= 3, where a matrix-vector product rounds like a matrix-matrix one
    family, paths = _kernel_case(case, seed, horizon)
    xs = np.random.default_rng(seed + 1).standard_normal((reps, family.dim))
    stack = np.repeat(xs, len(paths), axis=0)
    for w in (min(window, horizon), horizon - last):
        np.testing.assert_array_equal(
            log_norm_histories(family, paths, window=w),
            oracle_row_kernel(family.matrices, paths, window=w, renorm_every=RENORM_EVERY),
        )
        if family.dim <= 3:
            np.testing.assert_array_equal(
                log_norm_histories(family, paths, stack, w),
                oracle_row_kernel(family.matrices, paths, stack, w, RENORM_EVERY),
            )


def test_a_norm_that_underflows_mid_segment_kills_the_row_for_good():
    # at step 5 the first row's state is 1e-170, whose squares underflow, so
    # its norm reads 0 although the state is not zero; the growth at step 6
    # must not bring the row back, in this segment or any later one
    family = MatrixSet.from_list([np.eye(2), 1e-20 * np.eye(2), 1e20 * np.eye(2)])
    path = np.ones((1, 3 * RENORM_EVERY), dtype=np.int64)
    path[0, 4:6] = [2, 3]
    start = np.array([[1e-150, 0.0], [1.0, 0.0]])
    both = log_norm_histories(family, path, start)
    np.testing.assert_array_equal(both, oracle_row_kernel(family.matrices, path, start))
    assert np.isfinite(both[0, :4]).all() and np.isneginf(both[0, 4:]).all()
    assert np.isfinite(both[1]).all()
    for row, x in zip(both, start):  # alone, with its zero partner row
        for window in (0, 3):
            alone = log_norm_histories(family, path, x[None], window)
            np.testing.assert_array_equal(alone, row[None, window:])


@pytest.mark.parametrize(
    "g, every", [(1.1e3, 50), (1.3e3, 49), (1e5, 30), (2e6, 24), (1e100, 1)]
)
def test_a_family_past_the_range_renormalizes_in_shorter_segments(g, every):
    # every is the longest segment with g**(2 * every) finite. Each generator
    # is g times an orthogonal matrix, so ||x A(n)|| = ||x|| g**n exactly
    family = MatrixSet.from_list(
        [g * np.eye(2), g * rotation(np.pi / 2), g * np.diag([1.0, -1.0])]
    )
    paths = np.random.default_rng(8).integers(1, 4, size=(3, 2 * RENORM_EVERY + 30))
    xs = np.array([[0.6, 0.8], [3.0, -4.0], [3e-150, -4e-150]])
    stack = np.repeat(xs, 3, axis=0)
    offsets = np.repeat(np.log(np.linalg.norm(xs, axis=1)), 3)[:, None]
    exact = np.arange(1, paths.shape[1] + 1) * np.log(g)
    for window in (0, tail_start(paths.shape[1])):
        vec = log_norm_histories(family, paths, stack, window)
        mat = log_norm_histories(family, paths, window=window)
        np.testing.assert_array_equal(
            vec, oracle_row_kernel(family.matrices, paths, stack, window, every)
        )
        np.testing.assert_array_equal(
            mat, oracle_row_kernel(family.matrices, paths, None, window, every)
        )
        np.testing.assert_allclose(vec - offsets, np.tile(exact[window:], (9, 1)), 1e-9)
        np.testing.assert_allclose(mat, np.tile(exact[window:], (3, 1)), 1e-9)


@given(
    kind=st.sampled_from(["random", "huge", "zero-generator"]),
    seed=st.integers(0, 2**16),
    d=st.integers(1, 6),
    trials=st.integers(1, 5),
    reps=st.integers(0, 3),
    horizon=st.sampled_from([1, 49, 50, 51, 100, 101]),
    cut=st.floats(0.0, 1.0),
)
@example("huge", 0, 6, 5, 3, 101, 0.5)  # 1e100 generators: one-step segments
@example("zero-generator", 1, 4, 3, 1, 100, 0.3)
@example("random", 2, 1, 1, 0, 1, 0.0)
@example("random", 3, 5, 2, 2, 51, 0.99)
def test_segment_kernel_equals_the_step_kernel_oracle(
    kind, seed, d, trials, reps, horizon, cut
):
    # a segment's gather, products and norms in one call each round like one
    # gather, product and norm per step
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    scale = 1e100 if kind == "huge" else rng.uniform(0.3, 1.5)
    mats = rng.standard_normal((k, d, d)) * scale
    if kind == "zero-generator":
        mats[0] = 0.0
    family = MatrixSet.from_list(list(mats))
    paths = rng.integers(1, k + 1, size=(trials, horizon))
    stack = np.repeat(rng.standard_normal((reps, d)), trials, axis=0)
    for window in (0, int(cut * horizon), horizon):
        np.testing.assert_array_equal(
            log_norm_histories(family, paths, window=window),
            oracle_step_kernel(mats, paths, None, window, RENORM_EVERY),
        )
        np.testing.assert_array_equal(
            log_norm_histories(family, paths, stack, window),
            oracle_step_kernel(mats, paths, stack, window, RENORM_EVERY),
        )


@pytest.mark.parametrize("d", range(1, 13))
def test_row_norms_have_the_bits_of_numpy_norm(d):
    # numpy sums short rows left to right and rows of 8 or more pairwise;
    # the scales reach squares that underflow and that overflow
    rng = np.random.default_rng(d)
    x = rng.standard_normal((7, 30, 3, d)) * 10.0 ** rng.integers(-170, 170, (7, 30, 1, 1))
    x[0, 0, 0] = 0.0
    x[0, 1, 0, 0] = -0.0
    with np.errstate(over="ignore", under="ignore"):
        np.testing.assert_array_equal(_row_norms(x), np.linalg.norm(x, axis=-1))
        np.testing.assert_array_equal(
            _row_norms(x[:, :, :2]), np.linalg.norm(x, axis=-1)[:, :, :2]
        )


@pytest.mark.parametrize("d", range(2, 9))
def test_matmul_rows_do_not_depend_on_the_rows_beside_them(d):
    # the kernel stacks rows into one (trials, rows, d) state and relies on
    # each output row equalling that of a smaller stack. A lone row would go
    # to the matrix-vector routine, which rounds differently at d >= 4, so a
    # one-row stack is compared with the row and a zero partner, as the
    # kernel pads it
    rng = np.random.default_rng(40 + d)
    mats = rng.standard_normal((3, d, d))
    for extra in range(1, 65):
        m = int(rng.integers(2, 41))
        head = rng.standard_normal((3, m, d))
        tail = rng.standard_normal((3, extra, d))
        both = np.matmul(np.concatenate([head, tail], axis=1), mats)
        np.testing.assert_array_equal(both[:, :m], np.matmul(head, mats))
        if extra == 1:
            tail = np.concatenate([tail, np.zeros((3, 1, d))], axis=1)
        np.testing.assert_array_equal(both[:, m:], np.matmul(tail, mats)[:, :extra])


def _long_double_sigma_1(m):
    m = m.astype(np.longdouble)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double on this platform",
)
@given(
    kind=st.sampled_from(["drawn", "rank-one", "trace-free", "rotation"]),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_sigma_1_is_within_2_ulps_of_its_long_double_value(kind, scale, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((500, 2, 2))
    if kind == "rank-one":  # nearly: singular values 1e12 apart
        u, v = rng.standard_normal((2, 500, 2, 1))
        m = u * v.transpose(0, 2, 1) + 1e-12 * m
    elif kind == "trace-free":  # a = -d, where a + d cancels exactly
        m[:, 1, 1] = -m[:, 0, 0]
    elif kind == "rotation":  # equal singular values, where a - d, b + c cancel
        theta = rng.uniform(0.0, 2.0 * np.pi, 500)
        m = rng.uniform(0.1, 10.0, 500)[:, None, None] * np.stack(
            [np.stack([np.cos(theta), np.sin(theta)], -1),
             np.stack([-np.sin(theta), np.cos(theta)], -1)], 1
        )
    m = m * scale
    got = _top_singular_values(m)[:, 0]
    ulps = np.abs(got.astype(np.longdouble) - _long_double_sigma_1(m)) / np.spacing(got)
    assert ulps.max() <= 2.0


def _svd_tops(states):
    return np.linalg.svd(np.asarray(states, dtype=float), compute_uv=False)[..., 0]


@pytest.mark.parametrize("scale", [1.5e308, 1e-310])
def test_products_at_the_ends_of_the_float_range_keep_their_svd_bits(monkeypatch, scale):
    # near 1.5e308 the closed form's sum overflows and the product takes the
    # SVD; near 1e-310 the entries are subnormal and the first step reads them
    family = MatrixSet.from_list(
        [scale * np.diag([1.0, 0.3]), scale * rotation(np.pi / 2), scale * rotation(0.3)]
    )
    paths = np.random.default_rng(12).integers(1, 4, size=(5, 2 * RENORM_EVERY + 20))
    got = [log_norm_histories(family, paths, window=w) for w in (0, 60)]
    assert np.isfinite(got[0][:, 0]).all()
    monkeypatch.setattr(oracles, "oracle_top_singular_values", _svd_tops)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for w, hist in zip((0, 60), got):
            expect = oracle_step_kernel(family.matrices, paths, None, w, RENORM_EVERY)
            np.testing.assert_array_equal(hist, expect)


def test_a_windowed_product_history_takes_one_svd_per_segment(monkeypatch):
    # 20 segments before the window read one step each, 20 after it read 50;
    # one SVD call per step from the window on would make 1,020. A 2x2
    # family takes the closed form and makes none
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return svd(a, *args, **kwargs)

    cycle = np.roll(np.eye(3), 1, axis=1)
    family = MatrixSet.from_list([np.diag([0.5, 1.0, 0.8]), cycle])
    monkeypatch.setattr(np.linalg, "svd", counted)
    paths = np.random.default_rng(9).integers(1, 3, size=(100, 2000))
    hist = log_norm_histories(family, paths, window=tail_start(2000))
    assert hist.shape == (100, 1000)
    assert len(calls) <= 40 and sum(calls) == 20 + 1000
    calls.clear()
    flat = MatrixSet.from_list([np.diag([0.5, 1.0]), rotation(np.pi / 2)])
    assert log_norm_histories(flat, paths, window=tail_start(2000)).shape == (100, 1000)
    assert calls == []


def test_start_rows_past_the_float_range_are_scaled_by_a_power_of_two():
    # each generator is g times an orthogonal matrix, so ||x A(n)|| = ||x|| g**n;
    # the squares of the big rows pass the float range at the first step
    paths = np.random.default_rng(10).integers(1, 4, size=(2, 130))
    exact = np.arange(1, 131) * np.log(2.0)
    family = MatrixSet.from_list(
        [2.0 * np.eye(2), 2.0 * rotation(np.pi / 2), 2.0 * np.diag([1.0, -1.0])]
    )
    xs = np.array([[1e160, 0.0], [0.6, 0.8], [3e300, -4e300], [-1e-300, 1e300]])
    stack = np.repeat(xs, 2, axis=0)
    sizes = [np.log(1e160), 0.0, np.log(5e300), np.log(1e300)]
    for window in (0, 7, tail_start(130)):
        hist = log_norm_histories(family, paths, stack, window)
        np.testing.assert_allclose(
            hist, np.repeat(sizes, 2)[:, None] + exact[window:], rtol=1e-12
        )
        # the scaled rows leave the others' bits alone
        np.testing.assert_array_equal(
            hist[2:4], oracle_step_kernel(family.matrices, paths, stack[2:4], window)
        )
        np.testing.assert_array_equal(
            hist[2:4], log_norm_histories(family, paths, stack[2:4], window)
        )
    with np.errstate(over="ignore"):
        assert np.isinf(oracle_step_kernel(family.matrices, paths, stack[:2])).all()


@pytest.mark.parametrize("g", [1e160, 1e300])
def test_a_family_whose_square_overflows_is_scaled_by_a_power_of_two(g):
    # one-step segments cannot keep a row's squares in range once g**2 is
    # past it; the products' sigma_1 needs no scaling, so they keep their bits
    family = MatrixSet.from_list([g * np.eye(2), g * rotation(np.pi / 2)])
    paths = np.random.default_rng(11).integers(1, 3, size=(3, 120))
    xs = np.array([[0.6, 0.8], [1e160, 0.0]])
    exact = np.arange(1, 121) * np.log(g)
    for window in (0, tail_start(120)):
        mat = log_norm_histories(family, paths, window=window)
        vec = log_norm_histories(family, paths, np.repeat(xs, 3, axis=0), window)
        np.testing.assert_array_equal(
            mat, oracle_step_kernel(family.matrices, paths, None, window)
        )
        np.testing.assert_allclose(mat, np.tile(exact[window:], (3, 1)), rtol=1e-12)
        np.testing.assert_allclose(vec[:3], mat, rtol=1e-12)
        np.testing.assert_allclose(vec[3:], mat + np.log(1e160), rtol=1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.repeat(xs[:1], 3, axis=0)
        assert not np.isfinite(oracle_step_kernel(family.matrices, paths, start)).any()


def test_nilpotent_rows_dead_before_the_window_stay_dead():
    # random rows meet the nilpotent word (1, 1) early and never come back
    paths = _nilpotent_paths(120)
    full = log_norm_histories(NILPOTENT_PAIR, paths)
    dead_at = [int(np.argmax(np.isneginf(row))) for row in full[2:]]
    assert max(dead_at) < tail_start(120)
    win = log_norm_histories(NILPOTENT_PAIR, paths, window=tail_start(120))
    assert np.isneginf(win[2:]).all() and np.isfinite(win[:2]).all()
    assert np.isneginf(tail_slope(win, 120)[2:]).all()


def test_kernel_rejects_a_stack_that_is_not_a_multiple_of_the_paths():
    paths = _nilpotent_paths(10)
    with pytest.raises(ValueError, match="multiple of 6 rows"):
        log_norm_histories(NILPOTENT_PAIR, paths, np.ones((7, 2)))
    with pytest.raises(ValueError, match="window"):
        log_norm_histories(NILPOTENT_PAIR, paths, window=11)
    assert log_norm_histories(NILPOTENT_PAIR, paths, np.ones((0, 2)), 4).shape == (0, 6)
    with pytest.raises(ValueError, match="trailing entries"):
        tail_slope(np.zeros((2, 4)), 10)


def test_matrix_log_norm_history_shear_growth():
    shear = MatrixSet.from_list([[[1.0, 0.0], [1.0, 1.0]]])
    hist = matrix_log_norm_history(shear, np.ones(50, dtype=np.int64))
    norms = np.exp(hist)
    # ||S^n|| ~ n for the unipotent shear
    assert norms[-1] == pytest.approx(
        np.linalg.norm(np.linalg.matrix_power(shear.matrices[0], 50), 2), rel=1e-9
    )


def test_tail_slope_on_linear_history():
    hist = -0.25 * np.arange(1, 101)
    assert tail_slope(hist) == pytest.approx(-0.25, abs=1e-12)
    assert np.isneginf(tail_slope(np.array([0.0, -1.0, -np.inf, -np.inf])))
    rng = np.random.default_rng(34)
    stack = np.cumsum(rng.standard_normal((5, 101)), axis=1)
    stack[1, 70:] = -np.inf
    stack[3, 20:] = -np.inf
    slopes = tail_slope(stack)
    assert slopes.shape == (5,) and np.isneginf(slopes[[1, 3]]).all()
    np.testing.assert_array_equal(slopes, [tail_slope(row) for row in stack])


def test_limit_points_rotation_clusters():
    # products at return times cycle through the 12 rotations by pi/6
    seq = SwitchingSequence.periodic([1])
    lps = limit_points(ROT, seq, cylinder_len=1, horizon=600, cluster_tol=1e-4)
    assert len(lps.cluster_reps) == 12
    assert lps.return_times.size == 599


def test_limit_points_warns_without_returns():
    seq = SwitchingSequence.explicit([1, 2, 2, 2])
    s = MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])])
    with pytest.warns(UserWarning):
        lps = limit_points(s, seq, cylinder_len=1, horizon=4, cluster_tol=1e-4)
    assert len(lps.cluster_reps) == 0


def test_find_idempotent_rotation_gives_identity():
    seq = SwitchingSequence.periodic([1])
    lps = limit_points(ROT, seq, cylinder_len=1, horizon=600, cluster_tol=1e-4)
    p = find_idempotent(lps)
    assert np.allclose(p, np.eye(2), atol=1e-9)


def test_find_idempotent_failure_reports_best_defect():
    seq = SwitchingSequence.explicit([1, 2, 2, 2])
    s = MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])])
    with pytest.warns(UserWarning):
        lps = limit_points(s, seq, cylinder_len=1, horizon=4, cluster_tol=1e-4)
    with pytest.raises(IdempotentNotFoundError) as exc:
        find_idempotent(lps)
    assert exc.value.defect == np.inf


# distances on both edges of the Frobenius band [tol, sqrt(d) tol]: exactly
# on them and 1e-13 to either side
EDGES = (1 - 1e-13, 1.0, 1 + 1e-13)


def _unit_offset(rng, d: int, rank_one: bool) -> np.ndarray:
    """Induced 2-norm 1; Frobenius norm 1 (rank one) or sqrt(d) (orthogonal)."""
    if rank_one:
        e = np.outer(rng.standard_normal(d), rng.standard_normal(d))
    else:
        e = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return e / oracle_norm2(e)


def _assert_same_stack(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    placed=st.lists(
        st.tuples(st.sampled_from(EDGES), st.booleans(), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
def test_batched_clustering_matches_the_pairwise_loop(d, seed, placed):
    rng = np.random.default_rng(seed)
    tol = 1e-4
    # offsets from the zero matrix, the first representative: a rank-one offset
    # has its Frobenius norm on the lower edge, an orthogonal one on the upper
    offsets = [
        tol * edge * (np.sqrt(d) if beyond else 1.0) * _unit_offset(rng, d, rank_one)
        for edge, rank_one, beyond in placed
    ]
    # and loose clusters around a few centers, at distances of a few tol
    centers = rng.standard_normal((3, d, d))
    loose = centers[rng.integers(0, 3, 20)] + 2 * tol * rng.standard_normal((20, d, d))
    rest = np.concatenate([np.stack(offsets), loose])
    products = np.concatenate([np.zeros((1, d, d)), rest[rng.permutation(len(rest))]])
    _assert_same_stack(
        _first_come_reps(products, tol), oracle_cluster_reps(products, tol)
    )


@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 4),
    edge=st.sampled_from(EDGES),
    upper=st.booleans(),
    rounds=st.integers(1, 3),
    budget=st.integers(0, 2000),
)
def test_batched_closure_and_scoring_match_the_pairwise_loops(
    d, seed, count, edge, upper, rounds, budget
):
    rng = np.random.default_rng(seed)
    reps = rng.standard_normal((count, d, d))
    reps /= np.linalg.norm(reps, 2, axis=(1, 2))[:, None, None]  # squares stay finite
    # tol sits on an edge of the band for the first product against the first member
    diff = reps[0] @ reps[0] - reps[0]
    base = np.sqrt((diff * diff).sum() / d) if upper else oracle_norm2(diff)
    tol = edge * max(base, 1e-3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool = _closure(reps, tol, rounds, budget)
    want, stopped = oracle_closure(list(reps), tol, rounds, 1024, budget)
    _assert_same_stack(pool, want)
    assert [w.category for w in caught] == [ClosureBudgetWarning] * stopped

    lps = LimitPointSet(1, 0, tol, np.empty(0), reps, reps)
    best, defect = oracle_best_idempotent(want)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClosureBudgetWarning)
        with pytest.raises(IdempotentNotFoundError) as exc:
            find_idempotent(lps, idem_tol=-1.0, closure_rounds=rounds, budget=budget)
    np.testing.assert_array_equal(exc.value.best, best)
    assert exc.value.defect == defect


@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 40),
    floats=st.sampled_from([1, 7, 50, 2**18]),
)
def test_clustering_in_blocks_matches_the_pairwise_loop(d, seed, count, floats):
    # _NEAR_FLOATS sets how many products share a call: one, a few that do
    # not divide the count, or all; later products fall near picks made from
    # the same call
    rng = np.random.default_rng(seed)
    tol = 1e-4
    corner = np.zeros((d, d))
    corner[0, 0] = 1.0
    offsets = []
    for kind in rng.integers(0, 3, count):
        edge = tol * EDGES[rng.integers(3)]
        if kind == 0:  # only the (0,0) entry moves: the entry screen's edge
            offsets.append(edge * rng.choice([-1.0, 1.0]) * corner)
        elif kind == 1:  # on an edge of the Frobenius band
            offsets.append(edge * _unit_offset(rng, d, bool(rng.integers(2))))
        else:
            offsets.append(2 * tol * rng.standard_normal((d, d)))
    # around the zero matrix the offsets are exact; around the others, loose
    centers = np.concatenate([np.zeros((1, d, d)), rng.standard_normal((2, d, d))])
    products = centers[rng.integers(0, 3, count)] + np.stack(offsets)
    with mock.patch.object(mjlslab.splitting, "_NEAR_FLOATS", floats):
        got = _first_come_reps(products, tol)
    _assert_same_stack(got, oracle_cluster_reps(products, tol))


@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    count=st.integers(2, 5),
    tol=st.sampled_from([0.05, 0.2]),
    rounds=st.integers(1, 3),
    budget=st.integers(0, 6000),
    floats=st.sampled_from([1, 7, 2**18]),
)
def test_closure_in_blocks_stops_where_the_pairwise_loop_stops(
    d, seed, count, tol, rounds, budget, floats
):
    # contractions whose products crowd together, so some join and some do
    # not; the budget stops the walk anywhere within a generator's products
    rng = np.random.default_rng(seed)
    reps = rng.standard_normal((count, d, d))
    reps /= np.linalg.norm(reps, 2, axis=(1, 2))[:, None, None]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with mock.patch.object(mjlslab.splitting, "_NEAR_FLOATS", floats):
            pool = _closure(reps, tol, rounds, budget)
    want, stopped = oracle_closure(list(reps), tol, rounds, 1024, budget)
    _assert_same_stack(pool, want)
    assert [w.category for w in caught] == [ClosureBudgetWarning] * stopped


def test_clustering_is_exact_where_frobenius_and_svd_round_apart():
    # offsets a few ulps around tol whose computed Frobenius norm and SVD fall
    # on opposite sides of an edge; only the rounding margin keeps them exact
    rng = np.random.default_rng(35)
    tol, found = 1e-4, {True: 0, False: 0}
    while min(found.values()) < 5:
        d = int(rng.integers(2, 5))
        rank_one = bool(rng.integers(2))
        ulps = int(rng.integers(-3, 4)) * 2.0**-52
        x = tol * (1 + ulps) * _unit_offset(rng, d, rank_one)
        fro, svd = np.sqrt(np.einsum("ij,ij->", x, x)), oracle_norm2(x)
        lower = rank_one and fro <= tol < svd
        upper = not rank_one and svd <= tol < fro / np.sqrt(d)
        if lower or upper:
            found[rank_one] += 1
            products = np.stack([np.zeros((d, d)), x])
            _assert_same_stack(
                _first_come_reps(products, tol), oracle_cluster_reps(products, tol)
            )


@pytest.mark.parametrize("cap, count", [(5, 3), (40, 3), (5, 6)])
def test_closure_stops_at_the_pool_cap(monkeypatch, cap, count):
    # generic contractions: every product is new, so the pool fills up
    reps = np.random.default_rng(34).standard_normal((count, 2, 2)) / 3.0
    monkeypatch.setattr(mjlslab.splitting, "_POOL_CAP", cap)
    pool = _closure(reps, 1e-4, 3, 10**6)
    want, stopped = oracle_closure(list(reps), 1e-4, 3, cap, 10**6)
    assert len(pool) == max(cap, count) and not stopped
    _assert_same_stack(pool, want)


def test_idempotent_ties_go_to_the_first_candidate():
    # both diagonals square to exact projections (defect 0), the second one
    # in fewer squarings; the first member's squares still come first
    reps = np.stack([np.diag([0.9, 1.0]), np.diag([1.0, 0.5])])
    lps = LimitPointSet(1, 0, 1e-4, np.empty(0), reps, reps)
    pool, _ = oracle_closure(list(reps), 1e-4, 3, 1024, 10**6)
    best, defect = oracle_best_idempotent(pool)
    assert defect == 0.0
    np.testing.assert_array_equal(find_idempotent(lps), best)
    np.testing.assert_array_equal(best, np.diag([0.0, 1.0]))


def test_split_from_idempotent_diag_projector():
    split = split_from_idempotent(np.diag([0.0, 1.0]), rank_tol=1e-8, idem_tol=1e-6)
    assert split.center.contains([0.0, 1.0])
    assert split.stable.contains([1.0, 0.0])
    assert split.defect == 0.0
    assert split.source == "semigroup-numeric"


def test_split_from_idempotent_ambiguous_rank():
    # singular value 1e-8 sits inside the ambiguity window around rank_tol
    p = np.diag([1e-8, 1.0])
    with pytest.raises(AmbiguousRankError):
        split_from_idempotent(p, rank_tol=1e-8, idem_tol=1.0)


def test_periodic_split_shrink():
    split = periodic_split(SHRINK, (1,))
    assert split.center.contains([0.0, 1.0]) and split.center.dim == 1
    assert split.stable.contains([1.0, 0.0]) and split.stable.dim == 1
    assert split.defect <= 1e-12
    assert np.allclose(split.idempotent, np.diag([0.0, 1.0]), atol=1e-12)
    assert split.source == "periodic-exact"


def test_periodic_split_half_shear_oblique_projector():
    split = periodic_split(HALF_SHEAR, (1,))
    # left eigenvectors: stable (1,-2)/sqrt5, center (0,1)
    assert split.stable.contains(np.array([1.0, -2.0]) / np.sqrt(5.0))
    assert split.center.contains([0.0, 1.0])
    # the projector is oblique: fixes center rows, kills stable rows
    assert np.allclose(split.center.basis @ split.idempotent, split.center.basis, atol=1e-12)
    assert np.allclose(split.stable.basis @ split.idempotent, 0.0, atol=1e-12)
    assert idempotency_defect(split.idempotent) <= 1e-12


def test_periodic_split_rotation_identity():
    split = periodic_split(ROT, (1,) * 12)
    assert np.allclose(split.idempotent, np.eye(2), atol=1e-9)
    assert split.center.dim == 2 and split.stable.dim == 0


def test_periodic_split_reports_unstable_part():
    s = MatrixSet.from_list([np.diag([0.5, 1.0, 2.0])])
    split = periodic_split(s, (1,))
    assert split.unstable is not None and split.unstable.dim == 1
    assert split.unstable.contains([0.0, 0.0, 1.0])


def test_sequence_split_agrees_with_periodic_split():
    seq = SwitchingSequence.periodic([1])
    for fam in (SHRINK, HALF_SHEAR, ROT):
        numeric = sequence_split(limit_points(fam, seq, cylinder_len=1, horizon=2048))
        exact = periodic_split(fam, (1,))
        assert grassmann_distance(numeric.center, exact.center) <= 1e-6
        assert grassmann_distance(numeric.stable, exact.stable) <= 1e-6
        assert numeric.defect <= 1e-6


def test_sequence_split_quadratic_gap():
    seq = SwitchingSequence.quadratic_gap(4, zero_symbol=1, one_symbol=2)
    fam = MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])])
    split = sequence_split(limit_points(fam, seq, cylinder_len=1, horizon=255))
    assert np.allclose(split.idempotent, np.diag([0.0, 1.0]), atol=1e-12)
    assert split.center.contains([0.0, 1.0])
    assert split.stable.contains([1.0, 0.0])


def test_vector_lyapunov_exponent_frozen():
    seq = SwitchingSequence.periodic([1])
    hist = vector_log_norm_history(SHRINK, seq.prefix(400), [1.0, 0.0])
    assert hist[-1] / 400 == pytest.approx(np.log(0.5), abs=1e-12)
    assert tail_slope(hist) == pytest.approx(np.log(0.5), abs=1e-9)
    assert not np.isneginf(hist).any()
    hist = vector_log_norm_history(SHRINK, seq.prefix(400), [0.0, 1.0])
    assert hist[-1] / 400 == pytest.approx(0.0, abs=1e-12)


def test_verify_splitting_evidence_quality():
    seq = SwitchingSequence.periodic([1])
    split = periodic_split(HALF_SHEAR, (1,))
    limits = limit_points(HALF_SHEAR, seq, cylinder_len=1, horizon=2048)
    ev = verify_splitting(HALF_SHEAR, seq, split, limits)
    assert ev.return_count == 2047
    assert ev.stable_tail_fits.max() <= np.log(0.5) + 1e-6
    assert ev.center_return_deviation_final.max() <= 1e-9
    assert ev.off_stable_min_norms.min() > 0.05


def _center_scores_per_row(s, symbols, times, basis, depth):
    """verify_splitting's center scores, one row and one snapshot at a time."""
    snaps = cocycle_products_at(s, symbols, times)
    scores = []
    for row in basis:
        if not snaps.size:
            scores.append((np.inf, np.inf, np.inf))
            continue
        dev = [float(np.linalg.norm(row @ a - row)) for a in snaps]
        base = preextremal_norm(s, row, depth)
        pre = [abs(preextremal_norm(s, row @ a, depth) - base) for a in snaps]
        scores.append((min(dev), dev[-1], max(pre)))
    return np.array(scores, dtype=float).reshape(len(basis), 3).T


# a 3-letter family on a random word with 64 checkpointed returns, a 3 x 3
# pair, and a word whose first symbol never returns (no snapshots)
CENTER_CASES = {
    "family3": (FAMILY3, np.random.default_rng(41).integers(1, 4, 400)),
    "dim3": (
        MatrixSet.from_list(
            [np.random.default_rng(42).normal(size=(3, 3)) * 0.6 for _ in range(2)]
        ),
        np.random.default_rng(43).integers(1, 3, 120),
    ),
    "no_return": (FAMILY3, np.array([3] + [1, 2] * 30)),
}


@pytest.mark.parametrize("name", sorted(CENTER_CASES))
@pytest.mark.parametrize("budget", [mjlslab.splitting.ENUM_BUDGET, 40])
def test_verify_splitting_center_scores_match_per_row_loop(name, budget, monkeypatch):
    # a small budget splits the stacked rows into blocks of one call each
    monkeypatch.setattr(mjlslab.splitting, "ENUM_BUDGET", budget)
    s, symbols = CENTER_CASES[name]
    seq = SwitchingSequence.explicit(symbols)
    returns = return_times(seq, 1, symbols.size).times
    times = returns[_checkpoint(returns.size)]
    assert (times.size == 0) == (name == "no_return")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="no return times")
        limits = limit_points(s, seq, 1, symbols.size)
    d = s.dim
    full = np.linalg.qr(np.random.default_rng(44).normal(size=(d, d)))[0]
    for c in range(d + 1):  # a center of every dimension, 0 included
        center, stable = full[:c], full[c:]
        split = Splitting(np.eye(d), 0.0, Subspace(d, stable), Subspace(d, center), "test")
        for depth in (0, 1, 3):
            ev = verify_splitting(s, seq, split, limits, preextremal_depth=depth)
            got = np.array([
                ev.center_return_deviation_min,
                ev.center_return_deviation_final,
                ev.center_preextremal_deviation_max,
            ])
            want = _center_scores_per_row(s, symbols, times, center, depth)
            assert got.shape == want.shape == (3, c)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CENTER_CASES))
def test_verify_splitting_reads_the_limit_points_it_is_given(name):
    # horizon, cylinder and return times all come from the limit point set
    s, symbols = CENTER_CASES[name]
    seq = SwitchingSequence.explicit(symbols)
    d = s.dim
    basis = np.linalg.qr(np.random.default_rng(45).normal(size=(d, d)))[0]
    split = Splitting(np.eye(d), 0.0, Subspace(d, basis[1:]), Subspace(d, basis[:1]), "test")
    for cylinder_len, horizon in ((1, symbols.size), (2, symbols.size - 7)):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="no return times")
            limits = limit_points(s, seq, cylinder_len, horizon)
        ev = verify_splitting(s, seq, split, limits, preextremal_depth=2)
        assert (ev.horizon, ev.cylinder_len) == (horizon, cylinder_len)
        assert ev.return_count == limits.return_times.size
        if limits.return_times.size:
            last = limits.return_times[-1]
            want = vector_log_norm_history(s, symbols[:last], split.stable.basis)[:, -1]
            assert ev.stable_final_norms.tobytes() == np.exp(want).tobytes()
