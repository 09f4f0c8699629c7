"""Word products, growth probes, spectral radius bounds, truncated norms."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mjlslab.products
from mjlslab import (
    BudgetExceededError,
    EigenSolverError,
    MatrixSet,
    boundedness_probe,
    induced_norm2,
    jsr_bounds,
    preextremal_contraction_check,
    preextremal_norm,
    rho_extremes,
    spectral_finiteness_probe,
    word_from_index,
    word_levels,
    word_product,
)
from mjlslab.reports import jsonable
from oracles import (
    oracle_jsr_bounds,
    oracle_level_norm_maxima,
    oracle_preextremal,
    oracle_preextremal_profile,
    oracle_rho_extremes,
    oracle_rho_root,
    oracle_word_product,
    rotation,
)

SHEAR = MatrixSet.from_list([[[1.0, 0.0], [1.0, 1.0]]])
NILPOTENT = MatrixSet.from_list(
    [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
)
SWAP_SHRINK = MatrixSet.from_list(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 1.0]]]
)


def test_matrix_set_validation():
    with pytest.raises(ValueError):
        MatrixSet.from_list([np.ones((2, 3))])
    with pytest.raises(ValueError):
        MatrixSet.from_list([np.eye(2)], labels=["a", "b"])
    s = MatrixSet.from_list([np.eye(2), 2 * np.eye(2)], labels=["id", "double"])
    assert s.num_matrices == 2 and s.dim == 2
    assert np.allclose(s.matrix(2), 2 * np.eye(2))
    with pytest.raises(ValueError):
        s.matrix(0)
    with pytest.raises(ValueError):
        s.matrix(3)


def test_word_product_frozen_case():
    # swap, then shrink, then swap: diag(1, 1/2)
    got = word_product(SWAP_SHRINK, (1, 2, 1))
    assert np.allclose(got, np.diag([1.0, 0.5]), atol=1e-15)
    assert np.allclose(word_product(SWAP_SHRINK, ()), np.eye(2))


def test_word_product_matches_oracle():
    rng = np.random.default_rng(20)
    mats = [rng.standard_normal((3, 3)) for _ in range(3)]
    s = MatrixSet.from_list(mats)
    for _ in range(20):
        word = rng.integers(1, 4, size=rng.integers(1, 6)).tolist()
        assert np.allclose(word_product(s, word), oracle_word_product(mats, word))


def test_word_from_index_is_lexicographic():
    words = [word_from_index(i, 3, 2) for i in range(8)]
    assert words == sorted(words)
    assert words[0] == (1, 1, 1)
    assert words[-1] == (2, 2, 2)
    assert word_from_index(5, 3, 2) == (2, 1, 2)


def test_jsr_bounds_shear():
    b = jsr_bounds(SHEAR, depth=8)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.lower_word == (1,)
    # upper at depth n is ||S^n||^(1/n)
    direct = induced_norm2(np.linalg.matrix_power(SHEAR.matrices[0], 8)) ** (1 / 8)
    assert b.upper == pytest.approx(direct, abs=1e-12)
    assert not b.truncated


def test_jsr_bounds_nilpotent_pair():
    b = jsr_bounds(NILPOTENT, depth=2)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    assert len(b.lower_word) == 2


def test_jsr_bounds_match_brute_force_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        mats = [rng.standard_normal((2, 2)) * 0.9 for _ in range(2)]
        s = MatrixSet.from_list(mats)
        b = jsr_bounds(s, depth=5)
        lo, up = oracle_jsr_bounds(mats, 5)
        assert b.lower == pytest.approx(lo, rel=1e-10, abs=1e-12)
        assert b.upper == pytest.approx(up, rel=1e-10, abs=1e-12)
        assert b.lower <= b.upper + 1e-12


def test_jsr_bounds_budget_truncation():
    s = MatrixSet.from_list([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)])
    b = jsr_bounds(word_levels(s, 10, 10, 3 + 9 + 27, minima=False), depth=10)
    assert b.truncated
    assert (b.depth_completed, b.budget) == (3, 39)
    with pytest.raises(BudgetExceededError):
        jsr_bounds(word_levels(s, 4, 4, 2, minima=False), depth=4)


def test_boundedness_probe_verdicts():
    rep = boundedness_probe(SHEAR, max_depth=8)
    assert rep.verdict == "growth-detected"
    assert rep.growth_fit is not None and rep.growth_fit > 0.0
    # norms of shear powers are increasing
    assert rep.max_norm_per_depth == sorted(rep.max_norm_per_depth)

    rot = MatrixSet.from_list([rotation(np.pi / 6), np.diag([0.5, 1.0])])
    rep = boundedness_probe(rot, max_depth=8)
    assert rep.verdict == "bounded-so-far"
    assert rep.beta_hat <= 1.0 + 1e-12
    assert rep.prune_note is None


def test_boundedness_probe_prune_shortcut():
    rot = MatrixSet.from_list([rotation(np.pi / 6), np.diag([0.5, 1.0])])
    rep = boundedness_probe(rot, max_depth=8, prune=True)
    assert rep.verdict == "bounded-so-far"
    assert rep.prune_note is not None
    assert rep.depth_probed == 1
    # prune never fires when some generator norm exceeds one
    rep = boundedness_probe(SHEAR, max_depth=8, prune=True)
    assert rep.prune_note is None
    assert rep.verdict == "growth-detected"


def test_preextremal_norm_frozen_and_oracle():
    # row action: e1 S = e1, while e2 S^n = (n, 1)
    assert preextremal_norm(SHEAR, [1.0, 0.0], 5) == pytest.approx(1.0)
    assert preextremal_norm(SHEAR, [0.0, 1.0], 3) == pytest.approx(np.sqrt(10.0))

    rng = np.random.default_rng(22)
    mats = [rng.standard_normal((2, 2)) for _ in range(2)]
    s = MatrixSet.from_list(mats)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert preextremal_norm(s, x, 4) == pytest.approx(
            oracle_preextremal(mats, x, 4), rel=1e-12
        )


def test_preextremal_profile_nondecreasing():
    prof = [preextremal_norm(SHEAR, [1.0, 0.0], m) for m in range(7)]
    assert np.all(np.diff(prof) >= -1e-12)
    assert prof[0] == pytest.approx(1.0)


def test_preextremal_norm_batch_matches_single():
    rng = np.random.default_rng(23)
    xs = rng.standard_normal((5, 2))
    batch = preextremal_norm(SWAP_SHRINK, xs, 4)
    for i in range(5):
        assert batch[i] == pytest.approx(preextremal_norm(SWAP_SHRINK, xs[i], 4))


def test_preextremal_contraction_check_no_violation():
    for s in (SHEAR, NILPOTENT, SWAP_SHRINK):
        check = preextremal_contraction_check(s, depth=4, samples=30, seed=0)
        assert check.max_violation <= 1e-10


def test_preextremal_budget():
    with pytest.raises(BudgetExceededError):
        preextremal_norm(NILPOTENT, [1.0, 0.0], 30, budget=100)


@pytest.mark.parametrize(
    "s",
    [
        MatrixSet.from_list([0.9 * rotation(0.4), np.diag([1.05, 0.6])]),
        SHEAR,
        NILPOTENT,
        SWAP_SHRINK,
        MatrixSet.from_list([np.diag([0.5, 2.0]), rotation(np.pi / 6)]),
        MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])]),
    ],
    ids=["rotation-diag", "shear", "nilpotent", "swap-shrink", "push-pull", "gap"],
)
def test_preextremal_blocks_of_prefixes_keep_the_maxima(monkeypatch, s):
    # at depth 16 over two matrices the last 13 levels run on 4 blocks of 2
    # prefixes; with 8 floats a block, depth 9 runs on blocks of a word or
    # two. Holding every level whole gives the same bits
    xs = np.random.default_rng(5).standard_normal((3, 2))
    for depth, floats in ((16, mjlslab.products._WORD_FLOATS), (9, 8)):
        monkeypatch.setattr(mjlslab.products, "_WORD_FLOATS", floats)
        blocked = preextremal_norm(s, xs, depth)
        monkeypatch.setattr(mjlslab.products, "_WORD_FLOATS", 2**62)
        assert blocked.tobytes() == preextremal_norm(s, xs, depth).tobytes()
    mats = list(s.matrices)
    for x, value in zip(xs, blocked):
        assert value == pytest.approx(oracle_preextremal(mats, x, 9), rel=1e-12)


def test_a_deep_preextremal_walk_holds_one_block_of_words():
    # depth 18 over two matrices ends on 2**18 words (4 MB of vectors); held
    # whole, the traced peak was about 12.6 MB
    s = MatrixSet.from_list([np.diag([1.0, 0.5]), np.eye(2)])
    tracemalloc.start()
    try:
        value = preextremal_norm(s, [0.6, 0.8], 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0 and peak < 1.5 * 2**20


ENTRY = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@st.composite
def matrix_sets(draw):
    """1 to 3 matrices of size 1 to 3 with zeroed entries."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    mats = draw(
        st.lists(
            st.lists(st.lists(ENTRY, min_size=d, max_size=d), min_size=d, max_size=d),
            min_size=k,
            max_size=k,
        )
    )
    return MatrixSet.from_list(mats)


@given(matrix_sets(), st.integers(1, 4))
def test_jsr_bounds_property_lower_below_upper(s, depth):
    bounds = jsr_bounds(s, depth)
    assert bounds.lower <= bounds.upper


@given(matrix_sets(), st.data(), st.integers(0, 4))
def test_preextremal_profile_property_nondecreasing(s, data, depth):
    x = data.draw(st.lists(ENTRY, min_size=s.dim, max_size=s.dim))
    prof = [preextremal_norm(s, x, m) for m in range(depth + 1)]
    assert np.all(np.diff(prof) >= 0.0)


@given(matrix_sets(), st.data(), st.integers(0, 4))
def test_preextremal_profile_equals_per_depth_norms(s, data, depth):
    x = data.draw(st.lists(ENTRY, min_size=s.dim, max_size=s.dim))
    per_depth = [preextremal_norm(s, x, m) for m in range(depth + 1)]
    assert per_depth == oracle_preextremal_profile(s.matrices, x, depth)
    # the budget covers every level up to depth or the value is refused
    total = sum(s.num_matrices**n for n in range(1, depth + 1))
    assert preextremal_norm(s, x, depth, budget=total) == per_depth[-1]
    if depth:
        with pytest.raises(BudgetExceededError):
            preextremal_norm(s, x, depth, budget=total - 1)


@given(
    matrix_sets(),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 120),
)
def test_one_walk_equals_separate_walks(s, depth, jsr_depth, bound_depth, budget):
    """cmd_jsr's single walk gives the reports of three separate walks."""
    k = s.num_matrices
    walk_depth = max(depth, jsr_depth, bound_depth)
    reports = (
        (jsr_bounds, (depth,)),
        (boundedness_probe, (bound_depth,)),
        (spectral_finiteness_probe, (depth, jsr_depth)),
    )
    if budget < k:
        calls = ((word_levels, (depth, walk_depth)), (word_levels, (depth, 0)),
                 (boundedness_probe, (bound_depth,)))
        for call, args in calls:
            with pytest.raises(BudgetExceededError, match="does not cover even depth 1"):
                call(s, *args, budget)
        return
    walk = word_levels(s, depth, walk_depth, budget)
    separate = (
        jsr_bounds(word_levels(s, depth, depth, budget, minima=False), depth),
        boundedness_probe(s, bound_depth, budget),
        spectral_finiteness_probe(
            word_levels(s, depth, max(depth, jsr_depth), budget, minima=False), depth, jsr_depth
        ),
    )
    # a family passed directly is walked within ENUM_BUDGET
    full = word_levels(s, depth, walk_depth, mjlslab.products.ENUM_BUDGET)
    for (call, args), own in zip(reports, separate):
        assert jsonable(call(walk, *args)) == jsonable(own)
        assert jsonable(call(s, *args)) == jsonable(call(full, *args))

    # levels 1..n fit the budget when k + ... + k^n <= budget
    levels = range(1, walk_depth + 1)
    reached = max(n for n in levels if sum(k**i for i in range(1, n + 1)) <= budget)
    assert walk.completed == reached
    assert jsr_bounds(walk, depth).truncated == (reached < depth)
    assert boundedness_probe(walk, bound_depth).truncated == (reached < bound_depth)
    finiteness = spectral_finiteness_probe(walk, depth, jsr_depth)
    assert finiteness.truncated == (reached < max(depth, jsr_depth))
    mats = list(s.matrices)
    lo, lo_word, hi, hi_word, completed, truncated = rho_extremes(
        word_levels(s, depth, 0, budget), depth
    )
    assert (completed, truncated) == (min(reached, depth), reached < depth)
    o_lo, o_lo_word, o_hi, o_hi_word = oracle_rho_extremes(mats, completed)
    assert lo == pytest.approx(o_lo, rel=1e-12, abs=1e-300)
    assert hi == pytest.approx(o_hi, rel=1e-12, abs=1e-300)
    # the same word, unless another word ties with it to rounding
    for word, o_word, val in ((lo_word, o_lo_word, o_lo), (hi_word, o_hi_word, o_hi)):
        if word != o_word:
            assert oracle_rho_root(mats, word) == pytest.approx(val, rel=1e-12, abs=1e-300)


def test_rho_extremes_ties_go_to_shorter_then_smaller_words():
    # every word of both families has rho exactly 1: the first word wins both ends
    for mats in ([np.eye(2), np.diag([1.0, 0.5])], [np.diag([1.0, 0.5]), np.eye(2)]):
        assert rho_extremes(MatrixSet.from_list(mats), 3) == (1.0, (1,), 1.0, (1,), 3, False)
        assert oracle_rho_extremes(mats, 3) == (1.0, (1,), 1.0, (1,))
    # the max 0.5 recurs at (2,), (1, 1) and (2, 2); the min ties (1, 2) with (2, 1)
    mats = [np.diag([0.5, 0.25]), np.diag([0.25, 0.5])]
    expected = (0.125**0.5, (1, 2), 0.5, (1,))
    assert rho_extremes(MatrixSet.from_list(mats), 2)[:4] == expected
    assert oracle_rho_extremes(mats, 2) == expected


def test_walk_must_reach_the_requested_depths():
    walk = word_levels(SWAP_SHRINK, 2, 3)
    assert walk.completed == 3
    assert len(walk.rho) == 2 and len(walk.norms) == 3
    with pytest.raises(ValueError):
        jsr_bounds(walk, 3)
    with pytest.raises(ValueError):
        boundedness_probe(walk, 4)
    with pytest.raises(ValueError):
        word_levels(SWAP_SHRINK, 0, 0)


def _bits(norms):
    """Each level's maximum as its float64 bytes, so NaN and -0.0 compare exactly."""
    return [(np.float64(val).tobytes(), word) for val, word in norms]


def _assert_norms_match_oracle(mats, depth):
    """The walk's norm maxima equal the full-SVD oracle's bit for bit, value and
    word, or the walk raises EigenSolverError where the oracle's SVD fails."""
    s = MatrixSet.from_list(mats)
    try:
        expected = oracle_level_norm_maxima(list(s.matrices), depth)
    except np.linalg.LinAlgError:
        with pytest.raises(EigenSolverError):
            word_levels(s, 0, depth)
        return
    assert _bits(word_levels(s, 0, depth).norms) == _bits(expected)


@st.composite
def norm_families(draw):
    """1 to 3 matrices of size 1 to 4: drawn entries, or signed permutation
    matrices, whose words all have norm 1 and tie."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)
        perms = st.permutations(range(d))
        return [np.diag(draw(signs))[draw(perms)] for _ in range(k)]
    row = st.lists(ENTRY, min_size=d, max_size=d)
    return draw(st.lists(st.lists(row, min_size=d, max_size=d), min_size=k, max_size=k))


@given(norm_families(), st.integers(1, 6))
def test_level_norm_maxima_equal_the_full_svd(mats, depth):
    _assert_norms_match_oracle(mats, depth)


BASE = np.array([[[0.9, 0.4], [-0.3, 1.1]], [[0.2, -1.0], [0.7, 0.5]]])


@pytest.mark.parametrize(
    "mats, depth",
    [
        pytest.param(1e160 * BASE, 1, id="scaled-up"),
        pytest.param(1e-160 * BASE, 2, id="scaled-down-subnormal-level"),
        pytest.param([np.zeros((2, 2)), BASE[0]], 4, id="zero-generator"),
        pytest.param([np.zeros((3, 3))], 3, id="all-zero-levels"),
        pytest.param(NILPOTENT.matrices, 5, id="nilpotent-pair"),
        pytest.param([[[0.0, 1.0], [0.0, 0.0]]], 3, id="nilpotent-square-zero"),
        pytest.param(1e100 * BASE, 4, id="overflow-to-inf"),
    ],
)
def test_level_norm_maxima_edge_cases(mats, depth):
    _assert_norms_match_oracle(mats, depth)


def test_boundedness_probe_reads_an_overflowed_level_as_growth():
    # level 4 of BASE * 1e100 holds inf entries, so its SVD maximum is NaN
    s = MatrixSet.from_list(1e100 * BASE)
    with np.errstate(over="ignore", invalid="ignore"):
        for source in (s, word_levels(s, 0, 4)):
            probe = boundedness_probe(source, 4)
            assert np.isnan(probe.max_norm_per_depth[-1])
            assert probe.verdict == "growth-detected"
            assert probe.growth_fit is None


def test_word_walk_svds_only_the_screened_products(monkeypatch):
    seen = []
    batch_norm2 = mjlslab.products._batch_norm2

    def counted(arr):
        seen.append(arr.shape[0])
        return batch_norm2(arr)

    monkeypatch.setattr(mjlslab.products, "_batch_norm2", counted)
    mats = np.random.default_rng(0).normal(size=(3, 3, 3))
    walk = word_levels(MatrixSet.from_list(mats), 0, 8)
    assert len(seen) == 8
    assert sum(seen) < sum(3**n for n in range(1, 9))
    assert _bits(walk.norms) == _bits(oracle_level_norm_maxima(list(mats), 8))


def _rho_max_bits(walk):
    """Each level's rho maximum and its word, the value as float64 bytes."""
    return _bits([level[2:] for level in walk.rho])


def _assert_rho_max_matches_oracle(mats, depth, chunk):
    """The max-only walk, with first chunk `chunk`, gives the full walk's and the
    oracle's rho maxima bit for bit, or the same EigenSolverError."""
    s = MatrixSet.from_list(mats)
    try:
        full = word_levels(s, depth, 0)
    except EigenSolverError as exc:
        with mock.patch.object(mjlslab.products, "_RHO_CHUNK", chunk):
            with pytest.raises(EigenSolverError) as screened_exc:
                word_levels(s, depth, 0, minima=False)
        assert str(screened_exc.value) == str(exc)
        return
    with mock.patch.object(mjlslab.products, "_RHO_CHUNK", chunk):
        screened = word_levels(s, depth, 0, minima=False)
    assert [level[:2] for level in screened.rho] == [(None, None)] * depth
    assert _rho_max_bits(screened) == _rho_max_bits(full)
    _, _, value, word, _, _ = rho_extremes(screened, depth, minima=False)
    _, _, o_value, o_word = oracle_rho_extremes(list(s.matrices), depth)
    assert (np.float64(value).tobytes(), word) == (np.float64(o_value).tobytes(), o_word)


@st.composite
def rho_families(draw):
    """1 to 3 matrices of size 1 to 3: drawn entries; diagonal ones from a few
    values, whose words tie within and across lengths; or 2 x 2 rotations
    times 1 or 1/2, whose words of one length share a Frobenius norm."""
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["drawn", "diagonal", "rotation"]))
    if kind == "rotation":
        return [
            draw(st.sampled_from([1.0, 0.5])) * rotation(draw(st.floats(0.0, 6.3)))
            for _ in range(k)
        ]
    d = draw(st.integers(1, 3))
    if kind == "diagonal":
        diag = st.lists(st.sampled_from([0.0, 0.25, -0.5, 0.5, 1.0]), min_size=d, max_size=d)
        return [np.diag(draw(diag)) for _ in range(k)]
    row = st.lists(ENTRY, min_size=d, max_size=d)
    return draw(st.lists(st.lists(row, min_size=d, max_size=d), min_size=k, max_size=k))


@given(rho_families(), st.integers(1, 5), st.sampled_from([1, 2, 5, 64]))
def test_screened_rho_maxima_equal_the_oracle(mats, depth, chunk):
    _assert_rho_max_matches_oracle(mats, depth, chunk)


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize(
    "mats, depth",
    [
        pytest.param([np.diag([0.5, 0.25]), np.diag([0.25, 0.5])], 5, id="ties"),
        pytest.param([np.eye(2), np.diag([1.0, 0.5]), -np.eye(2)], 4, id="ties-at-one"),
        pytest.param([rotation(1.0)], 7, id="one-matrix"),
        pytest.param([np.zeros((3, 3))], 3, id="all-zero-levels"),
        pytest.param([np.zeros((2, 2)), BASE[0]], 5, id="zero-generator"),
        pytest.param(NILPOTENT.matrices, 5, id="nilpotent-pair"),
        pytest.param([rotation(1.0), rotation(2.0), rotation(-0.5)], 5, id="rotations"),
        pytest.param(1e-160 * BASE, 3, id="scaled-down"),
        pytest.param(1e150 * BASE, 2, id="scaled-up"),
        pytest.param(1e100 * BASE, 4, id="overflow-to-inf"),
    ],
)
def test_screened_rho_maxima_edge_cases(mats, depth, chunk):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_rho_max_matches_oracle(mats, depth, chunk)


def test_max_only_walk_eigendecomposes_only_the_screened_products(monkeypatch):
    seen = []
    batch_rho = mjlslab.products._batch_rho

    def counted(arr):
        seen.append(arr.shape[0])
        return batch_rho(arr)

    monkeypatch.setattr(mjlslab.products, "_batch_rho", counted)
    # the benchmark's jsr family, whose walk eigendecomposes words to depth 9
    mats = np.random.default_rng([0, 11]).standard_normal((3, 3, 3)) / 2.0
    s = MatrixSet.from_list(mats)
    screened = word_levels(s, 9, 0, minima=False)
    assert sum(seen) < 1000
    seen.clear()
    full = word_levels(s, 9, 0)
    assert sum(seen) == sum(3**n for n in range(1, 10)) == 29523
    assert _rho_max_bits(screened) == _rho_max_bits(full)


def test_a_walk_without_minima_refuses_them():
    walk = word_levels(SWAP_SHRINK, 3, 0, minima=False)
    assert rho_extremes(walk, 3, minima=False)[:2] == (None, None)
    with pytest.raises(ValueError, match="no rho minima"):
        rho_extremes(walk, 3)
    # a walk with minima serves a max-only caller as it is
    full = word_levels(SWAP_SHRINK, 3, 0)
    assert word_levels(full, 3, 0, minima=False) is full


def test_batch_norm2_keeps_inf_and_nan_from_lapack():
    finite = np.random.default_rng(3).standard_normal((4, 3, 3))
    stack = finite.copy()
    stack[1, 0, 2] = np.inf
    stack[3] = -np.inf
    got = mjlslab.products._batch_norm2(stack)
    want = np.linalg.svd(finite, compute_uv=False)[:, 0]
    assert np.isnan(got[[1, 3]]).all()
    assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes()
    stack[2, 1, 1] = np.nan
    with pytest.raises(EigenSolverError, match="singular value iteration"):
        mjlslab.products._batch_norm2(stack)


@st.composite
def walk_families(draw):
    """1 to 3 matrices of size 1 to 4: Gaussian, drawn or integer entries,
    signed permutations (every word ties), a zero generator beside drawn ones,
    or the nilpotent pair; times 1, 1e160 (level 2 overflows) or 1e-160
    (subnormal)."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    kinds = ["normal", "drawn", "integer", "permutation", "zero", "nilpotent"]
    kind = draw(st.sampled_from(kinds))
    if kind == "normal":
        mats = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal((k, d, d))
    elif kind == "nilpotent":
        mats = NILPOTENT.matrices
    elif kind == "permutation":
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)
        mats = [np.diag(draw(signs))[draw(st.permutations(range(d)))] for _ in range(k)]
    else:
        entry = st.integers(-2, 2).map(float) if kind == "integer" else ENTRY
        row = st.lists(entry, min_size=d, max_size=d)
        mats = draw(st.lists(st.lists(row, min_size=d, max_size=d), min_size=k, max_size=k))
        if kind == "zero":
            mats[0] = np.zeros((d, d))
    return draw(st.sampled_from([1.0, 1.0, 1.0, 1e160, 1e-160])) * np.asarray(mats, dtype=float)


def _one_nan(norms):
    """Levels with NaN maxima made equal: a matrix with an inf entry gets +NaN
    from the walk and -NaN from LAPACK, and reports write both as nan."""
    # the walk claims its maxima bit for bit only where they are finite; a
    # level holding an inf product reports NaN, and which NaN is not part of
    # the claim, so the walk does not copy LAPACK's sign bit
    return [(np.nan if np.isnan(val) else val, word) for val, word in norms]


@settings(max_examples=150)
@given(walk_families(), st.integers(0, 4), st.integers(0, 8), st.booleans(), st.data())
def test_pruned_walk_equals_the_oracles(mats, rho_depth, norm_depth, minima, data):
    """The walk that extends only the rows that can reach a deeper maximum has
    the norm maxima, their words, the rho extremes and the depth reached of
    every word, bit for bit, also when the budget stops it partway."""
    walk_depth = max(rho_depth, norm_depth)
    assume(walk_depth >= 1)
    k = len(mats)
    sizes = np.cumsum([k**n for n in range(1, walk_depth + 1)])
    partway = st.integers(k, int(sizes[-1]))
    budget = data.draw(st.one_of(st.just(mjlslab.products.ENUM_BUDGET), partway))
    reached = int(np.searchsorted(sizes, budget, side="right"))
    norm_levels, rho_levels = min(reached, norm_depth), min(reached, rho_depth)
    s = MatrixSet.from_list(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            norms = oracle_level_norm_maxima(list(s.matrices), norm_levels)
            rho = oracle_rho_extremes(list(s.matrices), rho_levels) if rho_levels else None
        except np.linalg.LinAlgError:
            with pytest.raises(EigenSolverError):
                word_levels(s, rho_depth, norm_depth, budget, minima)
            return
        walk = word_levels(s, rho_depth, norm_depth, budget, minima)
    assert walk.completed == reached
    assert _bits(_one_nan(walk.norms)) == _bits(_one_nan(norms))
    if rho is None:
        return
    lo, lo_word, hi, hi_word, _, _ = rho_extremes(walk, rho_levels, minima=minima)
    assert _bits([(hi, hi_word)]) == _bits([rho[2:]])
    if minima:
        assert _bits([(lo, lo_word)]) == _bits([rho[:2]])


def test_jsr_walk_builds_only_the_prefixes_that_can_reach_a_deeper_maximum(monkeypatch):
    seen = []
    level_products = mjlslab.products._level_products

    def counted(s, max_depth, budget, **kwargs):
        for depth, arr in level_products(s, max_depth, budget, **kwargs):
            seen.append(arr.shape[0])
            yield depth, arr

    # the benchmark's jsr family: rho maxima to depth 9, norm maxima to 11
    mats = np.random.default_rng([0, 11]).standard_normal((3, 3, 3)) / 2.0
    s = MatrixSet.from_list(mats)
    monkeypatch.setattr(mjlslab.products, "_level_products", counted)
    pruned = word_levels(s, 9, 11, minima=False)
    assert seen[:9] == [3**n for n in range(1, 10)]  # the rho levels are whole
    assert sum(seen) < 40_000
    seen.clear()
    monkeypatch.setattr(mjlslab.products, "_extended_rows", lambda *args: None)
    full = word_levels(s, 9, 11, minima=False)
    assert sum(seen) == 265_719
    assert pruned.completed == full.completed == 11
    assert _bits(pruned.norms) == _bits(full.norms)
    assert _rho_max_bits(pruned) == _rho_max_bits(full)
