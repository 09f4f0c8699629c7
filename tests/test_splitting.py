"""Cocycle products, limit points, idempotents, and the induced splitting."""

import numpy as np
import pytest

from mjlslab import (
    AmbiguousRankError,
    IdempotentNotFoundError,
    MarkovChain,
    MatrixSet,
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
    sample_trajectory,
    sequence_split,
    split_from_idempotent,
    tail_slope,
    uniform_decay_on_subspace,
    vector_log_norm_history,
    vector_lyapunov_exponent,
    verify_splitting,
)
from oracles import oracle_log_norm_history, oracle_word_product, rotation

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
        numeric = sequence_split(fam, seq, cylinder_len=1, horizon=2048)
        exact = periodic_split(fam, (1,))
        assert grassmann_distance(numeric.center, exact.center) <= 1e-6
        assert grassmann_distance(numeric.stable, exact.stable) <= 1e-6
        assert numeric.defect <= 1e-6


def test_sequence_split_quadratic_gap():
    seq = SwitchingSequence.quadratic_gap(4, zero_symbol=1, one_symbol=2)
    fam = MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])])
    split = sequence_split(fam, seq, cylinder_len=1, horizon=255)
    assert np.allclose(split.idempotent, np.diag([0.0, 1.0]), atol=1e-12)
    assert split.center.contains([0.0, 1.0])
    assert split.stable.contains([1.0, 0.0])


def test_vector_lyapunov_exponent_frozen():
    seq = SwitchingSequence.periodic([1])
    est = vector_lyapunov_exponent(SHRINK, seq, [1.0, 0.0], horizon=400)
    assert est.value == pytest.approx(np.log(0.5), abs=1e-12)
    assert est.tail_fit == pytest.approx(np.log(0.5), abs=1e-9)
    assert not est.underflow
    est = vector_lyapunov_exponent(SHRINK, seq, [0.0, 1.0], horizon=400)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_verify_splitting_evidence_quality():
    seq = SwitchingSequence.periodic([1])
    split = periodic_split(HALF_SHEAR, (1,))
    ev = verify_splitting(HALF_SHEAR, seq, split, horizon=2048)
    assert ev.return_count == 2047
    assert ev.stable_tail_fits.max() <= np.log(0.5) + 1e-6
    assert ev.center_return_deviation_final.max() <= 1e-9
    assert ev.off_stable_min_norms.min() > 0.05


def test_uniform_decay_on_stable_subspace():
    seq = SwitchingSequence.periodic([1])
    split = periodic_split(SHRINK, (1,))
    rep = uniform_decay_on_subspace(SHRINK, seq, split.stable, horizon=60)
    assert rep.bound_holds
    assert rep.restriction_norm_final == pytest.approx(0.5**60, rel=1e-9)
    assert rep.beta_hat == pytest.approx(1.0)
    with pytest.raises(ValueError):
        uniform_decay_on_subspace(SHRINK, seq, Subspace.zero(2), horizon=10)
