"""Dense linear algebra: norms, splits, subspace metric."""

import numpy as np
import pytest

from mjlslab import (
    AmbiguousSplitError,
    Subspace,
    grassmann_distance,
    idempotency_defect,
    induced_norm2,
    spectral_split,
)
from oracles import oracle_grassmann_sampled, oracle_norm2, rotation

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_induced_norm2_shear_is_golden_ratio():
    # largest singular value of [[1,0],[1,1]] solves s^4 - 3 s^2 + 1 = 0
    assert induced_norm2([[1.0, 0.0], [1.0, 1.0]]) == pytest.approx(GOLDEN, abs=1e-14)


def test_induced_norm2_matches_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        assert induced_norm2(a) == pytest.approx(oracle_norm2(a), abs=1e-12)


def test_matrix_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        induced_norm2(np.ones((2, 3)))
    with pytest.raises(ValueError):
        induced_norm2([[np.nan, 0.0], [0.0, 1.0]])


def test_idempotency_defect():
    assert idempotency_defect(np.diag([1.0, 0.0, 1.0])) == 0.0
    # a*a - a = -0.25 I for a = 0.5 I
    assert idempotency_defect(0.5 * np.eye(2)) == pytest.approx(0.25, abs=1e-15)


def test_subspace_from_rows_orthonormalizes_and_drops_dependent_rows():
    sub = Subspace.from_rows([[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    assert sub.dim == 2
    gram = sub.basis @ sub.basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert sub.contains([1.0, 0.0, 2.0])
    assert not sub.contains([0.0, 1.0, 0.0])


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0]]))


def test_projection_is_orthogonal():
    rng = np.random.default_rng(1)
    sub = Subspace.from_rows(rng.standard_normal((2, 5)))
    x = rng.standard_normal(5)
    proj = sub.project(x)
    assert np.allclose(sub.basis @ (x - proj), 0.0, atol=1e-12)
    assert np.allclose(sub.project(proj), proj, atol=1e-12)


def test_grassmann_distance_frozen_values():
    e1 = Subspace.from_rows([1.0, 0.0])
    e2 = Subspace.from_rows([0.0, 1.0])
    diag = Subspace.from_rows([1.0, 1.0])
    assert grassmann_distance(e1, e1) == 0.0
    assert grassmann_distance(e1, e2) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    # angle pi/4: sqrt(2 - 2 cos(pi/4)) = sqrt(2 - sqrt(2))
    assert grassmann_distance(e1, diag) == pytest.approx(
        np.sqrt(2.0 - np.sqrt(2.0)), abs=1e-12
    )


def test_grassmann_distance_different_dims_is_sqrt2():
    line = Subspace.from_rows([1.0, 0.0, 0.0])
    plane = Subspace.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert grassmann_distance(line, plane) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_grassmann_distance_matches_sphere_sampling_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = Subspace.from_rows(rng.standard_normal((1, 3)))
        w = Subspace.from_rows(rng.standard_normal((1, 3)))
        got = grassmann_distance(v, w)
        ref = oracle_grassmann_sampled(v.basis, w.basis, samples=2000)
        assert got == pytest.approx(ref, abs=5e-3)
    for _ in range(5):
        v = Subspace.from_rows(rng.standard_normal((2, 4)))
        w = Subspace.from_rows(rng.standard_normal((2, 4)))
        got = grassmann_distance(v, w)
        ref = oracle_grassmann_sampled(v.basis, w.basis, samples=1500)
        assert got == pytest.approx(ref, abs=5e-3)


def test_grassmann_zero_subspace_conventions():
    z = Subspace.zero(2)
    e1 = Subspace.from_rows([1.0, 0.0])
    assert grassmann_distance(z, z) == 0.0
    with pytest.warns(UserWarning):
        assert grassmann_distance(z, e1) == pytest.approx(np.sqrt(2.0))


def test_spectral_split_half_shear():
    # left eigenvector for 1/2 is (1,-2)/sqrt(5), for 1 it is (0,1)
    split = spectral_split([[0.5, 1.0], [0.0, 1.0]])
    assert split.stable.dim == 1 and split.center.dim == 1
    assert split.unstable.dim == 0
    v = split.stable.basis[0]
    ref = np.array([1.0, -2.0]) / np.sqrt(5.0)
    assert min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)) < 1e-12
    c = split.center.basis[0]
    assert min(np.linalg.norm(c - [0, 1]), np.linalg.norm(c + [0, 1])) < 1e-12


def test_spectral_split_rotation_is_all_center():
    split = spectral_split(rotation(np.pi / 6))
    assert split.center.dim == 2
    assert split.stable.dim == 0 and split.unstable.dim == 0
    assert np.allclose(split.eigenvalue_moduli, 1.0, atol=1e-14)


def test_spectral_split_three_bands():
    a = np.diag([0.5, 1.0, 2.0])
    split = spectral_split(a)
    assert split.stable.dim == split.center.dim == split.unstable.dim == 1
    assert split.stable.contains([1.0, 0.0, 0.0])
    assert split.center.contains([0.0, 1.0, 0.0])
    assert split.unstable.contains([0.0, 0.0, 1.0])


def test_spectral_split_invariance_property():
    # basis rows of each part stay inside the part under x -> x a
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) * 0.8
        try:
            split = spectral_split(a)
        except AmbiguousSplitError:
            continue
        for sub in (split.stable, split.center, split.unstable):
            for row in sub.basis:
                assert sub.contains(row @ a, tol=1e-7) or np.linalg.norm(row @ a) < 1e-12
        assert split.stable.dim + split.center.dim + split.unstable.dim == 4


def test_spectral_split_rejects_boundary_eigenvalue():
    with pytest.raises(AmbiguousSplitError):
        spectral_split(np.diag([1.0 - 1e-6, 0.1]))
