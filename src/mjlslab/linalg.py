"""Dense linear algebra for row-vector dynamics.

The whole package uses the row convention: vectors multiply matrices from the
left, x -> x A, so "invariant subspace" always means left-invariant. This
module provides operator norms, spectral radii, eigenvalue-band splits into
invariant subspaces, and a metric between subspaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-8
BAND_TOL = 1e-6
ORTHO_TOL = 1e-10
# relative margin, per dimension, that keeps a Frobenius-norm screen of the
# 2-norm exact against the rounding of the sum of squares and of the SVD
FRO_MARGIN = 1e-12

SQRT2 = float(np.sqrt(2.0))


class EigenSolverError(RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


class AmbiguousSplitError(ValueError):
    """An eigenvalue modulus sits too close to a band boundary to classify."""


class AmbiguousRankError(ValueError):
    """Singular values straddle the rank threshold within a factor of ten."""


def as_matrix(a) -> np.ndarray:
    """Validate and return a square float matrix with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_row_vector(x, dim: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def induced_norm2(a) -> float:
    """Operator norm for the Euclidean vector norm: the largest singular value."""
    a = as_matrix(a)
    try:
        return float(np.linalg.norm(a, 2))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - depends on LAPACK
        raise EigenSolverError("singular value iteration did not converge") from exc


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus. Raises EigenSolverError instead of
    returning a silently wrong value when the QR iteration fails."""
    a = as_matrix(a)
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("eigenvalue iteration did not converge") from exc
    return float(np.max(np.abs(ev))) if ev.size else 0.0


def idempotency_defect(a) -> float:
    """||a @ a - a|| in the induced 2-norm; zero exactly for projections."""
    a = as_matrix(a)
    return induced_norm2(a @ a - a)


@dataclass(frozen=True)
class Subspace:
    """Subspace of row vectors, stored as orthonormal basis rows.

    basis has shape (k, ambient_dim) with orthonormal rows; k = 0 encodes the
    zero subspace. Construction checks orthonormality to ORTHO_TOL.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise ValueError(
                f"basis must have shape (k, {self.ambient_dim}), got {b.shape}"
            )
        if b.shape[0] > self.ambient_dim:
            raise ValueError("more basis rows than the ambient dimension")
        if b.shape[0]:
            gram = b @ b.T
            if induced_norm2(gram - np.eye(b.shape[0])) > ORTHO_TOL:
                raise ValueError("basis rows are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @classmethod
    def from_rows(cls, rows, rank_tol: float = RANK_TOL) -> "Subspace":
        """Span of the given rows, orthonormalized by SVD.

        Directions with singular value <= rank_tol (relative to the largest)
        are dropped.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            raise ValueError("from_rows needs at least one row")
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        if sv.size == 0 or sv[0] == 0.0:
            return cls.zero(rows.shape[1])
        rank = int(np.sum(sv > rank_tol * sv[0]))
        return cls(rows.shape[1], vh[:rank])

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of row vector(s) onto the subspace."""
        x = np.asarray(x, dtype=float)
        return (x @ self.basis.T) @ self.basis

    def contains(self, x, tol: float = 1e-8) -> bool:
        x = as_row_vector(x, self.ambient_dim)
        scale = max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(x - self.project(x))) <= tol * scale


def _directed_sphere_distance(vb: np.ndarray, wb: np.ndarray) -> float:
    # sup over unit v in V of the distance to the unit sphere of W; equals
    # sqrt(2 - 2 m) where m is the smallest norm of a projected unit vector.
    p, q = vb.shape[0], wb.shape[0]
    if p > q:
        smallest = 0.0  # some direction of V is orthogonal to all of W
    else:
        sv = np.linalg.svd(vb @ wb.T, compute_uv=False)
        smallest = float(np.clip(sv, 0.0, 1.0)[-1])
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * smallest)))


def principal_angles(v: Subspace, w: Subspace) -> np.ndarray:
    """Principal angles between two nonzero subspaces, ascending."""
    if v.dim == 0 or w.dim == 0:
        raise ValueError("principal angles need nonzero subspaces")
    sv = np.linalg.svd(v.basis @ w.basis.T, compute_uv=False)
    return np.arccos(np.clip(sv, 0.0, 1.0))


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """Hausdorff distance between the unit spheres of two subspaces.

    For equal dimensions this is sqrt(2 - 2 cos(theta_max)) with theta_max the
    largest principal angle; subspaces of different dimension are at distance
    sqrt(2), because some direction of the larger one is orthogonal to the
    whole smaller one. Conventions for degenerate inputs: the zero subspace is
    at distance 0 from itself and sqrt(2) from anything else, and the latter
    case emits a warning so it is never used silently.
    """
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if v.dim == 0 and w.dim == 0:
        return 0.0
    if v.dim == 0 or w.dim == 0:
        warnings.warn(
            "distance between a zero and a nonzero subspace uses the sqrt(2) convention",
            stacklevel=2,
        )
        return SQRT2
    return max(
        _directed_sphere_distance(v.basis, w.basis),
        _directed_sphere_distance(w.basis, v.basis),
    )


@dataclass(frozen=True)
class SpectralSplit:
    """Left-invariant subspaces of a matrix grouped by eigenvalue modulus."""

    stable: Subspace  # |lambda| < 1 - band_tol
    center: Subspace  # ||lambda| - 1| <= band_tol
    unstable: Subspace  # |lambda| > 1 + band_tol
    eigenvalue_moduli: np.ndarray
    band_tol: float


def _left_invariant_subspace(a: np.ndarray, keep) -> Subspace:
    """Left-invariant subspace of `a` for the eigenvalues selected by keep.

    keep receives the eigenvalue modulus. Computed as an ordered real Schur
    basis of the transpose, so the returned basis rows are orthonormal.
    """
    d = a.shape[0]
    if d == 1:
        m = abs(float(a[0, 0]))
        return Subspace.full(1) if keep(m) else Subspace.zero(1)
    import scipy.linalg  # the package's only scipy use, loaded on first need

    try:
        _, z, sdim = scipy.linalg.schur(
            a.T, output="real", sort=lambda re, im: keep(np.hypot(re, im))
        )
    except np.linalg.LinAlgError as exc:  # scipy raises numpy's class
        raise EigenSolverError("Schur iteration did not converge") from exc
    return Subspace(d, z[:, : int(sdim)].T.copy())


def spectral_split(a, band_tol: float = BAND_TOL) -> SpectralSplit:
    """Split row space into stable, center and unstable invariant subspaces.

    Bands are decided by eigenvalue modulus against 1 with tolerance band_tol.
    An eigenvalue within 10 machine epsilons of a band boundary makes the
    split ill-posed and raises AmbiguousSplitError; the three bases always
    stack to a full-rank square matrix, which is verified.
    """
    a = as_matrix(a)
    if band_tol <= 0:
        raise ValueError("band_tol must be positive")
    d = a.shape[0]
    try:
        moduli = np.abs(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("eigenvalue iteration did not converge") from exc
    moduli = np.sort(moduli)[::-1]

    guard = 10.0 * np.finfo(float).eps * max(1.0, float(moduli.max(initial=0.0)))
    for cut in (1.0 - band_tol, 1.0 + band_tol):
        near = np.abs(moduli - cut) <= guard
        if near.any():
            raise AmbiguousSplitError(
                f"eigenvalue modulus {moduli[near][0]:.17g} is within {guard:.3g} "
                f"of the band boundary {cut:.17g}"
            )

    stable = _left_invariant_subspace(a, lambda m: m < 1.0 - band_tol)
    center = _left_invariant_subspace(a, lambda m: abs(m - 1.0) <= band_tol)
    unstable = _left_invariant_subspace(a, lambda m: m > 1.0 + band_tol)

    if stable.dim + center.dim + unstable.dim != d:
        raise AmbiguousSplitError(
            "band dimensions do not add up to the ambient dimension; "
            "eigenvalues are too close to a boundary"
        )
    stacked = np.vstack([stable.basis, center.basis, unstable.basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        raise AmbiguousSplitError("stacked band bases are numerically rank deficient")

    return SpectralSplit(
        stable=stable,
        center=center,
        unstable=unstable,
        eigenvalue_moduli=moduli,
        band_tol=float(band_tol),
    )
