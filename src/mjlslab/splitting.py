"""Stable/central splittings along recurrent switching sequences.

For a product-bounded family driven by a recurrent sequence, the cocycle
products taken at the return times of an initial cylinder accumulate on a
compact set that is closed under multiplication, and such a set contains an
idempotent P. The kernel of x -> x P collects the directions that decay along
the trajectory and its range collects the directions that keep returning to
themselves; this module finds P numerically from the observed products,
extracts the two subspaces, cross-checks against the exact eigenvalue-band
construction available for periodic sequences, and measures the decay claims
directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    AmbiguousRankError,
    Subspace,
    as_matrix,
    idempotency_defect,
    induced_norm2,
    spectral_split,
)
from .products import MatrixSet, word_product
from .rng import unit_vectors
from .sequences import SwitchingSequence, return_times

CLUSTER_TOL = 1e-4
IDEM_TOL = 1e-6
RANK_TOL = 1e-8
RENORM_EVERY = 50
MAX_SQUARINGS = 20
_POOL_CAP = 1024


class IdempotentNotFoundError(RuntimeError):
    """No candidate reached the idempotency tolerance.

    Carries the best candidate and its defect so callers can report it
    instead of fabricating a split from a non-projection.
    """

    def __init__(self, best: np.ndarray, defect: float):
        super().__init__(
            f"no idempotent within tolerance; best candidate has defect {defect:.3g}"
        )
        self.best = best
        self.defect = defect


def _indices(symbols: np.ndarray, num_matrices: int) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and (symbols.min() < 1 or symbols.max() > num_matrices):
        raise ValueError(
            f"sequence symbols must lie in 1..{num_matrices} to drive this family"
        )
    return symbols - 1


def cocycle_products_at(s: MatrixSet, symbols: np.ndarray, times) -> np.ndarray:
    """Products A(n) = S_{i_1} ... S_{i_n} snapshotted at the given times."""
    idx = _indices(symbols, s.num_matrices)
    times = np.asarray(times, dtype=np.int64)
    if times.size and (times.min() < 1 or times.max() > idx.size):
        raise ValueError("snapshot times outside the available prefix")
    order = np.argsort(times, kind="stable")
    out = np.empty((times.size, s.dim, s.dim))
    a = np.eye(s.dim)
    n = 0
    for pos in order:
        target = int(times[pos])
        while n < target:
            a = a @ s.matrices[idx[n]]
            n += 1
        out[pos] = a
    return out


def log_norm_histories(s: MatrixSet, paths, start=None) -> np.ndarray:
    """Log-norm histories of the cocycle along each row of `paths`.

    paths has shape (rows, n) and holds 1-indexed symbols. With start, a
    (rows, d) stack of row vectors, entry [r, t] is log ||start[r] A_r(t+1)||
    in the Euclidean norm; without it the products themselves are tracked
    from the identity and the entry is log ||A_r(t+1)||_2. The running state
    is renormalized every RENORM_EVERY steps against under- and overflow. An
    exactly zero product sends the rest of its row to -inf. Returns an array
    of shape (rows, n).
    """
    idx = _indices(paths, s.num_matrices)
    if idx.ndim != 2:
        raise ValueError(f"paths must have shape (rows, n), got {idx.shape}")
    rows, horizon = idx.shape
    if start is None:
        state = np.tile(np.eye(s.dim), (rows, 1, 1))
    else:
        state = np.array(start, dtype=float)
        if state.shape != (rows, s.dim):
            raise ValueError(
                f"start must hold {rows} rows of length {s.dim}, "
                f"got shape {state.shape}"
            )
        if not np.all(np.isfinite(state)):
            raise ValueError("start vector entries must be finite")
    scale = (-1,) + (1,) * (state.ndim - 1)
    hist = np.full((rows, horizon), -np.inf)
    acc = np.zeros(rows)
    alive = np.ones(rows, dtype=bool)
    for n in range(horizon):
        sym = idx[:, n]
        for k in range(s.num_matrices):
            sel = alive & (sym == k)
            if sel.any():
                state[sel] = state[sel] @ s.matrices[k]
        if start is None:
            nrm = np.linalg.svd(state, compute_uv=False)[:, 0]
        else:
            nrm = np.linalg.norm(state, axis=1)
        alive &= nrm > 0.0
        hist[alive, n] = acc[alive] + np.log(nrm[alive])
        if (n + 1) % RENORM_EVERY == 0:
            if not alive.any():
                break  # every row has hit an exact zero product
            acc[alive] += np.log(nrm[alive])
            state[alive] /= nrm[alive].reshape(scale)
    return hist


def vector_log_norm_history(s: MatrixSet, symbols: np.ndarray, x) -> np.ndarray:
    """log ||x A(n)|| for n = 1..len(symbols), renormalized against underflow.

    x is one row vector of length d (returns shape (n,)) or a (m, d) stack of
    rows driven by the same symbols (returns shape (m, n)). An exactly zero
    product sends the rest of the history to -inf.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    paths = np.broadcast_to(symbols, (len(xs), len(symbols)))
    hist = log_norm_histories(s, paths, xs)
    return hist[0] if np.ndim(x) == 1 else hist


def matrix_log_norm_history(s: MatrixSet, symbols: np.ndarray) -> np.ndarray:
    """log ||A(n)||_2 for n = 1..len(symbols), shape (n,); see log_norm_histories."""
    return log_norm_histories(s, np.asarray(symbols)[None])[0]


def tail_slope(log_norms: np.ndarray) -> float | np.ndarray:
    """Least-squares slope of log-norm against n over the trailing half.

    log_norms is one history of shape (n,) (returns a float) or a stack of
    shape (rows, n) (returns one slope per row). A row with an exact zero
    (log -inf) inside the window gets slope -inf.
    """
    hist = np.asarray(log_norms, dtype=float)
    n = hist.shape[-1]
    if n < 2:
        raise ValueError("need at least two history points for a slope")
    start = min(n - 2, n // 2)
    ys = np.atleast_2d(hist)[:, start:]
    ns = np.arange(start + 1, n + 1, dtype=float)
    ns -= ns.mean()
    denom = float((ns * ns).sum())
    bad = np.isneginf(ys).any(axis=1)
    safe = np.where(np.isneginf(ys), 0.0, ys)
    slopes = ((safe - safe.mean(axis=1, keepdims=True)) * ns).sum(axis=1) / denom
    slopes[bad] = -np.inf
    return float(slopes[0]) if hist.ndim == 1 else slopes


@dataclass
class LimitPointSet:
    """Cocycle products at return times plus their cluster representatives.

    Clustering is first-come in return-time order with threshold cluster_tol
    in the induced 2-norm, so representatives are deterministic.
    """

    cylinder_len: int
    horizon: int
    cluster_tol: float
    return_times: np.ndarray
    products: np.ndarray
    cluster_reps: np.ndarray


def limit_points(
    s: MatrixSet,
    seq: SwitchingSequence,
    cylinder_len: int,
    horizon: int,
    cluster_tol: float = CLUSTER_TOL,
) -> LimitPointSet:
    rt = return_times(seq, cylinder_len, horizon)
    symbols = seq.prefix(horizon)
    if rt.times.size == 0:
        warnings.warn(
            "no return times inside the horizon; the limit point set is empty",
            stacklevel=2,
        )
        empty = np.empty((0, s.dim, s.dim))
        return LimitPointSet(
            cylinder_len, horizon, cluster_tol, rt.times, empty, empty.copy()
        )
    products = cocycle_products_at(s, symbols, rt.times)
    reps: list[np.ndarray] = []
    for a in products:
        if all(induced_norm2(a - r) > cluster_tol for r in reps):
            reps.append(a)
    return LimitPointSet(
        cylinder_len=cylinder_len,
        horizon=horizon,
        cluster_tol=cluster_tol,
        return_times=rt.times,
        products=products,
        cluster_reps=np.stack(reps),
    )


def find_idempotent(
    lps: LimitPointSet,
    idem_tol: float = IDEM_TOL,
    closure_rounds: int = 3,
) -> np.ndarray:
    """Best idempotent in the multiplicative closure of the limit points.

    The representatives are closed under pairwise products for a few rounds
    (new members recognized up to cluster_tol, pool capped at 1024), then
    repeated squares B, B^2, B^4, ... B^(2^20) of every member join the
    candidate list. The candidate with the smallest ||P^2 - P|| wins; if even
    that defect is above idem_tol, IdempotentNotFoundError carries it out.
    """
    if lps.cluster_reps.shape[0] == 0:
        raise IdempotentNotFoundError(np.eye(1) * np.nan, np.inf)
    pool: list[np.ndarray] = [a.copy() for a in lps.cluster_reps]
    for _ in range(closure_rounds):
        if len(pool) >= _POOL_CAP:
            break
        current = list(pool)
        for a in current:
            for b in current:
                for prod in (a @ b, b @ a):
                    if all(
                        induced_norm2(prod - r) > lps.cluster_tol for r in pool
                    ):
                        pool.append(prod)
                        if len(pool) >= _POOL_CAP:
                            break
                if len(pool) >= _POOL_CAP:
                    break
            if len(pool) >= _POOL_CAP:
                break

    candidates: list[np.ndarray] = list(pool)
    for a in pool:
        b = a.copy()
        for _ in range(MAX_SQUARINGS):
            b = b @ b
            if not np.all(np.isfinite(b)):
                break
            candidates.append(b)

    best = None
    best_defect = np.inf
    for cand in candidates:
        defect = idempotency_defect(cand)
        if defect < best_defect:
            best = cand
            best_defect = defect
    if best is None or best_defect > idem_tol:
        raise IdempotentNotFoundError(best, best_defect)
    return best.copy()


@dataclass
class Splitting:
    """Stable/central decomposition extracted from an idempotent.

    stable is the kernel of x -> x P and center is its range; the two always
    intersect trivially and their dimensions add up to the ambient dimension.
    source records which construction produced it ("semigroup-numeric" from
    observed products, "periodic-exact" from an eigenvalue-band split of the
    period matrix). A periodic system with spectral radius above 1 gets the
    expanding directions reported separately in `unstable`.
    """

    idempotent: np.ndarray
    defect: float
    stable: Subspace
    center: Subspace
    source: str
    unstable: Subspace | None = None


def _check_splitting(split: Splitting, tol: float = 1e-6) -> None:
    p = split.idempotent
    for row in split.center.basis:
        if float(np.linalg.norm(row @ p - row)) > tol:
            raise ValueError("center basis vector not fixed by the idempotent")
    for row in split.stable.basis:
        if float(np.linalg.norm(row @ p)) > tol:
            raise ValueError("stable basis vector not annihilated by the idempotent")
    if split.stable.dim + split.center.dim + (
        split.unstable.dim if split.unstable is not None else 0
    ) != split.stable.ambient_dim:
        raise ValueError("split dimensions do not add up")


def split_from_idempotent(
    p,
    rank_tol: float = RANK_TOL,
    idem_tol: float = IDEM_TOL,
    source: str = "semigroup-numeric",
) -> Splitting:
    """Kernel/range split of the left action of an (almost) idempotent.

    The SVD of p separates the range of x -> x p (row space, the central
    directions) from its kernel (left null space, the decaying directions).
    Singular values within a factor of 10 of rank_tol make the rank call
    ambiguous and raise AmbiguousRankError; a defect above idem_tol is
    rejected since the input is then not close enough to a projection.
    """
    p = as_matrix(p)
    defect = idempotency_defect(p)
    if defect > idem_tol:
        raise ValueError(
            f"idempotency defect {defect:.3g} above tolerance {idem_tol:.3g}"
        )
    u, sv, vh = np.linalg.svd(p)
    straddling = (sv > rank_tol / 10.0) & (sv < rank_tol * 10.0)
    if straddling.any():
        raise AmbiguousRankError(
            f"singular value {sv[straddling][0]:.3g} within a factor 10 of the "
            f"rank threshold {rank_tol:.3g}"
        )
    rank = int(np.sum(sv > rank_tol))
    d = p.shape[0]
    split = Splitting(
        idempotent=p,
        defect=defect,
        stable=Subspace(d, u[:, rank:].T.copy()),
        center=Subspace(d, vh[:rank].copy()),
        source=source,
    )
    _check_splitting(split)
    return split


def periodic_split(s: MatrixSet, word, band_tol: float = 1e-6) -> Splitting:
    """Exact splitting for the periodic sequence repeating `word`.

    The period matrix is split into eigenvalue-modulus bands; the idempotent
    is the projection onto the center band along the other two. Expanding
    directions (modulus above 1 + band_tol) do not occur for product-bounded
    families, but when present they are returned in `unstable` rather than
    silently merged.
    """
    m = word_product(s, word)
    bands = spectral_split(m, band_tol)
    d = s.dim
    c = bands.center.dim
    if c == d:
        proj = np.eye(d)
    elif c == 0:
        proj = np.zeros((d, d))
    else:
        t = np.hstack(
            [bands.center.basis.T, bands.stable.basis.T, bands.unstable.basis.T]
        )
        selector = np.zeros((d, d))
        selector[:c, :c] = np.eye(c)
        proj = (t @ selector @ np.linalg.inv(t)).T
    split = Splitting(
        idempotent=proj,
        defect=idempotency_defect(proj),
        stable=bands.stable,
        center=bands.center,
        source="periodic-exact",
        unstable=bands.unstable if bands.unstable.dim else None,
    )
    _check_splitting(split)
    return split


def sequence_split(
    s: MatrixSet,
    seq: SwitchingSequence,
    cylinder_len: int,
    horizon: int,
    cluster_tol: float = CLUSTER_TOL,
    idem_tol: float = IDEM_TOL,
    rank_tol: float = RANK_TOL,
    closure_rounds: int = 3,
) -> Splitting:
    """Numeric splitting from the limit points of one switching sequence."""
    lps = limit_points(s, seq, cylinder_len, horizon, cluster_tol)
    p = find_idempotent(lps, idem_tol, closure_rounds)
    return split_from_idempotent(p, rank_tol, idem_tol, source="semigroup-numeric")


@dataclass
class LyapunovEstimate:
    """Time-average exponent of one vector along one switching sequence.

    value is log ||x A(horizon)|| / horizon; tail_fit is the least-squares
    slope of the log-norm history over its trailing half. A product that
    kills the vector exactly gives -inf in both and sets underflow.
    """

    horizon: int
    value: float
    tail_fit: float
    final_log_norm: float
    underflow: bool


def vector_lyapunov_exponent(
    s: MatrixSet, seq: SwitchingSequence, x, horizon: int
) -> LyapunovEstimate:
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    hist = vector_log_norm_history(s, seq.prefix(horizon), x)
    return LyapunovEstimate(
        horizon=horizon,
        value=float(hist[-1] / horizon),
        tail_fit=tail_slope(hist),
        final_log_norm=float(hist[-1]),
        underflow=bool(np.isneginf(hist).any()),
    )


_MAX_NORM_CHECKPOINTS = 64


def _checkpoint(times: np.ndarray, cap: int = _MAX_NORM_CHECKPOINTS) -> np.ndarray:
    if times.size <= cap:
        return times
    picks = np.linspace(0, times.size - 1, cap).round().astype(int)
    return times[np.unique(picks)]


@dataclass
class SplittingEvidence:
    """Desk-scale measurements backing a claimed splitting.

    Stable basis vectors should decay: their norms at the last return time
    and the tail fit of their log-norm histories are recorded. Center basis
    vectors should be recovered at return times (distance ||x A(n_k) - x||)
    and should preserve the truncated sup-norm. identity_return_min is
    min_k ||A(n_k) - I||, which is small whenever the whole space is central.
    Random off-stable samples record min_n ||x A(n)|| as evidence that decay
    is confined to the stable part.
    """

    horizon: int
    cylinder_len: int
    preextremal_depth: int
    return_count: int
    stable_initial_norms: np.ndarray
    stable_final_norms: np.ndarray
    stable_tail_fits: np.ndarray
    center_return_deviation_min: np.ndarray
    center_return_deviation_final: np.ndarray
    center_preextremal_deviation_max: np.ndarray
    identity_return_min: float
    off_stable_min_norms: np.ndarray


def verify_splitting(
    s: MatrixSet,
    seq: SwitchingSequence,
    split: Splitting,
    horizon: int,
    cylinder_len: int = 1,
    preextremal_depth: int = 6,
    samples: int = 10,
    seed: int = 0,
) -> SplittingEvidence:
    """Measure the decay/recurrence claims of a splitting along the sequence.

    Pre-extremal deviations are evaluated at up to 64 return times to keep the
    cost of the word enumeration bounded; changing preextremal_depth changes
    the measured numbers but never the subspaces, which are fixed inputs here.
    """
    from .products import preextremal_norm  # local import to avoid cycle at load

    symbols = seq.prefix(horizon)
    rt = return_times(seq, cylinder_len, horizon)
    snap_times = _checkpoint(rt.times)
    snaps = cocycle_products_at(s, symbols, snap_times)

    d = s.dim
    eye = np.eye(d)
    identity_return_min = (
        float(min(induced_norm2(a - eye) for a in snaps)) if snaps.size else np.inf
    )

    stable_hist = vector_log_norm_history(s, symbols, split.stable.basis)
    last = int(rt.times[-1]) - 1 if rt.times.size else -1

    center_dev_min = []
    center_dev_final = []
    center_pre_dev = []
    for row in split.center.basis:
        if snaps.size:
            dev = np.array([float(np.linalg.norm(row @ a - row)) for a in snaps])
            center_dev_min.append(float(dev.min()))
            center_dev_final.append(float(dev[-1]))
            base = preextremal_norm(s, row, preextremal_depth)
            pre = np.array(
                [
                    abs(preextremal_norm(s, row @ a, preextremal_depth) - base)
                    for a in snaps
                ]
            )
            center_pre_dev.append(float(pre.max()))
        else:
            center_dev_min.append(np.inf)
            center_dev_final.append(np.inf)
            center_pre_dev.append(np.inf)

    offs = []
    for x in unit_vectors(d, samples, seed, stream_offset=1):
        off = x - split.stable.project(x)
        nrm = float(np.linalg.norm(off))
        if nrm >= 1e-9:  # a sample inside the stable part is skipped
            offs.append(off / nrm)
    off_hist = vector_log_norm_history(s, symbols, np.reshape(offs, (-1, d)))

    return SplittingEvidence(
        horizon=horizon,
        cylinder_len=cylinder_len,
        preextremal_depth=preextremal_depth,
        return_count=int(rt.times.size),
        stable_initial_norms=np.ones(split.stable.dim),
        stable_final_norms=np.exp(stable_hist[:, last]),
        stable_tail_fits=tail_slope(stable_hist),
        center_return_deviation_min=np.array(center_dev_min),
        center_return_deviation_final=np.array(center_dev_final),
        center_preextremal_deviation_max=np.array(center_pre_dev),
        identity_return_min=identity_return_min,
        off_stable_min_norms=np.exp(off_hist.min(axis=1)),
    )


@dataclass
class UniformDecayReport:
    """Restriction norms versus per-vector minima on one subspace.

    If every unit vector of the subspace dips below delta somewhere inside
    the horizon, the norm of the restricted product is at most delta times
    the square of the trajectory bound beta. The report records the measured
    analogue: restriction_norm_final against beta^2 times the largest
    per-sample minimum.
    """

    horizon: int
    samples: int
    beta_hat: float
    per_sample_min: np.ndarray
    max_sample_min: float
    restriction_norm_final: float
    restriction_norm_min: float
    bound_holds: bool


def uniform_decay_on_subspace(
    s: MatrixSet,
    seq: SwitchingSequence,
    sub: Subspace,
    horizon: int,
    samples: int = 20,
    seed: int = 0,
) -> UniformDecayReport:
    if sub.dim == 0:
        raise ValueError("need a nonzero subspace")
    idx = _indices(seq.prefix(horizon), s.num_matrices)

    coeff = unit_vectors(sub.dim, samples, seed, stream_offset=2)
    vecs = coeff @ sub.basis
    sample_min = np.full(samples, np.inf)

    a = np.eye(s.dim)
    beta = 0.0
    restr_final = np.nan
    restr_min = np.inf
    for k in idx:
        a = a @ s.matrices[k]
        beta = max(beta, induced_norm2(a))
        vecs = vecs @ s.matrices[k]
        sample_min = np.minimum(sample_min, np.linalg.norm(vecs, axis=1))
        restr = float(np.linalg.svd(sub.basis @ a, compute_uv=False)[0])
        restr_min = min(restr_min, restr)
        restr_final = restr
    max_sample_min = float(sample_min.max())
    return UniformDecayReport(
        horizon=horizon,
        samples=samples,
        beta_hat=beta,
        per_sample_min=sample_min,
        max_sample_min=max_sample_min,
        restriction_norm_final=restr_final,
        restriction_norm_min=restr_min,
        bound_holds=bool(restr_final <= beta * beta * max_sample_min + 1e-12),
    )
