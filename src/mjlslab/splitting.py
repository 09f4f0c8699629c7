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
    BAND_TOL,
    FRO_MARGIN,
    RANK_TOL,
    AmbiguousRankError,
    Subspace,
    as_matrix,
    idempotency_defect,
    spectral_split,
)
from .products import ENUM_BUDGET, MatrixSet, preextremal_norm, word_product
from .rng import unit_vectors
from .sequences import SwitchingSequence, return_times

CLUSTER_TOL = 1e-4
IDEM_TOL = 1e-6
RENORM_EVERY = 50
MAX_SQUARINGS = 20
CLOSURE_ROUNDS = 3
_POOL_CAP = 1024
_NEAR_FLOATS = 2**18  # floats of pairwise differences that _near_many holds at once
# a norm in [_SMALL, _BIG) has its squares in the normal float range
_SMALL, _BIG = 2.0**-511, 2.0**512


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


class ProductOverflowError(ArithmeticError):
    """A product met by the splitting construction is not finite.

    The return-time products, their closure, a candidate's square or the period
    product of a periodic word overflowed, so the products are not bounded and
    no splitting is read off.
    """


class ClosureBudgetWarning(UserWarning):
    """The closure ran out of comparisons; the pool built so far was searched."""


def _symbols(symbols: np.ndarray, num_matrices: int) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and (symbols.min() < 1 or symbols.max() > num_matrices):
        raise ValueError(
            f"sequence symbols must lie in 1..{num_matrices} to drive this family"
        )
    return symbols


def tail_start(n: int) -> int:
    """First step of the trailing window whose log-norms the tail fit reads."""
    if n < 2:
        raise ValueError("need at least two history points for a slope")
    return min(n - 2, n // 2)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) bit for bit, without its loop over the rows.

    numpy adds fewer than 8 squares left to right, so rows that short are
    summed a column at a time over the whole stack; longer rows keep numpy's
    pairwise sum.
    """
    d = x.shape[-1]
    if d >= 8:
        return np.linalg.norm(x, axis=-1)
    total = x[..., 0] * x[..., 0]
    for i in range(1, d):
        total += x[..., i] * x[..., i]
    return np.sqrt(total, out=total)


def _top_singular_values(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., d, d) stack, shape (..., 1).

    At d = 2, sigma_1 of [[a, b], [c, d]] is (hypot(a + d, b - c) +
    hypot(a - d, b + c)) / 2: both terms are nonnegative, so the sum does not
    cancel, and it lies within 2 ulps of its long-double value. A matrix whose
    closed form is not finite (entries near the float range) and every other
    d take LAPACK's SVD, which scales internally.
    """
    if a.shape[-1] != 2:
        return np.linalg.svd(a, compute_uv=False)[..., :1]
    p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        top = 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))
    bad = ~np.isfinite(top)
    if bad.any():
        top[bad] = np.linalg.svd(a[bad], compute_uv=False)[:, 0]
    return top[..., None]


def log_norm_histories(s: MatrixSet, paths, start=None, history: bool = False):
    """Final log-norm and tail fit of the cocycle along each row of `paths`.

    paths has shape (trials, n) and holds 1-indexed symbols. With start, a
    stack of row vectors whose row count is a whole multiple of trials (row r
    follows path r mod trials), h_r(t) is log ||start[r] A_r(t+1)|| in the
    Euclidean norm; without it the products are tracked from the identity and
    h_r(t) is log ||A_r(t+1)||_2. Returns (finals, fits, hist): finals[r] is
    h_r(n-1); fits[r] is the least-squares slope sum_t c_t h_r(t) over the
    window t = tail_start(n)..n-1, c_t = (t - tbar) / sum (t - tbar)**2,
    summed segment by segment, -inf for a row dead at the end and NaN if
    n < 2; hist is the (rows, n) history with history set, else None, and
    norms are then taken only from the window on and at each segment's end.

    The state is one (trials, m, d) block: trial t's start rows (a lone row
    with a zero partner row, so it too takes the matrix-matrix routine), or
    its product. Per segment of k steps the kernel gathers the matrices once,
    writes each step's product into a (k, trials, m, d) buffer and takes the
    kept steps' norms in one call (_row_norms, or _top_singular_values). A
    row's norm and a matrix's sigma_1 do not depend on the rows around them,
    so stacked rows equal single-row calls bit for bit, and the fits do not
    depend on the history. Once per segment the logs are taken and the state
    is renormalized. A zero norm is an exactly zero state, which stays zero:
    the row is -inf from then on.

    A segment is RENORM_EVERY steps, or the most steps k with g**(2 k) finite,
    g the family's largest 2-norm. A family whose g, or with start g**2, is
    past the float range is divided by the power of two 2**j that brings g to
    [2**509, 2**511), in one-step segments, and step n gets n j ln 2 back.
    Before the first step, a start row whose squares could leave the normal
    float range in the first segment (||x||**2 below the smallest normal, or
    (||x|| max(1, g)**k)**2 past the largest float) is divided by the power
    of two 2**e that brings its norm to [1/4, 1); its finals and history get
    e ln 2 back, and its fit is the scaled walk's. A state row whose squares
    sum below the smallest normal (a norm below 2**-511, or a zero read) takes
    the scaled norm top ||x / top||, top its largest entry, so a row dies
    only when its state is exactly zero, with or without the history.
    """
    paths = _symbols(paths, s.num_matrices)  # no copy of an int64 array
    if paths.ndim != 2 or paths.shape[1] < 1:
        raise ValueError(f"paths must have shape (trials, n) with n >= 1, got {paths.shape}")
    trials, horizon = paths.shape
    tail = tail_start(horizon) if horizon > 1 else horizon  # n = 1: no window
    coef = np.arange(tail, horizon) - (tail + horizon - 1) / 2  # t - tbar, exact
    coef /= (coef * coef).sum()
    mats, g = s.matrices, np.linalg.norm(s.matrices, 2, axis=(1, 2)).max()
    step_exp, every = 0, RENORM_EVERY
    with np.errstate(over="ignore"):
        # frexp(inf) has no exponent, and row norms square their entries
        if np.isinf(g) or (start is not None and np.isinf(g * g)):
            top = np.abs(mats).max()
            unit = np.linalg.norm(mats / top, 2, axis=(1, 2)).max()
            step_exp = int(np.frexp(top)[1] + np.frexp(unit)[1]) - 511
            # g now bounds the scaled family's largest 2-norm
            mats, every, g = np.ldexp(mats, -step_exp), 1, 2.0**511
        while every > 1 and np.isinf(g ** (2 * every)):
            every -= 1
    if start is None:
        reps = 1
        state = np.tile(np.eye(s.dim), (trials, 1, 1))
    else:
        xs = np.array(start, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != s.dim:
            raise ValueError(
                f"start must hold rows of length {s.dim}, got shape {xs.shape}"
            )
        if not np.all(np.isfinite(xs)):
            raise ValueError("start vector entries must be finite")
        reps, extra = divmod(len(xs), trials) if trials else (0, len(xs))
        if extra:
            raise ValueError(f"start must hold a multiple of {trials} rows, got {len(xs)}")
        top = np.abs(xs).max(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            unit = np.linalg.norm(xs / top[:, None], axis=1)  # ||x|| = top * unit
            size = top * unit
            moved = (top > 0.0) & ((size < _SMALL) | (size * max(1.0, g) ** every >= _BIG))
        exps = np.where(moved, np.frexp(top)[1] + np.frexp(unit)[1], 0)
        # row r of the stack is row r // trials of trial r % trials's block
        blocks = np.ldexp(xs, -exps[:, None]).reshape(reps, trials, s.dim).transpose(1, 0, 2)
        partner = np.zeros((trials, 1 if reps == 1 else 0, s.dim))
        state = np.concatenate([blocks, partner], axis=1)
    hist = np.full((reps, trials, horizon), -np.inf) if history else None
    finals = np.full((trials, reps), -np.inf)
    fits = np.zeros((trials, reps))
    buf = np.empty((every, *state.shape))
    acc = np.zeros((trials, reps))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, horizon, every):
            hi = min(lo + every, horizon)
            # norms from the window on, and at the segment's last step
            first = lo if history else min(max(lo, tail), hi - 1)
            seg_mats = mats[paths[:, lo:hi].T - 1]
            for j in range(hi - lo):
                state = np.matmul(state, seg_mats[j], out=buf[j])
            kept = buf[first - lo : hi - lo]
            if start is None:
                seg = _top_singular_values(kept)
            else:
                seg = _row_norms(kept[:, :, :reps])
                low = seg < _SMALL  # squares summed below the normal range
                if low.any():
                    rows = kept[:, :, :reps][low]
                    top = np.abs(rows).max(axis=-1)
                    seg[low] = top * _row_norms(rows / np.where(top > 0.0, top, 1.0)[:, None])
            # log 0 = -inf, and a dead row's acc is -inf: it stays dead
            logs = np.log(seg)
            logs += acc
            if history:
                hist[:, :, lo:hi] = logs.transpose(2, 1, 0)
            if hi > tail:  # add c_t h(t) over the window's steps in order
                w = max(first, tail)
                terms = logs[w - first :] * coef[w - tail : hi - tail, None, None]
                fits += np.cumsum(terms, axis=0, out=terms)[-1]
            if hi == horizon:
                finals = logs[-1]
            elif hi - lo == every:
                live = seg[-1] > 0.0
                if not live.any():
                    break  # every row has hit an exact zero product
                acc = logs[-1]
                # into a new array, off the buffer slot the next step writes;
                # a dead row is divided by inf, so it stays zero
                state = state / np.where(live, seg[-1], np.inf)[:, :, None]
    finals, fits = finals.T.reshape(-1), fits.T.reshape(-1)
    if horizon < 2:
        fits[:] = np.nan
    if history:
        hist = hist.reshape(reps * trials, horizon)
    if step_exp:  # the family was divided by 2**step_exp: step n gets n of them back
        unit = step_exp * np.log(2.0)
        finals += horizon * unit
        fits += unit  # sum_t c_t = 0 and sum_t c_t t = 1
        if history:
            hist += np.arange(1, horizon + 1) * unit
    fits[np.isneginf(finals)] = -np.inf
    if start is not None and moved.any():  # a row divided by 2**e gets e ln 2 back
        back = exps[moved] * np.log(2.0)
        finals[moved] += back
        if history:
            hist[moved] += back[:, None]
    return finals, fits, hist


def vector_log_norm_history(s: MatrixSet, symbols: np.ndarray, x) -> np.ndarray:
    """log ||x A(n)|| for n = 1..len(symbols), renormalized against underflow.

    x is one row vector of length d (returns shape (n,)) or a (m, d) stack of
    rows driven by the same symbols (returns shape (m, n)). An exactly zero
    product sends the rest of the history to -inf.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    hist = log_norm_histories(s, np.asarray(symbols)[None], xs, history=True)[2]
    return hist[0] if np.ndim(x) == 1 else hist


def matrix_log_norm_history(s: MatrixSet, symbols: np.ndarray) -> np.ndarray:
    """log ||A(n)||_2 for n = 1..len(symbols), shape (n,); see log_norm_histories."""
    return log_norm_histories(s, np.asarray(symbols)[None], history=True)[2][0]


@dataclass
class LimitPointSet:
    """Cocycle products at return times plus their cluster representatives.

    family along symbols (the first horizon symbols) built the products.
    Clustering is first-come in return-time order with threshold cluster_tol
    in the induced 2-norm, so representatives are deterministic.
    """

    family: MatrixSet
    symbols: np.ndarray
    cylinder_len: int
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
    """Products A(n) = S_{i_1} ... S_{i_n} at the return times n, clustered.

    One walk over the gathered matrices snapshots a = a @ S at each return
    time; a product that is not finite raises ProductOverflowError naming
    the first return time where it is met. Without return times the
    products and representatives are empty; find_idempotent refuses them.
    """
    rt = return_times(seq, cylinder_len, horizon)
    symbols = _symbols(seq.prefix(horizon), s.num_matrices)
    times = rt.times.tolist()  # sorted, unique and in 1..horizon
    steps = s.matrices[symbols[: times[-1] if times else 0] - 1]
    products = np.empty((len(times), s.dim, s.dim))
    a, k = np.eye(s.dim), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, m in enumerate(steps, 1):
            a = a @ m
            if n == times[k]:
                products[k], k = a, k + 1
    finite = np.isfinite(products).all(axis=(1, 2))
    if not finite.all():
        raise ProductOverflowError(
            f"the cocycle product overflows by return time {rt.times[~finite][0]}"
        )
    return LimitPointSet(
        family=s,
        symbols=symbols,
        cylinder_len=cylinder_len,
        cluster_tol=cluster_tol,
        return_times=rt.times,
        products=products,
        cluster_reps=_first_come_reps(products, cluster_tol),
    )


def _near_many(xs: np.ndarray, members: np.ndarray, tol: float) -> np.ndarray:
    """For each x of xs, whether some member lies within tol of it in the induced 2-norm.

    Exact without an SVD per pair. Every entry obeys |D_ij| <= ||D||_2, so a
    pair whose (0,0) entries differ by more than tol is beyond; the others
    get their Frobenius norm, and ||D||_2 <= ||D||_F <= sqrt(d) ||D||_2, so a
    Frobenius norm up to tol means within and one above sqrt(d) tol means
    beyond. All three tests keep a relative margin against rounding. Only the
    pairs in between, of an x that no member is within by the second test,
    get the SVD, in one batched call. Each pair's verdict is the SVD's, so it
    does not depend on the other pairs. The xs go in blocks that keep the
    (xs, members, d, d) differences under _NEAR_FLOATS floats.
    """
    near = np.zeros(len(xs), dtype=bool)
    if not len(members):
        return near
    d = xs.shape[-1]
    margin = FRO_MARGIN * d
    step = max(1, _NEAR_FLOATS // (len(members) * d * d))
    for lo in range(0, len(xs), step):
        block = xs[lo : lo + step]
        gap = np.abs(block[:, None, 0, 0] - members[None, :, 0, 0])
        rows, cols = np.nonzero(gap <= tol * (1.0 + margin))
        diff = block[rows] - members[cols]
        fro = np.sqrt(np.einsum("kij,kij->k", diff, diff))
        inside = near[lo : lo + step]  # a view: writes land in near
        inside[rows[fro <= tol * (1.0 - margin)]] = True
        band = (fro <= np.sqrt(d) * tol * (1.0 + margin)) & ~inside[rows]
        if band.any():
            hit = np.linalg.norm(diff[band], 2, axis=(1, 2)) <= tol
            inside[rows[band][hit]] = True
    return near


def _first_come(xs: np.ndarray, members: np.ndarray, tol: float) -> np.ndarray:
    """Indices, in order, of the xs farther than tol from every member and from
    every earlier x so picked.

    All xs are tested against the members in one call. Then the first open x
    is picked, and every x after it is tested against it in one call, until
    none is open: an x is closed by the first pick within tol of it. Each
    (x, pick) verdict is the one _near_many gives that pair alone, so the
    picks are those of a loop that tests each x against every earlier pick.
    """
    open_ = ~_near_many(xs, members, tol)
    picks = []
    start = 0
    while open_[start:].any():
        pick = start + int(np.argmax(open_[start:]))
        picks.append(pick)
        start = pick + 1
        open_[start:] &= ~_near_many(xs[start:], xs[pick:start], tol)
    return np.array(picks, dtype=np.int64)


def _first_come_reps(products: np.ndarray, tol: float) -> np.ndarray:
    """Products, in order, that lie farther than tol from every earlier pick."""
    return products[_first_come(products, products[:0], tol)]


def _closure(reps: np.ndarray, tol: float, rounds: int, budget: int) -> np.ndarray:
    """Pool of the representatives closed under pairwise products.

    Each round forms a @ b and b @ a for every pair of the pool as it stood
    at the start of the round; a product joins when no pool member lies
    within tol. The pool stops growing at _POOL_CAP members. Testing one
    product against a pool of m members costs m comparisons; the product
    that would take the total past budget is not tested, and the closure
    stops there with a ClosureBudgetWarning.

    The 2 m products of one a are clustered at once (_first_come) against
    the pool as it stood before them, up to the first that is not finite or
    that the budget cannot reach even if nothing joins; the walk over them
    then charges each its comparisons, raises or stops in order.
    """
    size, d = reps.shape[0], reps.shape[-1]
    pool = np.empty((max(size, _POOL_CAP), d, d))
    pool[:size] = reps
    spent = 0
    for _ in range(rounds):
        if size >= _POOL_CAP:
            break
        current = pool[:size].copy()
        for a in current:
            # a @ b then b @ a for each b in turn: the order the pool grows in
            with np.errstate(over="ignore", invalid="ignore"):
                prods = np.stack([a @ current, current @ a], axis=1).reshape(-1, d, d)
            finite = np.isfinite(prods).all(axis=(1, 2))
            # each product costs at least size comparisons; none is tested
            # past the first that is not finite
            limit = min(len(prods), max(0, budget - spent) // size)
            if not finite[:limit].all():
                limit = int(np.argmin(finite))
            joins = np.zeros(len(prods), dtype=bool)
            joins[_first_come(prods[:limit], pool[:size], tol)] = True
            for prod, ok, join in zip(prods, finite, joins):
                if spent + size > budget:
                    warnings.warn(
                        f"split closure stopped after {spent} comparisons (budget "
                        f"{budget}); searched the {size} products pooled so far",
                        ClosureBudgetWarning,
                        stacklevel=3,
                    )
                    return pool[:size]
                if not ok:
                    raise ProductOverflowError("a product in the closure overflows")
                spent += size
                if join:
                    pool[size] = prod
                    size += 1
                    if size >= _POOL_CAP:
                        return pool[:size]
    return pool[:size]


def find_idempotent(
    lps: LimitPointSet, idem_tol: float = IDEM_TOL, budget: int = ENUM_BUDGET
) -> np.ndarray:
    """Best idempotent in the multiplicative closure of the limit points.

    The representatives are closed under pairwise products for
    CLOSURE_ROUNDS rounds (new members recognized up to cluster_tol, pool
    capped at 1024). Testing a product against a pool of m members costs m
    comparisons, and at most budget of them are made: past that the closure
    stops with a ClosureBudgetWarning and the pool built so far is searched.
    Repeated squares B^2, B^4, ... B^(2^20) of every member B then join the
    candidate list. The candidate with the smallest ||P^2 - P||_2 wins, the
    first one on a tie; if even that defect is above idem_tol,
    IdempotentNotFoundError carries it out. A closure product, a square or a
    candidate's square that is not finite raises ProductOverflowError.
    """
    if lps.cluster_reps.shape[0] == 0:
        raise IdempotentNotFoundError(np.eye(1) * np.nan, np.inf)
    pool = _closure(lps.cluster_reps, lps.cluster_tol, CLOSURE_ROUNDS, budget)
    squares = np.empty((pool.shape[0], MAX_SQUARINGS, *pool.shape[1:]))
    b = pool
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_SQUARINGS):
            b = squares[:, k] = b @ b
        # the pool, then the squares of each member in turn
        candidates = np.concatenate([pool, squares.reshape(-1, *pool.shape[1:])])
        excess = candidates @ candidates - candidates
    if not np.isfinite(excess).all():
        raise ProductOverflowError("a repeated square of a closure product overflows")
    defects = np.linalg.norm(excess, 2, axis=(1, 2))
    best = int(np.argmin(defects))
    if defects[best] > idem_tol:
        raise IdempotentNotFoundError(candidates[best].copy(), float(defects[best]))
    return candidates[best].copy()


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
    p, rank_tol: float = RANK_TOL, idem_tol: float = IDEM_TOL
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
        source="semigroup-numeric",
    )
    _check_splitting(split)
    return split


def periodic_split(s: MatrixSet, word, band_tol: float = BAND_TOL) -> Splitting:
    """Exact splitting for the periodic sequence repeating `word`.

    The period matrix is split into eigenvalue-modulus bands; the idempotent
    is the projection onto the center band along the other two. Expanding
    directions (modulus above 1 + band_tol) do not occur for product-bounded
    families, but when present they are returned in `unstable` rather than
    silently merged. A period product that overflows raises
    ProductOverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = word_product(s, word)
    if not np.isfinite(m).all():
        raise ProductOverflowError("the period product of the word overflows")
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
    limits: LimitPointSet,
    idem_tol: float = IDEM_TOL,
    rank_tol: float = RANK_TOL,
    budget: int = ENUM_BUDGET,
) -> Splitting:
    """Numeric splitting from the limit points of one switching sequence."""
    p = find_idempotent(limits, idem_tol, budget)
    return split_from_idempotent(p, rank_tol, idem_tol)


def _checkpoint(count: int, cap: int = 64) -> np.ndarray:
    """Positions of at most cap return times, spread evenly, first and last kept."""
    if count <= cap:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, cap).round().astype(int))


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
    split: Splitting,
    limits: LimitPointSet,
    preextremal_depth: int = 6,
    samples: int = 10,
    seed: int = 0,
    budget: int = ENUM_BUDGET,
) -> SplittingEvidence:
    """Measure the decay/recurrence claims of a splitting along the sequence.

    The family, symbols, horizon, cylinder, return times and products
    measured here are those of the limit point set limits. Pre-extremal
    deviations are evaluated at up to 64 return times to keep the cost of the
    word enumeration bounded; changing preextremal_depth changes the measured
    numbers but never the subspaces, which are fixed inputs here. Each
    pre-extremal call enumerates at most min(budget, ENUM_BUDGET) vector
    products unless one row needs more; a row that needs more than budget
    raises BudgetExceededError.
    """
    s, times = limits.family, limits.return_times
    snaps = limits.products[_checkpoint(times.size)]

    d = s.dim
    returns = np.linalg.norm(snaps - np.eye(d), 2, axis=(1, 2))
    identity_return_min = float(returns.min()) if snaps.size else np.inf

    last = int(times[-1]) - 1 if times.size else -1

    basis, c = split.center.basis, split.center.dim
    if c and snaps.size:
        # moved[i, j] is center row i carried by snapshot j
        moved = (basis[:, None, None] @ snaps)[:, :, 0]
        off = moved - basis[:, None]
        # batched dot products: the same bits as np.linalg.norm of each row
        dev = np.sqrt((off[..., None, :] @ off[..., None])[..., 0, 0])
        rows = np.vstack([basis, moved.reshape(-1, d)])
        # blocks of rows keep each call's word stack inside a one-row budget,
        # and a larger budget does not make the blocks larger
        words = sum(s.num_matrices**n for n in range(1, preextremal_depth + 1))
        step = max(1, min(budget, ENUM_BUDGET) // max(words, 1))
        pre = np.concatenate([
            preextremal_norm(s, rows[i : i + step], preextremal_depth, budget)
            for i in range(0, len(rows), step)
        ])
        center_pre_dev = np.abs(pre[c:].reshape(dev.shape) - pre[:c, None]).max(axis=1)
        center_dev_min, center_dev_final = dev.min(axis=1), dev[:, -1]
    else:
        center_dev_min = center_dev_final = center_pre_dev = np.full(c, np.inf)

    offs = []
    for x in unit_vectors(d, samples, seed, stream_offset=1):
        off = x - split.stable.project(x)
        nrm = float(np.linalg.norm(off))
        if nrm >= 1e-9:  # a sample inside the stable part is skipped
            offs.append(off / nrm)
    # one kernel call for both stacks; rows are independent, so slicing is exact
    starts = np.vstack([split.stable.basis, np.reshape(offs, (-1, d))])
    _, fits, hist = log_norm_histories(s, limits.symbols[None], starts, history=True)
    stable_hist, off_hist = hist[: split.stable.dim], hist[split.stable.dim :]

    return SplittingEvidence(
        horizon=limits.symbols.size,
        cylinder_len=limits.cylinder_len,
        preextremal_depth=preextremal_depth,
        return_count=int(times.size),
        stable_initial_norms=np.ones(split.stable.dim),
        stable_final_norms=np.exp(stable_hist[:, last]),
        stable_tail_fits=fits[: split.stable.dim],
        center_return_deviation_min=center_dev_min,
        center_return_deviation_final=center_dev_final,
        center_preextremal_deviation_max=center_pre_dev,
        identity_return_min=identity_return_min,
        off_stable_min_norms=np.exp(off_hist.min(axis=1)),
    )
