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
    FRO_MARGIN,
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
RANK_TOL = 1e-8
RENORM_EVERY = 50
MAX_SQUARINGS = 20
_POOL_CAP = 1024
_NEAR_FLOATS = 2**18  # floats of pairwise differences that _near_many holds at once


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


def cocycle_products_at(s: MatrixSet, symbols: np.ndarray, times) -> np.ndarray:
    """Products A(n) = S_{i_1} ... S_{i_n} snapshotted at the given times."""
    idx = _symbols(symbols, s.num_matrices) - 1
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


def tail_start(n: int) -> int:
    """First column of the trailing window that tail_slope fits in a length-n history.

    Callers that only read finals and tail fits pass it to log_norm_histories
    as the window start, so the kernel keeps just the columns the fit reads.
    """
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


def log_norm_histories(s: MatrixSet, paths, start=None, window: int = 0) -> np.ndarray:
    """Log-norm histories of the cocycle along each row of `paths`.

    paths has shape (trials, n) and holds 1-indexed symbols. With start, a
    stack of row vectors whose row count is a whole multiple of trials (row r
    follows path r mod trials), entry [r, t] is log ||start[r] A_r(t+1)|| in
    the Euclidean norm; without it the products themselves are tracked from
    the identity and the entry is log ||A_r(t+1)||_2. Returns an array of
    shape (rows, n - window).

    The state is one (trials, m, d) block: trial t's start rows form one
    (m, d) matrix, or its product (m = d) without start, and each step is one
    matrix-matrix product per trial with that trial's next matrix. A lone
    start row gets a zero partner row: a one-row product would go to the
    matrix-vector routine, which rounds differently at d >= 4. So a row's bits
    never depend on the other rows, and stacked rows equal single-row calls
    bit for bit at any dimension.

    A step only multiplies. Per segment of k steps the kernel gathers the
    segment's matrices once, into a (k, trials, d, d) block, and writes each
    step's product into a (k, trials, m, d) buffer; the two hold RENORM_EVERY
    x trials x (m + d) x d floats. The row norms of the buffer's steps from
    the window on and of the segment's last step are then taken together, a
    column at a time (_row_norms), or without start their largest singular
    values are taken in one call (_top_singular_values: the closed form at
    d = 2, one batched SVD otherwise). A row's norm or a matrix's sigma_1
    does not depend on the batch around it, so each equals a call per step
    bit for bit, and the kept columns window..n-1 equal those of window 0 bit
    for bit. Once per segment the kernel marks each row that has read a zero
    norm (an exact zero product, or squares that underflowed) as dead for
    good, logs the norms, writes them into the history and renormalizes the
    running state; a dead row is divided by inf, so it is zero from then on
    and the rest of its history is -inf.

    A segment is RENORM_EVERY steps, or if fewer the most steps k with
    g**(2 k) finite, g the family's largest 2-norm: a norm squares a state
    grown from norm 1 by at most g**k. Row norms square their entries, so
    with start a family with g**2 past the float range is first divided by
    a power of two 2**j (to g in [1/2, 1)), and step n gets n j ln 2 back;
    a start row whose norm reads inf or NaN in a segment runs again divided
    by the power of two 2**e that brings its norm below 1, and gets e ln 2
    back. No other family or row is scaled, so their bits stay. Nor are the
    products: a segment keeps their entries below about 1e154, unless one
    step of a family with g past that brings them near g, and a product whose
    d = 2 closed form reads inf or NaN there goes to the SVD, which scales
    internally.
    """
    paths = _symbols(paths, s.num_matrices)  # no copy of an int64 array
    if paths.ndim != 2:
        raise ValueError(f"paths must have shape (trials, n), got {paths.shape}")
    trials, horizon = paths.shape
    if not 0 <= window <= horizon:
        raise ValueError(f"window must lie in 0..{horizon}, got {window}")
    mats, g = s.matrices, np.linalg.norm(s.matrices, 2, axis=(1, 2)).max()
    step_exp, every = 0, RENORM_EVERY
    with np.errstate(over="ignore"):
        if start is not None and np.isinf(g * g):  # row norms square entries
            step_exp = int(np.frexp(g)[1])
            mats, g = np.ldexp(mats, -step_exp), np.ldexp(g, -step_exp)
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
        # row r of the stack is row r // trials of trial r % trials's block
        blocks = xs.reshape(reps, trials, s.dim).transpose(1, 0, 2)
        partner = np.zeros((trials, 1 if reps == 1 else 0, s.dim))
        state = np.concatenate([blocks, partner], axis=1)
    hist = np.full((reps, trials, horizon - window), -np.inf)
    buf = np.empty((every, *state.shape))
    acc = np.zeros((trials, reps))
    alive = np.ones((trials, reps), dtype=bool)
    over = np.zeros((trials, reps), dtype=bool)
    # a start row whose squares pass the float range runs again below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, horizon, every):
            hi = min(lo + every, horizon)
            # norms from the window on, and at the segment's last step
            first = min(max(lo, window), hi - 1)
            seg_mats = mats[paths[:, lo:hi].T - 1]
            for j in range(hi - lo):
                state = np.matmul(state, seg_mats[j], out=buf[j])
            kept = buf[first - lo : hi - lo]
            if start is None:
                seg = _top_singular_values(kept)
            else:
                seg = _row_norms(kept[:, :, :reps])
            live = np.logical_and.accumulate(seg > 0.0, axis=0) & alive
            logs = np.where(live, acc + np.log(seg), -np.inf)
            over |= ~np.isfinite(seg).all(axis=0)
            if hi > window:  # then first >= window
                hist[:, :, first - window : hi - window] = logs.transpose(2, 1, 0)
            alive = live[-1]
            if hi - lo == every:
                if not alive.any():
                    break  # every row has hit an exact zero product
                acc = logs[-1]
                # into a new array, off the buffer slot the next step writes;
                # a dead row is divided by inf, so it is zero from here on
                state = state / np.where(alive, seg[-1], np.inf)[:, :, None]
    hist = hist.reshape(reps * trials, horizon - window)
    if step_exp:  # the family was divided by 2**step_exp: step n gets n of them back
        hist += np.arange(window + 1, horizon + 1) * (step_exp * np.log(2.0))
    if start is None:
        return hist
    # a start row whose squares passed the float range read a non-finite norm;
    # it runs again divided by the power of two 2**e that brings its norm
    # below 1, and its logs get e ln 2 back. Below norm 1 no row overflows,
    # so the second run does not recurse
    rows = np.flatnonzero(over.T)  # row r = rep * trials + trial
    top = np.abs(xs[rows]).max(axis=1)
    unit = np.linalg.norm(xs[rows] / top[:, None], axis=1)  # ||x|| = top * unit
    exps = np.frexp(top)[1] + np.frexp(unit)[1]
    rows, exps = rows[exps > 0], exps[exps > 0, None]
    if rows.size:
        xs = np.ldexp(xs[rows], -exps)
        hist[rows] = log_norm_histories(s, paths[rows % trials], xs, window)
        hist[rows] += exps * np.log(2.0)
    return hist


def vector_log_norm_history(s: MatrixSet, symbols: np.ndarray, x) -> np.ndarray:
    """log ||x A(n)|| for n = 1..len(symbols), renormalized against underflow.

    x is one row vector of length d (returns shape (n,)) or a (m, d) stack of
    rows driven by the same symbols (returns shape (m, n)). An exactly zero
    product sends the rest of the history to -inf.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    hist = log_norm_histories(s, np.asarray(symbols)[None], xs)
    return hist[0] if np.ndim(x) == 1 else hist


def matrix_log_norm_history(s: MatrixSet, symbols: np.ndarray) -> np.ndarray:
    """log ||A(n)||_2 for n = 1..len(symbols), shape (n,); see log_norm_histories."""
    return log_norm_histories(s, np.asarray(symbols)[None])[0]


def tail_slope(log_norms: np.ndarray, n: int | None = None) -> float | np.ndarray:
    """Least-squares slope of log-norm against step over the trailing half.

    log_norms is one history of shape (m,) (returns a float) or a stack of
    shape (rows, m) (returns one slope per row). It holds the last m entries
    of histories of length n (default m), and must cover the window from
    tail_start(n) on, e.g. the output of log_norm_histories with that window
    start. A row with an exact zero (log -inf) inside the window gets slope
    -inf.
    """
    hist = np.asarray(log_norms, dtype=float)
    kept = hist.shape[-1]
    n = kept if n is None else n
    width = n - tail_start(n)
    if not width <= kept <= n:
        raise ValueError(
            f"need between {width} and {n} trailing entries of a length-{n} "
            f"history, got {kept}"
        )
    ys = np.atleast_2d(hist)[:, kept - width:]
    ns = np.arange(n - width + 1, n + 1, dtype=float)
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
    if rt.times.size == 0:  # the products and representatives are then empty
        warnings.warn(
            "no return times inside the horizon; the limit point set is empty",
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        products = cocycle_products_at(s, seq.prefix(horizon), rt.times)
    finite = np.isfinite(products).all(axis=(1, 2))
    if not finite.all():
        raise ProductOverflowError(
            f"the cocycle product overflows by return time {rt.times[~finite][0]}"
        )
    return LimitPointSet(
        cylinder_len=cylinder_len,
        horizon=horizon,
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
    lps: LimitPointSet,
    idem_tol: float = IDEM_TOL,
    closure_rounds: int = 3,
    budget: int = ENUM_BUDGET,
) -> np.ndarray:
    """Best idempotent in the multiplicative closure of the limit points.

    The representatives are closed under pairwise products for a few rounds
    (new members recognized up to cluster_tol, pool capped at 1024). Testing
    a product against a pool of m members costs m comparisons, and at most
    budget of them are made: past that the closure stops with a
    ClosureBudgetWarning and the pool built so far is searched. Repeated
    squares B^2, B^4, ... B^(2^20) of every member B then join the candidate
    list. The candidate with the smallest ||P^2 - P||_2 wins, the first one
    on a tie; if even that defect is above idem_tol, IdempotentNotFoundError
    carries it out. A closure product, a square or a candidate's square that
    is not finite raises ProductOverflowError.
    """
    if lps.cluster_reps.shape[0] == 0:
        raise IdempotentNotFoundError(np.eye(1) * np.nan, np.inf)
    pool = _closure(lps.cluster_reps, lps.cluster_tol, closure_rounds, budget)
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
    closure_rounds: int = 3,
    budget: int = ENUM_BUDGET,
) -> Splitting:
    """Numeric splitting from the limit points of one switching sequence."""
    p = find_idempotent(limits, idem_tol, closure_rounds, budget)
    return split_from_idempotent(p, rank_tol, idem_tol, source="semigroup-numeric")


_MAX_NORM_CHECKPOINTS = 64


def _checkpoint(count: int, cap: int = _MAX_NORM_CHECKPOINTS) -> np.ndarray:
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
    s: MatrixSet,
    seq: SwitchingSequence,
    split: Splitting,
    limits: LimitPointSet,
    preextremal_depth: int = 6,
    samples: int = 10,
    seed: int = 0,
) -> SplittingEvidence:
    """Measure the decay/recurrence claims of a splitting along the sequence.

    limits is the limit point set of seq; its horizon, cylinder, return times
    and products are the ones measured here. s and seq must be those limits was
    built from; limits records neither, so nothing checks it. Pre-extremal
    deviations are evaluated at up to 64 return times to keep the cost of the
    word enumeration bounded; changing preextremal_depth changes the measured
    numbers but never the subspaces, which are fixed inputs here.
    """
    symbols = seq.prefix(limits.horizon)
    times = limits.return_times
    snaps = limits.products[_checkpoint(times.size)]

    d = s.dim
    eye = np.eye(d)
    identity_return_min = (
        float(np.linalg.norm(snaps - eye, 2, axis=(1, 2)).min())
        if snaps.size
        else np.inf
    )

    last = int(times[-1]) - 1 if times.size else -1

    basis, c = split.center.basis, split.center.dim
    if c and snaps.size:
        # moved[i, j] is center row i carried by snapshot j
        moved = (basis[:, None, None] @ snaps)[:, :, 0]
        off = moved - basis[:, None]
        # batched dot products: the same bits as np.linalg.norm of each row
        dev = np.sqrt((off[..., None, :] @ off[..., None])[..., 0, 0])
        rows = np.vstack([basis, moved.reshape(-1, d)])
        # blocks of rows keep each call's word stack inside a one-row budget
        words = sum(s.num_matrices**n for n in range(1, preextremal_depth + 1))
        step = max(1, ENUM_BUDGET // max(words, 1))
        pre = np.concatenate([
            preextremal_norm(s, rows[i : i + step], preextremal_depth)
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
    hist = vector_log_norm_history(
        s, symbols, np.vstack([split.stable.basis, np.reshape(offs, (-1, d))])
    )
    stable_hist, off_hist = hist[: split.stable.dim], hist[split.stable.dim :]

    return SplittingEvidence(
        horizon=limits.horizon,
        cylinder_len=limits.cylinder_len,
        preextremal_depth=preextremal_depth,
        return_count=int(times.size),
        stable_initial_norms=np.ones(split.stable.dim),
        stable_final_norms=np.exp(stable_hist[:, last]),
        stable_tail_fits=tail_slope(stable_hist),
        center_return_deviation_min=center_dev_min,
        center_return_deviation_final=center_dev_final,
        center_preextremal_deviation_max=center_pre_dev,
        identity_return_min=identity_return_min,
        off_stable_min_norms=np.exp(off_hist.min(axis=1)),
    )
