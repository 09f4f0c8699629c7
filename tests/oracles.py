"""Independent brute-force oracles used by the test suite.

Everything here is written directly against numpy, without importing the
package under test, so each oracle is a second route to the same answer.
Keep these slow and obvious.
"""

import itertools

import numpy as np


def floyd_warshall_reachable(positive: np.ndarray) -> np.ndarray:
    """Boolean reachability closure of a directed graph given as a 0/1 matrix.

    reach[i, j] is True when there is a path i -> j of length >= 1.
    """
    n = positive.shape[0]
    reach = positive.astype(bool).copy()
    for k in range(n):
        for i in range(n):
            if reach[i, k]:
                for j in range(n):
                    if reach[k, j]:
                        reach[i, j] = True
    return reach


def oracle_classes(transition: np.ndarray):
    """Recurrent classes and transient states by exhaustive reachability.

    Returns (transient, classes) with 1-based state labels. A state is
    recurrent iff everything reachable from it can reach it back; recurrent
    states split into communicating classes. Classes are sorted by their
    smallest member.
    """
    n = transition.shape[0]
    pos = transition > 0.0
    reach = floyd_warshall_reachable(pos)

    def reaches(i, j):
        return i == j or reach[i, j]

    recurrent = []
    for i in range(n):
        closed = all(reaches(j, i) for j in range(n) if reach[i, j])
        if closed:
            recurrent.append(i)

    classes = []
    seen = set()
    for i in recurrent:
        if i in seen:
            continue
        cls = [j for j in recurrent if reaches(i, j) and reaches(j, i)]
        seen.update(cls)
        classes.append(tuple(sorted(s + 1 for s in cls)))
    classes.sort(key=lambda c: c[0])
    transient = tuple(sorted(set(range(1, n + 1)) - {s for c in classes for s in c}))
    return transient, tuple(classes)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible transition matrix (linear solve)."""
    n = transition.shape[0]
    a = transition.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def random_structured_chain(rng: np.random.Generator, max_states: int, density: float = 0.45):
    """Random chain with sparsity, so transients and several classes occur.

    Each entry is positive with probability `density`; a row left empty gets
    one random entry. The initial distribution is an exact stationary vector:
    a positive random mixture of the per-class stationary distributions,
    exactly zero off the recurrent states.
    """
    n = int(rng.integers(2, max_states + 1))
    transition = np.zeros((n, n))
    for i in range(n):
        support = rng.random(n) < density
        if not support.any():
            support[rng.integers(n)] = True
        w = rng.random(n) * support
        transition[i] = w / w.sum()
    transient, classes = oracle_classes(transition)
    weights = rng.random(len(classes)) + 0.1
    weights /= weights.sum()
    p = np.zeros(n)
    for w, cls in zip(weights, classes):
        ix = [s - 1 for s in cls]
        sub = transition[np.ix_(ix, ix)]
        p[ix] = w * stationary_distribution(sub)
    return p, transition


def oracle_cylinder(p: np.ndarray, transition: np.ndarray, word) -> float:
    word = [s - 1 for s in word]
    if not word:
        return 1.0
    out = p[word[0]]
    for a, b in zip(word, word[1:]):
        out *= transition[a, b]
    return out


def oracle_shift_defect(p: np.ndarray, transition: np.ndarray, max_len: int) -> float:
    """max over words |mu([w]) - sum_k mu([k w])| by full enumeration."""
    n = len(p)
    worst = 0.0
    for length in range(1, max_len + 1):
        for word in itertools.product(range(1, n + 1), repeat=length):
            mu = oracle_cylinder(p, transition, word)
            shifted = sum(
                oracle_cylinder(p, transition, (k,) + word) for k in range(1, n + 1)
            )
            worst = max(worst, abs(mu - shifted))
    return worst


def oracle_shift_defect_words(p: np.ndarray, transition: np.ndarray, max_len: int) -> float:
    """The same maximum word by word, in the float operations of a plain loop.

    Each word's tail is multiplied left to right from 1.0 and its defect is
    |p_a tail - (pP)_a tail| for its first symbol a; the largest defect is
    kept with a strict `>`, so the result is comparable bit for bit.
    """
    n = len(p)
    p_shift = p @ transition
    worst = 0.0
    for length in range(1, max_len + 1):
        for word in itertools.product(range(n), repeat=length):
            tail = 1.0
            for a, b in zip(word, word[1:]):
                tail *= transition[a, b]
            defect = abs(p[word[0]] * tail - p_shift[word[0]] * tail)
            if defect > worst:
                worst = defect
    return worst


def oracle_sample_trajectory(initial, transition, horizon: int, seed: int, stream: int = 0):
    """Scalar inverse-CDF sampler, one np.searchsorted per step.

    Uniforms come from Philox keyed by (seed, stream). Symbol i owns
    (cum[i-1], cum[i]]; an index past the row or on a zero-mass symbol moves
    up to the next positive-mass symbol, or down to the last one when none is
    above. States are returned 1-indexed.
    """
    p = np.asarray(initial, dtype=float)
    t = np.asarray(transition, dtype=float)
    key = np.array([seed, stream], dtype=np.uint64)
    us = np.random.Generator(np.random.Philox(key=key)).random(horizon)

    def pick(probs, u):
        k = len(probs)
        idx = int(np.searchsorted(np.cumsum(probs), u, side="left"))
        if idx >= k:
            idx = k - 1
            while idx > 0 and probs[idx] <= 0.0:
                idx -= 1
        while idx < k - 1 and probs[idx] <= 0.0:
            idx += 1
        while idx > 0 and probs[idx] <= 0.0:
            idx -= 1
        if probs[idx] <= 0.0:
            raise ValueError("distribution has no positive mass")
        return idx

    states = [pick(p, us[0])]
    for u in us[1:]:
        states.append(pick(t[states[-1]], u))
    return np.array(states, dtype=np.int64) + 1


def oracle_norm2(a: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)[0])


def oracle_cluster_reps(products, tol: float) -> list:
    """First-come clustering with one SVD per (product, representative) pair.

    A product becomes a representative when every earlier representative
    lies farther than tol from it in the induced 2-norm.
    """
    reps = []
    for a in products:
        if all(oracle_norm2(a - r) > tol for r in reps):
            reps.append(a)
    return reps


def oracle_closure(reps, tol: float, rounds: int, cap: int, budget: int):
    """The pairwise closure loop, one SVD per (product, pool member) pair.

    Each round tries a @ b then b @ a for every pair of the pool as it stood
    at the start of the round; a product joins when every member lies farther
    than tol. Testing a product against m members costs m comparisons; the
    loop stops before the product that would take the total past budget.
    Returns (pool, stopped by the budget).
    """
    pool = [np.array(a, dtype=float) for a in reps]
    spent = 0
    for _ in range(rounds):
        if len(pool) >= cap:
            break
        current = list(pool)
        for a in current:
            for b in current:
                for prod in (a @ b, b @ a):
                    if spent + len(pool) > budget:
                        return pool, True
                    spent += len(pool)
                    if all(oracle_norm2(prod - r) > tol for r in pool):
                        pool.append(prod)
                        if len(pool) >= cap:
                            return pool, False
    return pool, False


def oracle_best_idempotent(pool, squarings: int = 20):
    """(candidate, defect) with the smallest ||P^2 - P||_2, the first on a tie.

    Candidates are the pool members, then the repeated squares of each member
    in turn up to the first one that is not finite.
    """
    candidates = list(pool)
    for a in pool:
        b = a.copy()
        for _ in range(squarings):
            b = b @ b
            if not np.all(np.isfinite(b)):
                break
            candidates.append(b)
    best, best_defect = None, np.inf
    for cand in candidates:
        defect = oracle_norm2(cand @ cand - cand)
        if defect < best_defect:
            best, best_defect = cand, defect
    return best, best_defect


def oracle_word_product(mats, word) -> np.ndarray:
    d = mats[0].shape[0]
    out = np.eye(d)
    # families scaled near the float range overflow here on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for s in word:
            out = out @ mats[s - 1]
    return out


def oracle_log_norm_history(mats, symbols, x=None) -> np.ndarray:
    """log ||x A(n)||_2, or log ||A(n)||_2 when x is None, for n = 1..len(symbols).

    Plain product loop. After each step the product is divided by the power
    of two 2**e that brings its largest entry to [1/2, 1), which is exact,
    and its log-norm gets the summed e ln 2 back, so neither the entries nor
    their squares leave the float range; an exactly zero product gives -inf.
    """
    a = np.eye(mats[0].shape[0]) if x is None else np.asarray(x, dtype=float)
    exp, out = 0, []
    for s in symbols:
        a = a @ mats[s - 1]
        top = np.abs(a).max()
        if top == 0.0:
            out.append(-np.inf)
            continue
        e = int(np.frexp(top)[1])
        a, exp = np.ldexp(a, -e), exp + e
        nrm = oracle_norm2(a) if x is None else float(np.sqrt((a * a).sum()))
        out.append(exp * np.log(2.0) + np.log(nrm))
    return np.array(out)


def oracle_top_singular_values(states):
    """Largest singular value of each matrix of a (..., d, d) stack, one at a time.

    At d = 2 each is (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2, or the
    SVD's when that is not finite; other d take the SVD. Shape (...).
    """
    states = np.asarray(states, dtype=float)
    if states.shape[-1] != 2:
        return np.linalg.svd(states, compute_uv=False)[..., 0]
    out = np.empty(states.shape[:-2])
    for idx in np.ndindex(out.shape):
        (a, b), (c, d) = states[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            top = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
        if not np.isfinite(top):
            top = np.linalg.svd(states[idx], compute_uv=False)[0]
        out[idx] = top
    return out


def oracle_row_kernel(mats, paths, start=None, window: int = 0, renorm_every: int = 50):
    """Log-norm histories one row at a time: the kernel as it was before trial blocks.

    mats is a (K, d, d) array and paths a (trials, n) array of 1-indexed
    symbols. Each row is its own (1, d) vector, or its own product from the
    identity when start is None, and takes one gathered multiply per step;
    norms are logged step by step from the window on and at every
    renorm_every-th step, where the state is renormalized. A row whose norm
    reads 0 is -inf from then on. Returns shape (rows, n - window).
    """
    mats = np.asarray(mats, dtype=float)
    paths = np.asarray(paths, dtype=np.int64)
    trials, horizon = paths.shape
    if start is None:
        state = np.tile(np.eye(mats.shape[1]), (trials, 1, 1))
    else:
        state = np.array(start, dtype=float)[:, None]
    rows = state.shape[0]
    reps = rows // trials if trials else 0
    state = state.reshape(reps, trials, *state.shape[1:])
    hist = np.full((rows, horizon - window), -np.inf)
    acc = np.zeros(rows)
    alive = np.ones(rows, dtype=bool)
    for n in range(horizon):
        state = state @ mats[paths[:, n] - 1]
        renorm = (n + 1) % renorm_every == 0
        if n < window and not renorm:
            continue
        if start is None:
            nrm = oracle_top_singular_values(state).reshape(rows)
        else:
            nrm = np.linalg.norm(state, axis=-1).reshape(rows)
        alive &= nrm > 0.0
        if n >= window:
            hist[alive, n - window] = acc[alive] + np.log(nrm[alive])
        if renorm:
            if not alive.any():
                break
            acc[alive] += np.log(nrm[alive])
            state /= np.where(alive, nrm, np.inf).reshape(reps, trials, 1, 1)
    return hist


def oracle_step_kernel(mats, paths, start=None, window: int = 0, renorm_every: int = 50):
    """Log-norm histories in trial blocks, one gather, multiply and norm per step.

    The kernel as it was before segment batching. mats is a (K, d, d) array,
    paths a (trials, n) array of 1-indexed symbols and start a stack of rows
    whose count is a multiple of trials (row r follows path r mod trials).
    Each trial holds its rows, plus a zero partner row when it has one, or its
    product from the identity, as one matrix. From the window on and at the
    last step of each segment a step takes its norms; once per segment the
    norms are logged and the state renormalized. A segment is renorm_every
    steps, or the most steps k with g**(2 k) finite for the family's largest
    2-norm g. A row that reads a zero norm is -inf from then on. No scaling:
    a start row or family past the float range overflows. Returns shape
    (rows, n - window).
    """
    mats = np.asarray(mats, dtype=float)
    paths = np.asarray(paths, dtype=np.int64)
    trials, horizon = paths.shape
    d = mats.shape[1]
    if start is None:
        reps = 1
        state = np.tile(np.eye(d), (trials, 1, 1))
    else:
        xs = np.array(start, dtype=float)
        reps = len(xs) // trials if trials else 0
        blocks = xs.reshape(reps, trials, d).transpose(1, 0, 2)
        partner = np.zeros((trials, 1 if reps == 1 else 0, d))
        state = np.concatenate([blocks, partner], axis=1)
    g, every = np.linalg.norm(mats, 2, axis=(1, 2)).max(), renorm_every
    with np.errstate(over="ignore"):
        while every > 1 and np.isinf(g ** (2 * every)):
            every -= 1
    hist = np.full((reps, trials, horizon - window), -np.inf)
    norms = np.empty((every, trials, reps))
    acc = np.zeros((trials, reps))
    alive = np.ones((trials, reps), dtype=bool)
    for lo in range(0, horizon, every):
        hi = min(lo + every, horizon)
        first = min(max(lo, window), hi - 1)
        for n, idx in enumerate(paths[:, lo:hi].T - 1, start=lo):
            state = state @ mats[idx]
            if n < first:
                continue
            if start is None:
                norms[n - lo] = oracle_top_singular_values(state)[:, None]
            else:
                norms[n - lo] = np.linalg.norm(state, axis=-1)[:, :reps]
        seg = norms[first - lo : hi - lo]
        live = np.logical_and.accumulate(seg > 0.0, axis=0) & alive
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(live, acc + np.log(seg), -np.inf)
        if hi > window:
            hist[:, :, first - window : hi - window] = logs.transpose(2, 1, 0)
        alive = live[-1]
        if hi - lo == every:
            if not alive.any():
                break
            acc = logs[-1]
            state /= np.where(alive, seg[-1], np.inf)[:, :, None]
    return hist.reshape(reps * trials, horizon - window)


def oracle_tail_slope(log_norms) -> float | np.ndarray:
    """Least-squares slope of log-norm against step over the trailing half, two passes.

    log_norms is one full history of shape (n,) (returns a float) or a stack
    of shape (rows, n) (returns one slope per row). The window runs from step
    min(n - 2, n // 2) to the end; a row with a -inf inside it gets -inf.
    """
    hist = np.asarray(log_norms, dtype=float)
    n = hist.shape[-1]
    if n < 2:
        raise ValueError("need at least two history points for a slope")
    ys = np.atleast_2d(hist)[:, min(n - 2, n // 2) :]
    ns = np.arange(n - ys.shape[1] + 1, n + 1, dtype=float)
    ns -= ns.mean()
    neg = np.isneginf(ys)
    bad = neg.any(axis=1)
    safe = np.where(neg, 0.0, ys)
    slopes = ((safe - safe.mean(axis=1, keepdims=True)) * ns).sum(axis=1) / (ns * ns).sum()
    slopes[bad] = -np.inf
    return float(slopes[0]) if hist.ndim == 1 else slopes


def oracle_jsr_bounds(mats, depth):
    """(lower, upper) by plain loops: lower over all words up to depth, upper
    over words of exactly that depth."""
    k = len(mats)
    lower = 0.0
    for length in range(1, depth + 1):
        for word in itertools.product(range(1, k + 1), repeat=length):
            prod = oracle_word_product(mats, word)
            rho = float(np.max(np.abs(np.linalg.eigvals(prod))))
            lower = max(lower, rho ** (1.0 / length))
    upper = 0.0
    for word in itertools.product(range(1, k + 1), repeat=depth):
        upper = max(upper, oracle_norm2(oracle_word_product(mats, word)))
    return lower, upper ** (1.0 / depth)


def oracle_level_norm_maxima(mats, depth) -> list:
    """(max ||S_w||_2, first word attaining it) for each length n = 1..depth.

    Every product of a level goes through one full SVD call, in lexicographic
    word order, and the first argmax picks the word; np.linalg.LinAlgError
    propagates.
    """
    k = len(mats)
    out = []
    for length in range(1, depth + 1):
        words = list(itertools.product(range(1, k + 1), repeat=length))
        prods = np.array([oracle_word_product(mats, word) for word in words])
        vals = np.linalg.svd(prods, compute_uv=False)[:, 0]
        j = int(np.argmax(vals))
        out.append((float(vals[j]), words[j]))
    return out


def oracle_rho_root(mats, word) -> float:
    """rho(S_w)^(1/|w|) of one word, by a plain product.

    The root is taken by numpy's array power, as the word walk takes it: the
    C library's pow can round it an ulp apart, so values compare bit for bit.
    """
    prod = oracle_word_product(mats, word)
    rho = np.abs(np.linalg.eigvals(prod)).max(keepdims=True)
    return float((rho ** (1.0 / len(word)))[0])


def oracle_rho_extremes(mats, max_len):
    """(min, min_word, max, max_word) of rho(S_w)^(1/|w|) over 1 <= |w| <= max_len.

    Words are visited shortest first and lexicographically within a length;
    only a strictly better value replaces the current one, so ties go to the
    shorter word and then to the lexicographically smaller one.
    """
    k = len(mats)
    min_val, min_word = float("inf"), None
    max_val, max_word = float("-inf"), None
    for length in range(1, max_len + 1):
        for word in itertools.product(range(1, k + 1), repeat=length):
            val = oracle_rho_root(mats, word)
            if val < min_val:
                min_val, min_word = val, word
            if val > max_val:
                max_val, max_word = val, word
    return min_val, min_word, max_val, max_word


def oracle_preextremal(mats, x, depth) -> float:
    """max of ||x S_w||_2 over every word of length <= depth, empty included."""
    x = np.asarray(x, dtype=float)
    k = len(mats)
    best = float(np.linalg.norm(x))
    for length in range(1, depth + 1):
        for word in itertools.product(range(1, k + 1), repeat=length):
            best = max(best, float(np.linalg.norm(x @ oracle_word_product(mats, word))))
    return best


def oracle_preextremal_profile(mats, x, depth) -> list[float]:
    """Running maxima of ||x S_w||_2 over |w| <= n, for n = 0..depth.

    Each level is every word's row times every generator, in one einsum, so
    the values carry the bits of a level-by-level walk of the words.
    """
    mats = np.asarray(mats, dtype=float)
    vecs = np.asarray(x, dtype=float)[None, None, :]
    best = [float(np.linalg.norm(vecs, axis=2).max())]
    for _ in range(depth):
        vecs = np.einsum("mwd,kde->mwke", vecs, mats).reshape(1, -1, mats.shape[-1])
        best.append(max(best[-1], float(np.linalg.norm(vecs, axis=2).max())))
    return best


def oracle_grassmann_sampled(vb: np.ndarray, wb: np.ndarray, samples: int = 720) -> float:
    """Hausdorff distance between unit spheres by dense sampling.

    Only practical for 1- or 2-dimensional subspaces; `samples` controls the
    grid resolution on each sphere.
    """

    def sphere(basis):
        k = basis.shape[0]
        if k == 1:
            return np.vstack([basis[0], -basis[0]])
        angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        coeff = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return coeff @ basis

    pv = sphere(vb)
    pw = sphere(wb)
    d2 = ((pv[:, None, :] - pw[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(d2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])
