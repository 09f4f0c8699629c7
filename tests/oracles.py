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


def random_structured_chain(rng: np.random.Generator, max_states: int):
    """Random chain with sparsity, so transients and several classes occur.

    The initial distribution is an exact stationary vector: a positive random
    mixture of the per-class stationary distributions, exactly zero off the
    recurrent states.
    """
    n = int(rng.integers(2, max_states + 1))
    transition = np.zeros((n, n))
    for i in range(n):
        support = rng.random(n) < 0.45
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


def oracle_norm2(a: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)[0])


def oracle_word_product(mats, word) -> np.ndarray:
    d = mats[0].shape[0]
    out = np.eye(d)
    for s in word:
        out = out @ mats[s - 1]
    return out


def oracle_log_norm_history(mats, symbols, x=None) -> np.ndarray:
    """log ||x A(n)||_2, or log ||A(n)||_2 when x is None, for n = 1..len(symbols).

    Plain product loop without renormalization, so keep the histories short
    enough not to underflow; an exactly zero product gives -inf.
    """
    a = np.eye(mats[0].shape[0]) if x is None else np.asarray(x, dtype=float)
    out = []
    for s in symbols:
        a = a @ mats[s - 1]
        nrm = oracle_norm2(a) if x is None else float(np.sqrt((a * a).sum()))
        out.append(np.log(nrm) if nrm > 0.0 else -np.inf)
    return np.array(out)


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


def oracle_preextremal(mats, x, depth) -> float:
    """max of ||x S_w||_2 over every word of length <= depth, empty included."""
    x = np.asarray(x, dtype=float)
    k = len(mats)
    best = float(np.linalg.norm(x))
    for length in range(1, depth + 1):
        for word in itertools.product(range(1, k + 1), repeat=length):
            best = max(best, float(np.linalg.norm(x @ oracle_word_product(mats, word))))
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
