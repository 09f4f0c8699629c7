"""Finite matrix families and their switching-word products.

Words are tuples of 1-indexed symbols; the product of a word is taken left to
right, so word (2, 1) means S_2 @ S_1 and the empty word is the identity.
Enumeration over all words is breadth first, level by level, in lexicographic
order within each level, with an explicit product budget so partial results
are always flagged and reproducible. `word_levels` is the one walk over them:
the JSR bounds, the boundedness probe and the word probes reduce its per-level
extremes, and the `jsr` command walks the words once for all its reports.

A level's largest 2-norm is found without an SVD of every product. Since
||A||_F / sqrt(d) <= ||A||_2 <= ||A||_F, a product whose Frobenius norm is
below the level's largest Frobenius norm over sqrt(d) cannot hold the largest
2-norm; only the others, in word order, go through the batched SVD. The SVD
gives each matrix the same bits whatever else is in the batch, so the value,
and the first word that attains it, are those of an SVD of the whole level.

A walk without the rho minima finds a level's largest spectral radius the same
way (Gripenberg's branch and bound, Linear Algebra Appl. 234, 1996): rho(A) <=
||A||_F, so the products are eigendecomposed in descending Frobenius order, in
chunks, until the next chunk's largest norm is below the best radius so far.
No skipped product can reach or tie that radius, and the eigenvalues of a
matrix do not depend on the batch either, so the value and its first word are
those of the whole level. A walk with the minima eigendecomposes every product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import FRO_MARGIN, EigenSolverError, as_matrix
from .rng import unit_vectors

ENUM_BUDGET = 10**6
_LEVEL_MEMORY_CAP = 256 * 2**20  # bytes of stacked products kept per level
_SCREEN_BLOCK = 4096  # products scaled at a time by the norm screen
_RHO_CHUNK = 64  # first chunk of the rho screen; each later chunk doubles
# the rho screen stops early only when the best radius is a normal float far
# above the rounding floor of the scaled Frobenius norms
_RHO_FLOOR, _RHO_REL_FLOOR = 2.0**-900, 2.0**-400


class BudgetExceededError(RuntimeError):
    """The requested enumeration cannot be completed within the budget."""


@dataclass(frozen=True)
class MatrixSet:
    """Finite family of square matrices of a common dimension.

    matrices is stacked with shape (K, d, d); symbol i (1-indexed) selects
    matrices[i-1]. Optional labels are carried through to reports.
    """

    matrices: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected shape (K, d, d), got {mats.shape}")
        if mats.shape[0] < 1:
            raise ValueError("need at least one matrix")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrix entries must be finite")
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != mats.shape[0]:
                raise ValueError("labels length must match the number of matrices")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def from_list(cls, mats, labels=None) -> "MatrixSet":
        return cls(np.stack([as_matrix(m) for m in mats]), labels)

    @property
    def num_matrices(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, symbol: int) -> np.ndarray:
        if not 1 <= symbol <= self.num_matrices:
            raise ValueError(f"symbol {symbol} outside 1..{self.num_matrices}")
        return self.matrices[symbol - 1]


def word_product(s: MatrixSet, word) -> np.ndarray:
    """Left-to-right product along the word; the empty word gives the identity."""
    out = np.eye(s.dim)
    for sym in word:
        out = out @ s.matrix(int(sym))
    return out


def word_from_index(index: int, length: int, num_symbols: int) -> tuple[int, ...]:
    """Word at a lexicographic position within its level (1-indexed symbols)."""
    word = []
    for pos in range(length - 1, -1, -1):
        digit = (index // num_symbols**pos) % num_symbols
        word.append(digit + 1)
    return tuple(word)


def _level_products(s: MatrixSet, max_depth: int, budget: int):
    """Yield (depth, products) with products in lexicographic word order.

    Stops before a level that would exceed the budget (counted in products)
    or the per-level memory cap; the caller detects truncation by comparing
    the last yielded depth with max_depth. Products that overflow are yielded
    as they are, without a numpy warning; the callers report them.
    """
    k, d = s.num_matrices, s.dim
    used = 0
    arr = np.eye(d)[None]
    for depth in range(1, max_depth + 1):
        count = arr.shape[0] * k
        if used + count > budget or count * d * d * 8 > _LEVEL_MEMORY_CAP:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            arr = np.matmul(arr[:, None], s.matrices[None]).reshape(count, d, d)
        used += count
        yield depth, arr


def _batch_norm2(arr: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix; NaN where a matrix holds +-inf.

    A matrix with an inf entry never reaches LAPACK, which would print
    DLASCL errors on stdout and return NaN for it; a NaN entry raises, as
    LAPACK's failure does.
    """
    finite = np.isfinite(arr).all(axis=(1, 2))
    if finite.all():
        return _svd_max(arr)
    if np.isnan(arr).any():
        raise EigenSolverError("singular value iteration did not converge")
    out = np.full(arr.shape[0], np.nan)
    out[finite] = _svd_max(arr[finite])
    return out


def _svd_max(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(arr, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - depends on LAPACK
        raise EigenSolverError("singular value iteration did not converge") from exc


def _scaled_frobenius(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """Frobenius norms of arr over its largest |entry|, and that entry.

    The scaling keeps the squares from overflowing or underflowing; the norms
    are taken a block at a time so that no copy of the whole stack is made.
    A stack that is all zero or holds inf or NaN gives NaN norms.
    """
    top = np.maximum(arr.max(), -arr.min())
    fro = np.empty(arr.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, arr.shape[0], _SCREEN_BLOCK):
            block = arr[lo : lo + _SCREEN_BLOCK] / top
            fro[lo : lo + _SCREEN_BLOCK] = np.einsum("kij,kij->k", block, block)
    return np.sqrt(fro, out=fro), float(top)


def _norm_candidates(fro: np.ndarray, d: int) -> np.ndarray:
    """Mask of the products that can hold the largest 2-norm, from their
    scaled Frobenius norms.

    ||A||_F / sqrt(d) <= ||A||_2 <= ||A||_F, so a product whose Frobenius norm
    is below the largest one over sqrt(d), by more than a rounding margin, has
    a smaller 2-norm than the product that holds that Frobenius norm. NaN
    norms give a NaN threshold and keep every product.
    """
    with np.errstate(invalid="ignore"):
        return ~(fro < fro.max() / np.sqrt(d) * (1.0 - FRO_MARGIN * d))


def _batch_rho(arr: np.ndarray) -> np.ndarray:
    try:
        return np.abs(np.linalg.eigvals(arr)).max(axis=1)
    except np.linalg.LinAlgError as exc:  # numpy says why: no convergence, or inf/NaN
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc


def _rho_max(arr: np.ndarray, depth: int, fro: np.ndarray, top: float):
    """(value, index) of the largest rho(A)^(1/depth) over arr, first index on a tie.

    fro and top are _scaled_frobenius(arr). The products go through _batch_rho
    in descending Frobenius order, in chunks of _RHO_CHUNK, 2 _RHO_CHUNK, ...;
    the walk stops before a chunk whose largest (fro top)^(1/depth) is below
    the best value so far by more than FRO_MARGIN d. The computed rho of a
    matrix is the exact rho of a matrix within a few ulps of it in norm, so it
    is at most ||A||_F to rounding; every skipped product then has a smaller
    value than the best one, and cannot tie it. The stop also needs the best
    radius itself to be a normal float well above the scaled norms' underflow.
    A stack holding inf or NaN goes to _batch_rho whole, which raises.
    """
    root = 1.0 / depth
    if not np.isfinite(top) or arr.shape[0] <= _RHO_CHUNK:
        vals = _batch_rho(arr) ** root
        j = int(np.argmax(vals))
        return float(vals[j]), j
    order = np.argsort(-fro, kind="stable")
    cut = 1.0 - FRO_MARGIN * arr.shape[-1]
    best, best_raw, first = -np.inf, 0.0, 0
    lo, size = 0, _RHO_CHUNK
    while lo < order.size:
        if best_raw >= max(_RHO_FLOOR, top * _RHO_REL_FLOOR):
            with np.errstate(over="ignore"):
                if (fro[order[lo]] * top) ** root < best * cut:
                    break
        idx = order[lo : lo + size]
        raw = _batch_rho(arr[idx])
        vals = raw ** root
        top_val = vals.max()
        if top_val >= best:
            tied = int(idx[vals == top_val].min())
            first = tied if top_val > best else min(first, tied)
            best = top_val
        best_raw = max(best_raw, float(raw.max()))
        lo, size = lo + size, 2 * size
    return float(best), first


@dataclass(frozen=True)
class WordLevels:
    """Extremes per level n of one walk: rho[n-1] = (min, min_word, max, max_word)
    of rho(S_w)^(1/n), norms[n-1] = (max, max_word) of ||S_w||_2 over |w| = n.

    Ties go to the lexicographically first word. The norm maxima come from an
    SVD of only the products that pass the Frobenius screen of
    `_norm_candidates`; every product that can hold the maximum passes it, so
    they equal the maxima of an SVD of the whole level bit for bit. A walk
    built without minima holds None for min and min_word, and its rho maxima
    come from the screen of `_rho_max`, equal to those of an eigendecomposition
    of the whole level bit for bit."""

    family: MatrixSet
    rho_depth: int
    norm_depth: int
    budget: int
    completed: int
    rho: list[tuple]
    norms: list[tuple]
    minima: bool = True

    def norm_root(self, depth: int):
        """(max ||S_w||^(1/n), w) at the deepest completed level n <= depth."""
        level = min(self.completed, depth)
        norm, word = self.norms[level - 1]
        return norm ** (1.0 / level), word


def word_levels(
    s: MatrixSet | WordLevels,
    rho_depth: int,
    norm_depth: int,
    budget: int = ENUM_BUDGET,
    minima: bool = True,
) -> WordLevels:
    """Walk the words once, eigenvalues to rho_depth and singular values to norm_depth.

    With minima=False the per-level rho minima are not taken, and each level's
    rho maximum eigendecomposes only the products that can hold it. A level
    past the budget ends the walk; not completing even depth 1 raises
    BudgetExceededError. A walk passed as s that reaches both depths, and
    holds the minima when they are asked for, is returned.
    """
    if isinstance(s, WordLevels):
        if rho_depth > s.rho_depth or norm_depth > s.norm_depth:
            raise ValueError("the walk does not reach the requested depths")
        if minima and rho_depth and not s.minima:
            raise ValueError("the walk holds no rho minima")
        return s
    if max(rho_depth, norm_depth) < 1:
        raise ValueError("a walk needs a depth of at least 1")
    k, d = s.num_matrices, s.dim
    rho, norms = [], []
    completed = 0
    for completed, arr in _level_products(s, max(rho_depth, norm_depth), budget):
        screened = completed <= rho_depth and not minima
        if screened or completed <= norm_depth:
            fro, top = _scaled_frobenius(arr)
        if screened:
            val, j = _rho_max(arr, completed, fro, top)
            rho.append((None, None, val, word_from_index(j, completed, k)))
        elif completed <= rho_depth:
            vals = _batch_rho(arr) ** (1.0 / completed)
            i, j = int(np.argmin(vals)), int(np.argmax(vals))
            rho.append((float(vals[i]), word_from_index(i, completed, k),
                        float(vals[j]), word_from_index(j, completed, k)))
        if completed <= norm_depth:
            kept = np.flatnonzero(_norm_candidates(fro, d))
            vals = _batch_norm2(arr[kept])
            j = int(np.argmax(vals))
            norms.append((float(vals[j]), word_from_index(int(kept[j]), completed, k)))
    if completed == 0:
        raise BudgetExceededError(
            f"budget {budget} does not cover even depth 1 ({k} products)"
        )
    return WordLevels(s, rho_depth, norm_depth, budget, completed, rho, norms, minima)


GROWTH_WINDOW = 5
GROWTH_FACTOR = 1.5


@dataclass
class BoundednessReport:
    """Per-depth maxima of product norms and a growth verdict.

    verdict is "growth-detected" when a maximum overflowed (inf or NaN; no
    growth_fit then) or the maxima strictly increase over the last
    GROWTH_WINDOW completed depths by a total factor above GROWTH_FACTOR, and
    "bounded-so-far" otherwise. beta_hat is the largest product norm seen.
    With prune enabled and every generator norm at most 1, deeper levels are
    skipped (prune_note): the depth-1 maximum caps every product norm.
    """

    max_depth: int
    depth_probed: int
    max_norm_per_depth: list[float]
    beta_hat: float
    verdict: str
    growth_fit: float | None
    truncated: bool
    budget: int
    prune_note: str | None = None


def boundedness_probe(
    s: MatrixSet | WordLevels, max_depth: int, budget: int = ENUM_BUDGET,
    prune: bool = False,
) -> BoundednessReport:
    """Exhaustive per-depth norm maxima up to max_depth, within budget or from a walk."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    walk = s
    if isinstance(s, WordLevels):
        s, budget = s.family, s.budget
    prune_note = None
    if prune and (beta := float(_batch_norm2(s.matrices).max())) <= 1.0:
        per_depth = [beta]
        prune_note = (
            "all generator norms <= 1: every product norm is bounded by the "
            "depth-1 maximum, deeper levels skipped"
        )
    else:
        levels = word_levels(walk, 0, max_depth, budget).norms[:max_depth]
        per_depth = [norm for norm, _ in levels]
    window = per_depth[-GROWTH_WINDOW:]
    overflow = not np.isfinite(per_depth).all()
    growing = overflow or (
        len(window) == GROWTH_WINDOW
        and all(b > a for a, b in zip(window, window[1:]))
        and window[-1] > GROWTH_FACTOR * window[0]
    )
    growth_fit = None
    if len(per_depth) >= 2 and not overflow and min(per_depth) > 0.0:
        depths = np.arange(1, len(per_depth) + 1, dtype=float)
        growth_fit = float(
            np.polyfit(np.log(depths), np.log(np.asarray(per_depth)), 1)[0]
        )
    return BoundednessReport(
        max_depth=max_depth,
        depth_probed=len(per_depth),
        max_norm_per_depth=per_depth,
        beta_hat=float(max(per_depth)),
        verdict="growth-detected" if growing else "bounded-so-far",
        growth_fit=growth_fit,
        truncated=len(per_depth) < max_depth,
        budget=budget,
        prune_note=prune_note,
    )


@dataclass
class JsrBounds:
    """Containment bounds for the joint spectral radius at a finite depth.

    lower: max over all words w with |w| <= depth of rho(S_w)^(1/|w|).
    upper: max over words of exactly the deepest completed length n of
    ||S_w||^(1/n). lower <= jsr <= upper always; both words are reported.
    """

    depth: int
    depth_completed: int
    lower: float
    upper: float
    lower_word: tuple[int, ...]
    upper_word: tuple[int, ...]
    truncated: bool
    budget: int


def jsr_bounds(
    s: MatrixSet | WordLevels, depth: int, budget: int = ENUM_BUDGET
) -> JsrBounds:
    """Spectral lower and norm upper bound by level enumeration.

    On budget exhaustion the bounds of the deepest completed level are
    returned with truncated=True; nothing is completed at all raises
    BudgetExceededError. A walk passed as s brings its own budget.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    walk = word_levels(s, depth, depth, budget, minima=False)
    _, _, lower, lower_word, completed, truncated = rho_extremes(walk, depth, minima=False)
    upper, upper_word = walk.norm_root(depth)
    return JsrBounds(
        depth=depth,
        depth_completed=completed,
        # 1/n-th roots can round it past upper: (0.125**3)**(1/3) > 0.125
        lower=min(lower, upper),
        upper=upper,
        lower_word=lower_word,
        upper_word=upper_word,
        truncated=truncated,
        budget=walk.budget,
    )


def rho_extremes(
    s: MatrixSet | WordLevels, max_len: int, budget: int = ENUM_BUDGET, minima: bool = True
):
    """Min and max of rho(S_w)^(1/|w|) over 1 <= |w| <= max_len, one pass.

    Returns (min_value, min_word, max_value, max_word, completed_length,
    truncated); with minima=False the min and its word are None and the walk
    skips the products that cannot hold the max. Ties keep the earliest find,
    so shorter words win and within a length the lexicographically smallest
    word wins. Raises BudgetExceededError when not even length 1 fits the
    budget, and ValueError for minima from a walk built without them.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    levels = word_levels(s, max_len, 0, budget, minima).rho[:max_len]
    # min and max return the first extreme level, so ties keep the earliest find
    _, _, max_val, max_word = max(levels, key=lambda level: level[2])
    min_val = min_word = None
    if minima:
        min_val, min_word, _, _ = min(levels, key=lambda level: level[0])
    return min_val, min_word, max_val, max_word, len(levels), len(levels) < max_len


def preextremal_norm(s: MatrixSet, x, depth: int, budget: int = ENUM_BUDGET):
    """Truncated sup-norm: max of ||x S_w||_2 over all words with |w| <= depth.

    The empty word is included, so the value is at least ||x||_2. Accepts a
    single row vector or a stack of rows (one value per row). Exceeding the
    enumeration budget raises; a silently truncated maximum would be a wrong
    value, not an approximation.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    xs = np.atleast_2d(arr)
    m, d = xs.shape
    if d != s.dim:
        raise ValueError(f"vector length {d} does not match dimension {s.dim}")
    k = s.num_matrices
    total = sum(m * k**level for level in range(1, depth + 1))
    if total > budget:
        raise BudgetExceededError(
            f"pre-extremal enumeration needs {total} vector products, budget is {budget}"
        )
    best = np.linalg.norm(xs, axis=1)
    vecs = xs[:, None, :]  # (m, words, d)
    for _ in range(depth):
        vecs = np.einsum("mwd,kde->mwke", vecs, s.matrices).reshape(m, -1, d)
        best = np.maximum(best, np.linalg.norm(vecs, axis=2).max(axis=1))
    return float(best[0]) if single else best


@dataclass
class ContractionCheck:
    """Violation statistics for the defining inequality of the truncated norm.

    For every sampled x and every generator S_i it must hold that
    ||x S_i||_{depth} <= ||x||_{depth+1}; violation is the excess (clipped at
    zero) and should vanish to rounding.
    """

    depth: int
    samples: int
    seed: int
    max_violation: float
    per_generator_max: np.ndarray


def preextremal_contraction_check(
    s: MatrixSet,
    depth: int,
    samples: int = 50,
    seed: int = 0,
    budget: int = ENUM_BUDGET,
) -> ContractionCheck:
    xs = unit_vectors(s.dim, samples, seed)
    base = preextremal_norm(s, xs, depth + 1, budget)
    per_gen = np.empty(s.num_matrices)
    for i in range(s.num_matrices):
        shifted = preextremal_norm(s, xs @ s.matrices[i], depth, budget)
        per_gen[i] = float(np.max(shifted - base))
    return ContractionCheck(
        depth=depth,
        samples=samples,
        seed=seed,
        max_violation=float(max(0.0, per_gen.max())),
        per_generator_max=per_gen,
    )
