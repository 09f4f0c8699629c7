"""Finite matrix families and their switching-word products.

Words are tuples of 1-indexed symbols; the product of a word is taken left to
right, so word (2, 1) means S_2 @ S_1 and the empty word is the identity.
Enumeration over all words is breadth first, level by level, in lexicographic
order within each level, with an explicit product budget so partial results
are always flagged and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EigenSolverError, as_matrix, as_row_vector
from .rng import unit_vectors

ENUM_BUDGET = 10**6
_LEVEL_MEMORY_CAP = 256 * 2**20  # bytes of stacked products kept per level


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
    the last yielded depth with max_depth.
    """
    k, d = s.num_matrices, s.dim
    used = 0
    arr = np.eye(d)[None]
    for depth in range(1, max_depth + 1):
        count = arr.shape[0] * k
        if used + count > budget or count * d * d * 8 > _LEVEL_MEMORY_CAP:
            return
        arr = np.matmul(arr[:, None], s.matrices[None]).reshape(count, d, d)
        used += count
        yield depth, arr


def _batch_norm2(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(arr, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - depends on LAPACK
        raise EigenSolverError("singular value iteration did not converge") from exc


def _batch_rho(arr: np.ndarray) -> np.ndarray:
    try:
        return np.abs(np.linalg.eigvals(arr)).max(axis=1)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("eigenvalue iteration did not converge") from exc


GROWTH_WINDOW = 5
GROWTH_FACTOR = 1.5


@dataclass
class BoundednessReport:
    """Per-depth maxima of product norms and a growth verdict.

    verdict is "growth-detected" when the per-depth maxima are strictly
    increasing over the last GROWTH_WINDOW completed depths by a total factor
    above GROWTH_FACTOR, and "bounded-so-far" otherwise. beta_hat is the
    largest product norm seen. With prune enabled and every generator norm at
    most 1, deeper levels are skipped: submultiplicativity already caps every
    product norm by the depth-1 maximum (the rule is recorded in prune_note).
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
    s: MatrixSet, max_depth: int, budget: int = ENUM_BUDGET, prune: bool = False
) -> BoundednessReport:
    """Exhaustive per-depth norm maxima up to max_depth, within budget."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    prune_note = None
    if prune:
        gen_norms = _batch_norm2(s.matrices)
        if float(gen_norms.max()) <= 1.0:
            prune_note = (
                "all generator norms <= 1: every product norm is bounded by the "
                "depth-1 maximum, deeper levels skipped"
            )
            beta = float(gen_norms.max())
            return BoundednessReport(
                max_depth=max_depth,
                depth_probed=1,
                max_norm_per_depth=[beta],
                beta_hat=beta,
                verdict="bounded-so-far",
                growth_fit=None,
                truncated=max_depth > 1,
                budget=budget,
                prune_note=prune_note,
            )

    per_depth: list[float] = []
    for _, arr in _level_products(s, max_depth, budget):
        per_depth.append(float(_batch_norm2(arr).max()))
    if not per_depth:
        raise BudgetExceededError(
            f"budget {budget} does not cover even depth 1 ({s.num_matrices} products)"
        )

    window = per_depth[-GROWTH_WINDOW:]
    growing = (
        len(window) == GROWTH_WINDOW
        and all(b > a for a, b in zip(window, window[1:]))
        and window[-1] > GROWTH_FACTOR * window[0]
    )
    growth_fit = None
    if len(per_depth) >= 2 and min(per_depth) > 0.0:
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


def jsr_bounds(s: MatrixSet, depth: int, budget: int = ENUM_BUDGET) -> JsrBounds:
    """Spectral lower and norm upper bound by level enumeration.

    On budget exhaustion the bounds of the deepest completed level are
    returned with truncated=True; nothing is completed at all raises
    BudgetExceededError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    k = s.num_matrices
    lower = -np.inf
    lower_word: tuple[int, ...] = ()
    upper = np.inf
    upper_word: tuple[int, ...] = ()
    completed = 0
    for level, arr in _level_products(s, depth, budget):
        completed = level
        vals = _batch_rho(arr) ** (1.0 / level)
        i = int(np.argmax(vals))
        if vals[i] > lower:
            lower = float(vals[i])
            lower_word = word_from_index(i, level, k)
        norms = _batch_norm2(arr)
        j = int(np.argmax(norms))
        upper = float(norms[j]) ** (1.0 / level)
        upper_word = word_from_index(j, level, k)
    if completed == 0:
        raise BudgetExceededError(
            f"budget {budget} does not cover even depth 1 ({k} products)"
        )
    return JsrBounds(
        depth=depth,
        depth_completed=completed,
        lower=lower,
        upper=upper,
        lower_word=lower_word,
        upper_word=upper_word,
        truncated=completed < depth,
        budget=budget,
    )


def rho_extremes(s: MatrixSet, max_len: int, budget: int = ENUM_BUDGET):
    """Min and max of rho(S_w)^(1/|w|) over 1 <= |w| <= max_len, one pass.

    Returns (min_value, min_word, max_value, max_word, completed_length,
    truncated). Ties keep the earliest find, so shorter words win and within
    a length the lexicographically smallest word wins. Raises
    BudgetExceededError when not even length 1 fits the budget.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    min_val, max_val = np.inf, -np.inf
    min_word = max_word = None
    completed = 0
    for length, arr in _level_products(s, max_len, budget):
        vals = _batch_rho(arr) ** (1.0 / length)
        j = int(np.argmin(vals))
        if vals[j] < min_val:
            min_val = float(vals[j])
            min_word = word_from_index(j, length, s.num_matrices)
        j = int(np.argmax(vals))
        if vals[j] > max_val:
            max_val = float(vals[j])
            max_word = word_from_index(j, length, s.num_matrices)
        completed = length
    if completed == 0:
        raise BudgetExceededError(
            f"word enumeration at length 1 already exceeds the budget {budget}"
        )
    return min_val, min_word, max_val, max_word, completed, completed < max_len


def _preextremal_batch(
    s: MatrixSet, xs: np.ndarray, depth: int, budget: int
) -> np.ndarray:
    """Running maxima of ||x S_w|| over |w| <= depth for a stack of rows."""
    m, d = xs.shape
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
    return best


def preextremal_norm(s: MatrixSet, x, depth: int, budget: int = ENUM_BUDGET):
    """Truncated sup-norm: max of ||x S_w||_2 over all words with |w| <= depth.

    The empty word is included, so the value is at least ||x||_2. Accepts a
    single row vector or a stack of rows (one value per row). Exceeding the
    enumeration budget raises; a silently truncated maximum would be a wrong
    value, not an approximation.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    xs = np.atleast_2d(arr)
    if xs.shape[1] != s.dim:
        raise ValueError(f"vector length {xs.shape[1]} does not match dimension {s.dim}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    out = _preextremal_batch(s, xs, depth, budget)
    return float(out[0]) if single else out


def preextremal_profile(
    s: MatrixSet, x, depth: int, budget: int = ENUM_BUDGET
) -> np.ndarray:
    """Values of the truncated sup-norm at every depth 0..depth (nondecreasing)."""
    x = as_row_vector(x, s.dim)
    return np.array(
        [preextremal_norm(s, x, m, budget) for m in range(depth + 1)]
    )


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
