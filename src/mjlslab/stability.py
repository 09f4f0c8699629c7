"""Convergence classifiers for Markovian and deterministic switched systems.

Three Monte Carlo estimates grade a jump linear system the way the stability
definitions do: per-vector convergence of x A(n) to zero, per-vector
exponential decay of its log-norm, and decay of the full product norm. Word
probes enumerate finite products to test periodic stability (every word
contracting) and consistent convergence (some word contracting), a greedy
lookahead search builds stabilizing switching sequences one block at a time,
and two harnesses bundle the estimates with their hypothesis gates: product
boundedness for the pointwise/exponential equivalence and periodic stability
for almost-sure exponential decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_row_vector
from .markov import MarkovChain, sample_trajectories
from .products import (
    ENUM_BUDGET,
    BoundednessReport,
    BudgetExceededError,
    MatrixSet,
    WordLevels,
    boundedness_probe,
    jsr_bounds,
    rho_extremes,
    word_from_index,
    word_levels,
)
from .rng import unit_vectors
from .splitting import log_norm_histories, tail_slope, tail_start

# horizon * delta should cover |log eps| so that an exponential trial can
# actually reach eps by the end of the run; reports flag the pairing
EPS_DEFAULT = 1e-6
DELTA_DEFAULT = 1e-3
PROBE_MARGIN = 1e-9
FINITENESS_GAP_TOL = 1e-6
POSITIVE_EVIDENCE_TRIALS = 5
# the harness walks every initial vector on a chunk of trials per kernel call,
# max(1, STACK_ROWS // num_initials) trials, so a call holds at most this many
# rows unless there are more initials. A step costs one matrix-matrix product
# per trial whatever its rows, so fewer trials per call means fewer products;
# the bound is the history buffer, rows x half the horizon
STACK_ROWS = 400
GATE_DEPTH_DEFAULT = 8
PROBE_LEN_DEFAULT = 8


@dataclass(frozen=True)
class MJLS:
    """A matrix family driven by a Markov chain over the same alphabet."""

    system: MatrixSet
    chain: MarkovChain

    def __post_init__(self):
        if self.chain.num_states != self.system.num_matrices:
            raise ValueError(
                f"chain has {self.chain.num_states} states but the family has "
                f"{self.system.num_matrices} matrices"
            )


def _symbol_paths(m: MJLS, trials: int, horizon: int, seed: int) -> np.ndarray:
    """One trajectory per trial, trial t drawn from stream t of the seed.

    Streams are keyed by (seed, trial index), so trial t is the same array no
    matter how many trials run or in what order.
    """
    if trials < 1 or horizon < 2:
        raise ValueError("need at least one trial and a horizon of at least 2")
    return sample_trajectories(m.chain, horizon, seed, range(trials))


def _vector_histories(
    s: MatrixSet, trajs: np.ndarray, xs: np.ndarray, window: int = 0
) -> np.ndarray:
    """log ||x A(n)|| per trial and step from step `window` on; trajs is (trials, n).

    xs is a (m, d) stack of initial vectors; rows i*trials .. (i+1)*trials - 1
    of the result belong to xs[i].
    """
    return log_norm_histories(s, trajs, np.repeat(xs, len(trajs), axis=0), window)


def _matrix_histories(s: MatrixSet, trajs: np.ndarray, window: int = 0) -> np.ndarray:
    """log ||A(n)||_2 per trial and step from step `window` on; trajs is (trials, n)."""
    return log_norm_histories(s, trajs, window=window)


@dataclass
class ConvergenceReport:
    """Monte Carlo convergence evidence from one batch of trajectories.

    A trial converges when its final norm is below eps, and counts as
    exponential when additionally its tail log-norm slope is below -delta.
    Requiring both keeps fraction_exponential <= fraction_converged by
    construction; the raw per-trial finals and fits are carried so nothing
    is hidden by that choice. pairing_ok records whether horizon * delta
    covers |log eps|, the regime in which an exponential trial is expected
    to have reached eps by the end of the run.

    positive_evidence needs at least 5 converged trials: a nonzero fraction
    backed by a handful of trajectories, not a single fluke.
    """

    kind: str
    trials: int
    horizon: int
    seed: int
    eps: float
    delta: float
    initial: np.ndarray | None
    final_log_norms: np.ndarray
    tail_fits: np.ndarray
    converged_count: int
    exponential_count: int
    fraction_converged: float
    fraction_exponential: float
    positive_evidence: bool
    exponential_evidence: bool
    pairing_ok: bool


def _check_rates(eps: float, delta: float) -> None:
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")


def _scores(hist: np.ndarray, horizon: int, eps: float, delta: float):
    """Tail fits and the converged and exponential masks of a windowed history."""
    fits = tail_slope(hist, horizon)
    converged = hist[:, -1] < np.log(eps)
    return fits, converged, converged & (fits < -delta)


def _build_report(
    kind: str,
    initial,
    trials: int,
    horizon: int,
    seed: int,
    eps: float,
    delta: float,
    hist: np.ndarray,
) -> ConvergenceReport:
    _check_rates(eps, delta)
    fits, converged, exponential = _scores(hist, horizon, eps, delta)
    finals = hist[:, -1].copy()
    cc = int(converged.sum())
    ec = int(exponential.sum())
    return ConvergenceReport(
        kind=kind,
        trials=trials,
        horizon=horizon,
        seed=seed,
        eps=eps,
        delta=delta,
        initial=None if initial is None else np.asarray(initial, dtype=float),
        final_log_norms=finals,
        tail_fits=fits,
        converged_count=cc,
        exponential_count=ec,
        fraction_converged=cc / trials,
        fraction_exponential=ec / trials,
        positive_evidence=cc >= POSITIVE_EVIDENCE_TRIALS,
        exponential_evidence=ec >= POSITIVE_EVIDENCE_TRIALS,
        pairing_ok=bool(horizon * delta >= abs(np.log(eps))),
    )


def pointwise_convergence_estimate(
    m: MJLS,
    x,
    trials: int,
    horizon: int,
    eps: float = EPS_DEFAULT,
    seed: int = 0,
    delta: float = DELTA_DEFAULT,
) -> ConvergenceReport:
    """Share of sampled trajectories along which x A(n) reaches norm < eps."""
    xr = as_row_vector(x, m.system.dim)
    if float(np.linalg.norm(xr)) == 0.0:
        raise ValueError("initial vector must be nonzero")
    trajs = _symbol_paths(m, trials, horizon, seed)
    hist = _vector_histories(m.system, trajs, xr[None], tail_start(horizon))
    return _build_report("vector", xr, trials, horizon, seed, eps, delta, hist)


def consistent_convergence_estimate(
    m: MJLS,
    trials: int,
    horizon: int,
    eps: float = EPS_DEFAULT,
    delta: float = DELTA_DEFAULT,
    seed: int = 0,
) -> ConvergenceReport:
    """Convergence of the full product norm ||A(n)||_2 instead of a vector."""
    trajs = _symbol_paths(m, trials, horizon, seed)
    hist = _matrix_histories(m.system, trajs, tail_start(horizon))
    return _build_report("matrix", None, trials, horizon, seed, eps, delta, hist)


def _require_matrix(consistent: ConvergenceReport) -> None:
    """Refuse a report that is not a consistent (product-norm) estimate."""
    if consistent.kind != "matrix":
        raise ValueError(f"consistent must be a matrix report, got kind {consistent.kind!r}")


@dataclass
class WordProbeResult:
    """Extremal averaged spectral radius over all words up to a length.

    best_value is rho(S_w)^(1/|w|) at best_word; objective says whether the
    probe maximized (periodic stability) or minimized (consistent
    convergence). truncated marks an enumeration stopped by the budget.
    """

    objective: str
    best_word: tuple[int, ...]
    best_value: float
    depth: int
    verdict: str
    truncated: bool


def periodic_stability_probe(
    s: MatrixSet | WordLevels, max_len: int, budget: int = ENUM_BUDGET
) -> WordProbeResult:
    """Largest averaged spectral radius over all words up to max_len.

    Every periodic switching sequence with period <= max_len is stable iff
    this maximum is below 1; the verdict keeps the so-far qualifier since
    longer words are unexplored. A walk passed as s brings its own budget.
    """
    _, _, max_val, max_word, completed, truncated = rho_extremes(
        s, max_len, budget, minima=False
    )
    stable = max_val < 1.0 - PROBE_MARGIN
    return WordProbeResult(
        objective="max-over-words",
        best_word=max_word,
        best_value=max_val,
        depth=completed,
        verdict="periodically-stable-so-far" if stable else "not-periodically-stable",
        truncated=truncated,
    )


def consistent_convergence_probe(
    s: MatrixSet | WordLevels, max_len: int, budget: int = ENUM_BUDGET
) -> WordProbeResult:
    """Smallest averaged spectral radius over all words up to max_len.

    A single word with rho(S_w) < 1 makes the periodic repetition of w drive
    every initial vector to zero, so finding one certifies consistent
    convergence; not finding one within max_len proves nothing. A walk passed
    as s brings its own budget, and one built without the minima raises
    ValueError.
    """
    min_val, min_word, _, _, completed, truncated = rho_extremes(s, max_len, budget)
    found = min_val < 1.0 - PROBE_MARGIN
    return WordProbeResult(
        objective="min-over-words",
        best_word=min_word,
        best_value=min_val,
        depth=completed,
        verdict="consistently-convergent" if found else "not-found",
        truncated=truncated,
    )


@dataclass
class FinitenessReport:
    """Gap between the best word's growth rate and the deep norm bound.

    When the lower bound achieved by a concrete word meets the upper bound
    from deep norm enumeration, that word attains the joint spectral radius
    up to the gap: finiteness evidence at tolerance 1e-6.
    """

    max_len: int
    jsr_depth: int
    lower: float
    lower_word: tuple[int, ...]
    upper: float
    gap: float
    finiteness_evidence: bool
    truncated: bool


def spectral_finiteness_probe(
    s: MatrixSet | WordLevels, max_len: int, jsr_depth: int, budget: int = ENUM_BUDGET
) -> FinitenessReport:
    """JSR lower bound to max_len against the norm bound at jsr_depth, one walk."""
    if min(max_len, jsr_depth) < 1:
        raise ValueError("max_len and jsr_depth must be at least 1")
    walk = word_levels(s, max_len, max(max_len, jsr_depth), budget, minima=False)
    shallow = jsr_bounds(walk, max_len)
    upper, _ = walk.norm_root(jsr_depth)
    gap = upper - shallow.lower
    return FinitenessReport(
        max_len=max_len,
        jsr_depth=jsr_depth,
        lower=shallow.lower,
        lower_word=shallow.lower_word,
        upper=upper,
        gap=float(gap),
        finiteness_evidence=bool(gap < FINITENESS_GAP_TOL),
        truncated=walk.completed < max(max_len, jsr_depth),
    )


@dataclass
class GreedySearchResult:
    """Outcome of the blockwise greedy norm-minimizing switching search."""

    success: bool
    word: np.ndarray
    steps: int
    final_norm: float
    block_norms: np.ndarray
    failure_reason: str | None = None


def greedy_pointwise_search(
    s: MatrixSet,
    x,
    lookahead: int,
    max_steps: int,
    eps: float,
    budget: int = ENUM_BUDGET,
) -> GreedySearchResult:
    """Stabilize one vector by greedily appending norm-minimizing blocks.

    Each round scores every word of length `lookahead` by the norm it leaves
    and appends the best one, breaking ties toward the lexicographically
    smallest word. Success is a norm below eps within max_steps symbols
    (mid-block prefixes count); three consecutive blocks without strict
    decrease abandon the search with the trace collected so far.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    k, d = s.num_matrices, s.dim
    if k**lookahead > budget:
        raise BudgetExceededError(
            f"{k}^{lookahead} lookahead words exceed the budget {budget}"
        )
    blocks = s.matrices.copy()
    for _ in range(lookahead - 1):
        blocks = np.matmul(blocks[:, None], s.matrices[None]).reshape(-1, d, d)

    v = as_row_vector(x, d).copy()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("initial vector must be nonzero")
    word: list[int] = []
    block_norms: list[float] = []
    stall = 0

    def _result(success, reason=None):
        return GreedySearchResult(
            success=success,
            word=np.array(word, dtype=np.int64),
            steps=len(word),
            final_norm=float(np.linalg.norm(v)),
            block_norms=np.array(block_norms),
            failure_reason=reason,
        )

    if norm < eps:
        return _result(True)
    while len(word) + lookahead <= max_steps:
        scores = np.linalg.norm(np.einsum("e,meh->mh", v, blocks), axis=1)
        digits = word_from_index(int(np.argmin(scores)), lookahead, k)
        for sym in digits:
            v = v @ s.matrices[sym - 1]
            word.append(int(sym))
            if float(np.linalg.norm(v)) < eps:
                block_norms.append(float(np.linalg.norm(v)))
                return _result(True)
        new_norm = float(np.linalg.norm(v))
        block_norms.append(new_norm)
        stall = stall + 1 if new_norm >= norm else 0
        norm = new_norm
        if stall >= 3:
            return _result(False, "no strict decrease over 3 consecutive blocks")
    return _result(False, f"norm still {norm:.3g} after {len(word)} steps")


@dataclass
class EquivalenceReport:
    """Paired pointwise/exponential fractions over many initial vectors.

    For product-bounded families the two classifications should agree; the
    harness samples one batch of trajectories, scores every initial vector
    on that same batch, and reports the per-initial fraction pairs plus the
    worst discrepancy. gate_passed reflects the boundedness probe; when it
    fails the estimates still run but the equivalence claim has no backing
    hypothesis and the report says so.
    """

    trials: int
    horizon: int
    num_initials: int
    seed: int
    eps: float
    delta: float
    gate: BoundednessReport
    gate_passed: bool
    initials: np.ndarray
    fractions_converged: np.ndarray
    fractions_exponential: np.ndarray
    converged_counts: np.ndarray
    exponential_counts: np.ndarray
    max_discrepancy: float
    positive_implies_exponential: bool
    equivalence_evidence: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)


def pointwise_equivalence_harness(
    m: MJLS,
    trials: int,
    horizon: int,
    num_initials: int,
    seed: int,
    eps: float = EPS_DEFAULT,
    delta: float = DELTA_DEFAULT,
    gate_depth: int = GATE_DEPTH_DEFAULT,
    budget: int = ENUM_BUDGET,
) -> EquivalenceReport:
    """Pointwise and exponential fractions of num_initials unit vectors on one draw.

    The boundedness probe walks the products to gate_depth first; its
    verdict is the gate. Every initial is scored on the same `trials` paths,
    seeded by seed, with the counts of pointwise_convergence_estimate, bit for
    bit. The kernel walks all initials on a chunk of max(1, STACK_ROWS //
    num_initials) trials per call, and each initial's counts over a chunk are
    added up from its own block of rows. eps or delta not positive raises
    ValueError before any of this runs.
    """
    _check_rates(eps, delta)
    gate = boundedness_probe(m.system, gate_depth, budget, prune=True)
    gate_passed = gate.verdict == "bounded-so-far"
    notes: list[str] = []
    if not gate_passed:
        notes.append(
            "product boundedness not established (probe verdict "
            f"{gate.verdict!r}); equivalence of the two classifications is "
            "not guaranteed for this family"
        )
    trajs = _symbol_paths(m, trials, horizon, seed)
    initials = unit_vectors(m.system.dim, num_initials, seed, stream_offset=3)
    cc = np.zeros(num_initials, dtype=np.int64)
    ec = np.zeros(num_initials, dtype=np.int64)
    window, per_call = tail_start(horizon), max(1, STACK_ROWS // num_initials)
    for lo in range(0, trials, per_call):
        chunk = trajs[lo : lo + per_call]
        hist = _vector_histories(m.system, chunk, initials, window)
        # one initial's block at a time keeps the fit's temporaries small
        for i, block in enumerate(hist.reshape(num_initials, len(chunk), -1)):
            _, converged, exponential = _scores(block, horizon, eps, delta)
            cc[i] += converged.sum()
            ec[i] += exponential.sum()
    fc, fe = cc / trials, ec / trials
    implied = bool(np.all((fc == 0.0) | (fe > 0.0)))
    return EquivalenceReport(
        trials=trials,
        horizon=horizon,
        num_initials=num_initials,
        seed=seed,
        eps=eps,
        delta=delta,
        gate=gate,
        gate_passed=gate_passed,
        initials=initials,
        fractions_converged=fc,
        fractions_exponential=fe,
        converged_counts=cc,
        exponential_counts=ec,
        max_discrepancy=float(np.abs(fc - fe).max()),
        positive_implies_exponential=implied,
        equivalence_evidence=gate_passed and implied,
        warnings=tuple(notes),
    )


@dataclass
class AlmostSureReport:
    """Tail decay fits across trajectories under a periodic-stability gate.

    evidence holds when the word probe found every short word contracting
    and every sampled trajectory's product norm decays at rate delta. The
    fits are reported raw either way.
    """

    trials: int
    horizon: int
    seed: int
    delta: float
    probe: WordProbeResult
    gate_passed: bool
    tail_fits: np.ndarray
    max_tail_fit: float
    evidence: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)


def almost_sure_exponential_estimate(
    consistent: ConvergenceReport,
    s: MatrixSet | WordLevels,
    probe_len: int = PROBE_LEN_DEFAULT,
    budget: int = ENUM_BUDGET,
) -> AlmostSureReport:
    """Tail fits of log ||A(n)||_2 over sampled trajectories, gated by the word probe.

    consistent is the consistent_convergence_estimate of the run: its
    tail_fits are the fits, and its trials, horizon, seed and delta are the
    report's. Nothing is drawn and no product history is built; a report of
    another kind raises ValueError. The periodic-stability gate walks the
    words of the family s up to probe_len, or reads a walk of them that
    reaches probe_len, passed as s.
    """
    _require_matrix(consistent)
    probe = periodic_stability_probe(s, probe_len, budget)
    gate_passed = probe.verdict == "periodically-stable-so-far"
    notes: list[str] = []
    if not gate_passed:
        notes.append(
            f"periodic stability probe failed at max_len {probe_len} "
            f"(max averaged spectral radius {probe.best_value:.6g}); the "
            "almost-sure decay hypothesis is not established"
        )
    fits = consistent.tail_fits
    max_fit = float(fits.max())
    return AlmostSureReport(
        trials=consistent.trials,
        horizon=consistent.horizon,
        seed=consistent.seed,
        delta=consistent.delta,
        probe=probe,
        gate_passed=gate_passed,
        tail_fits=fits,
        max_tail_fit=max_fit,
        evidence=gate_passed and max_fit < -consistent.delta,
        warnings=tuple(notes),
    )


@dataclass
class DiagonalShortcutReport:
    """All-ones pointwise estimate versus the consistent estimate.

    For diagonal families the all-ones vector dominates every coordinate, so
    driving it to zero drives the whole product norm to zero; the report
    checks that the two positivity verdicts agree on matched trajectories.
    """

    pointwise: ConvergenceReport
    consistent: ConvergenceReport
    pointwise_positive: bool
    consistent_positive: bool
    agree: bool


def diagonal_shortcut_check(m: MJLS, consistent: ConvergenceReport) -> DiagonalShortcutReport:
    """Compare the all-ones pointwise estimate with the consistent estimate.

    consistent is the consistent_convergence_estimate of m; a report of
    another kind raises ValueError. The all-ones estimate is drawn with its
    trials, horizon, seed, eps and delta, so both are scored on the same
    trajectories, and its product history is not built again.
    """
    d = m.system.dim
    off = m.system.matrices * (1.0 - np.eye(d))
    if np.abs(off).max() > 0.0:
        bad = int(np.argmax(np.abs(off).reshape(m.system.num_matrices, -1).max(1)))
        raise ValueError(f"matrix {bad + 1} is not diagonal")
    _require_matrix(consistent)
    cs = consistent
    pw = pointwise_convergence_estimate(
        m, np.ones(d), cs.trials, cs.horizon, cs.eps, cs.seed, cs.delta
    )
    return DiagonalShortcutReport(
        pointwise=pw,
        consistent=cs,
        pointwise_positive=pw.fraction_converged > 0.0,
        consistent_positive=cs.fraction_converged > 0.0,
        agree=(pw.fraction_converged > 0.0) == (cs.fraction_converged > 0.0),
    )
