"""Finite-state Markov chains for jump linear systems.

Covers validation of (initial, transition) pairs, irreducibility, the
decomposition of a stationary chain into recurrent classes plus transient
states, the shift-invariance defect of the path measure, and seeded
trajectory sampling; these two refuse a pair that is no law on paths.
Irreducibility and the recurrent classes are both read off one reachability
matrix, the boolean closure of the positive-transition digraph, computed by
repeated squaring with numpy alone.

States are 1-indexed everywhere in the public interface; arrays are 0-indexed
internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import philox_stream

ROW_SUM_TOL = 1e-12
DIST_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# entries (8 bytes each) of the per-state draw table that sample_trajectories
# builds for one block of steps; it sets how many steps a block holds
SAMPLE_TABLE_ENTRIES = 1 << 18


@dataclass(frozen=True)
class MarkovChain:
    """Initial distribution and transition matrix; shape checks only here.

    Stochasticity, nonnegativity and stationarity are reported by
    validate_chain rather than enforced, so defective inputs can still be
    built and their defects quantified. Sampling and the shift-invariance
    defect refuse a pair with a structural defect.
    """

    initial: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.initial, dtype=float).reshape(-1)
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"transition must be square, got shape {t.shape}")
        if t.shape[0] == 0:
            raise ValueError("a chain needs at least one state")
        if p.shape[0] != t.shape[0]:
            raise ValueError(
                f"initial has {p.shape[0]} entries but transition is {t.shape[0]}x{t.shape[1]}"
            )
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
            raise ValueError("chain entries must be finite")
        object.__setattr__(self, "initial", p)
        object.__setattr__(self, "transition", t)

    @property
    def num_states(self) -> int:
        return self.initial.shape[0]


@dataclass
class ValidationReport:
    num_states: int
    row_sum_defect: float
    min_entry: float
    initial_sum_defect: float
    stationarity_defect: float
    issues: list[str] = field(default_factory=list)
    valid: bool = False


def structural_issues(chain: MarkovChain) -> list[str]:
    """Defects that stop the pair from being a probability law on paths.

    Row sums away from 1, negative entries, entries above 1 and an initial
    mass away from 1; a non-stationary initial distribution is not one of them.
    """
    p, t = chain.initial, chain.transition
    row_defects = np.abs(t.sum(axis=1) - 1.0)
    issues = []
    if row_defects.max() > ROW_SUM_TOL:
        bad = int(np.argmax(row_defects))
        issues.append(
            f"transition row {bad + 1} sums to {t[bad].sum():.17g}, expected 1"
        )
    min_entry = min(p.min(), t.min())
    if min_entry < 0.0:
        issues.append(f"negative entry {float(min_entry):.17g}")
    max_entry = max(p.max(), t.max())
    if max_entry > 1.0:
        issues.append(f"entry {float(max_entry):.17g} above 1")
    if abs(p.sum() - 1.0) > DIST_SUM_TOL:
        issues.append(f"initial distribution sums to {p.sum():.17g}, expected 1")
    return issues


def validate_chain(chain: MarkovChain) -> ValidationReport:
    """Quantified validity check: row sums, signs, total mass, stationarity.

    The stationarity defect is ||p P - p|| in the max norm. The chain is
    `valid` when every defect is inside its tolerance.
    """
    p, t = chain.initial, chain.transition
    report = ValidationReport(
        num_states=chain.num_states,
        row_sum_defect=float(np.max(np.abs(t.sum(axis=1) - 1.0))),
        min_entry=float(min(p.min(), t.min())),
        initial_sum_defect=float(abs(p.sum() - 1.0)),
        stationarity_defect=float(np.max(np.abs(p @ t - p))),
        issues=structural_issues(chain),
    )
    if report.stationarity_defect > STATIONARY_TOL:
        report.issues.append(
            f"initial distribution is not stationary, defect {report.stationarity_defect:.3g}"
        )
    report.valid = not report.issues
    return report


def _reachability(chain: MarkovChain) -> np.ndarray:
    """r[i, j] is True when state j is reachable from i in zero or more steps.

    Squaring the 0/1 matrix of (transition > 0) | I doubles the path length it
    covers, and a shortest path has at most K - 1 steps, so ceil(log2(K - 1))
    squarings suffice. The float products count paths up to K, so stay exact.
    """
    k = chain.num_states
    r = ((chain.transition > 0.0) | np.eye(k, dtype=bool)).astype(float)
    covered = 1
    while covered < k - 1:
        r = (r @ r > 0.0).astype(float)
        covered *= 2
    return r > 0.0


def is_irreducible(chain: MarkovChain) -> bool:
    """True when the positive-transition digraph is strongly connected."""
    return bool(_reachability(chain).all())


@dataclass(frozen=True)
class ErgodicDecomposition:
    """Recurrent classes, transient states and the conditional chains.

    States are 1-indexed. Classes are ordered by their smallest state. The
    weight of a class is the initial mass it carries; conditional chains
    restrict the transition matrix to the class and renormalize the initial
    mass (a class with zero weight gets a uniform placeholder initial and
    `zero_mass_matches_transient` is False in that case).
    """

    transient_states: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    weights: np.ndarray
    conditional_chains: tuple[MarkovChain, ...]
    zero_mass_matches_transient: bool


def ergodic_decomposition(chain: MarkovChain) -> ErgodicDecomposition:
    """Split the state space into recurrent classes and transient states.

    A state is recurrent when every state it reaches reaches it back; its
    class is then the set of states it reaches. Every other state is
    transient. For an exactly stationary chain the transient states are
    precisely the states with zero initial mass, which is reported as a flag
    rather than assumed.
    """
    p, t = chain.initial, chain.transition
    n = chain.num_states
    r = _reachability(chain)
    recurrent = (r <= r.T).all(axis=1)
    # a class is read once, off its smallest state
    smallest = recurrent & (r.argmax(axis=1) == np.arange(n))
    closed = [tuple(int(s) + 1 for s in np.flatnonzero(r[i])) for i in np.flatnonzero(smallest)]
    transient = tuple(int(s) + 1 for s in np.flatnonzero(~recurrent))

    weights = np.array([sum(p[s - 1] for s in cls) for cls in closed])
    conditionals = []
    for cls, w in zip(closed, weights):
        ix = [s - 1 for s in cls]
        sub_t = t[np.ix_(ix, ix)].copy()
        if w > 0.0:
            sub_p = p[ix] / w
        else:
            sub_p = np.full(len(ix), 1.0 / len(ix))
        conditionals.append(MarkovChain(sub_p, sub_t))

    zero_mass = {s for s in range(1, n + 1) if p[s - 1] == 0.0}
    return ErgodicDecomposition(
        transient_states=transient,
        classes=tuple(closed),
        weights=weights,
        conditional_chains=tuple(conditionals),
        zero_mass_matches_transient=zero_mass == set(transient),
    )


def _require_law(chain: MarkovChain) -> None:
    """ValueError naming the first structural defect of the chain, if any."""
    issues = structural_issues(chain)
    if issues:
        raise ValueError(issues[0])


def shift_invariance_defect(chain: MarkovChain, max_len: int) -> float:
    """max over words w, |w| <= max_len, of |mu([w]) - sum_k mu([k w])|.

    A word starting with a has the defect |p_a - (pP)_a| tau, tau the product
    of its transition probabilities. Every tau is at most 1 and the one-letter
    words have tau = 1, so the maximum is the stationarity defect max |pP - p|
    for every max_len, and it is zero exactly when p is stationary. Raises
    ValueError on a chain with a structural defect.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    _require_law(chain)
    p = chain.initial
    return float(np.max(np.abs(p @ chain.transition - p)))


def _pick_table(probs: np.ndarray) -> np.ndarray:
    """The symbol that each raw inverse-CDF index 0..K selects, as an array.

    Symbol i owns the half-open interval (cum[i-1], cum[i]], so the raw index
    is the left bisection of u into the cumulative row, and a u exactly on a
    boundary selects the lower index. A raw index on a zero-mass symbol moves
    up to the next positive-mass symbol, and one past the row or above the
    last positive mass moves down to that last one, so zero-mass symbols are
    never selected. The row must have positive mass.
    """
    mass = np.flatnonzero(probs > 0.0)
    above = np.searchsorted(mass, np.arange(len(probs) + 1), side="left")
    return mass[np.minimum(above, mass.size - 1)]


def sample_trajectories(
    chain: MarkovChain, horizon: int, seed: int, streams
) -> np.ndarray:
    """Sample one trajectory per stream: a (len(streams), horizon) array, 1-indexed.

    Row i draws its uniforms, one per step, from philox_stream(seed,
    streams[i]), so a row depends only on its own stream, and a longer
    horizon with the same key extends it.

    Draw contract: step n takes the first index whose cumulative sum in the
    current state's row is >= u_n (the left bisection of u_n), so a u_n on a
    boundary goes to the lower index. An index past the row or on a zero-mass
    symbol moves to a positive-mass symbol as `_pick_table` says; the first
    state is drawn the same way from the initial distribution. A chain with a
    structural defect (see structural_issues) raises ValueError.

    The uniforms are bisected for every state at once, a block of steps at a
    time (the block's table holds about SAMPLE_TABLE_ENTRIES entries), and
    each step is then one table lookup across all the rows.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _require_law(chain)
    gens = [philox_stream(seed, stream) for stream in streams]
    rows, k = len(gens), chain.num_states
    out = np.empty((rows, horizon), dtype=np.int64)
    if not rows:
        return out
    p, t = chain.initial, chain.transition
    # nonnegative rows have nondecreasing cumulative sums, which one
    # searchsorted call over many uniforms bisects as if each were alone
    cum_t = np.cumsum(t, axis=1)
    picks = [_pick_table(row) for row in t]
    # row i in state s sits at position s * rows + i
    offsets = np.arange(rows)
    step = max(1, min(horizon, SAMPLE_TABLE_ENTRIES // (k * rows)))
    us = np.empty((rows, step))
    for lo in range(0, horizon, step):
        width = min(step, horizon - lo)
        block = us[:, :width]
        for gen, row in zip(gens, block):
            gen.random(out=row)
        # table[j, s * rows + i]: row i's position after step lo + j from state s
        table = np.empty((width, k, rows), dtype=np.int64)
        for s in range(k):
            table[:, s] = picks[s][np.searchsorted(cum_t[s], block.T)] * rows + offsets
        table = table.reshape(width, k * rows)
        walk = np.empty((width, rows), dtype=np.int64)
        if lo == 0:
            first = _pick_table(p)[np.searchsorted(np.cumsum(p), block[:, 0])]
            walk[0] = pos = first * rows + offsets
        for j in range(1 if lo == 0 else 0, width):
            pos = walk[j] = table[j][pos]
        out[:, lo : lo + width] = (walk // rows).T
    out += 1
    return out


def sample_trajectory(
    chain: MarkovChain, horizon: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Sample `horizon` states (1-indexed) from the chain, deterministically.

    The one-row case of sample_trajectories, keyed by (seed, stream): one
    uniform is drawn per step in order, so a longer horizon with the same key
    extends the shorter sample, and the path equals row i of any
    sample_trajectories call whose streams[i] is `stream`. The draw contract
    is the one stated there.
    """
    return sample_trajectories(chain, horizon, seed, [stream])[0]
