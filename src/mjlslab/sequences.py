"""Switching sequences and their recurrence structure.

A switching sequence is a symbol source with a stable prefix: prefix(n) is
always an initial segment of prefix(m) for n <= m. Four kinds are supported:
a repeated finite word, an explicit finite list, a sampled Markov trajectory,
and a slowly recurrent two-symbol word whose blocks of symbol 1 grow
quadratically between its rare symbols 2 (serialized under the kind tag
"example46").

Return times of the length-L initial cylinder and their visit frequency are
the desk-scale handles on recurrence: a sequence is recurrent when every
initial cylinder recurs, and the recurrence has positive weight when the
visit frequencies stay away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, sample_trajectory

QUADRATIC_GAP_KIND = "example46"  # serialization tag, fixed by the CLI format
FREQ_THRESHOLD = 1e-3
# level 5's word has 65,535 symbols and level 6's 2**32 - 1
QUADRATIC_GAP_MAX_LEVELS = 5


def quadratic_gap_lengths(levels: int) -> list[int]:
    """Word lengths at each construction level: 1, 3, 15, 255, 65535, ..."""
    out = [1]
    for _ in range(levels - 1):
        out.append(2 * out[-1] + out[-1] ** 2)
    return out


class SwitchingSequence:
    """Deterministic symbol source; construct via the classmethods."""

    def __init__(self, kind: str, prefix_fn, max_length: int | None, detail: dict):
        self.kind = kind
        self._prefix_fn = prefix_fn
        self._max_length = max_length
        self.detail = detail

    @classmethod
    def periodic(cls, word) -> "SwitchingSequence":
        word = np.asarray(list(word), dtype=np.int64)
        if word.size == 0:
            raise ValueError("periodic word must be nonempty")

        def gen(n):
            reps = -(-n // word.size)
            return np.tile(word, reps)[:n]

        return cls("periodic", gen, None, {"word": tuple(int(s) for s in word)})

    @classmethod
    def explicit(cls, symbols) -> "SwitchingSequence":
        symbols = np.asarray(list(symbols), dtype=np.int64)
        if symbols.size == 0:
            raise ValueError("explicit sequence must be nonempty")
        return cls(
            "explicit",
            lambda n: symbols[:n],
            int(symbols.size),
            {"length": int(symbols.size)},
        )

    @classmethod
    def quadratic_gap(cls, levels: int) -> "SwitchingSequence":
        """Recurrent two-symbol word whose gaps grow quadratically.

        Level 1 is the word (2,); level k repeats the level k-1 word around a
        gap of len(k-1)^2 symbols 1, so symbol 2 keeps recurring but with
        vanishing frequency. The detail names them as the 0/1 word's
        zero_symbol and one_symbol.
        """
        if not 1 <= levels <= QUADRATIC_GAP_MAX_LEVELS:
            raise ValueError(f"levels must lie in 1..{QUADRATIC_GAP_MAX_LEVELS}, got {levels}")
        word = np.array([2], dtype=np.int64)
        for _ in range(levels - 1):
            word = np.concatenate([word, np.ones(word.size**2, dtype=np.int64), word])
        return cls(
            QUADRATIC_GAP_KIND,
            lambda n: word[:n],
            int(word.size),
            {
                "levels": int(levels),
                "zero_symbol": 1,
                "one_symbol": 2,
                "ones_count": int(np.count_nonzero(word == 2)),
            },
        )

    @classmethod
    def markov(cls, chain: MarkovChain, seed: int) -> "SwitchingSequence":
        """The chain's trajectory from stream 0 of the seed."""
        cache: dict[str, np.ndarray] = {"buf": np.empty(0, dtype=np.int64)}

        def gen(n):
            if n > cache["buf"].size:
                cache["buf"] = sample_trajectory(chain, n, seed)
            return cache["buf"][:n]

        return cls("markov", gen, None, {"seed": int(seed), "stream": 0})

    def prefix(self, n: int) -> np.ndarray:
        """First n symbols. Stable: prefix(n) == prefix(m)[:n] for n <= m."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        if self._max_length is not None and n > self._max_length:
            raise ValueError(
                f"prefix of length {n} requested but the sequence has only "
                f"{self._max_length} symbols"
            )
        return np.asarray(self._prefix_fn(n), dtype=np.int64).copy()

    @property
    def max_length(self) -> int | None:
        return self._max_length


@dataclass
class ReturnTimes:
    """Times n with symbols (n+1 .. n+L) equal to symbols (1 .. L)."""

    cylinder_len: int
    horizon: int
    times: np.ndarray


def _match_times(symbols: np.ndarray, L: int, last_start: int) -> np.ndarray:
    """1-based shifts n in [1, last_start] whose window matches the prefix."""
    if last_start < 1:
        return np.empty(0, dtype=np.int64)
    pattern = symbols[:L]
    windows = np.lib.stride_tricks.sliding_window_view(symbols, L)
    hits = np.all(windows[1 : last_start + 1] == pattern, axis=1)
    return np.flatnonzero(hits).astype(np.int64) + 1


def return_times(seq: SwitchingSequence, L: int, horizon: int) -> ReturnTimes:
    """All return times of the initial length-L cylinder inside the horizon.

    A return at n needs symbols up to n + L, so times range over
    [1, horizon - L].
    """
    if L < 1:
        raise ValueError("cylinder length must be at least 1")
    if horizon < L:
        raise ValueError("horizon shorter than the cylinder length")
    symbols = seq.prefix(horizon)
    return ReturnTimes(
        cylinder_len=L,
        horizon=horizon,
        times=_match_times(symbols, L, horizon - L),
    )


@dataclass
class RecurrenceVerdict:
    """Per-cylinder-length return counts and the overall desk verdict.

    verdict is "weakly-birkhoff-positive" when every tested length has visit
    frequency at or above freq_threshold, "recurrent-so-far" when every
    length has returned at least once, and "no-return-found" otherwise.
    """

    horizon: int
    max_cylinder_len: int
    freq_threshold: float
    counts: list[int]
    frequencies: list[float]
    verdict: str


def classify_recurrence(
    seq: SwitchingSequence,
    max_cylinder_len: int,
    horizon: int,
    freq_threshold: float = FREQ_THRESHOLD,
) -> RecurrenceVerdict:
    counts = []
    freqs = []
    for L in range(1, max_cylinder_len + 1):
        scan = horizon + L  # a return by the horizon is matched in these symbols
        if seq.max_length is not None:
            scan = min(scan, seq.max_length)
        c = return_times(seq, L, scan).times.size if scan >= L else 0
        counts.append(c)
        freqs.append(c / horizon)
    if all(f >= freq_threshold for f in freqs):
        verdict = "weakly-birkhoff-positive"
    elif all(c >= 1 for c in counts):
        verdict = "recurrent-so-far"
    else:
        verdict = "no-return-found"
    return RecurrenceVerdict(
        horizon=horizon,
        max_cylinder_len=max_cylinder_len,
        freq_threshold=freq_threshold,
        counts=counts,
        frequencies=freqs,
        verdict=verdict,
    )
