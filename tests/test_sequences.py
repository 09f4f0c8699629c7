"""Switching sequences: construction, return times, recurrence classes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mjlslab import (
    MarkovChain,
    SwitchingSequence,
    classify_recurrence,
    quadratic_gap_lengths,
    return_times,
    sample_trajectory,
)
from test_markov import sparse_chains

GAP4 = SwitchingSequence.quadratic_gap(4)


def test_periodic_prefix():
    seq = SwitchingSequence.periodic([1, 2, 2])
    assert seq.prefix(7).tolist() == [1, 2, 2, 1, 2, 2, 1]
    assert seq.max_length is None
    assert seq.detail["word"] == (1, 2, 2)


def test_explicit_prefix_and_bounds():
    seq = SwitchingSequence.explicit([3, 1, 2])
    assert seq.prefix(2).tolist() == [3, 1]
    assert seq.max_length == 3
    with pytest.raises(ValueError):
        seq.prefix(4)


def test_quadratic_gap_lengths_recursion():
    assert quadratic_gap_lengths(5) == [1, 3, 15, 255, 65535]
    # closed form: 2^(2^(k-1)) - 1
    for k, n in enumerate(quadratic_gap_lengths(5), start=1):
        assert n == 2 ** (2 ** (k - 1)) - 1


def test_quadratic_gap_word_structure():
    word = GAP4.prefix(255)
    ones = (np.flatnonzero(word == 2) + 1).tolist()
    assert ones == [1, 3, 13, 15, 241, 243, 253, 255]
    assert GAP4.detail["ones_count"] == 8
    assert GAP4.max_length == 255
    # each level is a prefix of the next
    w3 = SwitchingSequence.quadratic_gap(3).prefix(15)
    assert np.array_equal(word[:15], w3)


def test_quadratic_gap_return_times_level4():
    rt = return_times(GAP4, 1, horizon=255)
    assert rt.times.tolist() == [2, 12, 14, 240, 242, 252, 254]
    # the full level-3 block returns exactly once, at the mirror copy
    rt15 = return_times(GAP4, 15, horizon=255)
    assert rt15.times.tolist() == [240]


def test_return_times_periodic():
    seq = SwitchingSequence.periodic([1, 2])
    rt = return_times(seq, 2, horizon=20)
    assert rt.times.tolist() == [2, 4, 6, 8, 10, 12, 14, 16, 18]


def test_birkhoff_frequency_periodic_exact():
    seq = SwitchingSequence.periodic([1, 2, 2])
    freqs = classify_recurrence(seq, max_cylinder_len=3, horizon=300).frequencies
    assert freqs == pytest.approx([1.0 / 3.0] * 3)


def test_birkhoff_frequency_gap_word():
    freqs = classify_recurrence(GAP4, max_cylinder_len=15, horizon=255).frequencies
    assert freqs[14] == pytest.approx(1.0 / 255.0)


def test_classify_recurrence_gap_word():
    v = classify_recurrence(GAP4, max_cylinder_len=4, horizon=255)
    assert v.counts == [7, 6, 3, 2]
    assert v.verdict == "weakly-birkhoff-positive"
    # at a tighter threshold the word only barely recurs
    v = classify_recurrence(GAP4, max_cylinder_len=4, horizon=255, freq_threshold=0.05)
    assert v.verdict == "recurrent-so-far"


def test_classify_recurrence_no_return():
    seq = SwitchingSequence.explicit([1, 2, 2, 2, 2, 2])
    v = classify_recurrence(seq, max_cylinder_len=2, horizon=6)
    assert v.verdict == "no-return-found"
    assert v.counts[0] == 0


@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=30),
    st.integers(1, 40),
    st.integers(1, 5),
)
def test_recurrence_counts_every_return_inside_the_horizon(symbols, horizon, max_len):
    # a return at n needs the symbols n + 1 .. n + L, which a finite word may
    # not hold; a horizon past the word is cut to it
    v = classify_recurrence(SwitchingSequence.explicit(symbols), max_len, horizon)
    expected = [
        sum(symbols[n : n + L] == symbols[:L] for n in range(1, min(horizon, len(symbols) - L) + 1))
        for L in range(1, max_len + 1)
    ]
    assert v.counts == expected


def test_markov_sequence_matches_sampler():
    chain = MarkovChain([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
    seq = SwitchingSequence.markov(chain, seed=3)
    assert np.array_equal(seq.prefix(40), sample_trajectory(chain, 40, seed=3))
    # prefix stability
    assert np.array_equal(seq.prefix(10), seq.prefix(40)[:10])


def test_sequence_rejects_degenerate_input():
    with pytest.raises(ValueError):
        SwitchingSequence.periodic([])
    with pytest.raises(ValueError):
        SwitchingSequence.explicit([])
    with pytest.raises(ValueError):
        SwitchingSequence.quadratic_gap(0)


def test_quadratic_gap_puts_symbol_1_on_gaps_and_2_on_rare_steps():
    seq = SwitchingSequence.quadratic_gap(2)
    assert seq.prefix(3).tolist() == [2, 1, 2]
    assert seq.detail == {"levels": 2, "zero_symbol": 1, "one_symbol": 2, "ones_count": 2}


SYMBOLS = st.lists(st.integers(1, 3), min_size=1, max_size=12)


@st.composite
def sequences(draw):
    """A factory for one sequence of any kind; each call starts an empty Markov cache."""
    kind = draw(st.sampled_from(["periodic", "explicit", "quadratic_gap", "markov"]))
    if kind in ("periodic", "explicit"):
        symbols = draw(SYMBOLS)
        return lambda: getattr(SwitchingSequence, kind)(symbols)
    if kind == "quadratic_gap":
        levels = draw(st.integers(1, 4))
        return lambda: SwitchingSequence.quadratic_gap(levels)
    chain, seed = draw(sparse_chains()), draw(st.integers(0, 2**32))
    return lambda: SwitchingSequence.markov(chain, seed)


@given(sequences(), st.integers(0, 300), st.integers(0, 300))
def test_prefix_property_stable(make, n, extra):
    limit = make().max_length
    m = n + extra if limit is None else min(n + extra, limit)
    n = min(n, m)
    # both call orders: the longer prefix first, and the shorter one first
    longer_first = make()
    long = longer_first.prefix(m)
    assert np.array_equal(long[:n], longer_first.prefix(n))
    shorter_first = make()
    short = shorter_first.prefix(n)
    assert np.array_equal(shorter_first.prefix(m)[:n], short)
    assert np.array_equal(long, shorter_first.prefix(m))
