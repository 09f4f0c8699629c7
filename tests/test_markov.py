"""Markov chains: validation, decomposition, shift invariance, sampling."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mjlslab.markov
from mjlslab import (
    MarkovChain,
    ergodic_decomposition,
    is_irreducible,
    sample_trajectories,
    sample_trajectory,
    shift_invariance_defect,
    structural_issues,
    validate_chain,
)
from mjlslab.rng import philox_stream
from oracles import (
    oracle_classes,
    oracle_sample_trajectory,
    oracle_shift_defect,
    oracle_shift_defect_words,
    random_structured_chain,
    stationary_distribution,
)

# two absorbing states plus a feeder
REDUCIBLE = MarkovChain(
    [0.3, 0.7, 0.0],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
)


def test_chain_shape_validation():
    with pytest.raises(ValueError):
        MarkovChain([1.0], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovChain([0.5, 0.5], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        MarkovChain([0.5, 0.5], [[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="at least one state"):
        MarkovChain([], np.zeros((0, 0)))


def test_validate_chain_reports_each_defect():
    rep = validate_chain(MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.4, 0.4]]))
    assert not rep.valid
    assert any("row 2 sums to" in s for s in rep.issues)

    rep = validate_chain(MarkovChain([0.7, 0.4], [[0.5, 0.5], [0.5, 0.5]]))
    assert any("sums to" in s for s in rep.issues)

    rep = validate_chain(MarkovChain([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]]))
    assert not rep.valid
    assert any("not stationary" in s for s in rep.issues)
    assert rep.stationarity_defect == pytest.approx(0.5)

    rep = validate_chain(REDUCIBLE)
    assert rep.valid and rep.issues == []
    assert rep.stationarity_defect == 0.0


def test_irreducibility():
    assert not is_irreducible(REDUCIBLE)
    assert is_irreducible(MarkovChain([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]))
    assert is_irreducible(MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]))


def test_decomposition_reducible_chain():
    dec = ergodic_decomposition(REDUCIBLE)
    assert dec.classes == ((1,), (2,))
    assert dec.transient_states == (3,)
    assert np.allclose(dec.weights, [0.3, 0.7])
    assert dec.zero_mass_matches_transient
    for sub in dec.conditional_chains:
        assert validate_chain(sub).valid


def _cycle(k):
    """i -> i + 1 mod k: crossing it takes k - 1 steps."""
    return np.roll(np.eye(k), 1, axis=1)


def _path(k):
    """i -> i + 1 with the last state absorbing."""
    t = np.eye(k, k, 1)
    t[-1, -1] = 1.0
    return t


def test_decomposition_matches_oracle_on_random_chains():
    rng = np.random.default_rng(10)
    chains = [random_structured_chain(rng, max_states=6) for _ in range(40)]
    # sparse chains up to K = 40 have many classes and long transient chains
    chains += [
        random_structured_chain(rng, max_states=40, density=rng.uniform(0.0, 0.4))
        for _ in range(40)
    ]
    # cycles and paths need the most squarings of the reachability closure;
    # a zero row is a class of its own
    chains += [(None, shape(k)) for k in range(1, 41) for shape in (_cycle, _path)]
    chains += [(None, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))]
    chains += [(None, np.array([[1.0]])), (None, np.array([[0.0]]))]
    for p, t in chains:
        k = t.shape[0]
        chain = MarkovChain(np.full(k, 1.0 / k) if p is None else p, t)
        dec = ergodic_decomposition(chain)
        transient, classes = oracle_classes(t)
        assert dec.classes == classes
        assert dec.transient_states == transient
        assert is_irreducible(chain) == (len(classes) == 1 and not transient)
        if p is not None:  # a stationary initial puts all its mass on the classes
            assert abs(dec.weights.sum() - 1.0) < 1e-12


def test_conditional_chains_are_stationary_restrictions():
    rng = np.random.default_rng(11)
    p, t = random_structured_chain(rng, max_states=5)
    dec = ergodic_decomposition(MarkovChain(p, t))
    for cls, sub in zip(dec.classes, dec.conditional_chains):
        ix = [s - 1 for s in cls]
        assert np.allclose(sub.transition, t[np.ix_(ix, ix)])
        assert np.allclose(sub.initial, stationary_distribution(sub.transition), atol=1e-10)


def test_shift_invariance_defect_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p, t = random_structured_chain(rng, max_states=4)
        got = shift_invariance_defect(MarkovChain(p, t), max_len=3)
        assert got == pytest.approx(oracle_shift_defect(p, t, 3), abs=1e-14)
    # non-stationary start shows a positive defect
    tilted = MarkovChain([0.2, 0.3, 0.5], REDUCIBLE.transition)
    assert shift_invariance_defect(tilted, max_len=2) > 0.1


def _criterion1_chains():
    """The stationary and the tilted chains of acceptance criterion 1."""
    rng = np.random.default_rng(101)
    chains = [MarkovChain(*random_structured_chain(rng, max_states=4)) for _ in range(50)]
    while len(chains) < 100:
        _, t = random_structured_chain(rng, max_states=4)
        q = rng.random(t.shape[0]) + 0.05
        chain = MarkovChain(q / q.sum(), t)
        if validate_chain(chain).stationarity_defect >= 1e-6:
            chains.append(chain)
    return chains


# the decompose demo chain (REDUCIBLE), then an absorbing chain and a 2-cycle
# with a tilted start; a chain with a negative entry below -1 and one whose
# first row sums above 1 are no probability law on paths and are refused
SHIFT_CHAINS = {
    "criterion_01": _criterion1_chains(),
    "decompose_demo": [REDUCIBLE],
    "absorbing": [
        MarkovChain([0.2, 0.3, 0.5], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    ],
    "two_cycle": [MarkovChain([0.9, 0.1], [[0.0, 1.0], [1.0, 0.0]])],
    "negative_entry": [MarkovChain([0.5, 0.5], [[0.5, -2.0], [1.5, 0.5]])],
    "row_above_one": [MarkovChain([0.4, 0.6], [[0.6, 0.7], [0.5, 0.5]])],
}


@pytest.mark.parametrize("name", sorted(SHIFT_CHAINS))
def test_shift_invariance_defect_equals_word_loop(name):
    for chain in SHIFT_CHAINS[name]:
        issues = structural_issues(chain)
        for max_len in range(1, 6):
            if issues:
                with pytest.raises(ValueError, match=re.escape(issues[0])):
                    shift_invariance_defect(chain, max_len)
                continue
            got = shift_invariance_defect(chain, max_len)
            assert got == oracle_shift_defect_words(chain.initial, chain.transition, max_len)


def test_shift_invariance_defect_of_stochastic_chain_sits_at_length_one():
    # every tail is at most 1, so long words never beat max |p - pP|
    t = np.array([np.roll([0.5, 0.2, 0.1, 0.1, 0.05, 0.05], r) for r in range(6)])
    chain = MarkovChain([0.3, 0.1, 0.1, 0.2, 0.2, 0.1], t)
    defect = validate_chain(chain).stationarity_defect
    assert defect > 0.01
    assert shift_invariance_defect(chain, 200) == defect


def test_sample_trajectory_deterministic_chain():
    chain = MarkovChain([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
    traj = sample_trajectory(chain, 8, seed=0)
    assert traj.tolist() == [1, 2, 1, 2, 1, 2, 1, 2]


def test_sample_trajectory_prefix_stability_and_streams():
    chain = MarkovChain([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
    long = sample_trajectory(chain, 50, seed=4)
    short = sample_trajectory(chain, 20, seed=4)
    assert np.array_equal(long[:20], short)
    other = sample_trajectory(chain, 50, seed=4, stream=1)
    assert not np.array_equal(long, other)


def test_sample_trajectory_avoids_zero_mass_states():
    traj = sample_trajectory(REDUCIBLE, 200, seed=5)
    assert not (traj == 3).any()
    # absorbing: constant after the first step
    assert np.all(traj == traj[0])


def test_sample_trajectory_empirical_frequencies():
    chain = MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    traj = sample_trajectory(chain, 20000, seed=6)
    freq = np.mean(traj == 1)
    assert abs(freq - 0.5) < 0.02


# the criterion 7 and 8 chains, an absorbing chain and a first state with
# zero mass; then chains that are no probability law on paths and are
# refused: a row short of mass, negative entries, and cumulative rows that
# negative entries make non-monotone
SAMPLER_CHAINS = {
    "iid": MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]),
    "reducible": MarkovChain(
        [0.4, 0.4, 0.2], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    ),
    "absorbing": REDUCIBLE,
    "short_row": MarkovChain(
        [0.5, 0.5, 0.0], [[0.2, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]
    ),
    "negative_entry": MarkovChain([0.5, 0.5], [[0.2, 0.2], [-0.5, 0.3]]),
    "non_monotone_row": MarkovChain(
        [0.2, 0.3, 0.5], [[0.6, -0.3, 0.7], [0.2, 0.2, 0.6], [0.5, 0.5, 0.0]]
    ),
    # cumulative row [0.3, 0.5, 0.4, 1.0, 0.1, 0.3] crosses u = 0.45 upward
    # twice; a searchsorted over many uniforms at once, which starts each
    # search from the last answer, can land on the other crossing
    "two_crossings": MarkovChain(
        [1 / 6] * 6, [[0.3, 0.2, -0.1, 0.6, -0.9, 0.2]] * 6
    ),
    "zero_mass_first": MarkovChain(
        [0.0, 0.5, 0.5], [[0.0, 0.5, 0.5], [0.0, 0.3, 0.7], [0.0, 1.0, 0.0]]
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
def test_sample_trajectory_matches_scalar_oracle(name):
    chain = SAMPLER_CHAINS[name]
    issues = structural_issues(chain)
    if issues:
        for sample in (sample_trajectory, lambda *a: sample_trajectories(*a, range(3))):
            with pytest.raises(ValueError, match=re.escape(issues[0])):
                sample(chain, 2000, 7)
        return
    for stream in range(3):
        got = sample_trajectory(chain, 2000, seed=7, stream=stream)
        want = oracle_sample_trajectory(chain.initial, chain.transition, 2000, 7, stream)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def sparse_chains(draw):
    """Row-stochastic chains with zeroed entries; every row keeps some mass."""
    n = draw(st.integers(1, 5))
    weight = st.floats(0.0, 1.0).filter(lambda w: w == 0.0 or w > 1e-3)
    rows = []
    for _ in range(n + 1):
        row = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        if row.sum() == 0.0:
            row[draw(st.integers(0, n - 1))] = 1.0
        rows.append(row / row.sum())
    return MarkovChain(rows[0], rows[1:])


@given(sparse_chains(), st.integers(0, 2**32), st.integers(0, 8), st.integers(1, 300))
def test_sample_trajectory_property_matches_oracle(chain, seed, stream, horizon):
    got = sample_trajectory(chain, horizon, seed, stream)
    want = oracle_sample_trajectory(chain.initial, chain.transition, horizon, seed, stream)
    assert np.array_equal(got, want)


@given(sparse_chains(), st.integers(0, 2**32), st.integers(1, 200), st.integers(0, 200))
def test_sample_trajectory_property_prefix_extension(chain, seed, n, extra):
    long = sample_trajectory(chain, n + extra, seed)
    assert np.array_equal(long[:n], sample_trajectory(chain, n, seed))


def _assert_rows_match_oracle(chain, horizon, seed, streams, table_entries):
    # a small table budget makes short horizons cross the step-block edges
    with mock.patch.object(mjlslab.markov, "SAMPLE_TABLE_ENTRIES", table_entries):
        got = sample_trajectories(chain, horizon, seed, streams)
    assert got.shape == (len(streams), horizon) and got.dtype == np.int64
    for row, stream in zip(got, streams):
        want = oracle_sample_trajectory(chain.initial, chain.transition, horizon, seed, stream)
        assert np.array_equal(row, want)


@given(
    sparse_chains(),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 2**40), max_size=5),
    st.integers(1, 300),
    st.integers(1, 64),
)
def test_sample_trajectories_property_rows_match_oracle(
    chain, seed, streams, horizon, table_entries
):
    _assert_rows_match_oracle(chain, horizon, seed, streams, table_entries)


@given(
    st.integers(0, 2**32),
    st.integers(0, 8),
    st.integers(1, 200),
    st.data(),
    st.sampled_from(["plain", "zero_first", "zero_middle"]),
)
def test_sample_trajectories_property_u_on_a_cumulative_boundary(
    seed, stream, horizon, data, layout
):
    # one cumulative boundary of the row is the uniform of step j, so that
    # step bisects onto it exactly (the first state's draw when j = 0)
    us = philox_stream(seed, stream).random(horizon)
    u = float(us[data.draw(st.integers(0, horizon - 1))])
    row = {
        "plain": [u, 1.0 - u],
        "zero_first": [0.0, u, 1.0 - u],
        "zero_middle": [u, 0.0, 1.0 - u],
    }[layout]
    chain = MarkovChain(row, [row] * len(row))
    streams = [stream + 3, stream, stream + 1]
    _assert_rows_match_oracle(chain, horizon, seed, streams, data.draw(st.integers(1, 32)))


def test_sample_trajectories_edge_shapes():
    one_state = MarkovChain([1.0], [[1.0]])
    assert sample_trajectories(one_state, 7, 0, [4, 2]).tolist() == [[1] * 7] * 2
    chain = SAMPLER_CHAINS["reducible"]
    assert sample_trajectories(chain, 5, 0, []).shape == (0, 5)
    first = sample_trajectories(chain, 1, 3, range(6))[:, 0]
    assert first.tolist() == [sample_trajectory(chain, 1, 3, t)[0] for t in range(6)]
    for name in sorted(SAMPLER_CHAINS):
        if not structural_issues(SAMPLER_CHAINS[name]):
            # non-contiguous and repeated stream ids
            _assert_rows_match_oracle(SAMPLER_CHAINS[name], 700, 7, [9, 0, 4, 9], 40)
    with pytest.raises(ValueError, match="horizon"):
        sample_trajectories(chain, 0, 0, [0])


def test_pick_table_moves_off_zero_mass_and_past_the_row():
    # a row of K symbols has raw indices 0..K, and K is past the row; a valid
    # row can fall short of 1 by rounding, so a u above its last sum gets K
    pick = mjlslab.markov._pick_table
    assert pick(np.array([0.2, 0.5, 0.0])).tolist() == [0, 1, 1, 1]
    assert pick(np.array([0.0, 0.3, 0.0, 0.7])).tolist() == [1, 1, 3, 3, 3]
    assert pick(np.array([1.0])).tolist() == [0, 0]


# one chain per defect that structural_issues names
DEFECTIVE_CHAINS = {
    "massless_row": (
        MarkovChain([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]),
        "transition row 2 sums to 0",
    ),
    "negative_entry": (
        MarkovChain([0.5, 0.5], [[0.5, 0.5], [-0.5, 1.5]]),
        "negative entry -0.5",
    ),
    "entry_above_one": (
        MarkovChain([0.5, 0.5], [[1 + 5e-13, 0.0], [0.5, 0.5]]),
        f"entry {1 + 5e-13:.17g} above 1",
    ),
    "initial_mass": (
        MarkovChain([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        "initial distribution sums to 0",
    ),
}


@pytest.mark.parametrize("name", sorted(DEFECTIVE_CHAINS))
def test_sampling_and_shift_defect_refuse_each_structural_defect(name):
    chain, defect = DEFECTIVE_CHAINS[name]
    assert structural_issues(chain)[0].startswith(defect)
    calls = (
        lambda: sample_trajectories(chain, 30, 0, range(3)),
        lambda: sample_trajectories(chain, 30, 0, []),
        lambda: sample_trajectory(chain, 5, 0),
        lambda: shift_invariance_defect(chain, 1),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(defect)):
            call()


@given(sparse_chains(), st.integers(1, 5))
def test_shift_invariance_defect_property_matches_word_loop(chain, max_len):
    got = shift_invariance_defect(chain, max_len)
    assert got == oracle_shift_defect_words(chain.initial, chain.transition, max_len)
    assert got == validate_chain(chain).stationarity_defect
