"""Convergence estimates, word probes, greedy search, equivalence harness."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mjlslab.stability
from mjlslab import (
    MJLS,
    MarkovChain,
    MatrixSet,
    almost_sure_exponential_estimate,
    consistent_convergence_estimate,
    consistent_convergence_probe,
    diagonal_shortcut_check,
    greedy_pointwise_search,
    periodic_stability_probe,
    pointwise_convergence_estimate,
    pointwise_equivalence_harness,
    spectral_finiteness_probe,
    word_levels,
    word_product,
)
from oracles import oracle_rho_root, rotation

IID2 = MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
IID1 = MarkovChain([1.0], [[1.0]])
# criterion 8's driver: a 2-cycle plus an absorbing state
REDUCIBLE3 = MarkovChain(
    [0.4, 0.4, 0.2], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
)

CONTRACTIONS = MatrixSet.from_list([0.8 * np.eye(2), np.diag([0.5, 0.9])])
SHEAR = MatrixSet.from_list([[[1.0, 0.0], [1.0, 1.0]]])
SHRINK_ROT = MatrixSet.from_list([np.diag([0.5, 1.0]), rotation(np.pi / 2)])
# criterion 8's family: at horizon 150, eps 1e-2 and delta 2e-2 some trials
# converge, some of those exponentially, and some neither
MIXED = MJLS(
    MatrixSet.from_list(
        [0.99 * rotation(np.pi / 6), np.diag([0.9, 0.95]), 0.99 * rotation(np.pi / 6)]
    ),
    REDUCIBLE3,
)

# families whose products all stay bounded, for the equivalence harness
PRODUCT_BOUNDED = [
    MatrixSet.from_list([np.diag([0.5, 1.0]), rotation(np.pi / 2)]),
    MatrixSet.from_list([np.diag([1.0 / 3.0, 1.0]), rotation(np.pi / 4)]),
    MatrixSet.from_list([0.9 * rotation(np.pi / 6), np.diag([0.8, 1.0])]),
    MatrixSet.from_list([np.diag([0.5, 0.5]), np.eye(2)]),
    MatrixSet.from_list([rotation(np.pi / 3), np.diag([1.0, 0.7])]),
]


def test_mjls_alphabet_check():
    with pytest.raises(ValueError):
        MJLS(CONTRACTIONS, IID1)


def test_pointwise_estimate_contracting_family():
    m = MJLS(CONTRACTIONS, IID2)
    rep = pointwise_convergence_estimate(m, [1.0, 1.0], trials=50, horizon=300, seed=0)
    assert rep.fraction_converged == 1.0
    assert rep.fraction_exponential == 1.0
    assert rep.positive_evidence and rep.exponential_evidence
    assert rep.converged_count == 50
    assert rep.tail_fits.max() < np.log(0.9) + 0.05


def test_pointwise_estimate_growing_family():
    m = MJLS(SHEAR, IID1)
    rep = pointwise_convergence_estimate(m, [0.0, 1.0], trials=20, horizon=300, seed=0)
    assert rep.fraction_converged == 0.0
    assert not rep.positive_evidence


def test_pointwise_estimate_rejects_zero_vector():
    m = MJLS(CONTRACTIONS, IID2)
    with pytest.raises(ValueError):
        pointwise_convergence_estimate(m, [0.0, 0.0], trials=5, horizon=50, seed=0)


def test_estimates_are_seed_reproducible():
    m = MJLS(SHRINK_ROT, IID2)
    a = pointwise_convergence_estimate(m, [1.0, 0.0], trials=30, horizon=200, seed=9)
    b = pointwise_convergence_estimate(m, [1.0, 0.0], trials=30, horizon=200, seed=9)
    assert np.array_equal(a.final_log_norms, b.final_log_norms)
    c = pointwise_convergence_estimate(m, [1.0, 0.0], trials=30, horizon=200, seed=10)
    assert not np.array_equal(a.final_log_norms, c.final_log_norms)


def test_exponential_fraction_never_exceeds_converged_fraction():
    rng = np.random.default_rng(40)
    for _ in range(8):
        mats = [rng.standard_normal((2, 2)) * rng.uniform(0.4, 1.1) for _ in range(2)]
        m = MJLS(MatrixSet.from_list(mats), IID2)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        rep = pointwise_convergence_estimate(m, x, trials=40, horizon=250, seed=1)
        assert rep.fraction_exponential <= rep.fraction_converged + 1e-15


def test_consistent_estimate_uses_matrix_norms():
    m = MJLS(CONTRACTIONS, IID2)
    rep = consistent_convergence_estimate(m, trials=30, horizon=300, seed=0)
    assert rep.kind == "matrix"
    assert rep.fraction_converged == 1.0
    # the shear never brings the product norm down
    rep = consistent_convergence_estimate(MJLS(SHEAR, IID1), trials=10, horizon=300, seed=0)
    assert rep.fraction_converged == 0.0


def test_periodic_stability_probe_verdicts():
    probe = periodic_stability_probe(CONTRACTIONS, max_len=4)
    assert probe.verdict == "periodically-stable-so-far"
    assert probe.best_value < 0.9 + 1e-9
    assert probe.objective == "max-over-words"

    probe = periodic_stability_probe(SHRINK_ROT, max_len=4)
    assert probe.verdict == "not-periodically-stable"
    assert probe.best_value == pytest.approx(1.0, abs=1e-12)


def test_probe_best_value_recomputes_from_best_word():
    # the reported extremum must reproduce from its witness word
    for s in (CONTRACTIONS, SHRINK_ROT, SHEAR):
        for probe_fn in (periodic_stability_probe, consistent_convergence_probe):
            probe = probe_fn(s, max_len=5)
            w = probe.best_word
            direct = oracle_rho_root(s.matrices, w)
            assert probe.best_value == pytest.approx(direct, abs=1e-9)


def test_probes_read_a_walk_without_minima_only_for_the_max():
    walk = word_levels(SHRINK_ROT, 5, 0, minima=False)
    want = periodic_stability_probe(SHRINK_ROT, max_len=5)
    assert periodic_stability_probe(walk, max_len=5) == want
    with pytest.raises(ValueError, match="no rho minima"):
        consistent_convergence_probe(walk, max_len=5)


def test_consistent_probe_finds_contracting_word():
    probe = consistent_convergence_probe(SHRINK_ROT, max_len=3)
    assert probe.verdict == "consistently-convergent"
    assert probe.best_value < 1.0


def test_consistent_probe_det_one_lower_bound():
    # |det| = 1 for both generators forces every averaged rho to stay >= 1
    s = MatrixSet.from_list([np.diag([0.5, 2.0]), rotation(np.pi / 6)])
    probe = consistent_convergence_probe(s, max_len=6)
    assert probe.best_value >= 1.0 - 1e-9
    assert probe.verdict == "not-found"


def test_det_pm_one_families_never_drop_below_one():
    reflect = np.array([[0.0, 1.0], [1.0, 0.0]])
    families = [
        MatrixSet.from_list([rotation(0.3), reflect]),
        MatrixSet.from_list([np.diag([0.25, -4.0]), rotation(np.pi / 5)]),
        MatrixSet.from_list([np.array([[1.0, 1.0], [0.0, 1.0]]), reflect]),
    ]
    for s in families:
        probe = consistent_convergence_probe(s, max_len=5)
        assert probe.best_value >= 1.0 - 1e-9


def test_spectral_finiteness_nilpotent_pair():
    s = MatrixSet.from_list([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    rep = spectral_finiteness_probe(s, max_len=2, jsr_depth=12)
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.finiteness_evidence
    assert len(rep.lower_word) == 2


def test_greedy_search_steers_push_pull_system():
    s = MatrixSet.from_list([np.diag([0.5, 2.0]), rotation(np.pi / 6)])
    res = greedy_pointwise_search(s, [0.0, 1.0], lookahead=13, max_steps=800, eps=1e-4)
    assert res.success
    assert res.final_norm < 1e-4
    assert res.steps <= 800
    # replaying the returned word reproduces the final norm
    replay = np.array([0.0, 1.0]) @ word_product(s, res.word)
    assert np.linalg.norm(replay) == pytest.approx(res.final_norm, rel=1e-9)


def test_greedy_search_stalls_on_expanding_family():
    res = greedy_pointwise_search(SHEAR, [0.0, 1.0], lookahead=3, max_steps=200, eps=1e-6)
    assert not res.success
    assert res.failure_reason is not None


def test_equivalence_harness_on_product_bounded_families():
    for i, s in enumerate(PRODUCT_BOUNDED):
        m = MJLS(s, IID2)
        rep = pointwise_equivalence_harness(
            m, trials=60, horizon=600, num_initials=8, seed=100 + i
        )
        assert rep.gate_passed, f"family {i} failed the boundedness gate"
        assert rep.positive_implies_exponential, f"family {i} broke the implication"
        assert rep.equivalence_evidence
        assert rep.max_discrepancy <= 0.05


@pytest.mark.parametrize("stack_rows", [400, 100])
@pytest.mark.parametrize(
    "m, horizon, eps, delta",
    [
        (MJLS(SHRINK_ROT, IID2), 100, 1e-6, 1e-3),
        (MIXED, 150, 1e-2, 2e-2),
    ],
    ids=["criterion-7", "criterion-8"],
)
def test_stacked_harness_equals_separate_estimates(
    monkeypatch, stack_rows, m, horizon, eps, delta
):
    calls = []
    vector_histories = mjlslab.stability._vector_histories

    def counted(s, trajs, xs, window=0):
        calls.append((len(trajs), len(xs)))
        return vector_histories(s, trajs, xs, window)

    monkeypatch.setattr(mjlslab.stability, "STACK_ROWS", stack_rows)
    monkeypatch.setattr(mjlslab.stability, "_vector_histories", counted)
    trials, seed = 120, 5
    rep = pointwise_equivalence_harness(m, trials, horizon, 20, seed, eps=eps, delta=delta)
    # every call walks all 20 initials on its chunk of trials
    per_call = max(1, stack_rows // 20)
    assert calls == [(min(per_call, trials - lo), 20) for lo in range(0, trials, per_call)]
    # some trials converge and some do not, so the counts are informative
    assert 0.0 < rep.fractions_converged.min() and rep.fractions_converged.max() < 1.0
    for i, x in enumerate(rep.initials):
        single = pointwise_convergence_estimate(m, x, trials, horizon, eps, seed, delta)
        assert rep.fractions_converged[i] == single.fraction_converged
        assert rep.fractions_exponential[i] == single.fraction_exponential
        assert rep.converged_counts[i] == single.converged_count
        assert rep.exponential_counts[i] == single.exponential_count


@settings(max_examples=25)
@given(
    trials=st.integers(1, 17),
    num_initials=st.integers(1, 9),
    stack_rows=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
@example(trials=7, num_initials=9, stack_rows=5, seed=3)  # more initials than rows
@example(trials=17, num_initials=4, stack_rows=1, seed=0)
def test_any_trial_chunking_gives_the_counts_of_separate_estimates(
    trials, num_initials, stack_rows, seed
):
    # chunks of max(1, stack_rows // num_initials) trials; neither the
    # initials nor the chunk divide what they cut, except with one-trial chunks
    per_call = max(1, stack_rows // num_initials)
    assume(stack_rows % num_initials and (per_call == 1 or trials % per_call))
    with mock.patch.object(mjlslab.stability, "STACK_ROWS", stack_rows):
        rep = pointwise_equivalence_harness(
            MIXED, trials, 150, num_initials, seed, eps=1e-2, delta=2e-2, gate_depth=2
        )
    for i, x in enumerate(rep.initials):
        single = pointwise_convergence_estimate(MIXED, x, trials, 150, 1e-2, seed, 2e-2)
        assert rep.converged_counts[i] == single.converged_count
        assert rep.exponential_counts[i] == single.exponential_count
        assert rep.fractions_converged[i] == single.fraction_converged
        assert rep.fractions_exponential[i] == single.fraction_exponential


@pytest.mark.parametrize("eps, delta", [(0.0, 1e-3), (1e-6, -1e-3)])
def test_harness_checks_eps_and_delta_before_any_work(monkeypatch, eps, delta):
    _refuse(monkeypatch, "boundedness_probe", "_symbol_paths", "_vector_histories")
    with pytest.raises(ValueError, match="eps and delta must be positive"):
        pointwise_equivalence_harness(MIXED, 10, 100, 3, 0, eps=eps, delta=delta)


def test_equivalence_harness_gate_rejects_growth():
    rep = pointwise_equivalence_harness(
        MJLS(SHEAR, IID1), trials=10, horizon=200, num_initials=4, seed=0
    )
    assert not rep.gate_passed
    assert rep.gate.verdict == "growth-detected"
    assert not rep.equivalence_evidence
    # estimates still run and are reported
    assert rep.fractions_converged.shape == (4,)


def test_almost_sure_estimate_contracting_family():
    m = MJLS(CONTRACTIONS, IID2)
    cs = consistent_convergence_estimate(m, trials=30, horizon=400, seed=0)
    rep = almost_sure_exponential_estimate(cs, m.system)
    assert rep.gate_passed
    assert rep.evidence
    assert rep.max_tail_fit < -1e-3


def test_almost_sure_estimate_gate_failure_is_flagged():
    m = MJLS(SHRINK_ROT, IID2)
    cs = consistent_convergence_estimate(m, trials=10, horizon=200, seed=0)
    rep = almost_sure_exponential_estimate(cs, m.system)
    assert not rep.gate_passed
    assert not rep.evidence
    assert rep.warnings
    assert rep.tail_fits.shape == (10,)


def _refuse(monkeypatch, *names):
    """Make each named stability helper fail the test when it is called."""
    for name in names:

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(mjlslab.stability, name, refuse)


def test_almost_sure_estimate_reads_a_consistent_report_bit_for_bit(monkeypatch):
    m = MJLS(
        MatrixSet.from_list(
            [0.99 * rotation(np.pi / 6), np.diag([0.9, 0.95]), 0.99 * rotation(np.pi / 6)]
        ),
        REDUCIBLE3,
    )
    own = almost_sure_exponential_estimate(
        consistent_convergence_estimate(m, 25, 300, seed=4), m.system, probe_len=4
    )
    # eps does not enter the fits; delta is the report's
    cs = consistent_convergence_estimate(m, 25, 300, eps=1e-3, delta=0.5, seed=4)
    _refuse(monkeypatch, "_symbol_paths", "_matrix_histories")
    shared = almost_sure_exponential_estimate(cs, word_levels(m.system, 4, 0), 4)
    assert shared.tail_fits.tobytes() == own.tail_fits.tobytes() == cs.tail_fits.tobytes()
    assert shared.max_tail_fit == own.max_tail_fit
    assert own.evidence and not shared.evidence
    assert (shared.trials, shared.horizon, shared.seed, shared.delta) == (25, 300, 4, 0.5)
    assert shared.probe == own.probe and shared.warnings == own.warnings


def test_reducers_refuse_a_report_that_is_not_the_matrix_estimate():
    m = MJLS(CONTRACTIONS, IID2)
    vector = pointwise_convergence_estimate(m, [1.0, 0.0], 10, 100, seed=2)
    with pytest.raises(ValueError, match="kind 'vector'"):
        almost_sure_exponential_estimate(vector, m.system)
    diagonal = MJLS(MatrixSet.from_list([np.diag([0.5, 1.0]), np.eye(2)]), IID2)
    with pytest.raises(ValueError, match="kind 'vector'"):
        diagonal_shortcut_check(diagonal, vector)


def test_diagonal_shortcut_reuses_a_consistent_report(monkeypatch):
    m = MJLS(MatrixSet.from_list([np.diag([0.5, 1.0]), np.eye(2)]), IID2)
    ones = pointwise_convergence_estimate(m, [1.0, 1.0], 15, 200, seed=1)
    cs = consistent_convergence_estimate(m, 15, 200, seed=1)
    _refuse(monkeypatch, "_matrix_histories")
    shared = diagonal_shortcut_check(m, cs)
    assert shared.consistent is cs
    assert shared.pointwise.tail_fits.tobytes() == ones.tail_fits.tobytes()
    assert shared.pointwise.final_log_norms.tobytes() == ones.final_log_norms.tobytes()
    assert shared.agree == (
        (ones.fraction_converged > 0.0) == (cs.fraction_converged > 0.0)
    )


def test_diagonal_shortcut_agrees():
    s = MatrixSet.from_list([np.diag([0.5, 0.8]), np.diag([0.9, 0.6])])
    m = MJLS(s, IID2)
    rep = diagonal_shortcut_check(m, consistent_convergence_estimate(m, 20, 300, seed=0))
    assert rep.agree
    assert rep.pointwise_positive and rep.consistent_positive


def test_diagonal_shortcut_rejects_off_diagonal():
    m = MJLS(SHRINK_ROT, IID2)
    with pytest.raises(ValueError, match="matrix 2"):
        diagonal_shortcut_check(m, consistent_convergence_estimate(m, 5, 50, seed=0))
