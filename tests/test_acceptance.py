"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test is one criterion; the conftest hook prints a [PASS]/[FAIL] line per
criterion at the end of the run. Runtime budgets are asserted inside the
tests themselves.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from mjlslab import (
    MJLS,
    MarkovChain,
    MatrixSet,
    SwitchingSequence,
    almost_sure_exponential_estimate,
    consistent_convergence_estimate,
    consistent_convergence_probe,
    ergodic_decomposition,
    grassmann_distance,
    greedy_pointwise_search,
    induced_norm2,
    jsr_bounds,
    periodic_split,
    pointwise_equivalence_harness,
    preextremal_contraction_check,
    preextremal_norm,
    sequence_split,
    shift_invariance_defect,
    unit_vectors,
    validate_chain,
    vector_log_norm_history,
)
from oracles import (
    oracle_classes,
    oracle_jsr_bounds,
    random_structured_chain,
    rotation,
)

SHEAR = MatrixSet.from_list([[[1.0, 0.0], [1.0, 1.0]]])
NILPOTENT_MATS = [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
]
PUSH_PULL = MatrixSet.from_list([np.diag([0.5, 2.0]), rotation(np.pi / 6)])
GAP_FAMILY = MatrixSet.from_list([np.eye(2), np.diag([0.5, 1.0])])

IID2 = MarkovChain([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
IID1 = MarkovChain([1.0], [[1.0]])

# reducible driver for the almost-sure criterion: a 2-cycle plus an
# absorbing state, matrix 3 repeating matrix 1 to match the alphabet
REDUCIBLE3 = MarkovChain(
    [0.4, 0.4, 0.2],
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
)
DECAY_MATS = [0.99 * rotation(np.pi / 6), np.diag([0.9, 0.95]), 0.99 * rotation(np.pi / 6)]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.seconds}s budget"
            )


def test_criterion_01_shift_invariance_defects():
    with Budget(5.0):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p, t = random_structured_chain(rng, max_states=4)
            assert shift_invariance_defect(MarkovChain(p, t), max_len=4) < 1e-12

        made = 0
        while made < 50:
            _, t = random_structured_chain(rng, max_states=4)
            q = rng.random(t.shape[0]) + 0.05
            q /= q.sum()
            chain = MarkovChain(q, t)
            stat_defect = validate_chain(chain).stationarity_defect
            if stat_defect < 1e-6:
                continue
            made += 1
            assert shift_invariance_defect(chain, max_len=4) > stat_defect / 2.0


def test_criterion_02_decomposition_matches_oracle():
    with Budget(5.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            p, t = random_structured_chain(rng, max_states=6)
            chain = MarkovChain(p, t)
            dec = ergodic_decomposition(chain)
            transient, classes = oracle_classes(t)
            assert dec.classes == classes
            assert dec.transient_states == transient
            assert abs(float(dec.weights.sum()) - 1.0) < 1e-12
            # stationary start: zero-mass states are exactly the transient ones
            assert validate_chain(chain).stationarity_defect < 1e-12
            assert dec.zero_mass_matches_transient


def test_criterion_03_slow_recurrence_worked_example():
    with Budget(10.0):
        seq = SwitchingSequence.quadratic_gap(5, zero_symbol=1, one_symbol=2)
        hist = vector_log_norm_history(GAP_FAMILY, seq.prefix(65535), [1.0, 0.0])

        assert abs(np.exp(hist[255 - 1]) - 2.0**-8) < 1e-12

        lengths = [3, 15, 255, 65535]
        exponents = []
        norms = []
        for k, n in zip([2, 3, 4, 5], lengths):
            expected = 2 ** (k - 1) * np.log(0.5) / (2 ** (2 ** (k - 1)) - 1)
            got = hist[n - 1] / n
            assert abs(got - expected) < 1e-9
            exponents.append(got)
            norms.append(np.exp(hist[n - 1]))
        assert all(a < b for a, b in zip(exponents, exponents[1:]))
        assert all(a > b for a, b in zip(norms, norms[1:]))


def test_criterion_04_splitting_two_routes_agree():
    with Budget(10.0):
        word1 = SwitchingSequence.periodic([1])
        cases = [
            MatrixSet.from_list([np.diag([0.5, 1.0])]),
            MatrixSet.from_list([rotation(np.pi / 6)]),
            MatrixSet.from_list([[[0.5, 1.0], [0.0, 1.0]]]),
        ]
        for fam in cases:
            numeric = sequence_split(fam, word1, cylinder_len=1, horizon=4096)
            exact = periodic_split(fam, (1,))
            assert grassmann_distance(numeric.center, exact.center) <= 1e-6
            assert grassmann_distance(numeric.stable, exact.stable) <= 1e-6
            assert numeric.defect <= 1e-6
            assert exact.defect <= 1e-10

        # rotation by pi/6: the twelfth power closes to the identity
        rot_numeric = sequence_split(
            MatrixSet.from_list([rotation(np.pi / 6)]), word1, cylinder_len=1, horizon=4096
        )
        assert np.allclose(rot_numeric.idempotent, np.eye(2), atol=1e-9)
        rot_exact = periodic_split(MatrixSet.from_list([rotation(np.pi / 6)]), (1,) * 12)
        assert np.allclose(rot_exact.idempotent, np.eye(2), atol=1e-12)

        # the slow-recurrence system, against its known exact splitting
        seq = SwitchingSequence.quadratic_gap(4, zero_symbol=1, one_symbol=2)
        split = sequence_split(GAP_FAMILY, seq, cylinder_len=1, horizon=255)
        assert split.defect <= 1e-6
        assert np.allclose(split.idempotent, np.diag([0.0, 1.0]), atol=1e-6)
        assert split.center.contains([0.0, 1.0])
        assert split.stable.contains([1.0, 0.0])


def test_criterion_05_jsr_bounds():
    with Budget(5.0):
        b1 = jsr_bounds(SHEAR, depth=1)
        assert b1.lower == pytest.approx(1.0, abs=1e-12)

        b20 = jsr_bounds(SHEAR, depth=20)
        direct = induced_norm2(np.linalg.matrix_power(SHEAR.matrices[0], 20)) ** (1 / 20)
        assert abs(b20.upper - direct) < 1e-9
        assert 1.16 < b20.upper < 1.17

        nil = MatrixSet.from_list(NILPOTENT_MATS)
        b2 = jsr_bounds(nil, depth=2)
        assert b2.lower == pytest.approx(1.0, abs=1e-12)
        assert b2.upper == pytest.approx(1.0, abs=1e-12)
        lo, up = oracle_jsr_bounds(NILPOTENT_MATS, 2)
        assert b2.lower == pytest.approx(lo, abs=1e-12)
        assert b2.upper == pytest.approx(up, abs=1e-12)


def test_criterion_06_consistent_vs_pointwise():
    with Budget(60.0):
        # both generators have |det| = 1, so no word can average below 1
        for m in PUSH_PULL.matrices:
            assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-12
        probe = consistent_convergence_probe(PUSH_PULL, max_len=10)
        assert probe.best_value >= 1.0 - 1e-9
        assert probe.verdict == "not-found"

        initials = unit_vectors(2, 100, seed=0)
        for x in initials:
            res = greedy_pointwise_search(
                PUSH_PULL, x, lookahead=13, max_steps=800, eps=1e-4
            )
            assert res.success, f"greedy search failed from {x}"
            assert res.final_norm < 1e-4
            assert res.steps <= 800


def test_criterion_07_equivalence_harness():
    with Budget(120.0):
        fam = MatrixSet.from_list([np.diag([0.5, 1.0]), rotation(np.pi / 2)])
        rep = pointwise_equivalence_harness(
            MJLS(fam, IID2), trials=200, horizon=2000, num_initials=20, seed=0
        )
        assert rep.gate_passed
        for fc, fe in zip(rep.fractions_converged, rep.fractions_exponential):
            if fc > 0.0:
                assert fe > 0.0
            assert abs(fc - fe) <= 0.05
        assert rep.positive_implies_exponential

        gate = pointwise_equivalence_harness(
            MJLS(SHEAR, IID1), trials=20, horizon=400, num_initials=4, seed=0
        )
        assert not gate.gate_passed


def test_criterion_08_almost_sure_decay():
    with Budget(30.0):
        m = MJLS(MatrixSet.from_list(DECAY_MATS), REDUCIBLE3)
        cs = consistent_convergence_estimate(m, trials=200, horizon=2000, seed=0)
        rep = almost_sure_exponential_estimate(cs, m.system, probe_len=8)
        assert rep.gate_passed, "periodic stability probe should pass at max_len 8"
        assert rep.tail_fits.shape == (200,)
        assert float(rep.tail_fits.max()) < -0.005
        assert rep.evidence


def test_criterion_09_preextremal_norm_axioms():
    with Budget(10.0):
        families = [
            SHEAR,
            MatrixSet.from_list(NILPOTENT_MATS),
            PUSH_PULL,
            GAP_FAMILY,
            MatrixSet.from_list(DECAY_MATS),
            MatrixSet.from_list([np.diag([0.5, 1.0]), rotation(np.pi / 2)]),
        ]
        for fam in families:
            check = preextremal_contraction_check(fam, depth=5, samples=40, seed=0)
            assert check.max_violation <= 1e-10

        rng = np.random.default_rng(909)
        xs = rng.standard_normal((1000, 2))
        ys = rng.standard_normal((1000, 2))
        cs = rng.uniform(-3.0, 3.0, size=1000)
        for fam in (PUSH_PULL, SHEAR):
            nx = preextremal_norm(fam, xs, 6)
            ny = preextremal_norm(fam, ys, 6)
            nxy = preextremal_norm(fam, xs + ys, 6)
            ncx = preextremal_norm(fam, cs[:, None] * xs, 6)
            scale = np.maximum(1.0, nx)
            assert np.all(np.abs(ncx - np.abs(cs) * nx) <= 1e-10 * np.abs(cs) * scale + 1e-12)
            assert np.all(nxy <= nx + ny + 1e-10)


def _criterion_config(tmp_path, name, mats, chain, analysis):
    doc = {
        "dimension": 2,
        "matrices": [m.tolist() for m in mats],
        "markov": {
            "initial": list(chain.initial),
            "transition": [list(row) for row in chain.transition],
        },
        "analysis": analysis,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _run_classify(cfg_path, out_path, threads):
    env = dict(os.environ, MJLS_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "mjlslab.cli", "classify",
         "--config", str(cfg_path), "--out", str(out_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out_path.read_bytes()


def test_criterion_10_thread_count_never_changes_reports(tmp_path):
    fam7 = [np.diag([0.5, 1.0]), rotation(np.pi / 2)]
    cfg7 = _criterion_config(
        tmp_path, "c7.json", fam7, IID2,
        {"trials": 200, "horizon": 2000, "num_initials": 20, "seed": 0},
    )
    cfg8 = _criterion_config(
        tmp_path, "c8.json", DECAY_MATS, REDUCIBLE3,
        {"trials": 200, "horizon": 2000, "seed": 0, "depth": 8},
    )
    for cfg in (cfg7, cfg8):
        single = _run_classify(cfg, tmp_path / "t1.json", threads=1)
        quad = _run_classify(cfg, tmp_path / "t4.json", threads=4)
        assert single == quad, f"{cfg.name}: reports differ across MJLS_THREADS"
        assert single.endswith(b"\n")
