"""Command line interface: report schema, determinism, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mjlslab.cli
import mjlslab.markov
import mjlslab.products
import mjlslab.splitting
import mjlslab.stability
from mjlslab import (
    MarkovChain,
    is_irreducible,
    sample_trajectory,
    validate_chain,
)
from mjlslab.cli import _OVERRIDES, main
from mjlslab.config import DEFAULTS
from mjlslab.sequences import QUADRATIC_GAP_MAX_LEVELS
from oracles import oracle_log_norm_history, oracle_tail_slope, rotation
from test_acceptance import Budget
from test_config import INT_MINIMA

ROOT = Path(__file__).resolve().parents[1]

DECOMPOSE_CFG = """{
  "markov": {
    "initial": [0.3, 0.7, 0.0],
    "transition": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
  }
}
"""

JSR_CFG = """{
  "dimension": 2,
  "matrices": [[[1.0, 0.0], [1.0, 1.0]]]
}
"""

SPLIT_NO_RETURN_CFG = """{
  "dimension": 2,
  "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 1.0]]],
  "sequence": {"kind": "explicit", "symbols": [1, 2, 2, 2, 2, 2]}
}
"""

# budget 1 is below the two depth-1 products; the shear's norm is above 1, so
# even the pruned boundedness gate has to enumerate
BUDGET_BELOW_K_CFG = """{
  "dimension": 2,
  "matrices": [[[1.0, 0.0], [1.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]],
  "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
  "analysis": {"budget": 1, "trials": 4, "horizon": 50, "num_initials": 2}
}
"""


def write(tmp_path, text, name="cfg.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_report_schema(tmp_path, capsys):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    code, out, err = run(capsys, "decompose", "--config", cfg)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "tool", "version", "command", "config_sha256",
        "parameters", "results", "warnings",
    ]
    assert doc["tool"] == "mjls-lab"
    assert doc["command"] == "decompose"
    assert doc["config_sha256"] == hashlib.sha256(DECOMPOSE_CFG.encode()).hexdigest()
    assert list(doc["parameters"].keys()) == list(DEFAULTS.keys())
    res = doc["results"]
    assert res["decomposition"]["classes"] == [[1], [2]]
    assert res["decomposition"]["transient_states"] == [3]
    assert res["shift_invariance"]["defect"] == 0.0
    assert doc["warnings"] == []


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["decompose", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["decompose", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    cfg = write(tmp_path, JSR_CFG)
    out = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "jsr", "--config", cfg, "--out", str(out))
    assert code == 0
    assert stdout == ""
    doc = json.loads(out.read_text())
    assert doc["results"]["jsr"]["lower"] == 1.0


def test_cli_overrides_are_echoed(tmp_path, capsys):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    code, out, _ = run(
        capsys, "decompose", "--config", cfg, "--seed", "5", "--trials", "17"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["seed"] == 5
    assert doc["parameters"]["trials"] == 17
    assert doc["parameters"]["horizon"] == DEFAULTS["horizon"]


def test_bad_override_rejected(tmp_path, capsys):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    code, _, err = run(capsys, "decompose", "--config", cfg, "--trials", "0")
    assert code == 2
    assert "--trials: must be at least 1" in err


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = write(tmp_path, '{"markov": {"initial": [1.0], "transition": [[1.0]]}, "typo": 3}')
    code, _, err = run(capsys, "decompose", "--config", cfg)
    assert code == 2
    assert "typo" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "decompose", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


def test_missing_required_block(tmp_path, capsys):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    code, _, err = run(capsys, "jsr", "--config", cfg)
    assert code == 2
    assert "matrices" in err


def test_nonstationary_note_does_not_escalate(tmp_path, capsys):
    cfg = write(
        tmp_path,
        '{"markov": {"initial": [1.0, 0.0], "transition": [[0.5, 0.5], [0.5, 0.5]]}}',
    )
    code, out, _ = run(capsys, "decompose", "--config", cfg, "--strict")
    assert code == 0
    doc = json.loads(out)
    assert any(w.startswith("note:") for w in doc["warnings"])


def test_decompose_dense_chain_gets_a_defect(tmp_path, capsys):
    # 4 * 32**4 word visits were past the enumeration budget of 10**6
    row = np.arange(1.0, 33.0) / 528.0
    transition = [np.roll(row, r).tolist() for r in range(32)]
    cfg = write(tmp_path, json.dumps({"markov": {"initial": [1 / 32] * 32, "transition": transition}}))
    code, out, _ = run(capsys, "decompose", "--config", cfg, "--strict")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["shift_max_len"] == 4
    assert doc["results"]["shift_invariance"]["defect"] < 1e-12
    assert not any(w.startswith("budget:") for w in doc["warnings"])


# a 3-cycle, one state, two closed classes, and one closed class fed by a
# transient state (one class, yet not irreducible)
IRREDUCIBILITY_CHAINS = [
    ([0.25, 0.25, 0.5], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]),
    ([1.0], [[1.0]]),
    ([0.3, 0.7, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]),
    ([0.5, 0.5, 0.0], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
]


@pytest.mark.parametrize("initial, transition", IRREDUCIBILITY_CHAINS)
def test_decompose_reads_irreducibility_off_the_decomposition(
    tmp_path, capsys, monkeypatch, initial, transition
):
    closures = []
    reachability = mjlslab.markov._reachability

    def counted(chain):
        closures.append(chain.num_states)
        return reachability(chain)

    monkeypatch.setattr(mjlslab.markov, "_reachability", counted)
    doc = {"markov": {"initial": initial, "transition": transition}}
    code, out, _ = run(capsys, "decompose", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 0
    assert closures == [len(initial)]
    monkeypatch.undo()
    expected = is_irreducible(MarkovChain(initial, transition))
    assert json.loads(out)["results"]["irreducible"] is expected


def test_decompose_long_words_stay_cheap(tmp_path, capsys):
    transition = [np.roll([0.5, 0.2, 0.1, 0.1, 0.05, 0.05], r).tolist() for r in range(6)]
    cfg = write(
        tmp_path,
        json.dumps(
            {
                "markov": {"initial": [1 / 6] * 6, "transition": transition},
                "analysis": {"shift_max_len": 200},
            }
        ),
    )
    with Budget(5.0):
        code, out, _ = run(capsys, "decompose", "--config", cfg, "--strict")
    assert code == 0
    assert json.loads(out)["results"]["shift_invariance"]["max_len"] == 200


def test_split_gate_warning_escalates_under_strict(tmp_path, capsys):
    cfg = write(tmp_path, SPLIT_NO_RETURN_CFG)
    code, out, _ = run(capsys, "split", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["splitting"] is None
    assert any(w.startswith("gate:") for w in doc["warnings"])

    code, _, _ = run(capsys, "split", "--config", cfg, "--strict")
    assert code == 3


@pytest.mark.parametrize(
    "command, nulled",
    [
        ("jsr", ["jsr", "boundedness", "finiteness"]),
        ("classify", ["periodic_probe", "consistent_probe", "equivalence", "almost_sure"]),
    ],
)
def test_budget_below_family_size_nulls_fields(tmp_path, capsys, command, nulled):
    cfg = write(tmp_path, BUDGET_BELOW_K_CFG)
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [doc["results"][key] for key in nulled] == [None] * len(nulled)
    # one message for every walk that completes nothing
    budget = "budget: budget 1 does not cover even depth 1 (2 products)"
    expected = {
        "jsr": [budget],
        "classify": [
            "note: horizon * delta does not cover |log eps|; an exponential "
            "trial may not reach eps inside the horizon",
            budget,  # the word walk of the probes and the almost-sure gate
            budget,  # equivalence gate
        ],
    }
    assert doc["warnings"] == expected[command]

    code, _, _ = run(capsys, command, "--config", cfg, "--strict")
    assert code == 3


def test_classify_warns_when_its_word_walk_is_truncated(tmp_path, capsys):
    # levels of 2, 4, 8 and 16 products: a budget of 30 completes depth 4 of 8
    doc = {
        "dimension": 2,
        "matrices": [(0.5 * np.eye(2)).tolist(), [[0.0, 0.5], [-0.5, 0.0]]],
        "markov": IID2_BLOCK,
        "analysis": {"budget": 30, "depth": 8, "trials": 4, "horizon": 60},
    }
    cfg = write(tmp_path, json.dumps(doc))
    code, out, err = run(capsys, "classify", "--config", cfg)
    assert code == 0 and err == ""
    report = json.loads(out)
    for probe in ("periodic_probe", "consistent_probe"):
        assert report["results"][probe]["truncated"] is True
        assert report["results"][probe]["depth"] == 4
    budget = [w for w in report["warnings"] if w.startswith("budget:")]
    assert budget == ["budget: word walk truncated at depth 4"]

    code, _, _ = run(capsys, "classify", "--config", cfg, "--strict")
    assert code == 3


def test_jsr_walks_the_words_once(tmp_path, capsys, monkeypatch):
    walks = []
    level_products = mjlslab.products._level_products

    def counted(s, max_depth, budget, **kwargs):
        walks.append(max_depth)
        yield from level_products(s, max_depth, budget, **kwargs)

    monkeypatch.setattr(mjlslab.products, "_level_products", counted)
    cfg = json.loads(JSR_CFG)
    cfg["analysis"] = {"depth": 4, "jsr_depth": 6, "boundedness_depth": 5}
    code, _, _ = run(capsys, "jsr", "--config", write(tmp_path, json.dumps(cfg)))
    assert code == 0
    assert walks == [6]


def test_classify_walks_the_words_once(tmp_path, capsys, monkeypatch):
    walks = []
    level_products = mjlslab.products._level_products

    def counted(s, max_depth, budget, **kwargs):
        walks.append(max_depth)
        yield from level_products(s, max_depth, budget, **kwargs)

    monkeypatch.setattr(mjlslab.products, "_level_products", counted)
    # generator norms <= 1, so the pruned boundedness gate walks nothing
    cfg = {
        "dimension": 2,
        "matrices": [np.diag([0.5, 1.0]).tolist(), rotation(np.pi / 2).tolist()],
        "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "analysis": {"trials": 3, "horizon": 60, "num_initials": 2, "depth": 5},
    }
    code, out, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(cfg)))
    assert code == 0
    assert walks == [5]
    results = json.loads(out)["results"]
    assert results["almost_sure"]["probe"] == results["periodic_probe"]


@pytest.mark.parametrize("diagonal", [False, True])
def test_classify_builds_the_product_history_once(tmp_path, capsys, monkeypatch, diagonal):
    # start-less kernel calls track the products A(n) themselves
    products = []
    kernel = mjlslab.stability.log_norm_histories

    def counted(s, paths, start=None, history=False):
        if start is None:
            products.append(paths.shape)
        return kernel(s, paths, start, history)

    monkeypatch.setattr(mjlslab.stability, "log_norm_histories", counted)
    second = np.diag([0.9, 0.6]) if diagonal else rotation(np.pi / 2)
    cfg = {
        "dimension": 2,
        "matrices": [np.diag([0.5, 1.0]).tolist(), second.tolist()],
        "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "analysis": {"trials": 4, "horizon": 80, "num_initials": 2, "depth": 3},
    }
    code, out, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(cfg)))
    assert code == 0
    assert products == [(4, 80)]
    results = json.loads(out)["results"]
    assert results["almost_sure"]["tail_fits"] == results["consistent"]["tail_fits"]
    shortcut = results["diagonal_shortcut"]
    assert (shortcut is not None) == diagonal
    if diagonal:
        assert shortcut["consistent"] == results["consistent"]


@pytest.mark.parametrize("diagonal", [False, True])
def test_classify_draws_each_config_once(tmp_path, capsys, monkeypatch, diagonal):
    # the pointwise and consistent estimates, the harness and, on a diagonal
    # family, the shortcut all read one draw; a second command draws its own
    draws = []
    sampler = mjlslab.stability.sample_trajectories

    def counted(chain, horizon, seed, streams):
        draws.append((len(streams), horizon, seed))
        return sampler(chain, horizon, seed, streams)

    monkeypatch.setattr(mjlslab.stability, "sample_trajectories", counted)
    second = np.diag([0.9, 0.6]) if diagonal else rotation(np.pi / 2)
    cfg = {
        "dimension": 2,
        "matrices": [np.diag([0.5, 1.0]).tolist(), second.tolist()],
        "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "analysis": {"trials": 4, "horizon": 80, "num_initials": 2, "depth": 3, "seed": 5},
    }
    path = write(tmp_path, json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", path)
    assert code == 0 and draws == [(4, 80, 5)]
    assert (json.loads(out)["results"]["diagonal_shortcut"] is not None) == diagonal
    code, again, _ = run(capsys, "classify", "--config", path)
    assert code == 0 and draws == [(4, 80, 5)] * 2 and again == out


def test_truncated_jsr_warning_names_the_completed_depth(tmp_path, capsys):
    # the benchmark's jsr family; budget 3 covers depth 1 (3 products) only
    mats = np.random.default_rng([0, 11]).standard_normal((3, 3, 3)) / 2.0
    cfg = {
        "dimension": 3,
        "matrices": mats.tolist(),
        "analysis": {"depth": 9, "jsr_depth": 11, "boundedness_depth": 11, "budget": 3},
    }
    code, out, _ = run(capsys, "jsr", "--config", write(tmp_path, json.dumps(cfg)))
    assert code == 0
    doc = json.loads(out)
    bounds = doc["results"]["jsr"]
    assert (bounds["depth"], bounds["depth_completed"]) == (9, 1)
    assert "budget: jsr enumeration truncated at depth 1" in doc["warnings"]


# (matrices, (initial, transition), analysis): in the second the start row's
# squares underflow at the 1e-20 steps, between the steps a run without the
# trace reads
TRACE_CASES = (
    (
        [np.diag([0.5, 1.0]), rotation(np.pi / 2)],
        ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]),
        {"trials": 3, "horizon": 120, "seed": 4},
    ),
    (
        [np.eye(2), 1e-20 * np.eye(2), 1e20 * np.eye(2)],
        ([0.73, 0.1, 0.17], [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]),
        {"trials": 20, "horizon": 200, "initial_vector": [1e-150, 0.0]},
    ),
)


def test_trace_csv_holds_the_full_history_and_leaves_results_alone(tmp_path, capsys):
    for mats, (initial, transition), analysis in TRACE_CASES:
        _check_trace(tmp_path, capsys, mats, MarkovChain(initial, transition), analysis)


def _check_trace(tmp_path, capsys, mats, chain, analysis):
    trials, horizon, stride = analysis["trials"], analysis["horizon"], 25
    seed = analysis.get("seed", 0)
    doc = {
        "dimension": 2,
        "matrices": [m.tolist() for m in mats],
        "markov": {"initial": chain.initial.tolist(), "transition": chain.transition.tolist()},
        "analysis": {**analysis, "num_initials": 3, "depth": 3, "boundedness_depth": 3,
                     "trace_stride": stride},
    }
    code, plain, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 0
    trace = tmp_path / "trace.csv"
    doc["analysis"]["trace_csv"] = str(trace)
    code, traced, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 0

    def results(text):
        return text[text.index('"results"') : text.index('"warnings"')]

    assert results(traced) == results(plain)
    assert json.loads(traced)["warnings"] == json.loads(plain)["warnings"]
    fits = json.loads(traced)["results"]["pointwise"]["tail_fits"]
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "n", "log_norm", "fit"]
    steps = sorted({*range(stride, horizon + 1, stride), horizon})
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [
        (t, n) for t in range(1, trials + 1) for n in steps
    ]
    x = np.array(analysis.get("initial_vector", np.ones(2) / np.sqrt(2.0)))
    for t in range(trials):
        path = sample_trajectory(chain, horizon, seed, stream=t)
        oracle = oracle_log_norm_history(mats, path, x)
        for n, row in zip(steps, rows[1 + t * len(steps) :]):
            assert float(row[2]) == pytest.approx(oracle[n - 1], rel=1e-12, abs=1e-12)
            assert float(row[3]) == fits[t]
        assert fits[t] == pytest.approx(oracle_tail_slope(oracle), rel=1e-9, abs=1e-12)


TRACE_DOC = {
    "dimension": 2,
    "matrices": [np.diag([0.5, 1.0]).tolist(), rotation(np.pi / 2).tolist()],
    "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
    "analysis": {"trials": 3, "horizon": 60, "num_initials": 2, "depth": 3},
}


def _never_run(*args, **kwargs):
    raise AssertionError("the command ran past an unwritable output path")


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_path_is_refused_before_the_run(
    tmp_path, capsys, monkeypatch, where
):
    # a missing directory exited 1 with a FileNotFoundError traceback, after the run
    monkeypatch.setitem(mjlslab.cli._COMMANDS, "jsr", _never_run)
    out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    cfg = write(tmp_path, JSR_CFG)
    code, stdout, err = run(capsys, "jsr", "--config", cfg, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: --out: cannot write {out}: not a file in a writable folder\n"


def test_an_unwritable_trace_csv_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mjlslab.stability, "_symbol_paths", _never_run)
    trace = tmp_path / "missing" / "trace.csv"
    doc = {**TRACE_DOC, "analysis": {**TRACE_DOC["analysis"], "trace_csv": str(trace)}}
    code, out, err = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert (code, out) == (2, "")
    assert err == (
        f"error: analysis.trace_csv: cannot write {trace}: "
        "not a file in a writable folder\n"
    )


def test_an_empty_out_path_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # "" read as no path: the report went to stdout and the command exited 0
    monkeypatch.setitem(mjlslab.cli._COMMANDS, "jsr", _never_run)
    cfg = write(tmp_path, JSR_CFG)
    code, stdout, err = run(capsys, "jsr", "--config", cfg, "--out", "")
    assert (code, stdout, err) == (2, "", "error: --out: the path is empty\n")


def test_an_empty_trace_csv_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    # "" passed the folder check and was refused by the write, after the run
    monkeypatch.setattr(mjlslab.stability, "_symbol_paths", _never_run)
    doc = {**TRACE_DOC, "analysis": {**TRACE_DOC["analysis"], "trace_csv": ""}}
    code, out, err = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert (code, out, err) == (2, "", "error: analysis.trace_csv: the path is empty\n")


@pytest.mark.parametrize("target", ["--out", "analysis.trace_csv"])
def test_an_output_write_that_fails_is_one_error_line(tmp_path, capsys, target):
    # a name too long for the file system passes the directory check and
    # fails only when the file is opened
    path = str(tmp_path / ("x" * 300))
    doc, argv = TRACE_DOC, []
    if target == "--out":
        argv = ["--out", path]
    else:
        doc = {**TRACE_DOC, "analysis": {**TRACE_DOC["analysis"], "trace_csv": path}}
    cfg = write(tmp_path, json.dumps(doc))
    code, out, err = run(capsys, "classify", "--config", cfg, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: ") and path in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_classify_trials_are_a_prefix_of_a_larger_run(tmp_path, capsys):
    # each trial's history depends on its own path only, also at d >= 4, where
    # a BLAS call over several rows can round a row differently from a call on it alone
    mats = np.random.default_rng(41).standard_normal((3, 5, 5)) * 0.45
    third = [1 / 3] * 3
    doc = {
        "dimension": 5,
        "matrices": mats.tolist(),
        "markov": {"initial": third, "transition": [third] * 3},
        "analysis": {"horizon": 120, "num_initials": 2, "depth": 2, "jsr_depth": 2,
                     "boundedness_depth": 2},
    }
    cfg = write(tmp_path, json.dumps(doc))
    pointwise = {}
    for trials in (7, 20):
        code, out, _ = run(capsys, "classify", "--config", cfg, "--trials", str(trials))
        assert code == 0
        pointwise[trials] = json.loads(out)["results"]["pointwise"]
    for key in ("final_log_norms", "tail_fits"):
        assert pointwise[7][key] == pointwise[20][key][:7]


def test_split_periodic_reports_route_agreement(tmp_path, capsys):
    cfg = write(
        tmp_path,
        """{
  "dimension": 2,
  "matrices": [[[0.5, 1.0], [0.0, 1.0]]],
  "sequence": {"kind": "periodic", "word": [1]},
  "analysis": {"horizon": 2048}
}
""",
    )
    code, out, _ = run(capsys, "split", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["periodic_exact"] is not None
    agreement = doc["results"]["agreement"]
    assert agreement["center_distance"] <= 1e-6
    assert agreement["stable_distance"] <= 1e-6


# sha256 of each demo config's report bytes; a change that alters a report on
# purpose updates its digest here and names the changed fields
DEMO_REPORT_SHA256 = {
    "classify_rotmix": "48209302e847ff8bdf08bcc579e8ff905ebb5a4e85792a9da2b804c8cca0226f",
    "decompose_reducible": "49a1e8ba29c2fa54a949e5248509e3c38fc573bf25891ffe2ce4445be128aada",
    "example46": "4c221ee68471c7c5847369d6f1aae4eb188d62d0e066babf1bfd9b7834139847",
    "jsr_shear": "9b8fdf5a6a3d9b3af629bb0eeac5dae7a5509270f326faa22eb0700252707a3f",
    "split_shear_periodic": "702b23051a5f7e35526acab94dac02df6617e204b08c1b2e4ec2b1988f16e554",
}


@pytest.mark.parametrize("name", sorted(DEMO_REPORT_SHA256))
def test_demo_config_reports_keep_their_bytes(tmp_path, name):
    command = name.split("_")[0]
    out = tmp_path / "report.json"
    cfg = str(ROOT / "demos/configs" / f"{name}.json")
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_REPORT_SHA256[name]


def test_split_walks_the_cocycle_once(capsys, monkeypatch):
    calls = []
    limit_points = mjlslab.cli.limit_points

    def counted(*args, **kwargs):
        calls.append(limit_points(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(mjlslab.cli, "limit_points", counted)
    cfg = str(ROOT / "demos/configs/split_shear_periodic.json")
    code, out, _ = run(capsys, "split", "--config", cfg)
    assert code == 0
    # the limit points hold every return time; the checkpoints are read off them
    assert [len(lps.products) for lps in calls] == [4095]
    assert json.loads(out)["results"]["verification"]["return_count"] == 4095


def _cli_subprocess(tmp_path, command: str, doc: dict, timeout: float):
    """Run a command in a child process; it must exit 0 without a traceback.

    Returns the report and the child's stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "mjlslab", command, "--config", write(tmp_path, json.dumps(doc))],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout), proc.stderr


def _split_subprocess(tmp_path, doc: dict, timeout: float):
    """Run `split` in a child process, so a closure without a work bound fails
    the test by its timeout instead of hanging the suite."""
    report, stderr = _cli_subprocess(tmp_path, "split", doc, timeout)
    assert stderr == ""
    return report


def test_split_closure_stops_at_the_budget(tmp_path):
    # 28 representatives whose closure keeps growing: about 2e8 comparisons
    # without the budget, 1e6 with the default one
    doc = {
        "dimension": 2,
        "matrices": [np.diag([0.5, 1.0]).tolist(), rotation(np.pi / 2).tolist()],
        "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "sequence": {"kind": "markov"},
        "analysis": {"horizon": 64},
    }
    report = _split_subprocess(tmp_path, doc, timeout=120)
    budget = [w for w in report["warnings"] if w.startswith("budget:")]
    assert len(budget) == 1 and "budget 1000000" in budget[0]
    assert report["results"]["splitting"] is not None


@pytest.mark.parametrize(
    "diagonal, horizon, gate",
    [
        ([2.0, 1.0], 4096, "gate: the cocycle product overflows by return time 1024"),
        ([1.2, 0.5], 64, "gate: a repeated square of a closure product overflows"),
    ],
)
def test_split_overflow_is_a_gate(tmp_path, diagonal, horizon, gate):
    doc = {
        "dimension": 2,
        "matrices": [np.diag(diagonal).tolist()],
        "sequence": {"kind": "periodic", "word": [1]},
        "analysis": {"horizon": horizon},
    }
    report = _split_subprocess(tmp_path, doc, timeout=120)
    assert gate in report["warnings"]
    results = report["results"]
    assert results["splitting"] is None and results["verification"] is None


IID2_BLOCK = {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]}


@pytest.mark.parametrize("g", [1.3e3, 1e5, 2e6])
def test_classify_log_norms_do_not_overflow_inside_a_segment(tmp_path, g):
    # g**100 is past the float range: a 50-step segment's squared norms
    # overflowed (pointwise finals -inf), and from g = 1.5e6 on its products
    # did too (the SVD raised)
    doc = {
        "dimension": 2,
        "matrices": [(g * np.eye(2)).tolist(), (g * rotation(np.pi / 2)).tolist()],
        "markov": IID2_BLOCK,
        "analysis": {"trials": 4, "horizon": 200, "num_initials": 2, "depth": 1},
    }
    report, _ = _cli_subprocess(tmp_path, "classify", doc, timeout=120)
    results = report["results"]
    for key in ("pointwise", "consistent"):
        finals = results[key]["final_log_norms"]
        np.testing.assert_allclose(finals, 200 * np.log(g), rtol=1e-9)
        assert results[key]["fraction_converged"] == 0
    assert results["equivalence"]["fractions_converged"] == [0, 0]
    assert "bounded-so-far" not in json.dumps(report)


@pytest.mark.parametrize(
    "command, depth, nulls",
    [
        ("jsr", 1, None),
        ("jsr", 4, ["jsr", "boundedness", "finiteness"]),
        ("classify", 1, []),
        ("classify", 4, ["periodic_probe", "consistent_probe", "almost_sure"]),
    ],
)
def test_overflowing_word_levels_are_a_gate(tmp_path, command, depth, nulls):
    # the level-4 products hold inf: their SVD maximum is NaN and eigvals
    # refuses them. jsr at depth 1 takes no eigenvalues there and raises no
    # gate; its boundedness verdict must still read the NaN as growth
    base = [[[0.9, 0.4], [-0.3, 1.1]], [[0.2, -1.0], [0.7, 0.5]]]
    doc = {
        "dimension": 2,
        "matrices": (1e100 * np.array(base)).tolist(),
        "markov": IID2_BLOCK,
        "analysis": {
            "depth": depth, "jsr_depth": 4, "boundedness_depth": 4,
            "trials": 4, "horizon": 200, "num_initials": 2,
        },
    }
    report, _ = _cli_subprocess(tmp_path, command, doc, timeout=120)
    assert "bounded-so-far" not in json.dumps(report)
    results = report["results"]
    if nulls is not None:
        assert any(w.startswith("gate:") for w in report["warnings"])
        assert all(results[key] is None for key in nulls)
    gate = results["boundedness"] if command == "jsr" else results["equivalence"]["gate"]
    if gate is not None:
        assert gate["verdict"] == "growth-detected"


@pytest.mark.parametrize(
    "g, x", [(1.5, [1e160, 0.0]), (1.5, [3e200, -4e200]), (1e160, None)]
)
def test_classify_log_norms_past_the_float_range_stay_finite(tmp_path, g, x):
    # the start row's squares, or g**2, pass the float range: the pointwise
    # finals read -inf, and with g = 1e160 the harness's boundedness gate
    # raised an EigenSolverError (exit 1)
    analysis = {"trials": 4, "horizon": 200, "num_initials": 2, "depth": 1}
    if x is not None:
        analysis["initial_vector"] = x
    doc = {
        "dimension": 2,
        "matrices": [(g * np.eye(2)).tolist(), (g * rotation(np.pi / 2)).tolist()],
        "markov": IID2_BLOCK,
        "analysis": analysis,
    }
    report, _ = _cli_subprocess(tmp_path, "classify", doc, timeout=120)
    results = report["results"]
    size = 0.0 if x is None else np.log(np.hypot(*x))
    np.testing.assert_allclose(
        results["pointwise"]["final_log_norms"], 200 * np.log(g) + size, rtol=1e-9
    )
    np.testing.assert_allclose(
        results["consistent"]["final_log_norms"], 200 * np.log(g), rtol=1e-9
    )
    assert results["pointwise"]["fraction_converged"] == 0
    gates = [w for w in report["warnings"] if w.startswith("gate: equivalence")]
    if g > 1e154:
        assert results["equivalence"] is None and len(gates) == 1
    else:
        assert results["equivalence"]["fractions_converged"] == [0, 0] and not gates


def test_classify_start_row_past_the_float_range_on_criterion_7(tmp_path):
    doc = {
        "dimension": 2,
        "matrices": [np.diag([0.5, 1.0]).tolist(), rotation(np.pi / 2).tolist()],
        "markov": IID2_BLOCK,
        "analysis": {
            "trials": 4, "horizon": 200, "num_initials": 2, "depth": 1,
            "initial_vector": [1e160, 0.0],
        },
    }
    report, _ = _cli_subprocess(tmp_path, "classify", doc, timeout=120)
    pointwise = report["results"]["pointwise"]
    finals = np.array(pointwise["final_log_norms"], dtype=float)
    # diag(0.5, 1) and the quarter turn never grow a row; they halve it at most
    # once per step
    assert np.all(finals <= np.log(1e160) + 1e-9)
    assert np.all(finals >= np.log(1e160) + 200 * np.log(0.5))
    assert pointwise["fraction_converged"] == 0


def test_classify_small_generator_beside_one_past_the_square_range(tmp_path, capsys):
    # g = 1e160 has g**2 past the float range; scaled to g in [1/2, 1), I
    # became about 1e-160 and two I steps in a segment squared below the
    # range, so every trial read -inf and converged
    doc = {
        "dimension": 2,
        "matrices": [(1e160 * np.eye(2)).tolist(), np.eye(2).tolist()],
        "markov": IID2_BLOCK,
        "analysis": {"trials": 4, "horizon": 40, "num_initials": 2, "depth": 1},
    }
    code, out, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 0
    results = json.loads(out)["results"]
    pointwise = np.array(results["pointwise"]["final_log_norms"], dtype=float)
    assert np.isfinite(pointwise).all()
    # x is a unit vector and every generator a multiple of I: ||x A(n)|| = ||A(n)||
    np.testing.assert_allclose(pointwise, results["consistent"]["final_log_norms"], rtol=1e-12)
    assert results["pointwise"]["fraction_converged"] == 0
    assert results["diagonal_shortcut"]["pointwise"]["fraction_converged"] == 0


def test_jsr_names_the_depth_whose_norm_maximum_overflowed(tmp_path):
    base = [[[0.9, 0.4], [-0.3, 1.1]], [[0.2, -1.0], [0.7, 0.5]]]
    doc = {
        "dimension": 2,
        "matrices": (1e100 * np.array(base)).tolist(),
        "analysis": {"depth": 1, "jsr_depth": 4, "boundedness_depth": 4},
    }
    report, _ = _cli_subprocess(tmp_path, "jsr", doc, timeout=120)
    assert report["results"]["finiteness"]["upper"] == "nan"
    gates = [w for w in report["warnings"] if w.startswith("gate:")]
    assert len(gates) == 1 and "length-4 products" in gates[0]


def test_classify_generator_norm_past_the_float_range_is_not_converging(tmp_path):
    # ||M||_2 = 1.5e308 * sqrt(2) overflows, so the kernel scaled nothing: every
    # state went to NaN and every trial read -inf and converged
    a = 1.5e308
    doc = {
        "dimension": 2,
        "matrices": [[[a, a], [1.0, 1.0]], np.eye(2).tolist()],
        "markov": IID2_BLOCK,
        "analysis": {"trials": 4, "horizon": 40},
    }
    report, _ = _cli_subprocess(tmp_path, "classify", doc, timeout=120)
    results = report["results"]
    pointwise = np.array(results["pointwise"]["final_log_norms"], dtype=float)
    consistent = np.array(results["consistent"]["final_log_norms"], dtype=float)
    # M = u v^T with u = (a, 1), v = (1, 1) is rank one, so a path with k
    # M's ends at (a + 1)^(k - 1) M: x = (1, 1)/sqrt(2) reads k log a, and the
    # product k log a + log(2) / 2 (a + 1 and a are one float)
    k = pointwise / np.log(a)
    np.testing.assert_allclose(k, np.round(k), rtol=0, atol=1e-9)
    assert np.all((k >= 1) & (k <= 40))
    np.testing.assert_allclose(consistent, pointwise + np.log(2) / 2, rtol=1e-12)
    for key in ("pointwise", "consistent"):
        assert results[key]["fraction_converged"] == 0


def test_split_preextremal_enumeration_past_the_budget_is_a_budget_warning(tmp_path):
    # depth 25 over two matrices and three center rows needs 67,108,862 vector
    # products; verify_splitting raised BudgetExceededError (exit 1)
    doc = {
        "dimension": 2,
        "matrices": [np.diag([1.0, 0.5]).tolist(), np.eye(2).tolist()],
        "sequence": {"kind": "periodic", "word": [1, 2]},
        "analysis": {"horizon": 256, "preextremal_depth": 25},
    }
    report, stderr = _cli_subprocess(tmp_path, "split", doc, timeout=120)
    assert stderr == ""
    assert report["warnings"] == [
        "budget: pre-extremal enumeration needs 67108862 vector products, "
        "budget is 1000000"
    ]
    results = report["results"]
    assert results["verification"] is None and results["splitting"] is not None


def test_split_preextremal_enumeration_honours_the_budget(tmp_path, capsys):
    # depth 14 over two matrices needs 32,766 vector products a row: inside
    # the default budget, past 32,000; the closure needs fewer than 32,000
    doc = {
        "dimension": 2,
        "matrices": [np.diag([1.0, 0.5]).tolist(), np.eye(2).tolist()],
        "sequence": {"kind": "periodic", "word": [1, 2]},
        "analysis": {"horizon": 256, "preextremal_depth": 14},
    }
    reports = []
    for budget in (None, 32_000):
        if budget is not None:
            doc["analysis"]["budget"] = budget
        code, out, _ = run(capsys, "split", "--config", write(tmp_path, json.dumps(doc)))
        assert code == 0
        reports.append(json.loads(out))
    full, cut = reports
    assert full["warnings"] == [] and full["results"]["verification"] is not None
    assert cut["warnings"] == [
        "budget: pre-extremal enumeration needs 32766 vector products, budget is 32000"
    ]
    assert cut["results"]["verification"] is None
    assert cut["results"]["splitting"] == full["results"]["splitting"]


SPLIT_OVERFLOW_DOC = {
    "dimension": 2,
    "matrices": [(1e160 * np.eye(2)).tolist()],
    "sequence": {"kind": "periodic", "word": [1, 1]},
    "analysis": {"horizon": 64},
}
WALK_OVERFLOW_DOC = {
    "dimension": 2,
    "matrices": [(1e160 * np.eye(2)).tolist(), (1e160 * rotation(np.pi / 2)).tolist()],
    "markov": IID2_BLOCK,
    "analysis": {"depth": 3, "trials": 4, "horizon": 40, "num_initials": 2},
}
# the level-2 products overflow: their entries reach 1e160 squared
EIGVALS_GATE = "gate: the length-2 products are not finite; their eigenvalues cannot be taken"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_overflowing_period_product_is_a_gate(tmp_path, capsys):
    # the period product 1e320 I is not finite; spectral_split refused it (exit 1)
    cfg = write(tmp_path, json.dumps(SPLIT_OVERFLOW_DOC))
    code, out, err = run(capsys, "split", "--config", cfg)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert "gate: the period product of the word overflows" in report["warnings"]
    assert report["results"]["periodic_exact"] is None
    assert report["results"]["agreement"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "key, value", [(key, INT_MINIMA.get(key, 1) - 1) for key in _OVERRIDES]
)
def test_overrides_obey_the_config_file_minima(tmp_path, capsys, key, value):
    # --horizon 1 passed the override check, then tail_start raised (exit 1)
    base = {"dimension": 2, "matrices": [np.eye(2).tolist()] * 2, "markov": IID2_BLOCK}
    cfg = write(tmp_path, json.dumps(base))
    code, out, err = run(capsys, "classify", "--config", cfg, f"--{key}", str(value))
    assert code == 2 and out == ""
    assert err.startswith(f"error: --{key}: must be at least")
    bad = write(tmp_path, json.dumps({**base, "analysis": {key: value}}), name="bad.json")
    file_code, _, file_err = run(capsys, "classify", "--config", bad)
    assert file_code == 2
    assert err == file_err.replace(f"analysis.{key}", f"--{key}")


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 2**70])
def test_a_seed_past_the_philox_key_is_refused(tmp_path, capsys, seed):
    # philox_stream keeps a seed's low 64 bits, so seed 2**64 ran as seed 0
    cfg = write(tmp_path, json.dumps(TRACE_DOC))
    code, out, err = run(capsys, "classify", "--config", cfg, "--seed", str(seed))
    assert (code, out) == (2, "")
    assert err == f"error: --seed: must be at most {2**64 - 1}, got {seed}\n"
    doc = {**TRACE_DOC, "analysis": {**TRACE_DOC["analysis"], "seed": seed}}
    code, out, file_err = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert (code, out) == (2, "")
    assert file_err == err.replace("--seed", "analysis.seed")


def test_the_largest_seed_runs(tmp_path, capsys):
    cfg = write(tmp_path, json.dumps(TRACE_DOC))
    code, out, _ = run(capsys, "classify", "--config", cfg, "--seed", str(2**64 - 1))
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["seed"] == 2**64 - 1
    assert doc["results"]["pointwise"]["seed"] == 2**64 - 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, gates",
    [
        ("jsr", [EIGVALS_GATE]),
        (
            "classify",
            [
                EIGVALS_GATE,
                "gate: equivalence boundedness gate: singular value iteration did "
                "not converge",
            ],
        ),
    ],
)
def test_overflowing_word_walk_warns_only_in_the_report(tmp_path, capsys, command, gates):
    # the level matmul printed numpy overflow and invalid-value warnings
    cfg = write(tmp_path, json.dumps(WALK_OVERFLOW_DOC))
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == 0 and err == ""
    warns = json.loads(out)["warnings"]
    assert [w for w in warns if w.startswith("gate:")] == gates


@pytest.mark.parametrize(
    "command, doc, extra, code",
    [
        ("split", SPLIT_OVERFLOW_DOC, [], 0),
        ("jsr", WALK_OVERFLOW_DOC, [], 0),
        ("classify", WALK_OVERFLOW_DOC, ["--horizon", "1"], 2),
    ],
)
def test_mended_inputs_leave_stderr_clean(tmp_path, command, doc, extra, code):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mjlslab", command,
         "--config", write(tmp_path, json.dumps(doc)), *extra],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    if code == 0:
        json.loads(proc.stdout)  # the report alone: nothing else is printed
    else:
        assert proc.stdout == ""


def test_overflowing_3x3_jsr_prints_only_the_report(tmp_path):
    # the level-2 products hold +-inf; their SVD went to LAPACK, whose DLASCL
    # printed 8 "illegal value" lines on stdout ahead of the JSON report
    mats = 1e160 * np.random.default_rng(5).standard_normal((2, 3, 3))
    doc = {
        "dimension": 3,
        "matrices": mats.tolist(),
        "analysis": {"depth": 1, "jsr_depth": 2, "boundedness_depth": 2},
    }
    proc = subprocess.run(
        [sys.executable, "-m", "mjlslab", "jsr", "--config", write(tmp_path, json.dumps(doc))],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    report, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:] == "\n"
    assert report["results"]["boundedness"]["verdict"] == "growth-detected"
    assert report["results"]["boundedness"]["max_norm_per_depth"][1] == "nan"
    assert report["warnings"][-1] == (
        "gate: the largest 2-norm of the length-2 products is not finite; "
        "norm bounds from that depth on are not finite"
    )


def test_split_budget_warning_leaves_the_demo_split_alone(tmp_path, capsys):
    # the demo's closure makes 20,250 comparisons; one fewer stops it before
    # its last product, which was no new member
    cfg = json.loads((ROOT / "demos/configs/split_shear_periodic.json").read_text())
    docs = []
    for budget in (20_250, 20_249):
        cfg["analysis"]["budget"] = budget
        code, out, _ = run(capsys, "split", "--config", write(tmp_path, json.dumps(cfg)))
        assert code == 0
        docs.append(json.loads(out))
    full, cut = docs
    assert full["warnings"] == []
    assert cut["warnings"] == [
        "budget: split closure stopped after 20235 comparisons (budget 20249); "
        "searched the 15 products pooled so far"
    ]
    assert cut["results"] == full["results"]


def test_split_budget_warning_is_reported_where_warnings_are_errors(tmp_path):
    cfg = json.loads((ROOT / "demos/configs/split_shear_periodic.json").read_text())
    cfg["analysis"]["budget"] = 20_249
    argv = [sys.executable, "-m", "mjlslab", "split", "--config", write(tmp_path, json.dumps(cfg))]
    plain = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    plain["PYTHONPATH"] = str(ROOT / "src")
    runs = [
        subprocess.run(argv, env=env, capture_output=True, timeout=120)
        for env in (plain, dict(plain, PYTHONWARNINGS="error"))
    ]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, b"")
    assert runs[1].stdout == runs[0].stdout
    assert b'"budget: split closure stopped after 20235 comparisons' in runs[0].stdout


def test_example46_closed_form_rows(tmp_path, capsys):
    cfg = write(tmp_path, '{"analysis": {"levels": 4, "alpha": 0.5}}')
    code, out, _ = run(capsys, "example46", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    assert [r["n"] for r in rows] == [1, 3, 15, 255]
    assert rows[-1]["norm"] == pytest.approx(2.0**-8, abs=1e-15)
    for k, row in enumerate(rows, start=1):
        expected = 2 ** (k - 1) * np.log(0.5) / (2 ** (2 ** (k - 1)) - 1)
        assert row["exponent"] == pytest.approx(expected, abs=1e-12)
    assert doc["results"]["norms_strictly_decreasing"] is True
    assert doc["results"]["exponents_strictly_increasing"] is True


@pytest.mark.parametrize("block", ["sequence", "analysis"])
def test_split_refuses_example46_levels_past_the_word_cap(tmp_path, capsys, block):
    # level 6's word has 2**32 - 1 symbols; split exited 1 with a traceback
    doc = {
        "dimension": 2,
        "matrices": [np.eye(2).tolist(), np.diag([0.5, 1.0]).tolist()],
        "sequence": {"kind": "example46"},
        "analysis": {"horizon": 64, "depth": 2, "jsr_depth": 2, "preextremal_depth": 2},
    }
    for levels in (QUADRATIC_GAP_MAX_LEVELS, QUADRATIC_GAP_MAX_LEVELS + 1):
        doc[block]["levels"] = levels
        code, out, err = run(capsys, "split", "--config", write(tmp_path, json.dumps(doc)))
        if levels == QUADRATIC_GAP_MAX_LEVELS:
            assert (code, err) == (0, "")
            assert json.loads(out)["results"]["sequence"]["detail"]["levels"] == levels
        else:
            assert (code, out) == (2, "")
            top = QUADRATIC_GAP_MAX_LEVELS
            assert err == f"error: {block}.levels: must be at most {top}, got {levels}\n"


def test_classify_verdicts_do_not_depend_on_the_size_of_the_initial_vector(tmp_path, capsys):
    # x A(n) and (c x) A(n) go to zero together: 1e-300 e1 and 1e300 e1 read
    # the tail fits of e1, and no trial decays exponentially. The squares of
    # 1e-300 e1 underflow, and those of 1e300 e1 overflow, at the first step
    doc = {
        "dimension": 2,
        "matrices": [[[0.0, 1.0], [-1.0, 0.0]], np.eye(2).tolist()],
        "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "analysis": {"trials": 20, "horizon": 2000, "num_initials": 2, "depth": 2,
                     "boundedness_depth": 2},
    }
    reports = []
    for scale in (1e-300, 1.0, 1e300):
        doc["analysis"]["initial_vector"] = [scale, 0.0]
        code, out, _ = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
        assert code == 0
        reports.append(json.loads(out)["results"]["pointwise"])
    assert [r["exponential_count"] for r in reports] == [0, 0, 0]
    base = reports[1]
    for scale, report in zip((1e-300, 1.0, 1e300), reports):
        np.testing.assert_allclose(report["tail_fits"], base["tail_fits"], rtol=0, atol=1e-12)
        finals = np.array(report["final_log_norms"]) - np.log(scale)
        np.testing.assert_allclose(finals, base["final_log_norms"], rtol=0, atol=1e-12)


def test_example46_level_cap(tmp_path, capsys):
    cfg = write(tmp_path, '{"analysis": {"levels": 9}}')
    code, _, err = run(capsys, "example46", "--config", cfg)
    assert code == 2
    assert "levels" in err


def test_mjls_threads_validation(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, DECOMPOSE_CFG)
    for bad in ("0", "-2", "abc"):
        monkeypatch.setenv("MJLS_THREADS", bad)
        code, _, err = run(capsys, "decompose", "--config", cfg)
        assert code == 2
        assert "MJLS_THREADS" in err
    monkeypatch.setenv("MJLS_THREADS", "4")
    code, _, _ = run(capsys, "decompose", "--config", cfg)
    assert code == 0


def test_classify_requires_markov_block(tmp_path, capsys):
    cfg = write(tmp_path, JSR_CFG)
    code, _, err = run(capsys, "classify", "--config", cfg)
    assert code == 2
    assert "markov" in err


@pytest.mark.parametrize(
    "sequence, analysis",
    [
        ({"kind": "periodic", "word": [1]}, {"horizon": 3, "cylinder_len": 4}),
        ({"kind": "explicit", "symbols": [1, 1, 1]}, {"cylinder_len": 4}),
    ],
    ids=["horizon", "explicit_sequence"],
)
def test_split_cylinder_longer_than_the_horizon_is_a_config_error(
    tmp_path, capsys, sequence, analysis
):
    doc = {"dimension": 2, "matrices": [[[0.5, 1.0], [0.0, 1.0]]],
           "sequence": sequence, "analysis": analysis}
    code, out, err = run(capsys, "split", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: analysis.cylinder_len:")


def test_classify_refuses_a_zero_initial_vector(tmp_path, capsys):
    doc = json.loads((ROOT / "demos/configs/classify_rotmix.json").read_text())
    doc["analysis"]["initial_vector"] = [0.0, -0.0]
    code, out, err = run(capsys, "classify", "--config", write(tmp_path, json.dumps(doc)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: analysis.initial_vector:")


def _markov_cfg(initial, transition, matrices=(np.eye(2), np.diag([0.5, 1.0]))):
    return json.dumps(
        {
            "dimension": 2,
            "matrices": [np.asarray(m).tolist() for m in matrices],
            "markov": {"initial": initial, "transition": transition},
            "sequence": {"kind": "markov"},
            "analysis": {"trials": 4, "horizon": 64, "num_initials": 2, "depth": 2,
                         "jsr_depth": 2, "boundedness_depth": 2},
        }
    )


@pytest.mark.parametrize("command", ["classify", "split"])
@pytest.mark.parametrize(
    "transition, defect",
    [
        ([[0.2, 0.2], [-0.5, 0.3]], "transition row 2 sums to"),
        ([[0.5, 0.5], [-0.5, 1.5]], "negative entry"),
        # its row sum is inside the tolerance
        ([[1 + 5e-13, 0.0], [0.5, 0.5]], f"entry {1 + 5e-13:.17g} above 1"),
    ],
    ids=["row_sums", "negative_entry", "entry_above_one"],
)
def test_sampling_commands_reject_invalid_chains(
    tmp_path, capsys, command, transition, defect
):
    cfg = write(tmp_path, _markov_cfg([0.5, 0.5], transition))
    code, out, err = run(capsys, command, "--config", cfg, "--strict")
    assert code == 2
    assert out == ""
    assert err.startswith("error: markov: " + defect)


@pytest.mark.parametrize("command", ["classify", "split"])
def test_sampling_commands_accept_nonstationary_initial(tmp_path, capsys, command):
    initial, transition = [1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]]
    # a contracting pair, so no gate fires and --strict exits 0
    contracting = (0.5 * np.eye(2), np.diag([0.5, 0.9]))
    cfg = write(tmp_path, _markov_cfg(initial, transition, contracting))
    code, out, _ = run(capsys, command, "--config", cfg, "--strict")
    assert code == 0
    doc = json.loads(out)
    (issue,) = validate_chain(MarkovChain(initial, transition)).issues
    assert "note: " + issue in doc["warnings"]
    if command == "split":
        assert doc["results"]["sequence"]["kind"] == "markov"


def test_floats_serialize_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, JSR_CFG)
    code, out, _ = run(capsys, "jsr", "--config", cfg, "--depth", "12")
    assert code == 0
    doc = json.loads(out)
    upper = doc["results"]["jsr"]["upper"]
    # 17 significant digits reproduce the double exactly
    direct = np.linalg.norm(np.linalg.matrix_power(np.array([[1.0, 0.0], [1.0, 1.0]]), 12), 2) ** (1 / 12)
    assert upper == direct


# --- every command refuses bad input with exit 2, never a traceback -------------

FUZZ_COMMANDS = ("decompose", "jsr", "split", "classify", "example46")
FUZZ_RUNS = 40  # configs per command


def _fuzz_matrices(rng, d: int, k: int) -> list:
    """k generators of size d: drawn, diagonal or nilpotent, times 0, 1e-200, 1 or 1e160."""
    kind = rng.choice(["drawn", "diagonal", "nilpotent"])
    mats = rng.standard_normal((k, d, d))
    if kind == "diagonal":
        mats *= np.eye(d)
    elif kind == "nilpotent":
        mats = np.triu(mats, 1)
    return (rng.choice([0.0, 1e-200, 1.0, 1e160]) * mats).tolist()


def _fuzz_chain(rng, k: int) -> dict:
    """A chain on k states with zero-mass edges; now and then a row that does
    not sum to 1 or an initial law with a negative entry."""
    weights = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    transition = weights / weights.sum(axis=1, keepdims=True)
    initial = rng.dirichlet(np.ones(k)) if rng.random() < 0.7 else np.eye(k)[rng.integers(k)]
    if rng.random() < 0.1:
        transition[0, 0] += 0.25
    if rng.random() < 0.05:
        initial = initial - 1.0
    return {"initial": initial.tolist(), "transition": transition.tolist()}


def _fuzz_sequence(rng, k: int) -> dict:
    kind = rng.choice(["periodic", "explicit", "markov", "example46"])
    # a symbol k + 1 now and then, which the family cannot drive
    symbols = rng.integers(1, k + 1 + (rng.random() < 0.1), size=int(rng.integers(1, 20)))
    if kind == "periodic":
        return {"kind": "periodic", "word": symbols[:4].tolist()}
    if kind == "explicit":
        return {"kind": "explicit", "symbols": symbols.tolist()}
    if kind == "example46":
        # levels past the cap, or none, so that analysis.levels is read
        levels = int(rng.integers(1, 8))
        return {"kind": "example46", "levels": levels} if rng.random() < 0.7 else {"kind": kind}
    return {"kind": "markov"}


def _fuzz_case(rng, command: str) -> tuple[dict, list[str]]:
    """One small config for command and its extra command line arguments."""
    d, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    doc: dict = {}
    if command != "example46":
        doc["markov"] = _fuzz_chain(rng, k)
    if command in ("jsr", "split", "classify"):
        doc["dimension"] = d
        doc["matrices"] = _fuzz_matrices(rng, d, k)
    if command == "split":
        doc["sequence"] = _fuzz_sequence(rng, k)
    analysis = {
        "budget": int(rng.choice([1, 2, 5, 40, 10**6])),
        "horizon": int(rng.integers(2, 81)),
        "depth": int(rng.integers(1, 5)),
        "jsr_depth": int(rng.integers(1, 7)),
        "boundedness_depth": int(rng.integers(1, 7)),
        "trials": int(rng.integers(1, 5)),
        "num_initials": int(rng.integers(1, 4)),
        "shift_max_len": int(rng.integers(1, 5)),
        "cylinder_len": int(rng.integers(1, 4)),
        "max_cylinder_len": int(rng.integers(1, 4)),
        "preextremal_depth": int(rng.integers(0, 4)),
        "verify_samples": int(rng.integers(1, 4)),
        "levels": int(rng.integers(1, 7)),
        "alpha": float(rng.choice([0.25, 0.5, 0.9])),
    }
    if command == "classify" and rng.random() < 0.2:
        analysis["initial_vector"] = [float(rng.choice([0.0, 1e-300, 1.0, 1e300]))] * d
    doc["analysis"] = analysis
    extra = []
    for flag, low, high in (("--horizon", 1, 81), ("--trials", 0, 5), ("--depth", 0, 6)):
        if rng.random() < 0.25:
            extra += [flag, str(rng.integers(low, high))]
    if rng.random() < 0.3:
        extra.append("--strict")
    return doc, extra


def _fuzz_cases(command: str) -> list[tuple[dict, list[str]]]:
    rng = np.random.default_rng([20, FUZZ_COMMANDS.index(command)])
    return [_fuzz_case(rng, command) for _ in range(FUZZ_RUNS)]


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_every_command_exits_0_2_or_3_on_generated_configs(tmp_path, capsys, command):
    codes = set()
    with np.errstate(all="ignore"):
        for i, (doc, extra) in enumerate(_fuzz_cases(command)):
            cfg = write(tmp_path, json.dumps(doc), f"cfg{i}.json")
            code, out, err = run(capsys, command, "--config", cfg, *extra)
            assert code in (0, 2, 3), (doc, extra, err)
            if code == 2:
                assert out == "" and err.startswith("error: ")
            else:
                json.loads(out)
            codes.add(code)
    assert 0 in codes


def test_a_generated_config_leaves_no_traceback(tmp_path):
    doc, extra = _fuzz_cases("split")[0]
    proc = subprocess.run(
        [sys.executable, "-m", "mjlslab", "split",
         "--config", write(tmp_path, json.dumps(doc)), *extra],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
