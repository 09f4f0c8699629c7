"""Command line interface: report schema, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from mjlslab.cli import main
from mjlslab.config import DEFAULTS

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
    assert "must be positive" in err


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
    assert any(w.startswith("budget:") for w in doc["warnings"])

    code, _, _ = run(capsys, command, "--config", cfg, "--strict")
    assert code == 3


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


def test_floats_serialize_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, JSR_CFG)
    code, out, _ = run(capsys, "jsr", "--config", cfg, "--depth", "12")
    assert code == 0
    doc = json.loads(out)
    upper = doc["results"]["jsr"]["upper"]
    # 17 significant digits reproduce the double exactly
    direct = np.linalg.norm(np.linalg.matrix_power(np.array([[1.0, 0.0], [1.0, 1.0]]), 12), 2) ** (1 / 12)
    assert upper == direct
