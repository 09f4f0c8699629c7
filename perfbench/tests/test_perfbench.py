"""Self-checks of the benchmark: tracing, workload generation, report checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import ROOT, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import mjlslab.cli as cli  # noqa: E402
import mjlslab.stability  # noqa: E402
from harness import run_jobs  # noqa: E402
from tracing import Tracer, instrument, pass_metrics  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    CheckFailed,
    check_report,
    write_configs,
)


def _small_jobs(name, tmp_path):
    workload = WORKLOADS[name]
    configs = write_configs(workload, 5, tmp_path, warmup=True)
    pairs = zip(workload.commands, configs)
    return [(cmd, cfg, tmp_path / f"out-{i}.json") for i, (cmd, cfg) in enumerate(pairs)]


def _traced_pass(jobs):
    tracer = Tracer()
    with instrument(tracer):
        _, _, codes, reports = run_jobs(cli, jobs)
    assert codes == [0] * len(jobs)
    return tracer, reports


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_passes_give_identical_counters_and_bytes(name, tmp_path):
    jobs = _small_jobs(name, tmp_path)
    _, _, codes, plain = run_jobs(cli, jobs)
    assert codes == [0] * len(jobs)
    first, first_reports = _traced_pass(jobs)
    second, second_reports = _traced_pass(jobs)
    assert first.counters == second.counters
    assert pass_metrics(first)[1] == pass_metrics(second)[1]
    assert first_reports == second_reports == plain


def test_instrument_restores_every_binding(tmp_path):
    before = (mjlslab.stability._symbol_paths, cli._symbol_paths, cli.jsonable)
    tracer = Tracer()
    with instrument(tracer):
        assert cli._symbol_paths is mjlslab.stability._symbol_paths
        assert cli._symbol_paths is not before[0]
    assert (mjlslab.stability._symbol_paths, cli._symbol_paths, cli.jsonable) == before


def test_spans_record_parents_and_self_time(tmp_path):
    tracer, _ = _traced_pass(_small_jobs("classify", tmp_path))
    harness = tracer.names.index("stability.harness")
    children = [i for i, p in enumerate(tracer.parents) if p == harness]
    assert {tracer.names[i] for i in children} >= {"stability.paths", "stability.vector_hist"}
    inclusive = tracer.ends[harness] - tracer.starts[harness]
    assert 0.0 <= tracer.span_seconds()["stability.harness"] < inclusive
    counts = pass_metrics(tracer)[1]
    assert counts["stability.paths_calls"] == 6
    assert counts["stability.paths_redundant_frac"] == pytest.approx(2 / 3)


def test_default_seed_reproduces_criterion_configs():
    c7, c8 = WORKLOADS["classify"].make_configs(DEFAULT_SEED)
    assert c7["matrices"][0] == [[0.5, 0.0], [0.0, 1.0]]
    assert c7["markov"]["transition"] == [[0.5, 0.5], [0.5, 0.5]]
    assert c7["analysis"] == {"trials": 100, "horizon": 2000, "num_initials": 20, "seed": 0}
    assert c8["markov"]["initial"] == [0.4, 0.4, 0.2]
    split = WORKLOADS["split_enumerate"].make_configs(DEFAULT_SEED)[0]
    demo = json.loads((ROOT / "demos" / "configs" / "split_shear_periodic.json").read_text())
    assert split["matrices"] == demo["matrices"] and split["sequence"] == demo["sequence"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_depend_only_on_the_seed(name):
    make = WORKLOADS[name].make_configs
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_reference_check_tolerates_last_digits_only():
    workload = WORKLOADS["split_enumerate"]
    config = workload.make_configs(DEFAULT_SEED)[1]
    ref = workload.references(DEFAULT_SEED)[1]
    doc = json.loads(ref)
    check_report("jsr", ref, config, ref)

    doc["results"]["jsr"]["upper"] *= 1 + 1e-13
    check_report("jsr", json.dumps(doc).encode(), config, ref)
    doc["results"]["jsr"]["upper"] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        check_report("jsr", json.dumps(doc).encode(), config, ref)

    for field, change in (("verdict", lambda v: v + "-changed"), ("depth_probed", lambda v: v - 1)):
        doc = json.loads(ref)
        doc["results"]["boundedness"][field] = change(doc["results"]["boundedness"][field])
        with pytest.raises(CheckFailed):
            check_report("jsr", json.dumps(doc).encode(), config, ref)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
