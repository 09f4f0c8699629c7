"""The measured passes of one benchmark run; see run.py for the metrics.

Imported by run.py only after the BLAS thread variables are pinned.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from tracing import COUNT_METRICS, SPAN_METRICS, Tracer, instrument, pass_metrics
from workloads import CheckFailed, check_report, write_configs

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent / "child.py"


class Bench:
    """One benchmark run: a workload at a seed, its jobs and its pass records."""

    def __init__(self, workload, seed: int, src: Path, work: Path):
        self.workload = workload
        self.src = src
        self.work = work
        self.configs = workload.make_configs(seed)
        self.references = workload.references(seed)
        paths = write_configs(workload, seed, work)
        warm = write_configs(workload, seed, work, warmup=True)
        cmds = workload.commands
        self.jobs = [(c, p, work / f"report-{i}.json") for i, (c, p) in enumerate(zip(cmds, paths))]
        self.warm_jobs = [
            (c, p, work / f"warm-{i}.json") for i, (c, p) in enumerate(zip(cmds, warm))
        ]
        self.attempted = 0
        self.failed = 0
        self.first_bytes: list[bytes] | None = None
        self.bytes_identical = True

    def check(self, codes: list[int], reports: list[bytes] | None) -> bool:
        """Count one attempted pass; False (and counted failed) if it fails."""
        self.attempted += 1
        try:
            if any(code != 0 for code in codes) or reports is None:
                raise CheckFailed(f"exit codes {codes}")
            for job, text, cfg, ref in zip(self.jobs, reports, self.configs, self.references):
                check_report(job[0], text, cfg, ref)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            print(f"pass failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return False
        baseline = self.first_bytes if self.references[0] is None else self.references
        if self.first_bytes is None:
            self.first_bytes = reports
        if baseline is not None and reports != baseline:
            self.bytes_identical = False
        return True


def run_jobs(cli, jobs) -> tuple[float, float, list[int], list[bytes] | None]:
    """One pass: every job through cli.main. Returns wall, CPU, exit codes, reports."""
    for _, _, out in jobs:
        out.unlink(missing_ok=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    codes = []
    try:
        for cmd, cfg, out in jobs:
            codes.append(cli.main([cmd, "--config", str(cfg), "--out", str(out)]))
    except Exception:
        traceback.print_exc()
        codes.append(-1)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if any(code != 0 for code in codes):
        return wall, cpu, codes, None
    return wall, cpu, codes, [out.read_bytes() for _, _, out in jobs]


def setup_seconds(bench: Bench) -> float:
    """Seconds from spawning a fresh interpreter to its configs being loaded."""
    args = [sys.executable, str(CHILD), str(bench.src)] + [str(cfg) for _, cfg, _ in bench.jobs]
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "loaded":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return setup


def end_to_end(bench: Bench, cli, seconds: float) -> tuple[dict, dict]:
    setups = [setup_seconds(bench) for _ in range(SETUP_SAMPLES)]
    run_jobs(cli, bench.warm_jobs)
    walls, cpus = [], []
    peak_mb = None
    start = time.perf_counter()
    while True:
        wall, cpu, codes, reports = run_jobs(cli, bench.jobs)
        bench.check(codes, reports)
        walls.append(wall)
        cpus.append(cpu)
        if peak_mb is None:
            # this process is a fresh interpreter that has run one pass
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }
    samples = {"passes": len(walls), "setup_samples": len(setups), "walls": walls, "cpus": cpus}
    return metrics, samples


def per_layer(bench: Bench, cli, seconds: float) -> tuple[dict, dict]:
    run_jobs(cli, bench.warm_jobs)
    plain, traced, times, counts = [], [], [], None
    start = time.perf_counter()
    while True:
        wall, _, codes, reports = run_jobs(cli, bench.jobs)
        bench.check(codes, reports)
        plain.append(wall)

        tracer = Tracer()
        with instrument(tracer):
            wall, _, codes, traced_reports = run_jobs(cli, bench.jobs)
        if bench.check(codes, traced_reports) and traced_reports != reports:
            print("pass failed: traced report bytes differ from untraced", file=sys.stderr)
            bench.failed += 1
        traced.append(wall)
        pass_times, pass_counts = pass_metrics(tracer)
        times.append(pass_times)
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            print(f"pass failed: counters differ: {pass_counts} vs {counts}", file=sys.stderr)
            bench.failed += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break

    spans = bench.work.parent / f"spans-{bench.workload.name}.json"
    spans.write_text(json.dumps(tracer.spans()) + "\n")
    metrics = {name: (statistics.median(t[name] for t in times), "s") for name in SPAN_METRICS}
    for name, value in counts.items():
        metrics[name] = (value, COUNT_METRICS[name])
    metrics["reports.bytes_identical"] = (1.0 if bench.bytes_identical else 0.0, "bool")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, {"passes": len(plain), "traced_passes": len(traced)}


def run(
    cli, workload, seed: int, seconds: float, trace: bool, src: Path, work: Path, environment: dict
) -> None:
    """Measure one run and print the information line and the result line."""
    bench = Bench(workload, seed, src, work)
    measure = per_layer if trace else end_to_end
    metrics, samples = measure(bench, cli, seconds)
    environment = dict(
        environment,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        "environment": environment,
    }
    print(json.dumps(info))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
