"""Benchmark of the mjls-lab command line tool.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (workloads.py): `classify` and `split_enumerate`. Every metric of
both, by name and unit:

    for w in classify split_enumerate; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seconds 55 --trace $t; done; done

Run from the root of a checkout. The configs of the workload are generated
from --seed and each pass runs the workload's subcommands in this process
through mjlslab.cli.main, one pass at a time (closed loop, one client).
Every pass is checked: exit code 0, the workload's invariants, and at the
default seed the stored reference reports. The self-checks of the benchmark
run with `python3 -m pytest -q perfbench/tests`.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s, cpu_s  median wall and process CPU seconds of one warm pass
  setup_s        median, over fresh interpreters, of start to configs loaded
  peak_rss_mb    peak RSS of this fresh process after its warm-up and first pass
  ok_frac        share of passes with exit 0 that passed the checks
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py: span seconds (median over traced passes), work
counters (which must repeat exactly) and trace.overhead_frac. The spans of
the last traced pass are written to .perfbench_work/spans-<workload>.json.

Both modes print an information line (environment, sample counts) and then,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. BLAS threads are pinned to at most nproc before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> tuple[int, dict[str, str]]:
    """Cap every BLAS thread variable at nproc (default nproc); children inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc, {var: os.environ[var] for var in BLAS_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mjlslab" / "cli.py").is_file():
        print(f"error: {SRC / 'mjlslab'} not found; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    nproc, blas = pin_blas_threads()  # before anything loads numpy
    sys.path.insert(0, str(SRC))
    import mjlslab.cli as cli

    import harness
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != (SRC / "mjlslab").resolve():
        print(f"error: mjlslab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        harness.run(
            cli,
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            SRC,
            work,
            {"nproc": nproc, "blas_threads": blas},
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
