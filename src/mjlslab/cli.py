"""Command line front end.

Five subcommands wrap the library: `decompose` (chain validation and ergodic
decomposition), `jsr` (product growth bounds and finiteness evidence),
`split` (recurrence and the stable/central splitting along a sequence),
`classify` (Monte Carlo convergence estimates, word probes and the
equivalence/almost-sure harnesses) and `example46` (the slow-recurrence
reproduction table).

Reports are deterministic JSON: same config, same seed, same bytes. Exit
codes: 0 on success, 2 for configuration errors, 3 when --strict escalates a
gate or budget warning.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DEFAULTS,
    ConfigError,
    SystemConfig,
    build_mjls,
    build_sequence,
    load_config,
)
from .linalg import AmbiguousRankError, AmbiguousSplitError, grassmann_distance
from .markov import (
    ergodic_decomposition,
    is_irreducible,
    shift_invariance_defect,
    validate_chain,
)
from .products import BudgetExceededError, MatrixSet, boundedness_probe, jsr_bounds
from .reports import canonical_json, config_sha256, jsonable, write_trace_csv
from .sequences import SwitchingSequence, classify_recurrence, quadratic_gap_lengths
from .splitting import (
    IdempotentNotFoundError,
    periodic_split,
    sequence_split,
    vector_log_norm_history,
    verify_splitting,
)
from .stability import (
    _build_report,
    _matrix_histories,
    _symbol_paths,
    _vector_histories,
    almost_sure_exponential_estimate,
    consistent_convergence_probe,
    diagonal_shortcut_check,
    periodic_stability_probe,
    pointwise_equivalence_harness,
    spectral_finiteness_probe,
)

# levels beyond this need words longer than the enumeration cap
EXAMPLE46_MAX_LEVELS = 5


def _require_system(cfg: SystemConfig) -> MatrixSet:
    if cfg.system is None:
        raise ConfigError("matrices: this command needs a matrices block")
    return cfg.system


def cmd_decompose(cfg: SystemConfig):
    if cfg.chain is None:
        raise ConfigError("markov: the decompose command needs a markov block")
    a = cfg.analysis
    report = validate_chain(cfg.chain)
    structural = [
        msg for msg in report.issues if not msg.startswith("initial distribution is not stationary")
    ]
    if structural:
        raise ConfigError("markov: " + structural[0])
    warns = ["note: " + msg for msg in report.issues]
    results = {
        "validation": jsonable(report),
        "irreducible": bool(is_irreducible(cfg.chain)),
        "decomposition": jsonable(ergodic_decomposition(cfg.chain)),
    }
    try:
        defect = shift_invariance_defect(cfg.chain, a["shift_max_len"], a["budget"])
        results["shift_invariance"] = {"max_len": a["shift_max_len"], "defect": defect}
    except BudgetExceededError as exc:
        warns.append(f"budget: {exc}")
        results["shift_invariance"] = {"max_len": a["shift_max_len"], "defect": None}
    return results, warns


def cmd_jsr(cfg: SystemConfig):
    s = _require_system(cfg)
    a = cfg.analysis
    warns: list[str] = []
    results: dict = {}
    try:
        bounds = jsr_bounds(s, a["depth"], a["budget"])
        results["jsr"] = jsonable(bounds)
        if bounds.truncated:
            warns.append(f"budget: jsr enumeration truncated at depth {bounds.depth}")
    except BudgetExceededError as exc:
        results["jsr"] = None
        warns.append(f"budget: {exc}")
    try:
        probe = boundedness_probe(s, a["boundedness_depth"], a["budget"])
        results["boundedness"] = jsonable(probe)
        if probe.truncated:
            warns.append(
                f"budget: boundedness probe truncated at depth {probe.depth_probed}"
            )
        if probe.verdict == "bounded-so-far":
            warns.append(
                f"note: boundedness verdict holds so far (depth {probe.depth_probed}); "
                "deeper products are unexplored"
            )
    except BudgetExceededError as exc:
        results["boundedness"] = None
        warns.append(f"budget: {exc}")
    try:
        results["finiteness"] = jsonable(
            spectral_finiteness_probe(s, a["depth"], a["jsr_depth"], a["budget"])
        )
    except BudgetExceededError as exc:
        results["finiteness"] = None
        warns.append(f"budget: {exc}")
    return results, warns


def cmd_split(cfg: SystemConfig):
    s = _require_system(cfg)
    a = cfg.analysis
    seq = build_sequence(cfg)
    horizon = a["horizon"]
    if seq.max_length is not None and seq.max_length < horizon:
        horizon = seq.max_length
    warns: list[str] = []
    results: dict = {
        "sequence": {
            "kind": seq.kind,
            "detail": jsonable(seq.detail),
            "horizon": horizon,
        }
    }

    rec = classify_recurrence(seq, a["max_cylinder_len"], horizon, a["freq_threshold"])
    results["recurrence"] = jsonable(rec)
    if rec.verdict == "no-return-found":
        warns.append(
            "gate: some initial cylinder never returns inside the horizon; "
            "the splitting construction has no recurrence to work with"
        )

    split = None
    try:
        # the empty-limit-set warning duplicates the gate warning above
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="no return times", category=UserWarning)
            split = sequence_split(
                s,
                seq,
                a["cylinder_len"],
                horizon,
                cluster_tol=a["cluster_tol"],
                idem_tol=a["idem_tol"],
                rank_tol=a["rank_tol"],
            )
        results["splitting"] = jsonable(split)
    except IdempotentNotFoundError as exc:
        results["splitting"] = None
        warns.append(f"gate: {exc}")
    except AmbiguousRankError as exc:
        results["splitting"] = None
        warns.append(f"gate: {exc}")

    if split is not None:
        evidence = verify_splitting(
            s,
            seq,
            split,
            horizon,
            cylinder_len=a["cylinder_len"],
            preextremal_depth=a["preextremal_depth"],
            samples=a["verify_samples"],
            seed=a["seed"],
        )
        results["verification"] = jsonable(evidence)
    else:
        results["verification"] = None

    results["periodic_exact"] = None
    results["agreement"] = None
    if seq.kind == "periodic":
        try:
            exact = periodic_split(s, seq.detail["word"], a["band_tol"])
            results["periodic_exact"] = jsonable(exact)
            if exact.unstable is not None:
                warns.append(
                    "note: the period matrix has expanding directions; they are "
                    "reported separately from the stable part"
                )
            if split is not None:
                results["agreement"] = {
                    "stable_distance": grassmann_distance(split.stable, exact.stable),
                    "center_distance": grassmann_distance(split.center, exact.center),
                }
        except AmbiguousSplitError as exc:
            warns.append(f"gate: {exc}")
    return results, warns


def cmd_classify(cfg: SystemConfig):
    m = build_mjls(cfg)
    s, a = m.system, cfg.analysis
    trials, horizon, seed = a["trials"], a["horizon"], a["seed"]
    eps, delta = a["eps"], a["delta"]
    if a["initial_vector"] is None:
        x = np.ones(s.dim) / np.sqrt(s.dim)
    else:
        x = np.asarray(a["initial_vector"], dtype=float)
    warns: list[str] = []

    trajs = _symbol_paths(m, trials, horizon, seed)
    hist_v = _vector_histories(s, trajs, x)
    pointwise = _build_report("vector", x, trials, horizon, seed, eps, delta, hist_v)
    consistent = _build_report(
        "matrix", None, trials, horizon, seed, eps, delta, _matrix_histories(s, trajs)
    )
    if not pointwise.pairing_ok:
        warns.append(
            "note: horizon * delta does not cover |log eps|; an exponential "
            "trial may not reach eps inside the horizon"
        )
    if a["trace_csv"] is not None:
        write_trace_csv(a["trace_csv"], hist_v, pointwise.tail_fits, a["trace_stride"])

    results: dict = {
        "pointwise": jsonable(pointwise),
        "consistent": jsonable(consistent),
    }
    try:
        results["periodic_probe"] = jsonable(
            periodic_stability_probe(s, a["depth"], a["budget"])
        )
        results["consistent_probe"] = jsonable(
            consistent_convergence_probe(s, a["depth"], a["budget"])
        )
    except BudgetExceededError as exc:
        results["periodic_probe"] = None
        results["consistent_probe"] = None
        warns.append(f"budget: {exc}")

    try:
        harness = pointwise_equivalence_harness(
            m,
            trials,
            horizon,
            a["num_initials"],
            seed,
            eps=eps,
            delta=delta,
            gate_depth=a["boundedness_depth"],
            budget=a["budget"],
        )
        results["equivalence"] = jsonable(harness)
        warns.extend("gate: " + msg for msg in harness.warnings)
    except BudgetExceededError as exc:
        results["equivalence"] = None
        warns.append(f"budget: {exc}")

    try:
        almost = almost_sure_exponential_estimate(
            m,
            trials,
            horizon,
            seed,
            delta=delta,
            probe_len=a["depth"],
            budget=a["budget"],
        )
        results["almost_sure"] = jsonable(almost)
        warns.extend("gate: " + msg for msg in almost.warnings)
    except BudgetExceededError as exc:
        results["almost_sure"] = None
        warns.append(f"budget: {exc}")

    off_diagonal = s.matrices * (1.0 - np.eye(s.dim))
    if np.abs(off_diagonal).max() == 0.0:
        results["diagonal_shortcut"] = jsonable(
            diagonal_shortcut_check(m, trials, horizon, seed, eps=eps, delta=delta)
        )
    else:
        results["diagonal_shortcut"] = None
    return results, warns


def cmd_example46(cfg: SystemConfig):
    a = cfg.analysis
    alpha, levels = a["alpha"], a["levels"]
    if levels > EXAMPLE46_MAX_LEVELS:
        raise ConfigError(
            f"analysis.levels: at most {EXAMPLE46_MAX_LEVELS} "
            f"(level {levels} needs {2 ** (2 ** (levels - 1)) - 1} symbols)"
        )
    seq = SwitchingSequence.quadratic_gap(levels, zero_symbol=1, one_symbol=2)
    s = MatrixSet.from_list(
        [np.eye(2), np.diag([alpha, 1.0])], labels=("hold", "shrink")
    )
    lengths = quadratic_gap_lengths(levels)
    symbols = seq.prefix(lengths[-1])
    hist = vector_log_norm_history(s, symbols, np.array([1.0, 0.0]))
    rows = []
    for level, n in enumerate(lengths, start=1):
        ones = int(np.count_nonzero(symbols[:n] == 2))
        log_norm = float(hist[n - 1])
        rows.append(
            {
                "level": level,
                "n": n,
                "ones": ones,
                "norm": float(np.exp(log_norm)),
                "log_norm": log_norm,
                "exponent": log_norm / n,
            }
        )
    norms = [r["norm"] for r in rows]
    exponents = [r["exponent"] for r in rows]
    results = {
        "alpha": alpha,
        "levels": levels,
        "rows": rows,
        "norms_strictly_decreasing": all(b < a_ for a_, b in zip(norms, norms[1:])),
        "exponents_strictly_increasing": all(
            b > a_ for a_, b in zip(exponents, exponents[1:])
        ),
    }
    return results, []


_COMMANDS = {
    "decompose": cmd_decompose,
    "jsr": cmd_jsr,
    "split": cmd_split,
    "classify": cmd_classify,
    "example46": cmd_example46,
}

_OVERRIDES = ("seed", "depth", "horizon", "trials")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjls-lab",
        description="Stability analysis for Markovian jump and switched linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "decompose": "validate a chain and decompose it into recurrent classes",
        "jsr": "joint spectral radius bounds and product boundedness",
        "split": "stable/central splitting along a switching sequence",
        "classify": "Monte Carlo convergence estimates and word probes",
        "example46": "slow-recurrence reproduction table",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, help="override analysis.seed")
        p.add_argument("--depth", type=int, help="override analysis.depth")
        p.add_argument("--horizon", type=int, help="override analysis.horizon")
        p.add_argument("--trials", type=int, help="override analysis.trials")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit with status 3 when a gate or budget warning is raised",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # MJLS_THREADS caps worker parallelism. Every computation in this build is
    # sequential, so the cap is trivially respected; the value is read here so
    # misconfiguration fails loudly, and it never enters a report.
    threads = os.environ.get("MJLS_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                print("error: MJLS_THREADS must be a positive integer", file=sys.stderr)
                return 2
        except ValueError:
            print("error: MJLS_THREADS must be a positive integer", file=sys.stderr)
            return 2

    try:
        cfg, raw = load_config(args.config)
        for key in _OVERRIDES:
            value = getattr(args, key)
            if value is not None:
                if key == "seed" and value < 0:
                    raise ConfigError("--seed: must be nonnegative")
                if key != "seed" and value < 1:
                    raise ConfigError(f"--{key}: must be positive")
                cfg.analysis[key] = value
        results, warns = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = {
        "tool": "mjls-lab",
        "version": __version__,
        "command": args.command,
        "config_sha256": config_sha256(raw),
        "parameters": {key: jsonable(cfg.analysis[key]) for key in DEFAULTS},
        "results": results,
        "warnings": warns,
    }
    text = canonical_json(doc)
    if args.out:
        Path(args.out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    if args.strict and any(w.startswith(("gate:", "budget:")) for w in warns):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
