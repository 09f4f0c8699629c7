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
    check_analysis_int,
    check_chain,
    load_config,
    require_system,
)
from .linalg import AmbiguousRankError, AmbiguousSplitError, grassmann_distance
from .linalg import EigenSolverError
from .markov import ergodic_decomposition, shift_invariance_defect, validate_chain
from .products import BudgetExceededError, MatrixSet, boundedness_probe, jsr_bounds
from .products import word_levels
from .reports import canonical_json, config_sha256, jsonable, write_trace_csv
from .sequences import SwitchingSequence, classify_recurrence, quadratic_gap_lengths
from .splitting import (
    ClosureBudgetWarning,
    IdempotentNotFoundError,
    ProductOverflowError,
    limit_points,
    log_norm_histories,
    periodic_split,
    sequence_split,
    vector_log_norm_history,
    verify_splitting,
)
from .stability import (
    _symbol_paths,
    almost_sure_exponential_estimate,
    consistent_convergence_estimate,
    consistent_convergence_probe,
    diagonal_shortcut_check,
    periodic_stability_probe,
    pointwise_convergence_estimate,
    pointwise_equivalence_harness,
    spectral_finiteness_probe,
)


def _check_writable(path: str, name: str) -> None:
    """Before any work: ConfigError naming the option unless path is writable."""
    if not path:
        raise ConfigError(f"{name}: the path is empty")
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(folder, os.W_OK | os.X_OK):
        raise ConfigError(f"{name}: cannot write {path}: not a file in a writable folder")


def cmd_decompose(cfg: SystemConfig):
    if cfg.chain is None:
        raise ConfigError("markov: the decompose command needs a markov block")
    a = cfg.analysis
    report = validate_chain(check_chain(cfg.chain))
    warns = ["note: " + msg for msg in report.issues]
    decomposition = ergodic_decomposition(cfg.chain)
    results = {
        "validation": jsonable(report),
        # strongly connected: every state recurrent, all in one class
        "irreducible": len(decomposition.classes) == 1
        and not decomposition.transient_states,
        "decomposition": jsonable(decomposition),
        "shift_invariance": {
            "max_len": a["shift_max_len"],
            "defect": shift_invariance_defect(cfg.chain, a["shift_max_len"]),
        },
    }
    return results, warns


def cmd_jsr(cfg: SystemConfig):
    s = require_system(cfg)
    a = cfg.analysis
    depth, bdepth = a["depth"], a["boundedness_depth"]
    try:  # one walk over the words serves all three reports, none reads the minima
        walk = word_levels(
            s, depth, max(depth, a["jsr_depth"], bdepth), a["budget"], minima=False
        )
    except BudgetExceededError as exc:
        return dict.fromkeys(("jsr", "boundedness", "finiteness")), [f"budget: {exc}"]
    except EigenSolverError as exc:
        return dict.fromkeys(("jsr", "boundedness", "finiteness")), [f"gate: {exc}"]
    bounds, probe = jsr_bounds(walk, depth), boundedness_probe(walk, bdepth)
    warns: list[str] = []
    if bounds.truncated:
        warns.append(
            f"budget: jsr enumeration truncated at depth {bounds.depth_completed}"
        )
    if probe.truncated:
        warns.append(f"budget: boundedness probe truncated at depth {probe.depth_probed}")
    if probe.verdict == "bounded-so-far":
        warns.append(
            f"note: boundedness verdict holds so far (depth {probe.depth_probed}); "
            "deeper products are unexplored"
        )
    finiteness = spectral_finiteness_probe(walk, depth, a["jsr_depth"])
    overflowed = [n for n, (norm, _) in enumerate(walk.norms, 1) if not np.isfinite(norm)]
    if overflowed:
        warns.append(
            f"gate: the largest 2-norm of the length-{overflowed[0]} products is "
            "not finite; norm bounds from that depth on are not finite"
        )
    results = {"jsr": bounds, "boundedness": probe, "finiteness": finiteness}
    return {key: jsonable(value) for key, value in results.items()}, warns


def cmd_split(cfg: SystemConfig):
    s = require_system(cfg)
    a = cfg.analysis
    seq = build_sequence(cfg)
    horizon = a["horizon"]
    if seq.max_length is not None and seq.max_length < horizon:
        horizon = seq.max_length
    if horizon < a["cylinder_len"]:
        raise ConfigError(
            f"analysis.cylinder_len: {a['cylinder_len']} exceeds the horizon of "
            f"{horizon} symbols"
        )
    # build_sequence refused the structural defects; stationarity is left
    issues = validate_chain(cfg.chain).issues if seq.kind == "markov" else []
    warns = ["note: " + msg for msg in issues]
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

    split = failure = None
    with warnings.catch_warnings(record=True) as caught:
        # recorded, and reported below, even where warnings are errors
        warnings.simplefilter("always", ClosureBudgetWarning)
        try:  # one limit point set serves the splitting and its verification
            limits = limit_points(s, seq, a["cylinder_len"], horizon, a["cluster_tol"])
            split = sequence_split(limits, a["idem_tol"], a["rank_tol"], budget=a["budget"])
        except (IdempotentNotFoundError, AmbiguousRankError, ProductOverflowError) as exc:
            failure = f"gate: {exc}"
    for w in caught:
        if issubclass(w.category, ClosureBudgetWarning):
            warns.append(f"budget: {w.message}")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    results["splitting"] = jsonable(split) if split is not None else None
    if failure is not None:
        warns.append(failure)

    results["verification"] = None
    if split is not None:
        try:
            evidence = verify_splitting(
                split,
                limits,
                a["preextremal_depth"],
                a["verify_samples"],
                a["seed"],
                a["budget"],
            )
            results["verification"] = jsonable(evidence)
        except BudgetExceededError as exc:  # the pre-extremal enumeration
            warns.append(f"budget: {exc}")

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
        except (AmbiguousSplitError, ProductOverflowError) as exc:
            warns.append(f"gate: {exc}")
    return results, warns


def cmd_classify(cfg: SystemConfig):
    m = build_mjls(cfg)
    s, a = m.system, cfg.analysis
    trials, horizon, seed = a["trials"], a["horizon"], a["seed"]
    eps, delta = a["eps"], a["delta"]
    if a["trace_csv"] is not None:
        _check_writable(a["trace_csv"], "analysis.trace_csv")
    if a["initial_vector"] is None:
        x = np.ones(s.dim) / np.sqrt(s.dim)
    else:
        x = np.asarray(a["initial_vector"], dtype=float)
    warns = ["note: " + msg for msg in validate_chain(m.chain).issues]

    # m keeps the draw, so the consistent estimate, the harness, the diagonal
    # shortcut and the trace read these paths again
    pointwise = pointwise_convergence_estimate(m, x, trials, horizon, eps, seed, delta)
    # one product history serves the consistent report, the almost-sure fits
    # and the diagonal shortcut
    consistent = consistent_convergence_estimate(
        m, trials, horizon, eps=eps, delta=delta, seed=seed
    )
    if not pointwise.pairing_ok:
        warns.append(
            "note: horizon * delta does not cover |log eps|; an exponential "
            "trial may not reach eps inside the horizon"
        )
    if a["trace_csv"] is not None:
        paths = _symbol_paths(m, trials, horizon, seed)
        _, fits, hist = log_norm_histories(s, paths, np.tile(x, (trials, 1)), history=True)
        try:
            write_trace_csv(a["trace_csv"], hist, fits, a["trace_stride"])
        except OSError as exc:
            raise ConfigError(f"analysis.trace_csv: {exc}") from exc

    results: dict = {
        "pointwise": jsonable(pointwise),
        "consistent": jsonable(consistent),
    }
    try:  # one walk over the words serves both probes and the almost-sure gate
        walk = word_levels(s, a["depth"], 0, a["budget"])
    except BudgetExceededError as exc:
        walk, walk_warning = None, f"budget: {exc}"
    except EigenSolverError as exc:
        walk, walk_warning = None, f"gate: {exc}"
    if walk is None:
        results["periodic_probe"] = results["consistent_probe"] = None
        warns.append(walk_warning)
    else:
        results["periodic_probe"] = jsonable(periodic_stability_probe(walk, a["depth"]))
        results["consistent_probe"] = jsonable(
            consistent_convergence_probe(walk, a["depth"])
        )
        if walk.completed < a["depth"]:
            warns.append(f"budget: word walk truncated at depth {walk.completed}")

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
    except EigenSolverError as exc:  # the boundedness gate's products overflowed
        results["equivalence"] = None
        warns.append(f"gate: equivalence boundedness gate: {exc}")

    if walk is None:
        results["almost_sure"] = None
    else:
        almost = almost_sure_exponential_estimate(consistent, walk, a["depth"])
        results["almost_sure"] = jsonable(almost)
        warns.extend("gate: " + msg for msg in almost.warnings)

    off_diagonal = s.matrices * (1.0 - np.eye(s.dim))
    if np.abs(off_diagonal).max() == 0.0:
        results["diagonal_shortcut"] = jsonable(diagonal_shortcut_check(m, consistent))
    else:
        results["diagonal_shortcut"] = None
    return results, warns


def cmd_example46(cfg: SystemConfig):
    a = cfg.analysis
    alpha, levels = a["alpha"], a["levels"]
    seq = SwitchingSequence.quadratic_gap(levels)
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
        for key in _OVERRIDES:
            p.add_argument(f"--{key}", type=int, help=f"override analysis.{key}")
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
    try:
        if int(os.environ.get("MJLS_THREADS", "1")) < 1:
            raise ValueError
    except ValueError:
        print("error: MJLS_THREADS must be a positive integer", file=sys.stderr)
        return 2

    try:
        cfg, raw = load_config(args.config)
        for key in _OVERRIDES:
            value = getattr(args, key)
            if value is not None:
                cfg.analysis[key] = check_analysis_int(key, value, f"--{key}")
        if args.out is not None:
            _check_writable(args.out, "--out")
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
    if args.out is not None:
        try:
            Path(args.out).write_bytes(text.encode("utf-8"))
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.strict and any(w.startswith(("gate:", "budget:")) for w in warns):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
