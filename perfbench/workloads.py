"""Workloads of the benchmark: config generators and the checks on their reports.

Every workload is a fixed list of CLI subcommands, one config each. The
configs are generated from the workload seed and written to files; the
program only ever sees those files. Seed 0 (the default) reproduces the
configs named in ROADMAP.md: demos/configs/split_shear_periodic.json and the
criterion 7 and 8 configs of tests/test_acceptance.py, except that the two
classify configs run CLASSIFY_TRIALS trials instead of 200, so that one run
holds several passes. Trial t uses the same stream either way, so the
reports hold a prefix of the criterion's per-trial arrays; the history
kernels weigh a little more than at 200 trials, because their per-step
numpy overhead does not shrink with the trial count. Other seeds perturb
the inputs in ways that leave the amount of work unchanged.

A report passes when it satisfies the workload's seed-independent
invariants and, at the default seed, matches the stored reference report in
reference/: strings, integers, booleans and nulls exactly, floats within
FLOAT_RTOL relative (FLOAT_ATOL absolute near zero). Byte identity with the
reference is recorded separately and is not a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
CLASSIFY_TRIALS = 100
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
SPLIT_TOL = 1e-6
DEFECT_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# a small analysis block for the warm-up pass; every key is a CLI default
WARMUP_ANALYSIS = {
    "trials": 4,
    "horizon": 64,
    "num_initials": 2,
    "depth": 2,
    "jsr_depth": 2,
    "boundedness_depth": 2,
    "shift_max_len": 2,
}


class CheckFailed(AssertionError):
    """A report broke an invariant or differs from its reference."""


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _jitter(seed: int, tag: int) -> np.random.Generator | None:
    """Perturbation source for a seed and config; None at the default seed."""
    return None if seed == DEFAULT_SEED else np.random.default_rng([seed, tag])


def iid_classify_config(seed: int) -> dict:
    # criterion 7: diag(0.5, 1) plus a quarter turn under an IID 2-state chain
    rng = _jitter(seed, 7)
    shrink, q = (0.5, 0.5) if rng is None else tuple(rng.uniform(0.45, 0.55, 2))
    return {
        "dimension": 2,
        "matrices": [np.diag([shrink, 1.0]).tolist(), _rotation(np.pi / 2).tolist()],
        "markov": {
            "initial": [q, 1.0 - q],
            "transition": [[q, 1.0 - q], [q, 1.0 - q]],
        },
        "analysis": {"trials": CLASSIFY_TRIALS, "horizon": 2000, "num_initials": 20, "seed": seed},
    }


def reducible_classify_config(seed: int) -> dict:
    # criterion 8: a 2-cycle plus an absorbing state, matrix 3 repeating matrix 1
    rng = _jitter(seed, 8)
    w = None if rng is None else float(rng.uniform(0.35, 0.45))
    turn = 0.99 * _rotation(np.pi / 6)
    return {
        "dimension": 2,
        "matrices": [turn.tolist(), np.diag([0.9, 0.95]).tolist(), turn.tolist()],
        "markov": {
            "initial": [0.4, 0.4, 0.2] if w is None else [w, w, 1.0 - 2.0 * w],
            "transition": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        },
        "analysis": {"trials": CLASSIFY_TRIALS, "horizon": 2000, "seed": seed, "depth": 8},
    }


def periodic_split_config(seed: int) -> dict:
    # demos/configs/split_shear_periodic.json; the shear entry keeps 15 cluster reps
    rng = _jitter(seed, 4)
    shear = 1.0 if rng is None else float(rng.uniform(0.9, 1.1))
    return {
        "dimension": 2,
        "matrices": [[[0.5, shear], [0.0, 1.0]]],
        "labels": ["half-shear"],
        "sequence": {"kind": "periodic", "word": [1]},
        "analysis": {"horizon": 4096, "seed": seed},
    }


def _stationary_reducible_chain(rng: np.random.Generator):
    """Six states: closed classes {1,2,3} and {4,5}, transient state 6."""
    t = np.zeros((6, 6))
    t[:3, :3] = rng.uniform(0.1, 1.0, (3, 3))
    t[3:5, 3:5] = rng.uniform(0.1, 1.0, (2, 2))
    t[5] = rng.uniform(0.1, 1.0, 6)
    t /= t.sum(axis=1, keepdims=True)
    p = np.zeros(6)
    weight = rng.uniform(0.3, 0.7)
    for block, mass in ((slice(0, 3), weight), (slice(3, 5), 1.0 - weight)):
        sub = t[block, block]
        vals, vecs = np.linalg.eig(sub.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        p[block] = mass * pi / pi.sum()
    return p, t


def jsr_config(seed: int) -> dict:
    mats = np.random.default_rng([seed, 11]).standard_normal((3, 3, 3)) / 2.0
    return {
        "dimension": 3,
        "matrices": mats.tolist(),
        "analysis": {"depth": 9, "jsr_depth": 11, "boundedness_depth": 11, "seed": seed},
    }


def decompose_config(seed: int) -> dict:
    p, t = _stationary_reducible_chain(np.random.default_rng([seed, 13]))
    return {
        "markov": {"initial": p.tolist(), "transition": t.tolist()},
        "analysis": {"shift_max_len": 7, "budget": 10**7, "seed": seed},
    }


# --- invariants -------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_classify(report: dict, config: dict) -> None:
    res = report["results"]
    trials = config["analysis"]["trials"]
    for key in ("pointwise", "consistent"):
        sub = res[key]
        _require(
            sub["fraction_exponential"] <= sub["fraction_converged"],
            f"{key}: fraction_exponential above fraction_converged",
        )
        for arr in ("final_log_norms", "tail_fits"):
            _require(len(sub[arr]) == trials, f"{key}.{arr}: expected {trials} entries")
    eq = res["equivalence"]
    _require(
        all(e <= c for e, c in zip(eq["fractions_exponential"], eq["fractions_converged"])),
        "equivalence: an exponential fraction is above its converged fraction",
    )
    _require(len(res["almost_sure"]["tail_fits"]) == trials, "almost_sure.tail_fits length")


def check_split(report: dict, config: dict) -> None:
    res = report["results"]
    _require(res["splitting"] is not None, "split: no splitting found")
    _require(res["agreement"] is not None, "split: no agreement with the exact route")
    for key in ("stable_distance", "center_distance"):
        _require(res["agreement"][key] <= SPLIT_TOL, f"agreement.{key} above {SPLIT_TOL}")
    _require(res["splitting"]["defect"] <= SPLIT_TOL, f"splitting.defect above {SPLIT_TOL}")


def _averaged_rho(mats: np.ndarray, word) -> float:
    prod = np.eye(mats.shape[1])
    for sym in word:
        prod = prod @ mats[sym - 1]
    return float(np.abs(np.linalg.eigvals(prod)).max() ** (1.0 / len(word)))


def check_jsr(report: dict, config: dict) -> None:
    res = report["results"]
    mats = np.asarray(config["matrices"], dtype=float)
    for key in ("jsr", "finiteness"):
        sub = res[key]
        _require(sub is not None, f"jsr: {key} missing")
        _require(sub["lower"] <= sub["upper"], f"{key}: lower above upper")
        rho = _averaged_rho(mats, sub["lower_word"])
        _require(
            abs(rho - sub["lower"]) <= FLOAT_RTOL * abs(sub["lower"]) + FLOAT_ATOL,
            f"{key}: lower {sub['lower']!r} but its word gives {rho!r}",
        )


def check_decompose(report: dict, config: dict) -> None:
    res = report["results"]
    defect = res["shift_invariance"]["defect"]
    _require(defect is not None and defect < DEFECT_TOL, f"shift defect {defect!r}")
    total = float(np.sum(res["decomposition"]["weights"]))
    _require(abs(total - 1.0) <= DEFECT_TOL, f"class weights sum to {total!r}")


_CHECKS = {
    "classify": check_classify,
    "split": check_split,
    "jsr": check_jsr,
    "decompose": check_decompose,
}


def _same(ref, got, path: str) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        _require(ref is got, f"{path}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if isinstance(ref, int) and isinstance(got, int):
            _require(ref == got, f"{path}: {got} != reference {ref}")
        else:
            tol = max(FLOAT_RTOL * max(abs(ref), abs(got)), FLOAT_ATOL)
            _require(abs(ref - got) <= tol, f"{path}: {got!r} != reference {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        _require(list(ref) == list(got), f"{path}: keys {list(got)} != {list(ref)}")
        for key in ref:
            _same(ref[key], got[key], f"{path}.{key}")
    elif isinstance(ref, list) and isinstance(got, list):
        _require(len(ref) == len(got), f"{path}: length {len(got)} != {len(ref)}")
        for i, (a, b) in enumerate(zip(ref, got)):
            _same(a, b, f"{path}[{i}]")
    else:
        _require(type(ref) is type(got) and ref == got, f"{path}: {got!r} != reference {ref!r}")


def check_report(command: str, text: bytes, config: dict, reference: bytes | None) -> None:
    """Raise CheckFailed unless the report holds its invariants and matches."""
    report = json.loads(text)
    _require(report["command"] == command, f"report is for {report['command']!r}")
    _CHECKS[command](report, config)
    if reference is not None:
        _same(json.loads(reference), report, command)


@dataclass(frozen=True)
class Workload:
    """A pass runs `jobs` in order: (subcommand, config generator) pairs."""

    name: str
    jobs: tuple[tuple[str, Callable[[int], dict]], ...]

    @property
    def commands(self) -> tuple[str, ...]:
        return tuple(cmd for cmd, _ in self.jobs)

    def make_configs(self, seed: int) -> list[dict]:
        return [make(seed) for _, make in self.jobs]

    def reference_paths(self) -> list[Path]:
        return [
            REFERENCE_DIR / f"{self.name}.{i}.{cmd}.json" for i, cmd in enumerate(self.commands)
        ]

    def references(self, seed: int) -> list[bytes | None]:
        if seed != DEFAULT_SEED:
            return [None] * len(self.jobs)
        return [path.read_bytes() for path in self.reference_paths()]


# Two workloads, so that each run is long enough to ride out the minute-scale
# speed drift of a shared 2-core machine. Each bypasses the other's layers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify",
            (("classify", iid_classify_config), ("classify", reducible_classify_config)),
        ),
        Workload(
            "split_enumerate",
            (
                ("split", periodic_split_config),
                ("jsr", jsr_config),
                ("decompose", decompose_config),
            ),
        ),
    )
}


def write_configs(workload: Workload, seed: int, work: Path, warmup: bool = False) -> list[Path]:
    """Write the workload's configs for a seed; returns their paths."""
    paths = []
    for i, cfg in enumerate(workload.make_configs(seed)):
        if warmup:
            cfg = dict(cfg, analysis=dict(cfg["analysis"], **WARMUP_ANALYSIS))
        tag = "warmup" if warmup else "run"
        path = work / f"{workload.name}-{seed}-{tag}-{i}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths.append(path)
    return paths
