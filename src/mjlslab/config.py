"""Strict JSON configuration for the command line tools.

A config file is one JSON object. Unknown keys anywhere are hard errors with
the path to the offending field, so a typo never silently falls back to a
default. The blocks are all optional; each subcommand checks that the blocks
it needs are present.

{
  "dimension": 2,
  "matrices": [[[0.5, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]],
  "labels": ["shrink", "rot"],
  "markov": {"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
  "sequence": {"kind": "periodic", "word": [1, 2]},
  "analysis": {"seed": 1, "trials": 100}
}

Sequence kinds: "periodic" (repeat `word`), "explicit" (finite `symbols`),
"markov" (sample the markov block at the analysis seed) and "example46"
(the slowly recurrent two-symbol word, `levels` deep, symbol 1 on the gaps
and symbol 2 on the rare steps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .markov import MarkovChain, structural_issues
from .products import MatrixSet
from .sequences import QUADRATIC_GAP_KIND, SwitchingSequence
from .stability import MJLS

# Every analysis parameter with its default; the resolved table is echoed in
# each report so a run is self-describing. eps/delta/horizon follow the desk
# pairing horizon * delta >= |ln eps|.
DEFAULTS = {
    "seed": 0,
    "trials": 200,
    "horizon": 10000,
    "eps": 1e-4,
    "delta": 1e-3,
    "depth": 8,
    "jsr_depth": 20,
    "boundedness_depth": 8,
    "budget": 10**6,
    "shift_max_len": 4,
    "max_cylinder_len": 4,
    "cylinder_len": 1,
    "freq_threshold": 1e-3,
    "cluster_tol": 1e-4,
    "idem_tol": 1e-6,
    "rank_tol": 1e-8,
    "band_tol": 1e-6,
    "preextremal_depth": 6,
    "verify_samples": 10,
    "num_initials": 20,
    "lookahead": 13,
    "max_steps": 800,
    "levels": 4,
    "alpha": 0.5,
    "initial_vector": None,
    "trace_csv": None,
    "trace_stride": 50,
}

_INT_KEYS = {
    "seed": 0,
    "trials": 1,
    "horizon": 2,
    "depth": 1,
    "jsr_depth": 1,
    "boundedness_depth": 1,
    "budget": 1,
    "shift_max_len": 1,
    "max_cylinder_len": 1,
    "cylinder_len": 1,
    "preextremal_depth": 0,
    "verify_samples": 1,
    "num_initials": 1,
    "lookahead": 1,
    "max_steps": 1,
    "levels": 1,
    "trace_stride": 1,
}
_POSITIVE_FLOAT_KEYS = (
    "eps",
    "delta",
    "freq_threshold",
    "cluster_tol",
    "idem_tol",
    "rank_tol",
    "band_tol",
)

_SEQUENCE_KEYS = {
    "periodic": {"word"},
    "explicit": {"symbols"},
    "markov": set(),
    QUADRATIC_GAP_KIND: {"levels"},
}


class ConfigError(ValueError):
    """Malformed configuration; the message names the path to the field."""


def _check_keys(obj, path: str, allowed, required=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _int(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    return value


def check_analysis_int(key: str, value, path: str) -> int:
    """Check an integer analysis value against the minimum a config file obeys."""
    return _int(value, path, _INT_KEYS[key])


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return out


def _symbol_list(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of symbols")
    return [_int(v, f"{path}[{i}]", 1) for i, v in enumerate(value)]


@dataclass
class SystemConfig:
    """Parsed configuration; blocks that were absent are None."""

    system: MatrixSet | None
    chain: MarkovChain | None
    sequence_spec: dict | None
    analysis: dict


def _parse_matrices(data: dict) -> MatrixSet | None:
    if "matrices" not in data:
        if "labels" in data:
            raise ConfigError("labels: given without matrices")
        if "dimension" in data:
            raise ConfigError("dimension: given without matrices")
        return None
    if "dimension" not in data:
        raise ConfigError("dimension: required when matrices are given")
    d = _int(data["dimension"], "dimension", 1)
    raw = data["matrices"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("matrices: expected a nonempty list")
    mats = []
    for i, m in enumerate(raw):
        path = f"matrices[{i}]"
        if not isinstance(m, list) or len(m) != d:
            raise ConfigError(f"{path}: expected {d} rows")
        for j, row in enumerate(m):
            if not isinstance(row, list) or len(row) != d:
                raise ConfigError(f"{path}[{j}]: expected {d} entries")
            for l, v in enumerate(row):
                _number(v, f"{path}[{j}][{l}]")
        mats.append(np.asarray(m, dtype=float))
    labels = None
    if "labels" in data:
        raw_labels = data["labels"]
        if not isinstance(raw_labels, list) or len(raw_labels) != len(mats):
            raise ConfigError("labels: expected one string per matrix")
        for i, lab in enumerate(raw_labels):
            if not isinstance(lab, str):
                raise ConfigError(f"labels[{i}]: expected a string")
        labels = tuple(raw_labels)
    return MatrixSet.from_list(mats, labels)


def _parse_markov(data: dict) -> MarkovChain | None:
    if "markov" not in data:
        return None
    block = data["markov"]
    _check_keys(block, "markov", {"initial", "transition"}, ("initial", "transition"))
    init = block["initial"]
    if not isinstance(init, list) or not init:
        raise ConfigError("markov.initial: expected a nonempty list")
    p = [_number(v, f"markov.initial[{i}]") for i, v in enumerate(init)]
    trans = block["transition"]
    if not isinstance(trans, list) or len(trans) != len(p):
        raise ConfigError(
            f"markov.transition: expected {len(p)} rows to match markov.initial"
        )
    t = []
    for i, row in enumerate(trans):
        if not isinstance(row, list) or len(row) != len(p):
            raise ConfigError(f"markov.transition[{i}]: expected {len(p)} entries")
        t.append([_number(v, f"markov.transition[{i}][{j}]") for j, v in enumerate(row)])
    return MarkovChain(np.asarray(p), np.asarray(t))


def _parse_sequence(data: dict, num_matrices: int | None) -> dict | None:
    if "sequence" not in data:
        return None
    block = data["sequence"]
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("sequence: expected an object with a 'kind' key")
    kind = block["kind"]
    if kind not in _SEQUENCE_KEYS:
        raise ConfigError(
            f"sequence.kind: unknown kind {kind!r}, expected one of "
            f"{sorted(_SEQUENCE_KEYS)}"
        )
    _check_keys(block, "sequence", {"kind"} | _SEQUENCE_KEYS[kind])
    spec = {"kind": kind}
    if kind == "periodic":
        if "word" not in block:
            raise ConfigError("sequence: missing required key 'word'")
        spec["word"] = _symbol_list(block["word"], "sequence.word")
    elif kind == "explicit":
        if "symbols" not in block:
            raise ConfigError("sequence: missing required key 'symbols'")
        spec["symbols"] = _symbol_list(block["symbols"], "sequence.symbols")
    elif kind == QUADRATIC_GAP_KIND and "levels" in block:
        spec["levels"] = _int(block["levels"], "sequence.levels", 1)
    if num_matrices is not None:
        for key in ("word", "symbols"):
            if key in spec and max(spec[key]) > num_matrices:
                raise ConfigError(
                    f"sequence.{key}: symbol {max(spec[key])} exceeds the "
                    f"{num_matrices} matrices given"
                )
        if kind == QUADRATIC_GAP_KIND and num_matrices < 2:
            raise ConfigError("sequence.kind: example46 needs two matrices")
    return spec


def _parse_analysis(data: dict) -> dict:
    out = dict(DEFAULTS)
    if "analysis" not in data:
        return out
    block = data["analysis"]
    _check_keys(block, "analysis", set(DEFAULTS))
    for key, value in block.items():
        path = f"analysis.{key}"
        if key in _INT_KEYS:
            out[key] = check_analysis_int(key, value, path)
        elif key in _POSITIVE_FLOAT_KEYS:
            v = _number(value, path)
            if v <= 0.0:
                raise ConfigError(f"{path}: must be positive, got {value!r}")
            out[key] = v
        elif key == "alpha":
            v = _number(value, path)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{path}: must lie strictly in (0, 1), got {value!r}")
            out[key] = v
        elif key == "initial_vector":
            if value is None:
                out[key] = None
            elif isinstance(value, list) and value:
                out[key] = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
                if not any(out[key]):
                    raise ConfigError(f"{path}: must be nonzero")
            else:
                raise ConfigError(f"{path}: expected a nonempty list or null")
        elif key == "trace_csv":
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{path}: expected a string or null")
            out[key] = value
    return out


def parse_config(data) -> SystemConfig:
    _check_keys(
        data,
        "config",
        {"dimension", "matrices", "labels", "markov", "sequence", "analysis"},
    )
    system = _parse_matrices(data)
    chain = _parse_markov(data)
    if system is not None and chain is not None:
        if chain.num_states != system.num_matrices:
            raise ConfigError(
                f"markov: chain has {chain.num_states} states but "
                f"{system.num_matrices} matrices are given"
            )
    sequence_spec = _parse_sequence(data, None if system is None else system.num_matrices)
    if sequence_spec is not None and sequence_spec["kind"] == "markov" and chain is None:
        raise ConfigError("sequence.kind: 'markov' needs a markov block")
    analysis = _parse_analysis(data)
    if system is not None and analysis["initial_vector"] is not None:
        if len(analysis["initial_vector"]) != system.dim:
            raise ConfigError(
                f"analysis.initial_vector: expected {system.dim} entries, got "
                f"{len(analysis['initial_vector'])}"
            )
    return SystemConfig(
        system=system,
        chain=chain,
        sequence_spec=sequence_spec,
        analysis=analysis,
    )


def load_config(path) -> tuple[SystemConfig, bytes]:
    """Parse a config file; returns the config and the raw bytes (for hashing)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data), raw


def check_chain(chain: MarkovChain) -> MarkovChain:
    """The chain itself, or ConfigError naming its first structural defect.

    A non-stationary initial distribution passes; the defects that
    structural_issues names do not, since such a pair is no law on paths.
    """
    issues = structural_issues(chain)
    if issues:
        raise ConfigError("markov: " + issues[0])
    return chain


def build_sequence(cfg: SystemConfig) -> SwitchingSequence:
    """Materialize the configured switching sequence."""
    spec = cfg.sequence_spec
    if spec is None:
        raise ConfigError("sequence: this command needs a sequence block")
    if spec["kind"] == "periodic":
        return SwitchingSequence.periodic(spec["word"])
    if spec["kind"] == "explicit":
        return SwitchingSequence.explicit(spec["symbols"])
    if spec["kind"] == "markov":
        return SwitchingSequence.markov(check_chain(cfg.chain), cfg.analysis["seed"])
    levels = spec.get("levels", cfg.analysis["levels"])
    # symbol 1 drives the gap steps, symbol 2 the rare steps
    return SwitchingSequence.quadratic_gap(levels, zero_symbol=1, one_symbol=2)


def build_mjls(cfg: SystemConfig) -> MJLS:
    if cfg.system is None:
        raise ConfigError("matrices: this command needs a matrices block")
    if cfg.chain is None:
        raise ConfigError("markov: this command needs a markov block")
    return MJLS(cfg.system, check_chain(cfg.chain))
