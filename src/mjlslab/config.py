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

from .linalg import BAND_TOL
from .markov import MarkovChain, structural_issues
from .products import ENUM_BUDGET, MatrixSet
from .rng import MAX_SEED
from .sequences import (
    FREQ_THRESHOLD,
    QUADRATIC_GAP_KIND,
    QUADRATIC_GAP_MAX_LEVELS,
    SwitchingSequence,
)
from .splitting import CLUSTER_TOL, IDEM_TOL, RANK_TOL
from .stability import DELTA_DEFAULT, GATE_DEPTH_DEFAULT, MJLS

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


def _int(value, path: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be at most {maximum}, got {value}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return out


def _at_least(minimum: int):
    return lambda value, path: _int(value, path, minimum)


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0.0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    return v


def _open_unit(value, path: str) -> float:
    v = _number(value, path)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"{path}: must lie strictly in (0, 1), got {value!r}")
    return v


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _array(value, path: str, shape: tuple, entry=_number) -> list:
    """The JSON array at path as nested lists, each entry passed through entry.

    shape holds the length at each depth, None for any nonempty length; the
    error names the first list or entry that does not fit.
    """
    size = shape[0]
    if not isinstance(value, list) or not value or size not in (None, len(value)):
        want = "a nonempty list" if size is None else f"a list of length {size}"
        raise ConfigError(f"{path}: expected {want}")
    if len(shape) == 1:
        return [entry(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return [_array(v, f"{path}[{i}]", shape[1:], entry) for i, v in enumerate(value)]


def _vector_or_null(value, path: str) -> list[float] | None:
    if value is None:
        return None
    v = _array(value, path, (None,))
    if not any(v):
        raise ConfigError(f"{path}: must be nonzero")
    return v


def _path_or_null(value, path: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string or null")
    return value


# Every analysis parameter: its default and the check a given value passes.
# The resolved table is echoed in each report, in this order, so a run is
# self-describing. eps/delta/horizon follow the desk pairing
# horizon * delta >= |ln eps|; the CLI's eps is coarser than the library's.
# No command reads lookahead or max_steps; they stay while the benchmark's
# stored reports pin every parameters key. A seed past 64 bits would key the
# Philox stream of its low 64 bits.
ANALYSIS = {
    "seed": (0, lambda value, path: _int(value, path, 0, MAX_SEED)),
    "trials": (200, _at_least(1)),
    "horizon": (10000, _at_least(2)),
    "eps": (1e-4, _positive),
    "delta": (DELTA_DEFAULT, _positive),
    "depth": (8, _at_least(1)),
    "jsr_depth": (20, _at_least(1)),
    "boundedness_depth": (GATE_DEPTH_DEFAULT, _at_least(1)),
    "budget": (ENUM_BUDGET, _at_least(1)),
    "shift_max_len": (4, _at_least(1)),
    "max_cylinder_len": (4, _at_least(1)),
    "cylinder_len": (1, _at_least(1)),
    "freq_threshold": (FREQ_THRESHOLD, _positive),
    "cluster_tol": (CLUSTER_TOL, _positive),
    "idem_tol": (IDEM_TOL, _positive),
    "rank_tol": (RANK_TOL, _positive),
    "band_tol": (BAND_TOL, _positive),
    "preextremal_depth": (6, _at_least(0)),
    "verify_samples": (10, _at_least(1)),
    "num_initials": (20, _at_least(1)),
    "lookahead": (13, _at_least(1)),
    "max_steps": (800, _at_least(1)),
    "levels": (4, lambda value, path: _int(value, path, 1, QUADRATIC_GAP_MAX_LEVELS)),
    "alpha": (0.5, _open_unit),
    "initial_vector": (None, _vector_or_null),
    "trace_csv": (None, _path_or_null),
    "trace_stride": (50, _at_least(1)),
}
DEFAULTS = {key: default for key, (default, _) in ANALYSIS.items()}


def check_analysis_int(key: str, value, path: str) -> int:
    """Check a CLI override of an analysis value as a config file's value is."""
    return ANALYSIS[key][1](value, path)


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
    mats = _array(data["matrices"], "matrices", (None, d, d))
    labels = None
    if "labels" in data:
        labels = tuple(_array(data["labels"], "labels", (len(mats),), _string))
    return MatrixSet.from_list(mats, labels)


def _parse_markov(data: dict) -> MarkovChain | None:
    if "markov" not in data:
        return None
    block = data["markov"]
    _check_keys(block, "markov", {"initial", "transition"}, ("initial", "transition"))
    p = _array(block["initial"], "markov.initial", (None,))
    t = _array(block["transition"], "markov.transition", (len(p), len(p)))
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
    keys = _SEQUENCE_KEYS[kind]
    # example46's levels falls back to analysis.levels; every other key is required
    _check_keys(block, "sequence", {"kind"} | keys, keys - {"levels"})
    spec = {"kind": kind}
    for key in ("word", "symbols"):
        if key in block:
            spec[key] = _array(block[key], f"sequence.{key}", (None,), _at_least(1))
    if "levels" in block:
        spec["levels"] = _int(
            block["levels"], "sequence.levels", 1, QUADRATIC_GAP_MAX_LEVELS
        )
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
    out, block = dict(DEFAULTS), data.get("analysis", {})
    _check_keys(block, "analysis", ANALYSIS)
    for key, value in block.items():
        out[key] = ANALYSIS[key][1](value, f"analysis.{key}")
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
        _array(analysis["initial_vector"], "analysis.initial_vector", (system.dim,))
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
    return SwitchingSequence.quadratic_gap(spec.get("levels", cfg.analysis["levels"]))


def require_system(cfg: SystemConfig) -> MatrixSet:
    """The configured matrix family; ConfigError when there is none."""
    if cfg.system is None:
        raise ConfigError("matrices: this command needs a matrices block")
    return cfg.system


def build_mjls(cfg: SystemConfig) -> MJLS:
    system = require_system(cfg)
    if cfg.chain is None:
        raise ConfigError("markov: this command needs a markov block")
    return MJLS(system, check_chain(cfg.chain))
