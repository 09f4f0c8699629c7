"""Config parsing: defaults, overrides, and path-precise rejections."""

import numpy as np
import pytest

from mjlslab.config import (
    ANALYSIS,
    DEFAULTS,
    ConfigError,
    build_mjls,
    build_sequence,
    parse_config,
)

# the least value of each integer analysis row; the rows not named take 1
INT_MINIMA = {"seed": 0, "horizon": 2, "preextremal_depth": 0}


def minimal_system(**extra):
    data = {
        "dimension": 2,
        "matrices": [[[0.5, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]],
    }
    data.update(extra)
    return data


def test_defaults_are_applied_and_copied():
    cfg = parse_config(minimal_system())
    assert cfg.analysis["trials"] == DEFAULTS["trials"]
    cfg.analysis["trials"] = 7
    assert DEFAULTS["trials"] != 7 or True
    assert parse_config(minimal_system()).analysis["trials"] == DEFAULTS["trials"]


def test_analysis_overrides():
    cfg = parse_config(minimal_system(analysis={"seed": 3, "eps": 0.5}))
    assert cfg.analysis["seed"] == 3
    assert cfg.analysis["eps"] == 0.5
    assert cfg.analysis["delta"] == DEFAULTS["delta"]


def test_unknown_keys_are_rejected_with_path():
    with pytest.raises(ConfigError, match="analysis"):
        parse_config(minimal_system(analysis={"trails": 10}))
    with pytest.raises(ConfigError):
        parse_config({"bogus": 1})
    with pytest.raises(ConfigError, match="markov"):
        parse_config(
            minimal_system(markov={"initial": [1, 0], "transition": [[1, 0], [0, 1]], "x": 0})
        )


def test_type_and_range_validation():
    with pytest.raises(ConfigError, match="trials"):
        parse_config(minimal_system(analysis={"trials": 0}))
    with pytest.raises(ConfigError, match="eps"):
        parse_config(minimal_system(analysis={"eps": -1.0}))
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(minimal_system(analysis={"alpha": 1.5}))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(minimal_system(analysis={"seed": -1}))


def test_seed_lies_in_the_philox_key_range():
    top = 2**64 - 1
    assert parse_config(minimal_system(analysis={"seed": top})).analysis["seed"] == top
    for seed in (top + 1, 2**100):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_system(analysis={"seed": seed}))
        assert str(info.value) == f"analysis.seed: must be at most {top}, got {seed}"


def test_matrices_need_dimension_and_shape():
    with pytest.raises(ConfigError, match="dimension"):
        parse_config({"matrices": [[[1.0]]]})
    with pytest.raises(ConfigError):
        parse_config({"dimension": 2, "matrices": [[[1.0, 0.0]]]})
    with pytest.raises(ConfigError, match="labels"):
        parse_config(minimal_system(labels=["just-one"]))


def test_markov_matrix_count_must_match():
    with pytest.raises(ConfigError):
        parse_config(
            minimal_system(markov={"initial": [1.0], "transition": [[1.0]]})
        )


def test_sequence_symbol_range_checked():
    with pytest.raises(ConfigError, match="word"):
        parse_config(minimal_system(sequence={"kind": "periodic", "word": [1, 3]}))
    with pytest.raises(ConfigError, match="kind"):
        parse_config(minimal_system(sequence={"kind": "sometimes"}))
    cfg = parse_config(minimal_system(sequence={"kind": "periodic", "word": [2, 1]}))
    seq = build_sequence(cfg)
    assert seq.prefix(3).tolist() == [2, 1, 2]


def test_example46_sequence_uses_first_two_matrices():
    cfg = parse_config(
        minimal_system(sequence={"kind": "example46", "levels": 3})
    )
    seq = build_sequence(cfg)
    assert seq.prefix(3).tolist() == [2, 1, 2]
    assert seq.max_length == 15


def test_markov_sequence_needs_markov_block():
    with pytest.raises(ConfigError, match="markov"):
        parse_config(minimal_system(sequence={"kind": "markov"}))


def test_initial_vector_length_checked():
    with pytest.raises(ConfigError, match="initial_vector"):
        parse_config(minimal_system(analysis={"initial_vector": [1.0, 0.0, 0.0]}))
    cfg = parse_config(minimal_system(analysis={"initial_vector": [1.0, 0.0]}))
    assert cfg.analysis["initial_vector"] == [1.0, 0.0]


def test_build_mjls_round_trip():
    data = minimal_system(
        markov={"initial": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]}
    )
    m = build_mjls(parse_config(data))
    assert m.system.num_matrices == 2
    assert np.allclose(m.chain.initial, [0.5, 0.5])


def _refused(key: str, default) -> list:
    """(value, message) pairs that analysis.<key> refuses."""
    if key == "alpha":
        return [
            (0.0, "must lie strictly in (0, 1), got 0.0"),
            (1.0, "must lie strictly in (0, 1), got 1.0"),
            ("x", "expected a number, got 'x'"),
        ]
    if key == "initial_vector":
        return [
            ([], "expected a nonempty list"),
            ("x", "expected a nonempty list"),
            ([0.0, 0.0], "must be nonzero"),
            ([1.0, "x"], "initial_vector[1]: expected a number"),
        ]
    if key == "trace_csv":
        return [(3, "expected a string or null")]
    if isinstance(default, float):
        return [
            (0.0, "must be positive, got 0.0"),
            (-1, "must be positive, got -1"),
            ("x", "expected a number, got 'x'"),
            (float("inf"), "must be finite"),
        ]
    low = INT_MINIMA.get(key, 1) - 1
    return [
        (low, f"must be at least {low + 1}, got {low}"),
        (1.5, "expected an integer, got 1.5"),
        (True, "expected an integer, got True"),
    ]


@pytest.mark.parametrize("key", list(ANALYSIS))
def test_every_analysis_default_passes_its_own_check(key):
    default, check = ANALYSIS[key]
    assert check(default, f"analysis.{key}") == default
    assert parse_config(minimal_system(analysis={key: default})).analysis[key] == default
    if isinstance(default, int):  # the least value passes too
        least = INT_MINIMA.get(key, 1)
        assert parse_config(minimal_system(analysis={key: least})).analysis[key] == least


@pytest.mark.parametrize(
    "key, value, message",
    [
        (key, value, message)
        for key, (default, _) in ANALYSIS.items()
        for value, message in _refused(key, default)
    ],
)
def test_every_analysis_row_refuses_bad_values_by_path(key, value, message):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_system(analysis={key: value}))
    assert str(info.value).startswith(f"analysis.{key}")
    assert message in str(info.value)


@pytest.mark.parametrize(
    "sequence, message",
    [
        ({"kind": "periodic"}, "sequence: missing required key 'word'"),
        ({"kind": "explicit"}, "sequence: missing required key 'symbols'"),
        # an unknown key is named before a missing one
        ({"kind": "periodic", "symbols": [1]}, "sequence.symbols: unknown key"),
        ({"kind": "markov", "word": [1]}, "sequence.word: unknown key"),
    ],
)
def test_sequence_keys_are_checked_in_order(sequence, message):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_system(sequence=sequence))
    assert str(info.value) == message


def test_example46_levels_fall_back_to_the_analysis_block():
    cfg = parse_config(minimal_system(sequence={"kind": "example46"}, analysis={"levels": 2}))
    assert cfg.sequence_spec == {"kind": "example46"}
    assert build_sequence(cfg).max_length == 3


def test_build_mjls_names_a_missing_matrices_block():
    with pytest.raises(ConfigError, match="^matrices: this command needs a matrices block$"):
        build_mjls(parse_config({}))
