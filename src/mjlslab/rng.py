"""Deterministic random streams.

Every sampling routine in this package draws from a counter-based Philox
generator keyed by (seed, stream). The same pair gives the same draws on any
platform and any run, with no global state, so independent streams can be
handed out per trial without coordination.

Stream layout: Monte Carlo trial t uses stream t; auxiliary draws (random
initial states, sphere samples) use streams at AUX_STREAM_BASE and above so
they never collide with trial streams.
"""

import numpy as np

MAX_SEED = (1 << 64) - 1  # a Philox key word; config refuses larger seeds

AUX_STREAM_BASE = 1 << 32


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair. Reproducible across platforms."""
    key = np.array([int(seed) & MAX_SEED, int(stream) & MAX_SEED], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def unit_vectors(dim: int, count: int, seed: int, stream_offset: int = 0) -> np.ndarray:
    """Rows are unit vectors, drawn from the auxiliary stream range."""
    rng = philox_stream(seed, AUX_STREAM_BASE + stream_offset)
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # a standard normal draw is never the zero vector in practice; guard anyway
    norms[norms == 0.0] = 1.0
    return v / norms
