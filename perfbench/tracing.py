"""Spans and work counters recorded from outside the program.

Tracing replaces each probed function, at every `mjlslab` module binding it
is called through, by a wrapper that records a span (name, start, end,
parent) and updates counters; `instrument()` restores the originals on exit.
Nothing under src/ knows about it. One Tracer covers one pass, so all of its
spans share that pass as their request; spans stay in memory until the
benchmark writes them out.

Span times are inclusive, except `stability.harness_s` and
`stability.almost_sure_s`, which are self times: the span minus the spans
it directly caused.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

SELF_TIMED = ("stability.harness", "stability.almost_sure")


@dataclass
class Tracer:
    """Spans and counters of one pass."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    seen: dict[str, set] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(len(self.names) - 1)
        self.starts.append(time.perf_counter())
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def first_time(self, group: str, key) -> bool:
        """True the first time `key` shows up in `group` during this pass."""
        keys = self.seen.setdefault(group, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def span_seconds(self) -> dict[str, float]:
        """Seconds per span name, nested repeats of a name counted once."""
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            if self._has_ancestor_named(i, name):
                continue
            dur = self.ends[i] - self.starts[i]
            if name in SELF_TIMED:
                dur -= child_time[i]
            out[name] = out.get(name, 0.0) + dur
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


# --- counter hooks: (tracer, bound arguments, result) -> None -------------------


def _sample_hook(t: Tracer, args, result) -> None:
    t.count("markov.sample_calls")
    t.count("markov.steps_sampled", int(args["horizon"]))


def _shift_hook(t: Tracer, args, result) -> None:
    k = args["chain"].num_states
    t.count("markov.words_visited", sum(k**n for n in range(1, args["max_len"] + 1)))


def _paths_hook(t: Tracer, args, result) -> None:
    chain = args["m"].chain
    key = (
        chain.initial.tobytes(),
        chain.transition.tobytes(),
        args["trials"],
        args["horizon"],
        args["seed"],
    )
    t.count("stability.paths_calls")
    if not t.first_time("paths", key):
        t.count("stability.paths_repeats")


def _calls(counter: str):
    def hook(t: Tracer, args, result) -> None:
        t.count(counter)

    return hook


def _batch_hook(counter: str):
    def hook(t: Tracer, args, result) -> None:
        t.count(counter, int(args["arr"].shape[0]))

    return hook


def _limit_points_hook(t: Tracer, args, result) -> None:
    t.count("splitting.return_products", int(result.products.shape[0]))
    t.count("splitting.cluster_reps", int(result.cluster_reps.shape[0]))


def _level_hook(t: Tracer, args, level) -> None:
    """Products of one enumerated level; a (family, depth) seen before is a repeat."""
    depth, arr = level
    t.count("products.enumerated", int(arr.shape[0]))
    if not t.first_time("levels", (args["s"].matrices.tobytes(), depth)):
        t.count("products.enum_repeats", int(arr.shape[0]))


def _serialize_hook(t: Tracer, args, result) -> None:
    t.count("reports.report_bytes", len(result.encode("utf-8")))


@dataclass(frozen=True)
class Probe:
    """One probed function and the hook that updates counters after each call.

    span=None records counters only. Hooks get the tracer, the call's
    arguments by name and the result (for a generator, each yielded item).
    """

    module: str
    function: str
    span: str | None
    hook: Callable | None = None
    only: tuple[str, ...] | None = None  # restrict to these binding modules


PROBES = (
    Probe("markov", "sample_trajectory", "markov.sample", _sample_hook),
    Probe("markov", "shift_invariance_defect", "markov.shift_invariance", _shift_hook),
    Probe("stability", "_symbol_paths", "stability.paths", _paths_hook),
    Probe(
        "stability", "_vector_histories", "stability.vector_hist",
        _calls("stability.vector_hist_calls"),
    ),
    Probe(
        "stability", "_matrix_histories", "stability.matrix_hist",
        _calls("stability.matrix_hist_calls"),
    ),
    Probe("stability", "periodic_stability_probe", "stability.probe"),
    Probe("stability", "consistent_convergence_probe", "stability.probe"),
    Probe("stability", "pointwise_equivalence_harness", "stability.harness"),
    Probe("stability", "almost_sure_exponential_estimate", "stability.almost_sure"),
    Probe("stability", "spectral_finiteness_probe", "products.finiteness"),
    Probe("products", "jsr_bounds", "products.jsr_bounds", _calls("products.jsr_bounds_calls")),
    Probe("products", "boundedness_probe", "products.boundedness"),
    Probe("products", "_level_products", None, _level_hook),
    Probe("products", "_batch_norm2", None, _batch_hook("products.svd_matrices")),
    Probe("products", "_batch_rho", None, _batch_hook("products.eig_matrices")),
    Probe("products", "preextremal_norm", "products.preextremal"),
    Probe("splitting", "limit_points", "splitting.limit_points", _limit_points_hook),
    Probe("splitting", "find_idempotent", "splitting.find_idempotent"),
    Probe("linalg", "idempotency_defect", None, _calls("splitting.idempotency_checks")),
    Probe("linalg", "induced_norm2", None, _calls("splitting.norm2_calls")),
    Probe("splitting", "verify_splitting", "splitting.verify"),
    Probe(
        "splitting", "vector_log_norm_history", "splitting.scalar_hist",
        _calls("splitting.scalar_hist_calls"),
    ),
    Probe(
        "splitting", "matrix_log_norm_history", "splitting.scalar_hist",
        _calls("splitting.scalar_hist_calls"),
    ),
    Probe("sequences", "classify_recurrence", "sequences.recurrence"),
    Probe(
        "sequences", "return_times", "sequences.return_times",
        _calls("sequences.return_times_calls"),
    ),
    # jsonable recurses through its own module binding; only the calls made
    # by the CLI are spans
    Probe("reports", "jsonable", "reports.jsonable", None, ("cli",)),
    Probe("reports", "canonical_json", "reports.serialize", _serialize_hook),
    Probe("config", "load_config", "config.load"),
)


def _wrap(probe: Probe, fn, tracer: Tracer):
    params = list(inspect.signature(fn).parameters)
    hook, name = probe.hook, probe.span

    if inspect.isgeneratorfunction(fn):
        # the hook sees every yielded item in place of a result
        def counted_items(*args, **kwargs):
            named = dict(zip(params, args), **kwargs)
            for item in fn(*args, **kwargs):
                hook(tracer, named, item)
                yield item

        return counted_items

    if name is None:
        # counters only: these run tens of thousands of times per pass
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, dict(zip(params, args), **kwargs), result)
            return result

        return counted

    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound.arguments, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Install the probes, recording into `tracer`, for the duration of the block."""
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mjlslab" or name.startswith("mjlslab."))
    ]
    patched = []
    try:
        for probe in PROBES:
            original = getattr(sys.modules[f"mjlslab.{probe.module}"], probe.function)
            wrapper = _wrap(probe, original, tracer)
            for mod in modules:
                if probe.only is not None and mod.__name__.rpartition(".")[2] not in probe.only:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


SPAN_METRICS = {
    "markov.sample_s": "markov.sample",
    "markov.shift_invariance_s": "markov.shift_invariance",
    "stability.paths_s": "stability.paths",
    "stability.vector_hist_s": "stability.vector_hist",
    "stability.matrix_hist_s": "stability.matrix_hist",
    "stability.probe_s": "stability.probe",
    "stability.harness_s": "stability.harness",
    "stability.almost_sure_s": "stability.almost_sure",
    "products.jsr_bounds_s": "products.jsr_bounds",
    "products.boundedness_s": "products.boundedness",
    "products.finiteness_s": "products.finiteness",
    "products.preextremal_s": "products.preextremal",
    "splitting.limit_points_s": "splitting.limit_points",
    "splitting.find_idempotent_s": "splitting.find_idempotent",
    "splitting.verify_s": "splitting.verify",
    "splitting.scalar_hist_s": "splitting.scalar_hist",
    "sequences.recurrence_s": "sequences.recurrence",
    "sequences.return_times_s": "sequences.return_times",
    "reports.jsonable_s": "reports.jsonable",
    "reports.serialize_s": "reports.serialize",
    "config.load_s": "config.load",
}

COUNT_METRICS = {
    "markov.sample_calls": "count",
    "markov.steps_sampled": "count",
    "markov.words_visited": "count",
    "stability.paths_calls": "count",
    "stability.vector_hist_calls": "count",
    "stability.matrix_hist_calls": "count",
    "products.jsr_bounds_calls": "count",
    "products.enumerated": "count",
    "products.svd_matrices": "count",
    "products.eig_matrices": "count",
    "splitting.return_products": "count",
    "splitting.cluster_reps": "count",
    "splitting.idempotency_checks": "count",
    "splitting.norm2_calls": "count",
    "splitting.scalar_hist_calls": "count",
    "sequences.return_times_calls": "count",
    "reports.report_bytes": "bytes",
    "stability.paths_redundant_frac": "ratio",
    "products.enum_redundant_frac": "ratio",
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def pass_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-pass span seconds and the deterministic counters (incl. ratios)."""
    seconds = tracer.span_seconds()
    times = {metric: seconds.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    c = tracer.counters
    counts = {name: c.get(name, 0) for name in COUNT_METRICS if not name.endswith("_frac")}
    counts["stability.paths_redundant_frac"] = _share(
        c.get("stability.paths_repeats", 0), c.get("stability.paths_calls", 0)
    )
    counts["products.enum_redundant_frac"] = _share(
        c.get("products.enum_repeats", 0), c.get("products.enumerated", 0)
    )
    return times, counts
