"""Deterministic report serialization.

Reports must be byte-identical across runs with the same config and seed, so
serialization avoids everything environment-shaped: no timestamps, no paths,
no dict reordering, and floats always printed with 17 significant digits
(enough to round-trip a double). Non-finite floats have no JSON number form
and are emitted as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json

import numpy as np


def jsonable(obj):
    """Recursively convert dataclasses and numpy values to plain JSON types.

    Field and key order is preserved, which is what pins the byte layout of
    the emitted report.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    text = format(float(x), ".17g")
    # JSON reads "-0" as the integer 0; "-0.0" keeps the sign
    return "-0.0" if text == "-0" else text


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(inner + json.dumps(str(key), ensure_ascii=True) + ": ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Pretty, deterministic JSON text for an already-jsonable object."""
    out: list = []
    _emit(obj, 0, out)
    return "".join(out) + "\n"


def config_sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def write_trace_csv(path, histories, fits, stride: int = 50) -> None:
    """Per-trial log-norm trace at every `stride` steps plus the final step.

    Columns: trial (1-based), n, log_norm, fit, where fit is the trial's tail
    slope repeated on each of its rows.
    """
    hist = np.asarray(histories, dtype=float)
    fits = np.asarray(fits, dtype=float)
    steps = list(range(stride - 1, hist.shape[1], stride))
    if not steps or steps[-1] != hist.shape[1] - 1:
        steps.append(hist.shape[1] - 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "n", "log_norm", "fit"])
        for t in range(hist.shape[0]):
            fit = format_float(fits[t]).strip('"')
            for n in steps:
                writer.writerow([t + 1, n + 1, format_float(hist[t, n]).strip('"'), fit])
