"""Deterministic JSON/CSV emission.

Output files must be byte-identical across runs of the same config, so:
floats are printed with 17 significant digits (exact at double precision),
dict keys keep their (deterministic) insertion order, JSON strings are UTF-8,
and CSV files are RFC-4180 with a header row and LF line endings.

The stdlib json encoder hardwires repr() for floats, hence the small
hand-rolled emitter.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

__all__ = ["format_value", "dumps_json", "write_json", "write_csv", "write_trace_csv"]


def format_value(x) -> str:
    """Canonical text form of a scalar: 17 significant digits for floats."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not np.isfinite(x):
            raise ValueError(f"non-finite value {x!r} cannot be serialized")
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def _emit_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        out.append(format_value(obj))
    elif isinstance(obj, str):
        import json

        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _emit_json(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            _emit_json(str(key), out)
            out.append(": ")
            _emit_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, value in enumerate(obj):
            if k:
                out.append(", ")
            _emit_json(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj)}")


def dumps_json(obj) -> str:
    out: list[str] = []
    _emit_json(obj, out)
    return "".join(out)


def write_json(path, obj) -> None:
    text = dumps_json(obj) + "\n"
    Path(path).write_bytes(text.encode("utf-8"))


def write_csv(path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def write_trace_csv(path, header: list[str], first_cycle: int, samples: np.ndarray) -> None:
    """The bytes of ``write_csv`` for rows ``[first_cycle + r, *samples[r]]``,
    made in one pass: one finiteness check over the array, then one format
    string per row instead of ``format_value`` per value."""
    samples = np.asarray(samples, dtype=float)
    finite = np.isfinite(samples)
    if not finite.all():
        bad = float(samples[~finite][0])
        raise ValueError(f"non-finite value {bad!r} cannot be serialized")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    row = "{}" + ",{:.17g}" * samples.shape[1] + "\n"
    buf.write("".join(row.format(first_cycle + r, *values)
                      for r, values in enumerate(samples.tolist())))
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))
