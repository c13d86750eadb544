"""Deterministic JSON/CSV emission.

Output files must be byte-identical across runs of the same config, so:
floats are printed with 17 significant digits (exact at double precision),
dict keys keep their (deterministic) insertion order, JSON strings are UTF-8,
and CSV files are RFC-4180 with a header row and LF line endings.

The stdlib json encoder hardwires repr() for floats, hence the small
hand-rolled emitter. Trace CSVs get ``"%.17g"``'s digits from numpy: Dekker's
two-product gives each |x| * 10**k exactly, to round half-even; each cell is a
column of uint8 slots, NUL where ``%g`` prints nothing, which one
``bytes.translate`` per chunk of rows drops.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
        # finite floats in one join of format_value's bytes; the rest item by item
        if obj and all(isinstance(v, float) for v in obj) and all(map(math.isfinite, obj)):
            out.append(", ".join(["%.17g" % v for v in obj]))
        else:
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


_ROW_CHUNK = 4096  # trace rows per slot matrix, which then stays in cache
_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_J = np.arange(17, dtype=np.uint8)[:, None]  # digit positions, one row each
# for each decimal exponent from -6 to 16, %g's "0.000" prefix and "e±NN" slots
_AROUND = np.array([list((b"0.000"[:1 - k] if -4 <= k < 0 else b"").ljust(5, b"\0")
                         + (b"" if k >= -4 else b"e%+03d" % k).ljust(4, b"\0"))
                    for k in range(-6, 17)], np.uint8).T


def _two_product(a, b):
    """hi, lo with hi + lo == a * b exactly: Dekker's two-product on
    Veltkamp's splits (by 2**27 + 1) of a and b."""
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl, hi = a - ah, b - bh, a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _decimal17(a):
    """D in [1e16, 1e17) and E with each a in (1e-6, 1e17), rounded half-even
    to 17 digits, equal to D * 10**(E - 16)."""
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    hi, lo = _two_product(a, _POW10[16 - e])  # log10 may be one off: mend E
    e -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    e += (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    hi, lo = _two_product(a, _POW10[16 - e])
    # hi is an even integer here, so rint's half-even rule decides ties; no
    # double in range rounds up to a power of ten, so D stays below 1e17
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _float_slots(x):
    """``"%.17g" % v`` for each v of 1-D x as a column of 44 uint8 slots, NUL if
    unused: a sign, ``0.000``, 17 digits each with a point slot after, ``e±NN``."""
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)  # the double 1e-6 is below 10**-6
    d, e = np.array(_decimal17(np.where(fast, a, 1.0))) * (a != 0)  # 0 is D = E = 0
    part = np.stack(np.divmod(d, 10**9)).astype(np.uint32)  # two 9-digit halves
    digits = np.empty((2, 9, x.size), np.uint8)
    for j in range(8, -1, -1):
        q = part // 10
        digits[:, j] = part - q * 10
        part = q
    digits = digits.reshape(18, -1)[1:]
    point = np.where(e >= -4, e, 0)  # the digit the point follows, if any
    last = np.maximum((digits.astype(bool) * _J).max(0), point)  # the last digit kept
    s = np.empty((44, x.size), np.uint8)
    s[0] = np.signbit(x) * ord("-")
    s[1:6], s[40:44] = np.split(_AROUND[:, e + 6], [5])
    s[6:40:2] = (_J <= last) * (digits + ord("0"))
    s[7:40:2] = ((_J == point) & (last > point)) * np.uint8(ord("."))
    for k in np.flatnonzero(~fast & (a != 0)):
        s[:, k] = np.frombuffer(("%.17g" % x[k]).encode().ljust(44, b"\0"), np.uint8)
    return s


def _int_slots(c):
    """``str(v)`` for each int v of 1-D c as a column of sign and digit slots."""
    a = np.abs(c)
    place = 10 ** np.arange(len(str(a.max())) - 1, -1, -1)[:, None]
    digits = (a // place % 10 + ord("0")) * (place <= np.maximum(a, 1))
    return np.vstack([(c < 0) * ord("-"), digits]).astype(np.uint8)


def write_trace_csv(path, header: list[str], first_cycle: int, samples: np.ndarray) -> None:
    """The bytes of ``write_csv`` for rows ``[first_cycle + r, *samples[r]]``:
    one finiteness check over the array before the file is opened, then per
    chunk of rows one matrix of byte slots (the cycle, then per column ``,``
    and the value's slots, then the newline) whose NULs one ``translate``
    drops, written as soon as it is made."""
    samples = np.asarray(samples, dtype=float)
    finite = np.isfinite(samples)
    if not finite.all():
        bad = float(samples[~finite][0])
        raise ValueError(f"non-finite value {bad!r} cannot be serialized")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    rows, cols = samples.shape
    with open(path, "wb") as f:
        f.write(buf.getvalue().encode("utf-8"))
        for r0 in range(0, rows, _ROW_CHUNK):
            block = samples[r0:r0 + _ROW_CHUNK].T
            m = block.shape[1]
            cells = np.full((cols, 45, m), ord(","), np.uint8)
            cells[:, 1:] = _float_slots(block.ravel()).reshape(44, cols, m).transpose(1, 0, 2)
            out = np.vstack([_int_slots(np.arange(first_cycle + r0, first_cycle + r0 + m)),
                             cells.reshape(-1, m), np.full((1, m), ord("\n"), np.uint8)])
            f.write(out.T.tobytes().translate(None, b"\0"))
