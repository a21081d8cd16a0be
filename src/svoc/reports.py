"""Deterministic JSON/CSV emission: fixed key order, 17 significant digits.

json.dumps would also work, but float repr is version-sensitive; formatting
every number through one '%.17g' funnel makes identical inputs byte-identical
across platforms.  Non-finite numbers serialize as null; strings are escaped
by json.dumps, control characters included.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _encode(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            _encode(str(key), parts)
            parts.append(": ")
            _encode(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _encode(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, path: str | Path) -> Path:
    parts: list = []
    _encode(obj, parts)
    path = Path(path)
    path.write_text("".join(parts) + "\n", encoding="utf-8")
    return path


def trajectory_csv(path: str | Path, times, values) -> Path:
    """Write a (t, value) table, every row as `fmt` formats it; one string
    operation per 1024 rows, which keeps the temporaries small."""
    pairs = np.column_stack((np.asarray(times, dtype=float), np.asarray(values, dtype=float)))
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        f.write("t,value\n")
        for lo in range(0, len(pairs), 1024):
            block = pairs[lo : lo + 1024]
            f.write(("%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))
    return path


def table_csv(path: str | Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        cells = [cell if isinstance(cell, str) else fmt(cell) for cell in row]
        lines.append(",".join(cells))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
