"""Deterministic JSON rendering.

Floats are written with 17 significant digits (`%.17g`), enough to round-trip
any float64 exactly, and containers are emitted in insertion order, so equal
report objects serialize to identical bytes.  A report dataclass renders as
its fields in declaration order.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


def to_jsonable(x):
    """Recursively convert a value into plain Python values.

    Numpy scalars and arrays become numbers and lists, tuples become lists,
    and a dataclass becomes ``{field: value}`` over its fields in declaration
    order.
    """
    if isinstance(x, np.ndarray):
        return [to_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if dataclasses.is_dataclass(x):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def dumps(obj) -> str:
    out: list[str] = []
    _render(to_jsonable(obj), out)
    return "".join(out)


def _render(x, out: list[str]) -> None:
    if x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, v in enumerate(x):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(x, dict):
        out.append("{")
        for i, (k, v) in enumerate(x.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise ValueError(f"JSON object keys must be strings, got {k!r}")
            out.append(json.dumps(k))
            out.append(":")
            _render(v, out)
        out.append("}")
    else:
        raise ValueError(f"cannot serialize value of type {type(x).__name__}")
