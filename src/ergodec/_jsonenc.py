"""``json.dumps(obj, indent=2)`` in pieces, with runs of scalars encoded in bulk.

With an indent, the standard library encodes every item in Python, one
generator step at a time.  :func:`iterencode` gives the same text: a list is
cut into runs of at most ``_RUN`` items, and a run whose items are all
``str``, all finite ``float``/``numpy.float64`` or all ``int`` is encoded by
one ``map`` over the function json itself uses (``encode_basestring_ascii``,
``float.__repr__``, ``int.__repr__``).  A run of rows of one length, such as
an edge list, is encoded column by column and laid out through one row
template.  Everything else, NaN and infinities, booleans, None, subclasses,
dict keys and containers, takes a per-item path that follows
``json.encoder._make_iterencode`` with ``indent=2``, ``ensure_ascii``,
``allow_nan`` and ``check_circular``, and raises where it raises.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite

import numpy as np

#: Items of a list encoded by one ``map``.
_RUN = 1024
_INDENT = "  "
_INF = float("inf")
_FLOATS = frozenset((float, np.float64))
_SEQUENCES = frozenset((list, tuple))


def _floatstr(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _bulk_encoder(values, kinds: set):
    """The function json applies to every item of ``values``, of types ``kinds``, if it is one."""
    if kinds == {str}:
        return _encode_str
    if kinds <= _FLOATS and all(map(isfinite, values)):
        return float.__repr__
    if kinds == {int}:
        return int.__repr__
    return None


def _bulk_run(run, level: int):
    """The items of ``run`` at indent ``level``, joined by the item separator; None if not uniform."""
    separator = ",\n" + _INDENT * level
    kinds = set(map(type, run))
    if not kinds <= _SEQUENCES:
        encode = _bulk_encoder(run, kinds)
        return None if encode is None else separator.join(map(encode, run))
    widths = set(map(len, run))
    if len(widths) != 1 or 0 in widths:
        return None
    columns = list(zip(*run))
    encoders = [_bulk_encoder(column, set(map(type, column))) for column in columns]
    if None in encoders:
        return None
    inner = "\n" + _INDENT * (level + 1)
    row = "[" + inner + ("," + inner).join(["{}"] * len(columns)) + "\n" + _INDENT * level + "]"
    return separator.join(map(row.format, *map(map, encoders, columns)))


def _mark(container, markers: dict) -> None:
    if id(container) in markers:
        raise ValueError("Circular reference detected")
    markers[id(container)] = container


def _text(o, level: int):
    """The whole text of ``o`` at indent ``level`` when it is short, else None.

    Short are scalars, empty containers and lists or tuples of at most
    ``_RUN`` items that take the bulk path; they hold no container that
    could be circular.
    """
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _floatstr(o)
    if type(o) in _SEQUENCES and len(o) <= _RUN:
        if not o:
            return "[]"
        items = _bulk_run(o, level + 1)
        if items is not None:
            return "[\n" + _INDENT * (level + 1) + items + "\n" + _INDENT * level + "]"
    return None


def _encode_container(o, level: int, markers: dict):
    """The pieces of a list, tuple or dict that is not a scalar; TypeError for anything else."""
    if isinstance(o, (list, tuple)):
        return _encode_list(o, level, markers)
    if isinstance(o, dict):
        return _encode_dict(o, level, markers)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _encode_list(lst, level: int, markers: dict):
    if not lst:
        yield "[]"
        return
    _mark(lst, markers)
    inner = "\n" + _INDENT * (level + 1)
    prefix = "[" + inner
    for start in range(0, len(lst), _RUN):
        run = lst[start:start + _RUN]
        text = _bulk_run(run, level + 1)
        if text is not None:
            yield prefix
            yield text
            prefix = "," + inner
            continue
        for value in run:
            text = _text(value, level + 1)
            if text is None:
                yield prefix
                yield from _encode_container(value, level + 1, markers)
            else:
                yield prefix + text
            prefix = "," + inner
    del markers[id(lst)]
    yield "\n" + _INDENT * level + "]"


def _encode_dict(dct, level: int, markers: dict):
    if not dct:
        yield "{}"
        return
    _mark(dct, markers)
    inner = "\n" + _INDENT * (level + 1)
    prefix = "{" + inner
    for key, value in dct.items():
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _floatstr(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        item = prefix + _encode_str(key) + ": "
        text = _text(value, level + 1)
        if text is None:
            yield item
            yield from _encode_container(value, level + 1, markers)
        else:
            yield item + text
        prefix = "," + inner
    del markers[id(dct)]
    yield "\n" + _INDENT * level + "}"


def iterencode(obj):
    """Yield pieces of text that join to ``json.dumps(obj, indent=2)``."""
    text = _text(obj, 0)
    if text is None:
        yield from _encode_container(obj, 0, {})
    else:
        yield text
