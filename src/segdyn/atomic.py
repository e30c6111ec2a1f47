"""Atomic artifact files and the one JSON encoder they are written with.

Every artifact file is written to a temporary file in its own directory,
which replaces the target only once it is complete, so an interrupted or
failed write leaves the previous file as it was.

JSON artifacts hold the bytes of ``json.dump(doc, fh, indent=2,
sort_keys=True)`` plus a final newline. With ``indent`` that call always runs
CPython's pure-Python encoder, one item at a time. Most of an artifact is
number lists and tables of number rows (words, tensor tuples, sparse
triplets, dense rows), and those go through the C encoder here: a number list
in one ``json.dumps`` call whose item separator carries the indentation, a
table in blocks of rows whose boundaries one ``str.replace`` rewrites. Only
the containers around them are walked in Python, and anything else is left
to the stdlib encoder. The document is written as a stream of such pieces,
never built as one string.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

__all__ = ["write_atomic", "write_json"]

_INDENT = "  "
_NUMBER = frozenset((int, float))
_SEQUENCE = frozenset((list, tuple))
_KEY = frozenset((str,))
# rows per C-encoder call in a table: blocks of 16 to 256 rows wrote in the
# same time and at the same benchmark peak memory, 1024-row blocks were
# slower and peaked higher
_ROWS_PER_BLOCK = 64
_stdlib = json.JSONEncoder(indent=2, sort_keys=True).encode


def write_atomic(path, pieces) -> None:
    """Write the strings ``pieces`` to ``path`` through a temporary file in the
    same directory that replaces ``path`` only once it is complete. Newlines
    are written as given."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc: dict) -> None:
    """Write doc atomically, as ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline."""
    write_atomic(path, chain(_pieces(doc, ""), ("\n",)))


@lru_cache(maxsize=None)
def _separated(indent: str):
    """The C encoder, with items separated by a line break and ``indent``."""
    return json.JSONEncoder(separators=(",\n" + indent, ": ")).encode


def _pieces(obj, indent: str):
    """The text of ``obj`` as indented JSON, in pieces; ``indent`` is the
    indentation of the line the value starts on."""
    kind = type(obj)
    inner = indent + _INDENT
    if kind is dict and obj and set(map(type, obj)) <= _KEY:
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _pieces(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif kind not in _SEQUENCE or not obj:
        yield _stdlib(obj).replace("\n", "\n" + indent)
    elif set(map(type, obj)) <= _NUMBER:
        yield "[\n" + inner + _separated(inner)(obj)[1:-1] + "\n" + indent + "]"
    elif (set(map(type, obj)) <= _SEQUENCE and all(obj)
          and set(map(type, chain.from_iterable(obj))) <= _NUMBER):
        # each block is encoded as rows separated like their items, then the
        # row boundaries get their own lines and the rows' indentation
        row = inner + _INDENT
        encode = _separated(row)
        boundary, rows = "],\n" + row + "[", "\n" + inner + "],\n" + inner + "[\n" + row
        sep = "[\n" + inner + "[\n" + row
        for lo in range(0, len(obj), _ROWS_PER_BLOCK):
            yield sep + encode(obj[lo:lo + _ROWS_PER_BLOCK])[2:-2].replace(boundary, rows)
            sep = rows
        yield "\n" + inner + "]\n" + indent + "]"
    else:
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
