"""Atomic artifact files and the one JSON encoder they are written with.

Every artifact file is written to a temporary file in its own directory,
which takes the target's name only once it is complete, so a failed write
leaves the previous file as it was. No rename goes over an existing file: the
previous file is first renamed to the side name ``.<name>.prev``, the
temporary file is renamed onto the free name, and the side file is unlinked.
(On ext4 a rename over an existing file flushes the new file's data first,
which cost most of a small pipeline's time.) A process killed between the two
renames leaves the side file and no target; the side file then holds the
last complete bytes, the manifest is read from it, and the next write of that
file consumes it. A side file appears only after such a crash. The next
write of a file also unlinks the temporary files that killed writes of it
left. Nothing here calls ``fsync``, so a file is not guaranteed to survive a
power loss; the ext4 flush only ever guarded against that by accident.

JSON artifacts hold the bytes of ``json.dump(doc, fh, indent=2,
sort_keys=True)`` plus a final newline. With ``indent`` that call always runs
CPython's pure-Python encoder, one item at a time. Most of an artifact is
number lists and tables of number rows (words, tensor tuples, sparse
triplets, dense rows), and those go through the C encoder here: a number list
in one ``json.dumps`` call whose item separator carries the indentation, a
table in blocks of rows whose boundaries one ``str.replace`` rewrites. A 2-D
integer array, such as the enumerated word table, is written as its rows of
ints would be: when its values span fewer numbers than it holds, each block
is joined from one vocabulary of their decimal strings, and otherwise it is
written as its ``tolist()``. A 1-D integer array, such as a CSR index
array, is written as its ``tolist()`` would be, in blocks of items, so no
list of all its items is built. Only the containers around them are walked
in Python, and anything else is left to the stdlib encoder, as are the
blocks of a list of small records (dicts of scalars and number lists), which
it writes in fewer Python steps than the pieces would. The document is
written as a stream of such pieces, never built as one string.
"""
from __future__ import annotations

import glob
import json
import os
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = ["side_path", "write_atomic", "write_json"]

_INDENT = "  "
_NUMBER = frozenset((int, float))
_SEQUENCE = frozenset((list, tuple))
_KEY = frozenset((str,))
_DICT = frozenset((dict,))
_RECORD_VALUE = frozenset((str, int, float, bool, type(None), list))
# rows per C-encoder call in a table: blocks of 16 to 256 rows wrote in the
# same time and at the same benchmark peak memory, 1024-row blocks were
# slower and peaked higher
_ROWS_PER_BLOCK = 64
# items per C-encoder call in a 1-D integer array
_ITEMS_PER_BLOCK = 1 << 12
# most decimal strings an integer table's vocabulary holds
_VOCABULARY = 1 << 16
_stdlib = json.JSONEncoder(indent=2, sort_keys=True).encode


def side_path(path) -> Path:
    """The side name ``.<name>.prev`` that ``write_atomic`` moves an existing
    ``path`` to while the new file is renamed in."""
    path = Path(path)
    return path.with_name(f".{path.name}.prev")


def write_atomic(path, pieces) -> None:
    """Write the strings ``pieces`` to ``path`` through a temporary file in the
    same directory that takes the name ``path`` only once it is complete.
    Newlines are written as given.

    No rename goes over an existing file: an existing ``path`` is renamed to
    ``side_path(path)``, the temporary file onto the free ``path``, and the
    side file is then unlinked. If any step raises, the previous file is put
    back under ``path`` and neither file is left. A kill between the renames
    leaves only the side file; the next write consumes it, and a side file
    next to its target (a kill after the second rename) is removed. One
    writer per file at a time, as the manifest's read-modify-write assumes,
    so a temporary file of ``path`` from any process id, ``.<name>.<pid>.tmp``,
    is a killed write's and is unlinked first."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    side = side_path(path)
    for stale in path.parent.glob(f".{glob.escape(path.name)}.*.tmp"):
        if stale.name[len(path.name) + 2:-4].isdigit():
            stale.unlink(missing_ok=True)
    aside = False
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        if path.exists():
            side.unlink(missing_ok=True)
            os.replace(path, side)
            aside = True
        os.replace(tmp, path)
        side.unlink(missing_ok=True)
    except BaseException:
        tmp.unlink(missing_ok=True)
        # the side file holds the previous bytes if this write moved them
        # there, or if a killed write left them there and no target
        if side.exists() and (aside or not path.exists()):
            os.replace(side, path)
        raise


def write_json(path, doc: dict) -> None:
    """Write doc atomically, as ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline; a 1-D or 2-D integer array in doc is written as its
    ``tolist()``."""
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
    if kind is np.ndarray and obj.ndim == 1 and obj.dtype.kind in "iu":
        encode = _separated(inner)
        sep = "[\n" + inner
        for lo in range(0, obj.shape[0], _ITEMS_PER_BLOCK):
            yield sep + encode(obj[lo:lo + _ITEMS_PER_BLOCK].tolist())[1:-1]
            sep = ",\n" + inner
        yield "\n" + indent + "]" if obj.size else "[]"
    elif kind is np.ndarray and obj.ndim == 2 and obj.dtype.kind in "iu":
        lo, hi = (int(obj.min()), int(obj.max())) if obj.size else (0, _VOCABULARY)
        yield from (_int_table(obj, lo, hi, indent) if hi - lo < min(obj.size, _VOCABULARY)
                    else _pieces(obj.tolist(), indent))
    elif kind is dict and obj and set(map(type, obj)) <= _KEY:
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
    elif _records(obj):
        # the stdlib text of each block of records, less its brackets and
        # their line breaks, at this depth
        sep = "[\n" + inner
        for lo in range(0, len(obj), _ROWS_PER_BLOCK):
            yield sep + _stdlib(obj[lo:lo + _ROWS_PER_BLOCK])[4:-2].replace("\n", "\n" + indent)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"


def _records(obj: list) -> bool:
    """Whether obj is a list of dicts of scalars and number lists, such as
    cover balls or encoded words. It holds no ndarray or number table, so
    the stdlib encoder writes it, a block of records at a time, in half the
    time of its pieces."""
    if set(map(type, obj)) != _DICT:
        return False
    values = list(chain.from_iterable(map(dict.values, obj)))
    if not set(map(type, values)) <= _RECORD_VALUE:
        return False
    items = chain.from_iterable(v for v in values if type(v) is list)
    return set(map(type, items)) <= _NUMBER


def _int_table(table, lo: int, hi: int, indent: str):
    """The text of a 2-D integer array with values in lo..hi, as its rows of
    Python ints would be written: each block of rows is joined from one
    vocabulary of the decimal strings of lo..hi."""
    inner = indent + _INDENT
    row = inner + _INDENT
    item, rows = ",\n" + row, "\n" + inner + "],\n" + inner + "[\n" + row
    vocab = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
    # offsets from lo, in a type wide enough for every value of the array
    wide = np.uint64 if table.dtype.kind == "u" else np.int64
    sep = "[\n" + inner + "[\n" + row
    for start in range(0, table.shape[0], _ROWS_PER_BLOCK):
        block = table[start:start + _ROWS_PER_BLOCK].astype(wide) - wide(lo)
        yield sep + rows.join(map(item.join, vocab[block].tolist()))
        sep = rows
    yield "\n" + inner + "]\n" + indent + "]"
