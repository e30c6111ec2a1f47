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

JSON artifacts follow one layout rule. A list, tuple or 1-D integer array
whose items are all scalars is written on one line, as ``json.dumps`` writes
it, e.g. ``[1, 5, 7]``; every other container is written as
``json.dumps(doc, indent=2, sort_keys=True)`` writes it, so a table gets one
row per line. A final newline ends the file. Lists and 1-D arrays are
encoded by the C encoder a block of items at a time, and a table of number
rows a block of rows at a time, one ``str.replace`` putting each row on its
own line. A 2-D integer array, such as the enumerated word table, is
written as its rows of ints would be: when its values span fewer numbers
than it holds, as bytes, each block of 256 rows gathered from a vocabulary
of NUL-padded tokens, ``v, `` within a row and ``v],`` plus the next row's
line break at its end, and stripped of the padding by one
``bytes.translate``; otherwise it is written as its ``tolist()``. The
document is written as a stream of such pieces, never built as one string.
"""
from __future__ import annotations

import glob
import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = ["side_path", "write_atomic", "write_json"]

_INDENT = "  "
_SCALAR = frozenset((str, int, float, bool, type(None)))
# scalars whose JSON text holds no bracket or comma, so that a block of rows
# of them splits into rows at each "], ["
_NON_STRING = frozenset((int, float, bool, type(None)))
_SEQUENCE = frozenset((list, tuple))
# rows per C-encoder call in a table: blocks of 16 to 256 rows wrote in the
# same time and at the same benchmark peak memory, 1024-row blocks were
# slower and peaked higher
_ROWS_PER_BLOCK = 64
# items per C-encoder call in a list or 1-D integer array
_ITEMS_PER_BLOCK = 1 << 12
# most values an integer table's vocabulary of tokens holds
_VOCABULARY = 1 << 16
# rows per gather of an integer table's tokens: for 20-symbol words the
# reused buffer and the bytes made from it stay near 43 kB a block, so a
# table write raises no peak memory
_INT_ROWS_PER_BLOCK = 256
# the C encoder, with the separators of json.dumps
_encode = json.JSONEncoder().encode


def side_path(path) -> Path:
    """The side name ``.<name>.prev`` that ``write_atomic`` moves an existing
    ``path`` to while the new file is renamed in."""
    path = Path(path)
    return path.with_name(f".{path.name}.prev")


def write_atomic(path, pieces) -> None:
    """Write ``pieces`` to ``path`` through a temporary file in the same
    directory that takes the name ``path`` only once it is complete. A piece
    is a string, written as UTF-8 with its newlines as given, or a bytes-like
    object (bytes, a C-contiguous ndarray), whose bytes are written as they
    are.

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
        with open(tmp, "wb") as fh:
            fh.writelines(p.encode("utf-8") if type(p) is str else p for p in pieces)
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
    """Write doc atomically in the layout of this module's docstring, plus a
    newline; a 1-D or 2-D integer array in doc is written as its
    ``tolist()``."""
    write_atomic(path, chain(_pieces(doc, ""), ("\n",)))


def _pieces(obj, indent: str):
    """The text of ``obj`` in the artifact layout, in pieces; ``indent`` is
    the indentation of the line the value starts on."""
    kind = type(obj)
    inner = indent + _INDENT
    if kind is np.ndarray and obj.ndim == 1 and obj.dtype.kind in "iu":
        yield from _line(obj)
    elif kind is np.ndarray and obj.ndim == 2 and obj.dtype.kind in "iu":
        lo, hi = (int(obj.min()), int(obj.max())) if obj.size else (0, _VOCABULARY)
        yield from (_int_table(obj, lo, hi, indent) if hi - lo < min(obj.size, _VOCABULARY)
                    else _pieces(obj.tolist(), indent))
    elif kind is dict and obj:
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            # the stdlib's key text: a non-string key is written as its JSON value
            yield sep + encode_basestring_ascii(key if type(key) is str else _encode(key)) + ": "
            yield from _pieces(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif kind not in _SEQUENCE:
        yield _encode(obj)
    elif set(map(type, obj)) <= _SCALAR:
        yield from _line(obj)
    elif (set(map(type, obj)) <= _SEQUENCE
          and set(map(type, chain.from_iterable(obj))) <= _NON_STRING):
        rows = "],\n" + inner + "["
        sep = "[\n" + inner
        for lo in range(0, len(obj), _ROWS_PER_BLOCK):
            yield sep + _encode(obj[lo:lo + _ROWS_PER_BLOCK])[1:-1].replace("], [", rows)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"


def _line(items):
    """A list of scalars or a 1-D integer array on one line, as ``json.dumps``
    writes its list, a block of items at a time."""
    sep = "["
    for lo in range(0, len(items), _ITEMS_PER_BLOCK):
        block = items[lo:lo + _ITEMS_PER_BLOCK]
        yield sep + _encode(block.tolist() if type(block) is np.ndarray else block)[1:-1]
        sep = ", "
    yield "]" if len(items) else "[]"


def _int_table(table, lo: int, hi: int, indent: str):
    """The bytes of a 2-D integer array with values in lo..hi, as its rows of
    Python ints would be written, one row per line.

    Each value v is a token: ``v, `` inside a row, and ``v],`` plus the
    newline, indent and ``[`` of the next row at a row's end. Tokens of each
    kind are NUL-padded to one width, a multiple of 8 bytes, and read as
    uint64 words, so a block of rows is one gather of tokens into a reused
    buffer whose bytes lose their NULs in one ``bytes.translate``. The last
    row's end drops the separator."""
    inner = (indent + _INDENT).encode()
    sep = b",\n" + inner + b"["
    values = range(lo, hi + 1)
    items = _tokens([b"%d, " % v for v in values])
    ends = _tokens([b"%d]%s" % (v, sep) for v in values])
    # a row is the item tokens of its values but the last, then that one's end
    cols = table.shape[1] - 1
    split = cols * items.shape[1]
    buf = np.empty((min(table.shape[0], _INT_ROWS_PER_BLOCK), split + ends.shape[1]),
                   dtype=np.uint64)
    row_items = buf[:, :split].reshape(buf.shape[0], cols, items.shape[1])
    # offsets from lo, in a type wide enough for every value of the array
    wide = np.uint64 if table.dtype.kind == "u" else np.int64
    yield b"[\n" + inner + b"["
    for start in range(0, table.shape[0], _INT_ROWS_PER_BLOCK):
        block = table[start:start + _INT_ROWS_PER_BLOCK].astype(wide) - wide(lo)
        n = block.shape[0]
        np.take(items, block[:, :-1], axis=0, out=row_items[:n], mode="clip")
        np.take(ends, block[:, -1], axis=0, out=buf[:n, split:], mode="clip")
        text = buf[:n].tobytes().translate(None, b"\0")
        yield text if start + n < table.shape[0] else text[:-len(sep)]
    yield "\n" + indent + "]"


def _tokens(tokens: list) -> np.ndarray:
    """The byte strings, NUL-padded to their longest length rounded up to 8
    bytes, as an (n, width / 8) uint64 array."""
    width = -(-max(map(len, tokens)) // 8) * 8
    return np.array(tokens, dtype=f"S{width}").view(np.uint64).reshape(len(tokens), -1)
