"""The one file contract of the binary artifacts: checkpoints, cluster models, trainer states.

A file is one JSON object on the first line (UTF-8, sorted keys, ended by a
newline), whose ``format`` and ``version`` name the layout, then float64 blocks
in little-endian order (``<f8``), back to back, with nothing after them. A
header does not grow with the data: it holds scalars, and a trainer state's
names and lengths of its blocks. Its line, newline included, is at most
`_HEADER_LIMIT` bytes: `write` refuses a longer one, and `read` reads no more
of the first line than that. The blocks carry no lengths: a reader passes the
lengths it expects, derived from what it already knows (encoder dimensions,
cluster count times width, its own parameter count). `read` accepts only a
JSON-object header with the expected format and version and every required
field, and a payload exactly as long as the expected blocks, holding only
finite values; anything else raises `BlobFileError` naming the path, which the
CLI reports as a data error (exit 3). The payload's size is checked before it
is read, and it is read into one array whose blocks are views. Writers go
through `atomic_open`, so a reader never sees a half-written file;
`write_table` (and `write_records`, for dataclass rows) writes the
tab-separated text artifacts the same way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BlobFileError, ConfigError

# The most bytes a header line, newline included, may take.
_HEADER_LIMIT = 4096


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "wb"):
    """Open a temporary sibling of ``path``; rename it over ``path`` on success,
    delete it if the body raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def write(path: str | Path, fmt: str, version: int, fields: dict, blocks: Iterable) -> None:
    """Write the header line, then each block in turn, without joining them."""
    line = json.dumps({"format": fmt, "version": version, **fields}, sort_keys=True)
    line = line.encode("utf-8") + b"\n"
    if len(line) > _HEADER_LIMIT:
        raise ValueError(f"a {fmt} header of {len(line)} bytes is over {_HEADER_LIMIT}")
    with atomic_open(path) as fh:
        fh.write(line)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a tab-separated table: the column names, then one line per row. A float
    is written as its repr, which reads back to the same float; any other value as
    its str."""
    with atomic_open(path, "w") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_records(path: str | Path, cls: type, records: Iterable) -> None:
    """`write_table` of dataclass records: ``cls``'s field names, then each record's
    fields in that order, read straight off the record without copying it."""
    names = [f.name for f in dataclasses.fields(cls)]
    write_table(path, names, ([getattr(r, name) for name in names] for r in records))


def _is(value, kind) -> bool:
    """isinstance, except that a bool is an int only where ``kind`` names bool."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def check_fields(header: dict, fields: dict) -> None:
    """ValueError unless each named field is present with its type (or tuple of types)."""
    for name, kind in fields.items():
        if name not in header or not _is(header[name], kind):
            raise ValueError(f"header field {name!r} is missing or has the wrong type")


def read(
    path: str | Path, fmt: str, version: int, fields: dict, lengths: Callable[[dict], list[int]]
) -> tuple[dict, list[np.ndarray]]:
    """Checked read; returns (header, float64 blocks). ``lengths(header)`` gives the
    block lengths, raising ValueError or (passed through) ConfigError on a mismatch."""
    with Path(path).open("rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        try:
            try:
                header = json.loads(line) if line.endswith(b"\n") else None
            except ValueError:
                header = None
            if not isinstance(header, dict):
                raise ValueError(
                    f"the first line is not a JSON object of at most {_HEADER_LIMIT} bytes")
            if header.get("format") != fmt:
                raise ValueError(f"not a {fmt} file")
            if not _is(header.get("version"), int) or header["version"] != version:
                raise ValueError(f"unsupported {fmt} version {header.get('version')!r}")
            check_fields(header, fields)
            sizes = lengths(header)
            # Sized from the file before allocating, so a header cannot force a large array.
            n_bytes = os.fstat(fh.fileno()).st_size - len(line)
            if n_bytes != 8 * sum(sizes):
                raise ValueError(f"payload is {n_bytes} bytes, not {8 * sum(sizes)}")
            values = np.empty(sum(sizes), dtype="<f8")
            if fh.readinto(values) != values.nbytes:
                raise ValueError("payload ended early")
        except ConfigError:
            raise
        except ValueError as exc:
            raise BlobFileError(f"{path}: {exc}") from None
    ends = np.cumsum([0] + sizes)
    blocks = [values[start:end] for start, end in zip(ends[:-1], ends[1:])]
    for i, block in enumerate(blocks):
        if not np.isfinite(block).all():
            raise BlobFileError(f"{path}: block {i} holds a NaN or infinite value")
    return header, blocks
