"""The one file contract of the binary artifacts: checkpoints, cluster models, trainer states.

A file is one JSON object on the first line (UTF-8, sorted keys, ended by a
newline), whose ``format`` and ``version`` name the layout, then float64 blocks
in little-endian order (``<f8``), back to back, with nothing after them. The
blocks carry no lengths: a reader passes the lengths it expects, derived from
what it already knows (encoder dimensions, cluster count times width, its own
parameter count). `read` accepts only a JSON-object header with the expected
format and version and every required field, and a payload exactly as long as
the expected blocks; anything else raises `BlobFileError` naming the path,
which the CLI reports as a data error (exit 3). Writers go through
`atomic_open`, so a reader never sees a half-written file.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import BlobFileError, ConfigError


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "wb"):
    """Open a temporary sibling of ``path``; rename it over ``path`` on success."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
        yield fh
    tmp.replace(path)


def write(path: str | Path, fmt: str, version: int, fields: dict, blocks: Iterable) -> None:
    """Write the header line, then each block in turn, without joining them."""
    with atomic_open(path) as fh:
        header = {"format": fmt, "version": version, **fields}
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def check_fields(header: dict, fields: dict) -> None:
    """ValueError unless each named field is present with its type (or tuple of types)."""
    for name, kind in fields.items():
        if name not in header or not isinstance(header[name], kind):
            raise ValueError(f"header field {name!r} is missing or has the wrong type")


def read(
    path: str | Path, fmt: str, version: int, fields: dict, lengths: Callable[[dict], list[int]]
) -> tuple[dict, list[np.ndarray]]:
    """Checked read; returns (header, float64 blocks). ``lengths(header)`` gives the
    block lengths, raising ValueError or (passed through) ConfigError on a mismatch."""
    with Path(path).open("rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise ValueError("the first line is not a JSON object")
        if header.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        if header.get("version") != version:
            raise ValueError(f"unsupported {fmt} version {header.get('version')!r}")
        check_fields(header, fields)
        sizes = lengths(header)
        if len(payload) != 8 * sum(sizes):
            raise ValueError(f"payload is {len(payload)} bytes, not {8 * sum(sizes)}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise BlobFileError(f"{path}: {exc}") from None
    offsets = np.cumsum([0] + sizes) * 8
    return header, [
        np.frombuffer(payload, "<f8", n, int(start)).astype(np.float64)
        for n, start in zip(sizes, offsets)
    ]
