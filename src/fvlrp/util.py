"""Small shared helpers: ordered mapping, the l2 row norm, stable hashing,
the package's only file reads and writes, and the binary container behind
the CELL1, FVEC2 and HMAP1 formats."""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import IoError, ParseError


def parallel_map(fn, items) -> list:
    """Apply `fn` to every item, returning results in input order.

    A plain serial map; it keeps its name because `perfbench` traces the
    pipeline's maps through it as a layer.
    """
    return [fn(item) for item in items]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The l2 norm along the last axis: one value per row of a stack, a
    0-d array for one vector. Each (1, F) x (F, 1) product of the batched
    matmul is the dot product np.dot takes, so every norm equals
    ``np.sqrt(np.dot(r, r))`` bit for bit, whatever the stack's shape."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row (along the last axis) by its l2 norm, in place;
    rows of zero norm are left as they are. Returns `rows`."""
    norm = row_norms(rows)[..., None]
    norm[norm == 0.0] = 1.0  # a masked divide (where=) is slower
    rows /= norm
    return rows


def canonical_json(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def read_file(path) -> bytes:
    """The file's bytes. With `write_file`, the only code that opens a
    file: an `OSError` is an `IoError` naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_file(path, chunks: Iterable[bytes]) -> str:
    """Write the chunks one after another, as `chunks` yields them, and
    return the sha256 hex digest of what was written."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def load_file(path, decode, *args):
    """`decode(data, *args)` of the file's bytes; a `ParseError` it raises
    names the file."""
    try:
        return decode(read_file(path), *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def container_chunks(magic: bytes, header: tuple[int, ...],
                     body: Iterable[bytes]) -> Iterator[bytes]:
    """`magic` and each header field as a little-endian uint32, then the
    body, one chunk after another as `body` yields them."""
    yield magic + b"".join(int(v).to_bytes(4, "little") for v in header)
    yield from body


def parse_container(data: bytes, magic: bytes, n_fields: int, body_size
                    ) -> tuple[tuple[int, ...], memoryview]:
    """The header fields and the body (a view, not a copy) of bytes that
    `container_chunks` yielded.

    `body_size` maps the header fields to the body's length in bytes (or
    raises `ParseError` for fields it refuses); bytes whose magic, header
    or body length disagrees are a `ParseError`.
    """
    start = len(magic) + 4 * n_fields
    if data[:len(magic)] != magic:
        raise ParseError(f"bad magic {data[:len(magic)]!r}")
    if len(data) < start:
        raise ParseError("truncated header")
    header = tuple(int.from_bytes(data[i:i + 4], "little")
                   for i in range(len(magic), start, 4))
    expect = body_size(*header)
    if len(data) - start != expect:
        raise ParseError(f"body has {len(data) - start} bytes, expected {expect}")
    return header, memoryview(data)[start:]
