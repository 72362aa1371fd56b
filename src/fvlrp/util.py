"""Small shared helpers: ordered mapping, the l2 row norm, stable hashing
and the binary container behind the CELL1, FVEC2 and HMAP1 formats."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections.abc import Iterable

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


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_container(path, magic: bytes, header: tuple[int, ...],
                    chunks: Iterable[bytes]) -> None:
    """Write `magic`, each header field as a little-endian uint32, then the
    body, one chunk after another as `chunks` yields them."""
    try:
        with open(path, "wb") as fh:
            fh.write(magic)
            fh.write(b"".join(int(v).to_bytes(4, "little") for v in header))
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def open_container(path, magic: bytes, n_fields: int, body_size):
    """A file written by `write_container`, open at its body, and its
    header fields.

    `body_size` maps the header fields to the body's length in bytes (or
    raises `ParseError` for fields it refuses); a file whose magic, header
    or body length disagrees is a `ParseError`, checked before any of the
    body is read.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    with fh:
        start = len(magic) + 4 * n_fields
        head = fh.read(start)
        if head[:len(magic)] != magic:
            raise ParseError(f"{path}: bad magic {head[:len(magic)]!r}")
        if len(head) < start:
            raise ParseError(f"{path}: truncated header")
        header = tuple(int.from_bytes(head[i:i + 4], "little")
                       for i in range(len(magic), start, 4))
        expect = body_size(*header)
        size = os.fstat(fh.fileno()).st_size - start
        if size != expect:
            raise ParseError(f"{path}: body has {size} bytes, expected {expect}")
        yield fh, header


def read_container(path, magic: bytes, n_fields: int, body_size
                   ) -> tuple[tuple[int, ...], bytes]:
    """The header fields and the whole body of a file written by
    `write_container`, checked as `open_container` checks it."""
    with open_container(path, magic, n_fields, body_size) as (fh, header):
        return header, fh.read()
