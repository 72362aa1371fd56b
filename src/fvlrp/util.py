"""Small shared helpers: ordered mapping, stable hashing and the binary
container behind the DESC1, FVEC1 and HMAP1 formats."""

from __future__ import annotations

import hashlib
import json

from .errors import IoError, ParseError


def parallel_map(fn, items) -> list:
    """Apply `fn` to every item, returning results in input order.

    A plain serial map; it keeps its name because `perfbench` traces the
    pipeline's maps through it as a layer.
    """
    return [fn(item) for item in items]


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
                    body: bytes) -> None:
    """Write `magic`, each header field as a little-endian uint32, then `body`."""
    try:
        with open(path, "wb") as fh:
            fh.write(magic)
            fh.write(b"".join(int(v).to_bytes(4, "little") for v in header))
            fh.write(body)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_container(path, magic: bytes, n_fields: int, body_size
                   ) -> tuple[tuple[int, ...], memoryview]:
    """The header fields and body of a file written by `write_container`.

    `body_size` maps the header fields to the body's length in bytes; a
    file whose magic, header or body length disagrees is a `ParseError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    start = len(magic) + 4 * n_fields
    if data[:len(magic)] != magic:
        raise ParseError(f"{path}: bad magic {data[:len(magic)]!r}")
    if len(data) < start:
        raise ParseError(f"{path}: truncated header")
    header = tuple(int.from_bytes(data[i:i + 4], "little")
                   for i in range(len(magic), start, 4))
    expect = body_size(*header)
    if len(data) - start != expect:
        raise ParseError(f"{path}: body has {len(data) - start} bytes, "
                         f"expected {expect}")
    return header, memoryview(data)[start:]
