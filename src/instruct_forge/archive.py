"""Binary tensor archive, the checkpoint route through it, and ``write_atomic``, the one file writer.

Layout: 8-byte magic, little-endian uint64 manifest length, JSON manifest,
then raw little-endian float payloads back to back. The manifest records
(name, shape, element size, byte offset) per entry plus free-form metadata.

A checkpoint's meta holds its ``kind`` and ``config``, and its arrays carry the
names of the ``Tensor``s they fill: ``read_checkpoint`` checks the kind and
rebuilds the config, and ``fill`` checks every name and shape before it sets
any tensor. Every failure is an ``ArchiveError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import suppress
from pathlib import Path

import numpy as np

MAGIC = b"IFTA0001"
ELEM_SIZES = {"<f4": 4, "<f8": 8}


class ArchiveError(ValueError):
    """Corrupt, truncated, or inconsistent archive file."""


def write_atomic(files: dict) -> None:
    """Write each ``{path: bytes-like chunks}`` entry to a temporary file beside ``path`` and fsync it;
    only once every file is written, give each file it replaces a second name (a hard link), rename each
    over its path and fsync each directory once. Any failure or interrupt before that last fsync returns
    leaves every previous file whole, putting back the files already renamed, and its error names the
    caller's path. The second names are removed after, as far as that succeeds."""
    pending, old, renamed = {}, {}, []   # caller's path: its temporary file; a second name for the file it replaces
    try:
        for path, chunks in files.items():
            pending[path] = tmp = Path(f"{os.fspath(path)}.{os.getpid()}.tmp")
            with open(tmp, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                fh.flush()
                os.fsync(fh.fileno())
        for path, tmp in pending.items():
            if os.path.islink(path) or os.path.isfile(path):
                old[path] = Path(f"{tmp}.old")
                os.link(path, old[path], follow_symlinks=False)
        for path, tmp in pending.items():
            os.replace(tmp, path)
            renamed.append(path)
        if hasattr(os, "O_DIRECTORY"):  # so that the new names themselves survive a power loss
            for directory, path in {tmp.parent: path for path, tmp in pending.items()}.items():
                fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
    except BaseException as exc:
        for done in renamed:   # back to the file it replaced, or to no file
            if done in old:
                os.replace(old.pop(done), done)
            else:
                os.unlink(done)
        for tmp in [*pending.values(), *old.values()]:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:  # name the caller's path, not the temporary one
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
    for link in old.values():   # the write has committed: a second name left behind fails nothing
        with suppress(OSError):
            link.unlink()


def archive_chunks(arrays: dict, meta: dict | None = None) -> list:
    """The bytes of an archive of ``arrays`` and ``meta``, as chunks for ``write_atomic``."""
    entries, payloads, offset = [], [], 0
    for name, arr in arrays.items():
        dtype = "<f8" if np.asarray(arr).dtype == np.float64 else "<f4"
        arr = np.ascontiguousarray(arr, dtype=dtype)   # copies only to convert or to make contiguous
        entries.append({"name": name, "shape": list(arr.shape), "elem_size": arr.dtype.itemsize, "dtype": dtype,
                        "offset": offset})
        payloads.append(arr)
        offset += arr.nbytes
    manifest = json.dumps({"meta": meta or {}, "entries": entries, "payload_size": offset}).encode("utf-8")
    return [MAGIC, struct.pack("<Q", len(manifest)), manifest, *payloads]


def save_archive(path, arrays: dict, meta: dict | None = None) -> None:
    """Write ``arrays`` and ``meta`` to ``path`` through ``write_atomic``."""
    write_atomic({path: archive_chunks(arrays, meta)})


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_manifest(manifest) -> str | None:
    """Why ``manifest`` is malformed, or None when every field has its type."""
    if not isinstance(manifest, dict) or not isinstance(manifest.get("meta"), dict):
        return "manifest is not an object with a meta object"
    if not _is_count(manifest.get("payload_size")) or not isinstance(manifest.get("entries"), list):
        return "manifest lacks payload_size or entries"
    for entry in manifest["entries"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            return "entry is not an object with a name"
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(map(_is_count, shape)):
            return f"entry {entry['name']!r} has a bad shape"
        if entry.get("dtype") not in ELEM_SIZES or entry.get("elem_size") != ELEM_SIZES[entry["dtype"]]:
            return f"entry {entry['name']!r} has a bad dtype or elem_size"
        if not _is_count(entry.get("offset")):
            return f"entry {entry['name']!r} has a bad offset"
    return None


def load_archive(path) -> tuple[dict, dict]:
    """Return ({name: array}, meta). Raises ArchiveError on any damage."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise ArchiveError(f"{path}: not a tensor archive")
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
    header_end = len(MAGIC) + 8 + mlen
    if len(blob) < header_end:
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: unreadable manifest: {exc}") from exc
    problem = _check_manifest(manifest)
    if problem:
        raise ArchiveError(f"{path}: malformed manifest: {problem}")
    expected = header_end + manifest["payload_size"]
    if len(blob) != expected:
        raise ArchiveError(f"{path}: payload size mismatch (expected {expected} bytes, file has {len(blob)})")
    arrays = {}
    for entry in manifest["entries"]:
        shape = tuple(entry["shape"])
        start = header_end + entry["offset"]
        count = math.prod(shape)
        if start + count * entry["elem_size"] > len(blob):
            raise ArchiveError(f"{path}: entry {entry['name']!r} runs past end of file")
        try:
            arrays[entry["name"]] = np.frombuffer(blob, entry["dtype"], count, start).reshape(shape).copy()
        except ValueError as exc:  # e.g. a zero-size shape with a dimension numpy cannot index
            raise ArchiveError(f"{path}: entry {entry['name']!r}: {exc}") from exc
    return arrays, manifest["meta"]


def read_checkpoint(path, kind: str, what: str, make_config) -> tuple[dict, dict, object]:
    """(arrays, meta, config) of a ``kind`` checkpoint, its config rebuilt as
    ``make_config(**meta["config"])``; errors call the file ``what`` ("model", ...)."""
    arrays, meta = load_archive(path)
    if meta.get("kind") != kind:
        raise ArchiveError(f"{path}: not {'an' if what[0] in 'aeiou' else 'a'} {what} checkpoint")
    try:
        return arrays, meta, make_config(**meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}: bad {what} config: {exc}") from exc


def fill(path, tensors, arrays: dict, what: str) -> None:
    """Set each of ``tensors`` to the array of its name, as float32. The names must
    be exactly the arrays' and every shape must agree, or nothing changes."""
    names = {t.name for t in tensors}
    if names != arrays.keys():
        raise ArchiveError(f"{path}: {what} names do not match "
                           f"(missing {sorted(names - arrays.keys())}, extra {sorted(arrays.keys() - names)})")
    for t in tensors:
        if arrays[t.name].shape != t.shape:
            raise ArchiveError(f"{path}: shape mismatch for {t.name}")
    for t in tensors:
        t.data = arrays[t.name].astype(np.float32, copy=False)
