"""Workspace file plumbing: atomic writes, hashing, JSONL, manifest, lock.

Every artifact write goes through atomic_write_* (temp file in the same
directory, fsync, os.replace) so an interrupted stage never leaves a
truncated file behind. The manifest records, per completed stage, the
hashes of its config slice and of its input and output files; a stage
whose recorded hashes all still match is skipped on re-run. A pipeline
run's manifest memoizes each file's SHA-256 for that run, so a file read
by several stages is hashed once; outputs are hashed again as written.

Binary containers (matrices here, the adapter, cache records) end in
checksum(payload): the 8-byte BLAKE2b digest of every byte before it,
appended and compared as raw bytes. Manifest entries carry
ARTIFACT_FORMAT, so artifacts of an older layout are rebuilt.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import itertools
import json
import operator
import os
import struct
import tempfile
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, get_args, get_origin

import numpy as np

# 1: CRC-64/XZ trailers; 2: BLAKE2b-64 trailers
ARTIFACT_FORMAT = 2
CHECKSUM_SIZE = 8


class ArtifactError(ValueError):
    """An artifact is truncated, corrupt, or in another layout."""

    def __init__(self, path: str | Path, problem: str) -> None:
        super().__init__(f"{path}: {problem}")
        self.path = Path(path)


class JsonLinesError(ArtifactError):
    """A line of a JSON Lines file is not one JSON object."""

    def __init__(self, path: str | Path, line_no: int, problem: str) -> None:
        super().__init__(f"{path}:{line_no}", problem)
        self.path = Path(path)


def checksum(data: bytes | memoryview) -> bytes:
    """The 8-byte trailer of a binary container holding data."""
    return hashlib.blake2b(data, digest_size=CHECKSUM_SIZE).digest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_json(obj: Any) -> str:
    """Hash of a canonical JSON rendering (sorted keys, no whitespace)."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write data to path via a same-directory temp file and os.replace."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=f".{p.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _jsonl(records: Iterable[dict]) -> str:
    opts: dict = {"sort_keys": True, "separators": (", ", ": "), "ensure_ascii": False}
    return "".join(json.dumps(rec, **opts) + "\n" for rec in records)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Atomically write records as JSON Lines, keys sorted."""
    atomic_write_text(path, _jsonl(records))


def _text(path: str | Path, data: bytes) -> str:
    """data decoded as UTF-8; a bad byte names its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise JsonLinesError(path, line_no, f"invalid UTF-8: {exc.reason}") from exc


def _parse_jsonl(path: str | Path, lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JsonLinesError(path, line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise JsonLinesError(path, line_no, "expected a JSON object")
        yield line_no, obj


def read_numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) of each non-blank line of a JSON Lines file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from _parse_jsonl(path, fh)
    except UnicodeDecodeError:
        _text(path, Path(path).read_bytes())  # raises, naming the bad line
        raise


def read_jsonl(path: str | Path) -> Iterator[dict]:
    return (rec for _, rec in read_numbered_jsonl(path))


@functools.cache
def _types(kind: Any) -> frozenset[type]:
    """The types a parsed JSON value of kind may have: a bool is no number,
    an int is also a float, and list[T] or tuple[T, ...] is a JSON array."""
    origin = get_origin(kind)
    if origin in (list, tuple):
        return frozenset({list})
    if origin is not None:  # a union such as int | None
        return frozenset().union(*map(_types, get_args(kind)))
    return frozenset({int, float} if kind is float else {kind})


def _all_of(kind: Any, values: list) -> bool:
    """True when every value is of kind, the items of an array included."""
    if not set(map(type, values)) <= _types(kind):
        return False
    if get_origin(kind) in (list, tuple):
        return _all_of(get_args(kind)[0], list(itertools.chain.from_iterable(values)))
    return True


def typed_records(
    path: str | Path, records: Iterable[dict], fields: Mapping[str, Any]
) -> list[dict]:
    """records, as read from the JSON Lines file at path, checked to hold
    each of fields (name -> type, as a dataclass's type hints give them)
    field by field over all records at once; a missing or ill-typed field
    raises JsonLinesError naming its line."""
    records = list(records)
    for name, kind in fields.items():
        try:
            if _all_of(kind, list(map(operator.itemgetter(name), records))):
                continue
        except KeyError:
            pass
        bad = next(
            i for i, rec in enumerate(records) if name not in rec or not _all_of(kind, [rec[name]])
        )
        shown = kind.__name__ if get_origin(kind) is None else str(kind)
        problem = f"expected {shown}" if name in records[bad] else "missing"
        line_no = next(n for i, (n, _) in enumerate(read_numbered_jsonl(path)) if i == bad)
        raise JsonLinesError(path, line_no, f"field {name!r}: {problem}")
    return records


def read_log(p: Path) -> list[dict]:
    """Records of an append-only JSON Lines log; a missing log has none.

    A kill during an append can leave the last line unterminated. That
    line is kept and terminated if it parses, and dropped otherwise; the
    file is repaired either way, so the next append starts a line of its
    own. A bad line anywhere else still raises JsonLinesError.
    """
    if not p.exists():
        return []
    data = p.read_bytes()
    end = data.rfind(b"\n") + 1
    records = [rec for _, rec in _parse_jsonl(p, _text(p, data[:end]).split("\n"))]
    if end < len(data):
        try:
            records.extend(rec for _, rec in _parse_jsonl(p, [_text(p, data[end:])]))
            tail = data[end:] + b"\n"
        except JsonLinesError:
            tail = b""
        with p.open("r+b") as fh:
            fh.seek(end)
            fh.write(tail)
            fh.truncate()
    return records


def append_jsonl(path: str | Path, records: Iterable[dict], sync: bool = False) -> None:
    """Append records to a log in one write, optionally fsynced."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_jsonl(records))
        if sync:
            fh.flush()
            os.fsync(fh.fileno())


class Manifest:
    """Append-only record of completed stages keyed by content hashes.

    One JSON object per line: {"stage", "artifact_format", "config_hash",
    "input_hashes", "output_hashes", "wall_time_s"}; hash maps go path ->
    sha256, with paths stored relative to the workspace when inside it
    and absolute otherwise (external corpus or gold files). The last
    entry for a stage wins. A stage is a cache hit when its entry has the
    current ARTIFACT_FORMAT, its config hash matches, and every recorded
    input and output file still hashes the same.

    Each file is hashed at most once for the manifest's lifetime, except
    that record hashes again the outputs its stage has just written. That
    is sound only while no file changes other than through recorded
    outputs, so a pipeline run builds its own manifest under the
    workspace lock and drops it when the run ends.
    """

    def __init__(self, workspace: str | Path) -> None:
        self.workspace = Path(workspace)
        self.path = self.workspace / "manifest.jsonl"
        self._digests: dict[str, str] = {}
        self._entries: dict[str, dict] = {}
        for obj in read_log(self.path):
            stage = obj.get("stage")
            if isinstance(stage, str):
                self._entries[stage] = obj

    def key(self, p: str | Path) -> str:
        """Workspace-relative path inside the workspace, absolute outside."""
        p = Path(p)
        try:
            return str(p.resolve().relative_to(self.workspace.resolve()))
        except ValueError:
            return str(p.resolve())

    def record(
        self,
        stage: str,
        config_hash: str,
        input_paths: Iterable[str | Path],
        output_paths: Iterable[str | Path],
        wall_time_s: float,
    ) -> None:
        entry = {
            "stage": stage,
            "artifact_format": ARTIFACT_FORMAT,
            "config_hash": config_hash,
            "input_hashes": {k: self._digest(k) for k in map(self.key, input_paths)},
            "output_hashes": {k: self._digest(k, rehash=True) for k in map(self.key, output_paths)},
            "wall_time_s": round(wall_time_s, 3),
        }
        self._entries[stage] = entry
        append_jsonl(self.path, [entry], sync=True)

    def _entry(self, stage: str, config_hash: str) -> dict:
        """The stage's last entry if made in this format under config_hash, else {}."""
        entry = self._entries.get(stage, {})
        current = (entry.get("artifact_format"), entry.get("config_hash"))
        return entry if current == (ARTIFACT_FORMAT, config_hash) else {}

    def is_fresh(self, stage: str, config_hash: str) -> bool:
        """True when the stage's recorded hashes all match the files on disk."""
        entry = self._entry(stage, config_hash)
        sections = (entry.get("input_hashes"), entry.get("output_hashes"))
        return all(isinstance(s, dict) for s in sections) and all(
            self._now(key) == digest for s in sections for key, digest in s.items()
        )

    def is_outdated(self, stage: str, config_hash: str) -> bool:
        """True when the stage's outputs were made under other settings or
        from an input since rewritten: one that now hashes as the stage
        that writes it recorded it, or that changed if no stage writes it.
        A damaged or missing input is left to the stage that reads it."""
        hashes = self._entry(stage, config_hash).get("input_hashes")
        return not isinstance(hashes, dict) or any(
            self._now(key) not in (None, digest) and self._written(key) in (None, self._now(key))
            for key, digest in hashes.items()
        )

    def _written(self, key: str) -> str | None:
        """key's digest as recorded by the stage that writes it."""
        outputs = (entry.get("output_hashes") for entry in self._entries.values())
        return next((out[key] for out in outputs if isinstance(out, dict) and key in out), None)

    def _now(self, key: str) -> str | None:
        """The file's digest, or None when it is missing."""
        try:
            return self._digest(key)
        except FileNotFoundError:
            return None

    def _digest(self, key: str, rehash: bool = False) -> str:
        """SHA-256 of the file under key, from the memo unless rehash."""
        if not rehash and key in self._digests:
            return self._digests[key]
        digest = sha256_file(self.workspace / key)  # an absolute key stays absolute
        self._digests[key] = digest
        return digest


def write_matrix_bin(path: str | Path, matrix: np.ndarray) -> None:
    """u32 row count, u32 dim, row-major little-endian f64, checksum trailer."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    blob = struct.pack("<II", m.shape[0], m.shape[1]) + m.tobytes()
    atomic_write_bytes(path, blob + checksum(blob))


def read_matrix_bin(path: str | Path, error: type[ArtifactError] = ArtifactError) -> np.ndarray:
    """Inverse of write_matrix_bin; a damaged file raises error."""
    blob = Path(path).read_bytes()
    if len(blob) < 8 + CHECKSUM_SIZE:
        raise error(path, "truncated matrix file")
    payload = memoryview(blob)[:-CHECKSUM_SIZE]
    if checksum(payload) != blob[-CHECKSUM_SIZE:]:
        raise error(path, "checksum mismatch (truncated or corrupt)")
    count, dim = struct.unpack_from("<II", payload)
    if len(payload) != 8 + 8 * count * dim:
        raise error(path, "payload size does not match header")
    return np.frombuffer(payload, dtype="<f8", offset=8).reshape(count, dim).copy()


class WorkspaceLock:
    """Exclusive flock on the workspace's .lock file. The kernel drops it
    when the holder exits, so a killed run leaves no stale lock."""

    def __init__(self, workspace: str | Path) -> None:
        self.lock_path = Path(workspace) / ".lock"
        self._fh: IO[str] | None = None

    def __enter__(self) -> "WorkspaceLock":
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        fh = self.lock_path.open("a")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise RuntimeError(f"workspace is locked by another run ({self.lock_path})") from None
        self._fh = fh
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
