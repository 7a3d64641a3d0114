"""Workspace file plumbing: atomic writes, hashing, JSONL, manifest, lock.

Every artifact write goes through atomic_write_* (temp file in the same
directory, fsync, os.replace) so an interrupted stage never leaves a
truncated file behind. The manifest records, per completed stage, the
hashes of its config slice and of its input and output files; a stage
whose recorded hashes all still match is skipped on re-run. A pipeline
run's manifest memoizes each file's SHA-256 for that run, so a file read
by several stages is hashed once; outputs are hashed again as written.
The digest of a file that last changed before the run began is kept
with its stat stamp on the stamp line of the manifest, and a later run
reuses it unhashed while the stamp still matches (see Manifest). The
manifest is written like every artifact: each write replaces it whole,
as its live lines.

Every JSON Lines input, workspace artifact or source file, is read by
read_records: read_jsonl decodes each line, which must hold one JSON
object, each declared field is type-checked over all records, and each
record is parsed into its object. Any bad line, record or value raises
JsonLinesError naming the file and line. The manifest, and the index
of a format-2 embedding cache as its migration reads it through
read_records, is read by read_log, which drops the torn last line an
append of older code may have left and writes nothing.

Binary containers (matrices here, the adapter, cache records) end in
checksum(payload): the 8-byte BLAKE2b digest of every byte before it,
appended and compared as raw bytes. Manifest entries carry
ARTIFACT_FORMAT, so artifacts of an older layout are rebuilt. A matrix
or the adapter is written from its own buffers: the header, the array
and the trailer, hashed over the two in turn, are three parts of one
atomic write, with no bytes copy of the array. read_checked reads the
payload straight into the one array it returns and hashes it there; a
header whose size disagrees with the file's is hashed through a small
buffer, so it allocates nothing by the size it claims.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Mapping, TypeVar, get_args, get_origin

import numpy as np

# 1: CRC-64/XZ trailers; 2: BLAKE2b-64 trailers
ARTIFACT_FORMAT = 2
CHECKSUM_SIZE = 8

T = TypeVar("T")  # what read_records makes of each record


class ArtifactError(ValueError):
    """An artifact is truncated, corrupt, or in another layout."""

    def __init__(self, path: str | Path, problem: str) -> None:
        # a problem that names its place in the file, as a line's does, is whole
        super().__init__(problem if problem.startswith(f"{path}:") else f"{path}: {problem}")
        self.path = Path(path)


class JsonLinesError(ArtifactError):
    """A line of a JSON Lines file is not one JSON object."""

    def __init__(self, path: str | Path, line_no: int, problem: str) -> None:
        super().__init__(path, f"{path}:{line_no}: {problem}")


def checksum(*parts: bytes | memoryview | np.ndarray) -> bytes:
    """The 8-byte trailer of a binary container holding parts, in order."""
    h = hashlib.blake2b(digest_size=CHECKSUM_SIZE)
    for part in parts:
        h.update(part)
    return h.digest()


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


def atomic_write_bytes(path: str | Path, *parts: bytes | memoryview | np.ndarray) -> None:
    """Write parts to path, in order, via a same-directory temp file and
    os.replace. A part may be any C-contiguous buffer, an array included,
    and is written from its own memory."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=f".{p.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = str(p)  # a failed write or fsync names no file
        raise


def sweep_temp_files(directory: str | Path) -> None:
    """Delete the .<name>.*.tmp files atomic_write_bytes leaves behind when
    its process is killed between the write and the rename. Call it only
    while holding the lock that every writer into directory holds."""
    try:
        entries = os.scandir(directory)
    except FileNotFoundError:
        return
    with entries:
        for entry in entries:
            if entry.name.startswith(".") and entry.name.endswith(".tmp"):
                os.unlink(entry.path)


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


# the \\u escape of a surrogate code point, \\ud800 to \\udfff, which may be
# unpaired; other escapes give Unicode text
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# JSON's whitespace, which may stand before and after a line's value
_space = re.compile(r"[ \t\n\r]*").match
_decode = json.JSONDecoder().raw_decode


def _parse_lines(path: str | Path, lines: Iterable[str]) -> list[dict]:
    """The one JSON object of each non-blank line, as json.loads of the line
    gives it, from one decode of the line (two when JSON whitespace starts
    it); a bad line raises JsonLinesError naming it."""
    records = []
    for line_no, line in enumerate(lines, start=1):
        try:
            try:
                obj, end = _decode(line)
            except json.JSONDecodeError:
                if not line.strip():
                    continue
                obj, end = _decode(line, _space(line).end())
            if end != len(line) and (end := _space(line, end).end()) != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            raise JsonLinesError(path, line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise JsonLinesError(path, line_no, "expected a JSON object")
        # one character is found by memchr, faster than "\\u" on long lines
        if "\\" in line and _SURROGATE_ESCAPE.search(line):
            try:  # a lone surrogate is no Unicode text, and no UTF-8 file holds one
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                problem = f"lone surrogate {exc.object[exc.start]!a} is not Unicode text"
                raise JsonLinesError(path, line_no, problem) from None
        records.append(obj)
    return records


def read_jsonl(path: str | Path) -> list[dict]:
    """The records of a JSON Lines file, one object per non-blank line.

    Each line is decoded once and must hold exactly one JSON object (see
    _parse_lines): a byte that is not UTF-8, a cut line, a record split
    over two lines, a line of two values or an array, and a lone surrogate
    escape each raise JsonLinesError naming their line. Lines may end in
    \\n, \\r\\n or \\r, as in a file read in text mode.
    """
    return _parse_lines(path, _lines(_text(path, Path(path).read_bytes())))


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


def read_records(
    path: str | Path, fields: Mapping[str, Any], parse: Callable[[dict], T],
    read: Callable | None = None,
) -> list[T]:
    """parse of each record of the JSON Lines file at path, as read(path)
    gives them (read_jsonl by default).

    Each record is first checked to hold each of fields (name -> type, as
    a dataclass's type hints give them), field by field over all records
    at once. A missing or ill-typed field, or a ValueError from parse (a
    record holding an invalid value), raises JsonLinesError naming its line.
    """
    # walked once per field; read_jsonl, looked up now, may be perfbench's traced iterator
    records = list((read or read_jsonl)(path))
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
        raise JsonLinesError(path, _line_no(path, bad), f"field {name!r}: {problem}")
    out = []
    for i, rec in enumerate(records):
        try:
            out.append(parse(rec))
        except ValueError as exc:
            raise JsonLinesError(path, _line_no(path, i), str(exc)) from exc
    return out


def _lines(text: str) -> list[str]:
    """text's lines, split at the line ends a text-mode read knows."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _line_no(path: str | Path, index: int) -> int:
    """The line number of the index-th record of a JSON Lines file that
    read_jsonl or read_log has read: its index-th non-blank line. A torn
    last line that read_log dropped may cut a UTF-8 sequence."""
    lines = _lines(Path(path).read_bytes().decode("utf-8", "replace"))
    return [n for n, line in enumerate(lines, start=1) if line.strip()][index]


def read_log(p: Path) -> list[dict]:
    """Records of a JSON Lines log; a missing log has none.

    Older code appended to logs, and a kill during an append can leave
    the last line unterminated. That line is kept if it parses and
    dropped otherwise; the file is left as it is, and the next write of a
    log that is replaced whole leaves the torn tail out. A bad line
    anywhere else still raises JsonLinesError.
    """
    if not p.exists():
        return []
    data = p.read_bytes()
    end = data.rfind(b"\n") + 1
    records = _parse_lines(p, _lines(_text(p, data[:end])))
    if end < len(data):
        with contextlib.suppress(JsonLinesError):
            records.extend(_parse_lines(p, [_text(p, data[end:])]))
    return records


# a stat stamp's fields, in the order of its tuple
_STAMP_FIELDS = ("ino", "size", "mtime_ns", "ctime_ns")


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _stamped_digest(record: Any, reference_ns: Any) -> tuple[tuple, str] | None:
    """(stamp, digest) of a stamp record, or None when the record is
    ill-typed or its file changed at or after reference_ns."""
    try:
        stamp = tuple(record[name] for name in _STAMP_FIELDS)
        digest = record["sha256"]
    except (KeyError, TypeError):
        return None
    if not all(type(v) is int for v in (*stamp, reference_ns)) or not isinstance(digest, str):
        return None
    return (stamp, digest) if max(stamp[2], stamp[3]) < reference_ns else None


class Manifest:
    """Completed stages keyed by content hashes, kept in manifest.jsonl.

    Each write replaces the whole file atomically with its live lines:
    each stage's last entry, in the order the stages first appeared, then
    at most one stamp line. A stage entry is {"stage", "artifact_format",
    "config_hash", "input_hashes", "output_hashes", "wall_time_s"}; hash
    maps go path -> sha256, with paths stored relative to the workspace
    when inside it and absolute otherwise (external corpus or gold
    files), made lexically: no symlink is followed, so a path is keyed
    as configured. A stage is a cache hit when its entry has the current
    ARTIFACT_FORMAT, its config hash matches, and every recorded input and
    output file still hashes the same. Older code appended to the file, so
    a manifest it wrote may hold several entries per stage and several
    stamp lines: the last entry for a stage wins, later stamp lines win,
    and the next write leaves only the live lines.

    One manifest hashes each file at most once, except that record
    hashes again the outputs its stage has just written. That is sound
    only while no file changes other than through recorded outputs, so a
    pipeline run builds its own manifest under the workspace lock and
    drops it when the run ends. Every digest comes from _now; record first
    drops each output's memo and stamp, and raises FileNotFoundError for a
    file it cannot find, so no entry holds a null digest.

    Stat stamps let later runs skip most of that hashing, as git's index
    does. A digest that _now computes, for a verdict or a record, is kept
    with the file's stamp (st_ino, st_size, st_mtime_ns, st_ctime_ns),
    taken just before the file is read, and each write holds the stamps in
    force on one line, {"reference_ns", "stamps": {path: {"ino", "size",
    "mtime_ns", "ctime_ns", "sha256"}}}. A later run, in any process,
    reuses that digest without reading the file while the file's stamp
    still matches. reference_ns is the filesystem's time before the run's
    first stat (the lock's mtime just after touching it), and a stamp is
    kept and trusted only when its mtime and ctime are both below it. A
    change after the stat then leaves a later ctime, even one within the
    same timestamp tick or with the old mtime put back by os.utime, which
    sets the ctime. A file on another filesystem, whose clock may differ,
    gets no stamp; an ill-typed or racy stamp record is ignored, and the
    file hashed. The line carries the latest of the clock and the
    reference_ns of the stamps it merges: each passed the check against
    its own, so it passes against a later one. A file a stage has just
    written gets no stamp, but a source file a cold build hashes does.

    Each record writes the stamps in force, and save_stamps those taken
    after the last record, so a run killed or stopped by an error keeps
    the stamps of its finished stages, and a run that finds every stamp
    matching writes nothing. record drops the stamps of the outputs it
    rehashes, whichever run took them, so the line names only files as
    they now are.
    """

    def __init__(self, workspace: str | Path, clock: os.stat_result | None = None) -> None:
        """clock is the workspace lock's status just after touching it
        (WorkspaceLock.touch); without it stamps are trusted but not taken."""
        self.workspace = Path(os.path.abspath(workspace))
        self.path = self.workspace / "manifest.jsonl"
        self._clock = clock
        self._digests: dict[str, str] = {}
        self._entries: dict[str, dict] = {}
        # key -> (stamp, digest) as loaded or taken by _now, None when unusable
        self._stamps: dict[str, tuple[tuple, str] | None] = {}
        # the latest reference_ns of the clock and the stamp lines
        self._reference = clock.st_mtime_ns if clock is not None else 0
        self._unsaved = False  # True when a stamp was taken since the last write
        for obj in read_log(self.path):
            stage, stamps = obj.get("stage"), obj.get("stamps")
            if isinstance(stage, str):
                self._entries[stage] = obj
            elif isinstance(stamps, dict):
                reference = obj.get("reference_ns")
                self._stamps.update((k, _stamped_digest(v, reference)) for k, v in stamps.items())
                if type(reference) is int:
                    self._reference = max(self._reference, reference)

    def key(self, p: str | Path) -> str:
        """Workspace-relative path inside the workspace, absolute outside."""
        p = Path(os.path.abspath(p))
        return str(p.relative_to(self.workspace) if p.is_relative_to(self.workspace) else p)

    def record(
        self,
        stage: str,
        config_hash: str,
        input_paths: Iterable[str | Path],
        output_paths: Iterable[str | Path],
        wall_time_s: float,
    ) -> None:
        outputs = list(map(self.key, output_paths))
        for key in outputs:  # the stage has just replaced the file
            self._digests.pop(key, None)
            self._stamps.pop(key, None)
        inputs = list(map(self.key, input_paths))
        hashes = {key: self._now(key) for key in [*inputs, *outputs]}
        if missing := [key for key, digest in hashes.items() if digest is None]:
            raise FileNotFoundError(f"stage {stage!r} has no file to record at {missing}")
        self._entries[stage] = {
            "stage": stage,
            "artifact_format": ARTIFACT_FORMAT,
            "config_hash": config_hash,
            "input_hashes": {key: hashes[key] for key in inputs},
            "output_hashes": {key: hashes[key] for key in outputs},
            "wall_time_s": round(wall_time_s, 3),
        }
        self._write()

    def save_stamps(self) -> None:
        """Write the manifest if stamps were taken since its last write."""
        if self._unsaved:
            self._write()

    def _write(self) -> None:
        """Replace the file with the live lines; the caller holds the
        workspace lock."""
        self._unsaved = False
        stamps = {key: {**dict(zip(_STAMP_FIELDS, stamped[0])), "sha256": stamped[1]}
                  for key, stamped in self._stamps.items() if stamped is not None}
        lines = list(self._entries.values())
        if stamps:
            lines.append({"reference_ns": self._reference, "stamps": stamps})
        atomic_write_text(self.path, _jsonl(lines))

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
        """The file's digest, or None when it is missing: from the memo,
        from a stamp that still matches, or hashed after a stat and, when
        the file last changed before the run began, stamped."""
        if key in self._digests:
            return self._digests[key]
        path = self.workspace / key  # an absolute key stays absolute
        try:
            st = os.stat(path)
            now = _stamp(st)
            stamp, digest = self._stamps.get(key) or (None, None)
            if stamp != now:
                digest = sha256_file(path)
                if self._settled(st):
                    self._stamps[key] = (now, digest)
                    self._unsaved = True
        except FileNotFoundError:
            return None
        self._digests[key] = digest
        return digest

    def _settled(self, st: os.stat_result) -> bool:
        """True when the file of st last changed before the run began, by
        the clock of the workspace's filesystem."""
        clock = self._clock
        return (
            clock is not None
            and st.st_dev == clock.st_dev
            and max(st.st_mtime_ns, st.st_ctime_ns) < clock.st_mtime_ns
        )


def write_matrix_bin(path: str | Path, matrix: np.ndarray) -> None:
    """u32 row count, u32 dim, row-major little-endian f64, checksum trailer."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    header = struct.pack("<II", *m.shape)
    atomic_write_bytes(path, header, m, checksum(header, m))


def read_matrix_bin(path: str | Path) -> np.ndarray:
    """Inverse of write_matrix_bin; a damaged file raises ArtifactError."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size < 8 + CHECKSUM_SIZE:
            raise ArtifactError(path, "truncated matrix file")
        header = fh.read(8)
        m = read_checked(fh, path, header, struct.unpack("<II", header))
    if m is None:
        raise ArtifactError(path, "payload size does not match header")
    return m


# the buffer through which read_checked hashes a payload that fits no array
_HASH_CHUNK = 1 << 14


def read_checked(
    fh: IO[bytes], path: str | Path, header: bytes, shape: tuple[int, ...]
) -> np.ndarray | None:
    """The little-endian f64 array of shape that follows header, the bytes
    just read from the binary container open as fh, or None when the
    file's size leaves room for another payload; a trailer that does not
    match every byte before it raises ArtifactError either way.

    The payload is read straight into the array it returns. A payload
    that does not fit shape is hashed through a small buffer, so a
    damaged header allocates nothing by the size it claims.
    """
    size = os.fstat(fh.fileno()).st_size
    h = hashlib.blake2b(header, digest_size=CHECKSUM_SIZE)
    out = None
    if size == len(header) + 8 * math.prod(shape) + CHECKSUM_SIZE:
        out = np.empty(shape, dtype="<f8")
        fh.readinto(out)  # a short read leaves no trailer to match
        h.update(out)
    else:
        buf, left = memoryview(bytearray(_HASH_CHUNK)), size - len(header) - CHECKSUM_SIZE
        while left > 0 and (got := fh.readinto(buf[:left])):
            h.update(buf[:got])
            left -= got
    if h.digest() != fh.read(CHECKSUM_SIZE):
        raise ArtifactError(path, "checksum mismatch (truncated or corrupt)")
    return out


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

    def touch(self) -> os.stat_result:
        """The lock file's status after setting its times to now, read
        from the clock of the workspace's filesystem."""
        os.utime(self._fh.fileno())
        return os.fstat(self._fh.fileno())

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
