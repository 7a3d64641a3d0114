"""Embedding providers, vector math, and the on-disk embedding cache.

Two providers share one interface: an HTTP provider speaking the common
/v1/embeddings wire schema, and a deterministic local mock that feature-
hashes character 3-grams (tests and offline runs). All vectors leave
this module L2-normalized, so downstream cosine similarity is a plain
dot product. The cache is content-addressed by (model_name, text) and
stores raw float64 bytes, so hits are bitwise-identical to the original
response; each record ends in the 8-byte fsio.checksum trailer of its
key's digest and its bytes. The index is a binary array of (digest,
offset) entries, appended under an exclusive flock so that processes
sharing a cache directory never interleave, and a format-2 cache (JSON
index lines) is migrated when first opened (see EmbeddingCache).
embed_texts looks up all its texts with one get_many, which reads each
run of records lying end to end in the .bin with one pread. It fills one
preallocated (n, dim) array, so no list of rows is stacked at the end:
each hit goes into its row once its dim is checked, the mock writes each
chunk's rows, and each HTTP response goes with one assignment, into the
rows where their texts first occur, and a text that occurs again takes
a copy of its first row at the end. No other (n, dim) array is made:
each batch of misses is cached from its rows of that array, as it
arrives.

embed_texts runs the mock over a whole batch of misses at once: the
texts' code points (UTF-32) become one int64 key per gram, np.unique
finds the distinct keys, only those are hashed (each once per call,
through a key -> slot dict), and one np.bincount counts every text's
grams. The vectors are bitwise-identical to mock_embed per text. The
counts are integers, so any summation order gives the same float; the
squared norm, taken as einsum("ij,ij->i"), is an integer below 2^53
for any text of fewer than 2^26 grams (a text is clipped to
max_input_chars), so it is exact and its square root is the one
np.linalg.norm takes. The batch works in chunks of at
most _CHUNK_CODE_POINTS code points (or one longer text), because its
temporary arrays hold several int64s per code point: a bound on the
text count would not bound them, since a partial table's text is many
rows long. A single miss, as a search query is, takes mock_embed,
which is cheaper than np.unique on one text.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import itertools
import math
import operator
import os
import re
import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .fsio import (
    CHECKSUM_SIZE,
    ArtifactError,
    checksum,
    read_log,
    read_records,
)
from .httpjson import ProviderError, auth_headers, fan_out, post_json

PROVIDER_KINDS = ("http", "mock")
# the embedding cache's own layout, apart from fsio.ARTIFACT_FORMAT so that
# changing it reruns no stage; 3: binary index, trailers covering the key
CACHE_FORMAT = 3
# one .idx entry: the key's SHA-256 digest, then its record's offset. V32
# keeps every byte of the digest (S32 would strip trailing NULs).
_ENTRY = np.dtype([("key", "V32"), ("offset", "<u8")])
_DIM = struct.Struct("<I")  # a record's first field


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "mock"
    model_name: str = "mock-embedder"
    dim: int = 64
    endpoint: str = ""
    batch_size: int = 32
    max_input_chars: int = 8192
    auth_token_env: str = ""
    max_parallel_requests: int = 8

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"provider kind must be one of {PROVIDER_KINDS}, got {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("provider dim must be positive")
        if self.kind == "mock" and self.dim < 8:
            raise ValueError(f"mock embedding dim must be >= 8, got {self.dim}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_input_chars < 1:
            raise ValueError("max_input_chars must be >= 1")
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http provider requires an endpoint")


def mock_embed(text: str, dim: int) -> np.ndarray:
    """Deterministic local embedding: hash character 3-grams into dim buckets.

    Bucket and sign come from SHA-256 of the gram, so the result is
    identical across processes and machines. Texts shorter than 3 chars
    hash as a single gram; the empty text (and an accumulation that
    cancels to zero) maps to the unit basis vector e1.
    """
    if dim < 8:
        raise ValueError(f"mock embedding dim must be >= 8, got {dim}")
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else ([text] if text else [])
    slots = {gram: _slot(gram, dim) for gram in set(grams)}
    counts = np.bincount([slots[gram] for gram in grams], minlength=2 * dim)
    acc = (counts[:dim] - counts[dim:]).astype(np.float64)
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        out = np.zeros(dim, dtype=np.float64)
        out[0] = 1.0
        return out
    return acc / norm


def _slot(gram: str, dim: int) -> int:
    """The gram's bucket, plus dim when its sign is negative."""
    digest = hashlib.sha256(gram.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "big") % dim
    return bucket if digest[8] & 1 else bucket + dim


# A gram's key packs its code points 21 bits each, first to last. A text
# of one or two characters is one gram; its key's first field, above
# U+10FFFF, is _SHORT plus the length, then its first and last code point.
_MASK = (1 << 21) - 1
_SHORT = 0x110000
# the most code points one chunk of the batch kernel takes, unless a
# single text is longer
_CHUNK_CODE_POINTS = 1 << 14


def _gram(key: int) -> str:
    first, mid, last = key >> 42, (key >> 21) & _MASK, key & _MASK
    if first < _SHORT:
        return chr(first) + chr(mid) + chr(last)
    return (chr(mid) + chr(last))[: first - _SHORT]


def _mock_vectors(texts: list[str], dim: int, out: np.ndarray, rows: list[int]) -> None:
    """Write mock_embed of each text into out, at its row in rows."""
    if len(texts) == 1:
        out[rows[0]] = mock_embed(texts[0], dim)
        return
    slots: dict[int, int] = {}  # each distinct gram is hashed once per call
    begin = size = 0
    for i, text in enumerate(texts):
        if size and size + len(text) > _CHUNK_CODE_POINTS:
            out[rows[begin:i]] = _mock_chunk(texts[begin:i], dim, slots)
            begin, size = i, 0
        size += len(text)
    out[rows[begin:]] = _mock_chunk(texts[begin:], dim, slots)


def _mock_chunk(texts: list[str], dim: int, slots: dict[int, int]) -> np.ndarray:
    """The batch kernel: mock_embed of each text, slots caching gram keys."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    ends = np.cumsum(lengths)
    # a lone surrogate raises UnicodeEncodeError here, as in mock_embed
    cps = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4").astype(np.int64)
    # the 3-grams start where the text goes on for two more code points
    starts = np.flatnonzero(np.arange(cps.size) + 2 < np.repeat(ends, lengths))
    keys = cps[starts] << 42 | cps[starts + 1] << 21 | cps[starts + 2]
    rows = np.repeat(np.arange(len(texts)), lengths)[starts]
    short = np.flatnonzero((lengths == 1) | (lengths == 2))
    if short.size:
        first = ends[short] - lengths[short]
        short_keys = (_SHORT + lengths[short]) << 42 | cps[first] << 21 | cps[ends[short] - 1]
        keys = np.concatenate([keys, short_keys])
        rows = np.concatenate([rows, short])
    distinct, inverse = np.unique(keys, return_inverse=True)
    distinct = distinct.tolist()
    for key in distinct:
        if key not in slots:
            slots[key] = _slot(_gram(key), dim)
    slot = np.array([slots[key] for key in distinct], dtype=np.int64)[inverse]
    width = 2 * dim
    counts = np.bincount(rows * width + slot, minlength=len(texts) * width)
    counts = counts.reshape(len(texts), width)
    acc = (counts[:, :dim] - counts[:, dim:]).astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", acc, acc))
    zero = norms == 0.0  # the empty text, or grams that cancel: e1
    acc[zero, 0] = norms[zero] = 1.0
    return acc / norms[:, None]


class CacheDimError(ArtifactError):
    """The cache holds the model's vectors at another dim: no damage."""


class EmbeddingCache:
    """Append-only binary store of normalized vectors, one set of files per model.

    Record layout in the .bin file: u32 dim, dim little-endian f64 values,
    then the checksum trailer of the key's 32-byte SHA-256 digest followed
    by the record's preceding bytes. The trailer covers the key, as
    Bitcask's records do, so an index entry that points at another key's
    valid record is caught. The .idx file is an array of fixed 40-byte
    entries (the digest, then the record's offset as a little-endian u64),
    read with one np.frombuffer, like git's pack index; the last entry of
    a key wins. Both file names carry CACHE_FORMAT, which is the cache's
    own, so changing it rebuilds no workspace artifact.

    Opening the cache migrates the model's format-2 pair (.v2.bin and
    .v2.idx.jsonl, JSON index lines) into format 3: every record whose
    key the .v3 index lacks is verified and appended with the keyed
    trailer, as a batch is, and only then is the .v2 pair removed, index
    first. A migration cut short is redone from the .v2 pair on the next
    open, so no vector already paid for is lost: a kill before the .idx
    append leaves unindexed .bin bytes, and one after it leaves nothing
    to append. Opening also deletes the pair from before the format was
    named (<slug>-<tag>.bin and .idx.jsonl), which nothing can read any
    more.

    Processes sharing a cache directory serialise on an exclusive flock of
    the model's .lock file, held across the migration, the reading and
    trimming of the index, and each batch's appends: one append to the
    .bin, at its end as found under the lock, then one to the .idx. A
    torn .idx tail, from a kill during an append, is cut back to a whole
    entry under the lock; bytes a killed append left in the .bin are never
    indexed. Threads of one process also share an in-process lock.

    get_many serves a batch with one pread per run of records that are
    contiguous in the .bin (sorted by offset and sized by the last good
    record), so one text costs one key, one lookup and one pread.
    """

    def __init__(self, cache_dir: str | Path, model_name: str) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", model_name)
        tag = hashlib.sha256(model_name.encode("utf-8")).hexdigest()[:8]
        stem = f"{slug}-{tag}"
        for unversioned in (f"{stem}.bin", f"{stem}.idx.jsonl"):
            (self.cache_dir / unversioned).unlink(missing_ok=True)
        self.bin_path = self.cache_dir / f"{stem}.v{CACHE_FORMAT}.bin"
        self.idx_path = self.cache_dir / f"{stem}.v{CACHE_FORMAT}.idx"
        self.lock_path = self.cache_dir / f"{stem}.lock"
        # the format-2 pair, migrated on open
        self._v2 = (self.cache_dir / f"{stem}.v2.bin", self.cache_dir / f"{stem}.v2.idx.jsonl")
        self.model_name = model_name
        self._lock = threading.Lock()
        self._record_size = 4
        self._offsets: dict[bytes, int] = {}
        self._indexed = 0  # bytes of .idx read into _offsets
        self._lock_fd = self._open(self.lock_path)
        # kept open: the .bin is read with pread, and both files are appended to
        self._bin_fd = self._open(self.bin_path)
        self._idx_fd = self._open(self.idx_path)
        with self._flock():
            self._catch_up()
            if self._v2[1].exists():
                self._migrate()
            self._v2[0].unlink(missing_ok=True)  # a .bin whose index is gone

    def key(self, text: str) -> bytes:
        return hashlib.sha256(f"{self.model_name}\x1f{text}".encode("utf-8")).digest()

    def _open(self, path: Path) -> int:
        """A descriptor of path, created if missing, closed with the cache."""
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        weakref.finalize(self, os.close, fd)
        return fd

    @contextlib.contextmanager
    def _flock(self) -> Iterator[None]:
        fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def _catch_up(self) -> None:
        """Read the .idx entries appended since the last read, cutting a
        torn tail back to a whole entry. The caller holds the flock."""
        size = os.fstat(self._idx_fd).st_size
        whole = size - size % _ENTRY.itemsize
        if whole != size:
            os.ftruncate(self._idx_fd, whole)
        if whole <= self._indexed:
            return
        entries = np.frombuffer(
            os.pread(self._idx_fd, whole - self._indexed, self._indexed), _ENTRY
        )
        offsets = entries["offset"].tolist()
        last = max(offsets)
        if last + 4 + CHECKSUM_SIZE > os.fstat(self._bin_fd).st_size:  # no record fits
            problem = f"an entry points at offset {last}, past the end of {self.bin_path.name}"
            raise ArtifactError(self.idx_path, problem)
        self._offsets.update(zip(entries["key"].tolist(), offsets))
        self._indexed = whole

    def _append(self, bodies: dict[bytes, bytes]) -> None:
        """Append the records of bodies (key -> u32 dim and f64 values): one
        write at the end of the .bin, then one to the .idx. The caller
        holds the flock and has caught up with the .idx."""
        if not bodies:
            return
        entries = np.empty(len(bodies), _ENTRY)
        blob = bytearray()
        start = os.fstat(self._bin_fd).st_size
        for i, (key, body) in enumerate(bodies.items()):
            entries[i] = key, start + len(blob)
            blob += body + checksum(key + body)
        _write_all(self._bin_fd, blob)
        _write_all(self._idx_fd, entries.tobytes())
        self._offsets.update(zip(bodies, entries["offset"].tolist()))
        self._indexed += entries.nbytes

    def _migrate(self) -> None:
        """Append the format-2 pair's records that this format lacks, then
        remove the pair. The caller holds the flock and has caught up."""
        old_bin, old_idx = self._v2
        size = old_bin.stat().st_size if old_bin.exists() else 0

        def parse(rec: dict) -> tuple[bytes, int]:
            key, offset = rec["key"], rec["offset"]
            if not 0 <= offset <= size - 4 - CHECKSUM_SIZE:
                raise ValueError(f"offset {offset} is outside {old_bin.name} ({size} bytes)")
            if not re.fullmatch(r"[0-9a-f]{64}", key):
                raise ValueError(f"key {key!r:.80} is not a SHA-256 hex digest")
            return bytes.fromhex(key), offset

        # read_log drops a tail torn by a killed append
        located = dict(read_records(old_idx, {"key": str, "offset": int}, parse, read_log))
        bodies: dict[bytes, bytes] = {}
        if located:
            with open(old_bin, "rb") as fh:
                for key, offset in located.items():
                    if key in self._offsets:
                        continue
                    fh.seek(offset)
                    head = fh.read(4)
                    dim = struct.unpack("<I", head)[0]
                    if offset + 4 + 8 * dim + CHECKSUM_SIZE > size:
                        raise ArtifactError(old_bin, f"truncated record at {offset}")
                    body = head + fh.read(8 * dim)
                    if checksum(body) != fh.read(CHECKSUM_SIZE):
                        raise ArtifactError(old_bin, f"checksum mismatch at offset {offset}")
                    bodies[key] = body
        self._append(bodies)
        old_idx.unlink()
        old_bin.unlink(missing_ok=True)

    def get_many(self, texts: list[str]) -> list[np.ndarray | None]:
        """The cached vector of each text, or None where it has none.

        Each distinct key is read once, its records in offset order, one
        pread per run of records that lie end to end in the .bin.
        """
        if len(texts) == 1:  # a search query: one key, one lookup, one pread
            key = self.key(texts[0])
            offset = self._offsets.get(key)
            if offset is None:
                return [None]
            record = os.pread(self._bin_fd, self._record_size, offset)
            return [self._vector(key, offset, record, 0)]
        keys = [self.key(text) for text in texts]
        offsets = self._offsets
        located = {k: offsets[k] for k in keys if k in offsets}
        pending = sorted(located.items(), key=operator.itemgetter(1))
        if not pending:
            return [None] * len(keys)
        found: dict[bytes, np.ndarray] = {}
        at = 0
        while at < len(pending):
            size, first = self._record_size, pending[at][1]
            end = at + 1
            while end < len(pending) and pending[end][1] == pending[end - 1][1] + size:
                end += 1
            run = os.pread(self._bin_fd, pending[end - 1][1] + size - first, first)
            for key, offset in pending[at:end]:
                found[key] = self._vector(key, offset, run, offset - first)
            at = end
        return [found.get(key) for key in keys]

    def _vector(self, key: bytes, offset: int, run: bytes, at: int) -> np.ndarray:
        """The vector of key's record at offset, found at run[at:] if the
        run holds all of it, else read alone."""
        dim = _DIM.unpack_from(run, at)[0] if len(run) >= at + 4 else 0
        size = 4 + 8 * dim + CHECKSUM_SIZE
        if len(run) < at + size:
            # a corrupt dim must not turn into a huge read
            if len(run) < at + 4 or offset + size > os.fstat(self._bin_fd).st_size:
                raise ArtifactError(self.bin_path, f"truncated record at {offset}")
            run, at = os.pread(self._bin_fd, size, offset), 0
            if len(run) < size:
                raise ArtifactError(self.bin_path, f"truncated record at {offset}")
        record = run[at : at + size]
        if checksum(key + record[:-CHECKSUM_SIZE]) != record[-CHECKSUM_SIZE:]:
            raise ArtifactError(self.bin_path, f"checksum mismatch at offset {offset}")
        self._record_size = size
        return np.frombuffer(record, dtype="<f8", count=dim, offset=4).copy()

    def put_many(self, texts: list[str], vectors: list[np.ndarray]) -> None:
        """Cache the vectors of the texts not cached yet, by this process
        or by another sharing the cache."""
        with self._lock, self._flock():
            self._catch_up()
            bodies: dict[bytes, bytes] = {}
            for text, vector in zip(texts, vectors):
                key = self.key(text)
                if key not in self._offsets and key not in bodies:
                    bodies[key] = struct.pack("<I", len(vector)) + np.ascontiguousarray(
                        vector, dtype="<f8"
                    ).tobytes()
            self._append(bodies)


def _write_all(fd: int, data: bytes) -> None:
    """os.write until every byte of data is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _http_embed_batch(cfg: ProviderConfig, texts: list[str]) -> list[np.ndarray]:
    url = cfg.endpoint.rstrip("/") + "/v1/embeddings"
    body = post_json(url, {"model": cfg.model_name, "input": texts},
                     headers=auth_headers(cfg.auth_token_env))
    data = body.get("data") if isinstance(body, dict) else None
    if not isinstance(data, list) or len(data) != len(texts):
        raise ProviderError(
            f"{url}: expected {len(texts)} embeddings, got "
            f"{len(data) if isinstance(data, list) else 'no data list'}"
        )
    out: list[np.ndarray | None] = [None] * len(texts)
    for item in data:
        if not isinstance(item, dict):
            raise ProviderError(f"{url}: malformed embedding item {item!r:.200}")
        idx = item.get("index")
        emb = item.get("embedding")
        if not isinstance(idx, int) or not 0 <= idx < len(texts) or not isinstance(emb, list):
            raise ProviderError(f"{url}: malformed embedding item {item!r:.200}")
        try:
            vec = np.asarray(emb, dtype=np.float64)
        except ValueError:  # a string or a nested list among the numbers
            raise ProviderError(f"{url}: malformed embedding item {item!r:.200}") from None
        if vec.shape != (cfg.dim,):
            raise ProviderError(
                f"{url}: embedding dimension {vec.shape[0]} does not match configured dim {cfg.dim}"
            )
        # JSON parsing accepts NaN and Infinity; a NaN vector would be
        # cached and reach every later stage
        if not np.isfinite(vec).all():
            raise ProviderError(f"{url}: embedding {idx} has a non-finite value")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        # a zero norm, or one that overflows, leaves no unit vector
        if not 0.0 < norm < math.inf:
            raise ProviderError(f"{url}: embedding {idx} has norm {norm} and cannot be normalized")
        out[idx] = vec / norm
    if any(v is None for v in out):
        raise ProviderError(f"{url}: response is missing indices")
    return out  # type: ignore[return-value]


def embed_texts(
    cfg: ProviderConfig,
    texts: list[str],
    cache: EmbeddingCache | None = None,
) -> np.ndarray:
    """Embed texts in input order, serving repeats from the cache.

    Texts are tail-truncated to cfg.max_input_chars before dispatch and
    cache lookup. Returns an (n, dim) float64 array of unit vectors.
    """
    if not texts:
        raise ValueError("embed_texts requires at least one text")
    clipped = [t[: cfg.max_input_chars] for t in texts]
    out = np.empty((len(clipped), cfg.dim))
    misses: dict[str, list[int]] = {}
    hits = cache.get_many(clipped) if cache is not None else [None] * len(clipped)
    for i, (text, hit) in enumerate(zip(clipped, hits)):
        if hit is None:
            misses.setdefault(text, []).append(i)
        elif hit.shape != (cfg.dim,):
            raise CacheDimError(
                cache.bin_path, f"the cache holds {cfg.model_name!r}'s vectors at dim "
                f"{hit.shape[0]}, not embedding.dim {cfg.dim}; each dim needs its own "
                f"embedding.model_name, as the demo's mock-128 has"
            )
        else:
            out[i] = hit
    if not misses:
        return out

    unique = list(misses)
    # each distinct miss is written to the row of its first occurrence
    first = [where[0] for where in misses.values()]
    starts = range(0, len(unique), cfg.batch_size)
    batches = [unique[i : i + cfg.batch_size] for i in starts]
    if cfg.kind == "mock":  # every row is written into out at once
        _mock_vectors(unique, cfg.dim, out, first)
        results = itertools.repeat(None)
    else:
        results = fan_out(lambda b: _http_embed_batch(cfg, b), batches, cfg.max_parallel_requests)
    # each batch is cached as it arrives, so a failed request loses only its own
    failure: ProviderError | None = None
    for start, batch, result in zip(starts, batches, results):
        if isinstance(result, ProviderError):
            failure = failure or result
            continue
        rows = first[start : start + len(batch)]
        if result is not None:
            out[rows] = result
        if cache is not None:
            cache.put_many(batch, out[rows])
    if failure is not None:
        raise failure
    for where in misses.values():
        if len(where) > 1:  # a text repeated in texts
            out[where[1:]] = out[where[0]]
    return out
