"""Embedding providers, vector math, and the on-disk embedding cache.

Two providers share one interface: an HTTP provider speaking the common
/v1/embeddings wire schema, and a deterministic local mock that feature-
hashes character 3-grams (tests and offline runs). All vectors leave
this module L2-normalized, so downstream cosine similarity is a plain
dot product. The cache is content-addressed by (model_name, text) and
stores raw float64 bytes, so hits are bitwise-identical to the original
response; each record ends in the 8-byte fsio.checksum trailer.

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

import hashlib
import math
import os
import re
import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fsio import ARTIFACT_FORMAT, CHECKSUM_SIZE, ArtifactError, append_jsonl, checksum, read_log
from .httpjson import ProviderError, fan_out, post_json

PROVIDER_KINDS = ("http", "mock")


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "mock"
    model_name: str = "mock-embedder"
    dim: int = 64
    endpoint: str = ""
    batch_size: int = 32
    max_input_chars: int = 8192
    auth_token: str | None = None
    max_parallel_requests: int = 8

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"provider kind must be one of {PROVIDER_KINDS}, got {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("provider dim must be positive")
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


def _mock_vectors(texts: list[str], dim: int) -> np.ndarray:
    """mock_embed of each text, as the rows of one array."""
    if len(texts) == 1:
        return mock_embed(texts[0], dim)[None]
    if dim < 8:
        raise ValueError(f"mock embedding dim must be >= 8, got {dim}")
    out = np.empty((len(texts), dim), dtype=np.float64)
    slots: dict[int, int] = {}  # each distinct gram is hashed once per call
    begin = size = 0
    for i, text in enumerate(texts):
        if size and size + len(text) > _CHUNK_CODE_POINTS:
            out[begin:i] = _mock_chunk(texts[begin:i], dim, slots)
            begin, size = i, 0
        size += len(text)
    out[begin:] = _mock_chunk(texts[begin:], dim, slots)
    return out


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


class EmbeddingCache:
    """Append-only binary store of normalized vectors, one pair of files per model.

    Record layout in the .bin file: u32 dim, dim little-endian f64 values,
    then the checksum trailer of the preceding bytes. The .idx.jsonl
    sidecar maps the SHA-256 of (model_name, text) to the record's byte
    offset. Both file names carry ARTIFACT_FORMAT, so a cache written in
    an older layout is never misread; opening the cache deletes the
    model's pair from before the format was named (<slug>-<tag>.bin and
    .idx.jsonl), which nothing can read any more. A hit is one pread on a
    descriptor opened on first use, sized by the last good record. Writes
    are serialized on an in-process lock, and each batch is one append to
    each file, the .bin first.
    """

    def __init__(self, cache_dir: str | Path, model_name: str) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", model_name)
        tag = hashlib.sha256(model_name.encode("utf-8")).hexdigest()[:8]
        for unversioned in (f"{slug}-{tag}.bin", f"{slug}-{tag}.idx.jsonl"):
            (self.cache_dir / unversioned).unlink(missing_ok=True)
        stem = f"{slug}-{tag}.v{ARTIFACT_FORMAT}"
        self.bin_path = self.cache_dir / f"{stem}.bin"
        self.idx_path = self.cache_dir / f"{stem}.idx.jsonl"
        self.model_name = model_name
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._record_size = 4
        self._offsets: dict[str, int] = {
            rec["key"]: rec["offset"] for rec in read_log(self.idx_path)
        }

    def key(self, text: str) -> str:
        return hashlib.sha256(f"{self.model_name}\x1f{text}".encode("utf-8")).hexdigest()

    def get(self, text: str) -> np.ndarray | None:
        offset = self._offsets.get(self.key(text))
        if offset is None:
            return None
        fd = self._reader()
        record = os.pread(fd, self._record_size, offset)
        dim = struct.unpack_from("<I", record)[0] if len(record) >= 4 else 0
        size = 4 + 8 * dim + CHECKSUM_SIZE
        if len(record) < size:
            # a corrupt dim must not turn into a huge read
            if len(record) < 4 or offset + size > os.fstat(fd).st_size:
                raise ArtifactError(self.bin_path, f"truncated record at {offset}")
            record = os.pread(fd, size, offset)
        record = record[:size]
        if len(record) < size or checksum(record[:-CHECKSUM_SIZE]) != record[-CHECKSUM_SIZE:]:
            raise ArtifactError(self.bin_path, f"checksum mismatch at offset {offset}")
        self._record_size = size
        return np.frombuffer(record, dtype="<f8", count=dim, offset=4).copy()

    def _reader(self) -> int:
        with self._lock:
            if self._fd is None:
                self._fd = os.open(self.bin_path, os.O_RDONLY)
                weakref.finalize(self, os.close, self._fd)
            return self._fd

    def put_many(self, texts: list[str], vectors: list[np.ndarray]) -> None:
        """Cache the vectors of the texts not cached yet."""
        with self._lock:
            added: dict[str, int] = {}
            blob = bytearray()
            with self.bin_path.open("ab") as fh:
                start = fh.tell()
                for text, vector in zip(texts, vectors):
                    key = self.key(text)
                    if key not in self._offsets and key not in added:
                        added[key] = start + len(blob)
                        record = struct.pack("<I", len(vector)) + np.ascontiguousarray(
                            vector, dtype="<f8"
                        ).tobytes()
                        blob += record + checksum(record)
                fh.write(blob)
            if added:
                append_jsonl(self.idx_path, ({"key": k, "offset": o} for k, o in added.items()))
                self._offsets.update(added)


def _http_embed_batch(cfg: ProviderConfig, texts: list[str]) -> list[np.ndarray]:
    url = cfg.endpoint.rstrip("/") + "/v1/embeddings"
    headers = {"Authorization": f"Bearer {cfg.auth_token}"} if cfg.auth_token else None
    body = post_json(url, {"model": cfg.model_name, "input": texts}, headers=headers)
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
    vectors: list[np.ndarray | None] = [None] * len(clipped)
    misses: dict[str, list[int]] = {}
    for i, text in enumerate(clipped):
        if cache is not None:
            hit = cache.get(text)
            if hit is not None:
                if hit.shape != (cfg.dim,):
                    raise ArtifactError(
                        cache.bin_path, f"cached vector has dim {hit.shape[0]}, expected {cfg.dim}"
                    )
                vectors[i] = hit
                continue
        misses.setdefault(text, []).append(i)

    unique = list(misses)
    batches = [unique[i : i + cfg.batch_size] for i in range(0, len(unique), cfg.batch_size)]
    if cfg.kind == "mock":
        rows = _mock_vectors(unique, cfg.dim) if unique else []
        results = (rows[i : i + cfg.batch_size] for i in range(0, len(unique), cfg.batch_size))
    else:
        results = fan_out(lambda b: _http_embed_batch(cfg, b), batches, cfg.max_parallel_requests)
    # each batch is cached as it arrives, so a failed request loses only its own
    failure: ProviderError | None = None
    for batch, result in zip(batches, results):
        if isinstance(result, ProviderError):
            failure = failure or result
            continue
        if cache is not None:
            cache.put_many(batch, result)
        for text, vec in zip(batch, result):
            for i in misses[text]:
                vectors[i] = vec
    if failure is not None:
        raise failure
    return np.stack(vectors)  # type: ignore[arg-type]
