"""Embedding providers, vector math, and the on-disk embedding cache.

Two providers share one interface: an HTTP provider speaking the common
/v1/embeddings wire schema, and a deterministic local mock that feature-
hashes character 3-grams (tests and offline runs). All vectors leave
this module L2-normalized, so downstream cosine similarity is a plain
dot product. The cache is content-addressed by (model_name, text) and
stores raw float64 bytes, so hits are bitwise-identical to the original
response; each record ends in the 8-byte fsio.checksum trailer.
The mock sums integer-valued float64 counts, exact in any order, so a
batch sharing one gram memo is bitwise-identical to mock_embed per text.
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


class CacheCorruptionError(ArtifactError):
    """A cached embedding record failed its checksum."""


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||; rejects the zero vector."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def mock_embed(text: str, dim: int, memo: dict[str, int] | None = None) -> np.ndarray:
    """Deterministic local embedding: hash character 3-grams into dim buckets.

    Bucket and sign come from SHA-256 of the gram, so the result is
    identical across processes and machines. Texts shorter than 3 chars
    hash as a single gram; the empty text (and an accumulation that
    cancels to zero) maps to the unit basis vector e1. memo caches each
    gram's slot (its bucket, plus dim when the sign is negative) and may
    be shared by calls at the same dim.
    """
    if dim < 8:
        raise ValueError(f"mock embedding dim must be >= 8, got {dim}")
    if memo is None:
        memo = {}
    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else ([text] if text else [])
    for gram in set(grams).difference(memo):
        digest = hashlib.sha256(gram.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % dim
        memo[gram] = bucket if digest[8] & 1 else bucket + dim
    counts = np.bincount([memo[gram] for gram in grams], minlength=2 * dim)
    acc = (counts[:dim] - counts[dim:]).astype(np.float64)
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        out = np.zeros(dim, dtype=np.float64)
        out[0] = 1.0
        return out
    return acc / norm


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
                raise CacheCorruptionError(self.bin_path, f"truncated record at {offset}")
            record = os.pread(fd, size, offset)
        record = record[:size]
        if len(record) < size or checksum(record[:-CHECKSUM_SIZE]) != record[-CHECKSUM_SIZE:]:
            raise CacheCorruptionError(self.bin_path, f"checksum mismatch at offset {offset}")
        self._record_size = size
        return np.frombuffer(record, dtype="<f8", count=dim, offset=4).copy()

    def _reader(self) -> int:
        with self._lock:
            if self._fd is None:
                self._fd = os.open(self.bin_path, os.O_RDONLY)
                weakref.finalize(self, os.close, self._fd)
            return self._fd

    def put(self, text: str, vector: np.ndarray) -> None:
        self.put_many([text], [vector])

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
                    raise CacheCorruptionError(
                        cache.bin_path, f"cached vector has dim {hit.shape[0]}, expected {cfg.dim}"
                    )
                vectors[i] = hit
                continue
        misses.setdefault(text, []).append(i)

    unique = list(misses)
    batches = [unique[i : i + cfg.batch_size] for i in range(0, len(unique), cfg.batch_size)]
    if cfg.kind == "mock":
        memo: dict[str, int] = {}  # each distinct gram is hashed once per call
        results = ([mock_embed(t, cfg.dim, memo) for t in batch] for batch in batches)
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
