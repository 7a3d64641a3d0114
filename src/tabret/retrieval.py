"""Exact-search retrieval over partial-table embeddings and R@k evaluation.

The index is an in-memory matrix of unit vectors, one row per partial
table. A query scores every row by dot product; a table's score is the
max over its rows (one strongly matching cluster is enough to retrieve
the table), with mean fusion available as an option. Ties rank by
table_id so reports are reproducible. RetrievalConfig holds the two
settings, the entry text's mode and the fusion, and checks them. A saved
index keeps its vectors in an fsio matrix container, whose 8-byte
BLAKE2b trailer a load verifies; a load also requires meta.json's dim to
be the vectors' width and its has_adapter to match the adapter given, so
no query is ranked in another space than the one the index was built in.

An index groups its rows by table once, when it is built or loaded, so a
query is one gemv over the whole matrix plus whole-array fusion. Two
floating-point facts fix how: a row's score can change in its last bits
with the row's position in the matrix a BLAS gemv is given (see mining),
so every query scores the full matrix in stored order; and
np.add.reduceat does not add a group left to right (it differed from
Python's sum in 9432 of 20000 random groups), so mean fusion adds the
grid's rows one by one, the k-th score of every table at step k, which
is sum(v)'s order. Max fusion takes the grid's column maxima.

build_index maps its rows, and evaluate its queries once before any
block, through adapter_apply_rows: one stacked np.matmul whose products
numpy hands to gemv and dot one row at a time, so every mapped vector
has the bits of adapter_apply's W @ v and out.dot(out) (see train).
search maps its one query with adapter_apply.

evaluate scores its queries in blocks of about _BLOCK_BYTES of scores,
so memory stays bounded however many queries there are. Each query's
gemv is the same np.dot(index.vectors, q) that search makes, written
through out= into its row of the block: out= only names where BLAS
stores the result, so every score keeps its bits. A block holds one
pad column past the last row's score, -inf under max fusion and 0.0
under mean, which the grid's padding points at, and fusion then runs
over the whole block at once with the same elementwise operations as
for one query. A gold table's rank is counted, not sorted: the tables
scoring above it, plus the tables before it in table_id order that tie
with it, plus one. argsort(-fused, kind="stable") puts the gold table
at exactly that position, as every fused score is finite: a stable
sort places first the entries that compare below it and then the equal
ones that come earlier, in their original order.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embed import EmbeddingCache, ProviderConfig, embed_texts
from .fsio import (
    ArtifactError,
    atomic_write_bytes,
    read_matrix_bin,
    read_records,
    write_jsonl,
    write_matrix_bin,
)
from .kpt import PartialTable
from .querygen import SyntheticQuery
from .train import Adapter, adapter_apply, adapter_apply_rows

REPRESENTATION_MODES = ("pt_only", "pt_plus_queries")
FUSIONS = ("max", "mean")
# evaluate scores queries in blocks of about this many bytes of scores
_BLOCK_BYTES = 1 << 18


_ENTRY_FIELDS = {"pt_id": str, "table_id": str}


@dataclass(frozen=True)
class RetrievalConfig:
    mode: str = "pt_only"
    fusion: str = "max"

    def __post_init__(self) -> None:
        if self.mode not in REPRESENTATION_MODES:
            raise ValueError(f"mode must be one of {REPRESENTATION_MODES}, got {self.mode!r}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")


@dataclass
class RetrievalIndex:
    pt_ids: list[str]
    table_ids: list[str]
    vectors: np.ndarray
    adapter: Adapter | None = None
    representation_mode: str = "pt_only"
    fusion: str = "max"
    # derived from table_ids: the distinct ids in sorted order, each one's
    # row count, and a grid whose column t lists table t's rows in stored
    # order, padded with len(table_ids) (a row number past the end)
    tables: list[str] = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.pt_ids) != len(self.table_ids) or len(self.pt_ids) != len(self.vectors):
            raise ValueError("pt_ids, table_ids and vectors must align")
        if len(set(self.pt_ids)) != len(self.pt_ids):
            raise ValueError("pt_id entries must be unique")
        RetrievalConfig(self.representation_mode, self.fusion)  # raises on an unknown choice
        self.tables = sorted(set(self.table_ids))
        position = {t: i for i, t in enumerate(self.tables)}
        codes = np.array([position[t] for t in self.table_ids], dtype=np.intp)
        rows = np.argsort(codes, kind="stable")
        self._counts = np.bincount(codes, minlength=len(self.tables))
        starts = np.cumsum(self._counts) - self._counts
        self._grid = np.full((self._counts.max(initial=0), len(self.tables)), len(codes))
        for k, row in enumerate(self._grid):
            has = self._counts > k
            row[has] = rows[starts[has] + k]


@dataclass
class EvalReport:
    recall: dict[int, float]
    query_count: int
    ranks: list[int] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "recall": {f"R@{k}": v for k, v in sorted(self.recall.items())},
            "query_count": self.query_count,
            "ranks": self.ranks,
        }


def entry_text(pt: PartialTable, queries: list[SyntheticQuery], mode: str) -> str:
    if mode == "pt_only" or not queries:
        return pt.text
    return pt.text + "\n" + "\n".join(q.text for q in queries)


def build_index(
    pts: list[PartialTable],
    queries_by_pt: dict[str, list[SyntheticQuery]] | None,
    provider: ProviderConfig,
    cache: EmbeddingCache | None = None,
    adapter: Adapter | None = None,
    mode: str = "pt_only",
    fusion: str = "max",
) -> RetrievalIndex:
    """Embed one entry per partial table, in pt_id order."""
    if not pts:
        raise ValueError("cannot build an index over zero partial tables")
    ordered = sorted(pts, key=lambda p: p.pt_id)
    texts = [
        entry_text(pt, (queries_by_pt or {}).get(pt.pt_id, []), mode) for pt in ordered
    ]
    vectors = embed_texts(provider, texts, cache)
    if adapter is not None:
        vectors = adapter_apply_rows(adapter, vectors)
    return RetrievalIndex(
        pt_ids=[pt.pt_id for pt in ordered],
        table_ids=[pt.table_id for pt in ordered],
        vectors=vectors,
        adapter=adapter,
        representation_mode=mode,
        fusion=fusion,
    )


def _padded_scores(index: RetrievalIndex, *queries: int) -> np.ndarray:
    """An uninitialised block of row scores, one query's along the last
    axis, with one column past the last row holding the pad that fusion
    gives the grid's padding."""
    block = np.empty((*queries, len(index.pt_ids) + 1))
    block[..., -1] = -np.inf if index.fusion == "max" else 0.0
    return block


def _fuse(index: RetrievalIndex, scores: np.ndarray) -> np.ndarray:
    """Fused table scores from padded row scores: one query's vector, or a
    block of them with one query per row."""
    by_table = scores.take(index._grid, axis=-1)
    if index.fusion == "max":
        return by_table.max(axis=-2)
    # left to right like sum(); a pad adds 0.0, which changes no sum
    fused = np.zeros(by_table.shape[:-2] + by_table.shape[-1:])
    for k in range(by_table.shape[-2]):
        fused += by_table[..., k, :]
    fused /= index._counts
    return fused


def rank_tables(index: RetrievalIndex, q_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank the tables for an embedded (and adapter-mapped) query vector.

    Returns positions into index.tables, best first, and the fused score
    of every position. The stable sort keeps equal scores in table_id order.
    """
    scores = _padded_scores(index)
    np.dot(index.vectors, q_vec, out=scores[:-1])
    fused = _fuse(index, scores)
    return np.argsort(-fused, kind="stable"), fused


def search(
    index: RetrievalIndex,
    query_text: str,
    provider: ProviderConfig,
    top_k: int = 10,
    cache: EmbeddingCache | None = None,
) -> list[tuple[str, float]]:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if len(index.pt_ids) == 0:
        raise ValueError("index is empty")
    q_vec = embed_texts(provider, [query_text], cache)[0]
    if index.adapter is not None:
        q_vec = adapter_apply(index.adapter, q_vec)
    order, fused = rank_tables(index, q_vec)
    return [(index.tables[i], float(fused[i])) for i in order[:top_k].tolist()]


def evaluate(
    index: RetrievalIndex,
    gold: list[tuple[str, str]],
    provider: ProviderConfig,
    ks: tuple[int, ...] = (1, 5, 10),
    cache: EmbeddingCache | None = None,
) -> EvalReport:
    """R@k over (query_text, gold_table_id) pairs, as percentages.

    The rank of a gold table missing from the full ranking would be
    undefined, so unknown gold ids are an error, not a zero.
    """
    if not gold:
        raise ValueError("no evaluation queries")
    position = {t: i for i, t in enumerate(index.tables)}
    for _, gold_id in gold:
        if gold_id not in position:
            raise ValueError(f"gold table id {gold_id!r} is not in the index")
    q_vecs = embed_texts(provider, [q for q, _ in gold], cache)
    if index.adapter is not None:
        q_vecs = adapter_apply_rows(index.adapter, q_vecs)
    golds = np.array([position[gold_id] for _, gold_id in gold])
    block = _padded_scores(index, max(1, _BLOCK_BYTES // (8 * (len(index.pt_ids) + 1))))
    earlier = np.arange(len(index.tables))
    ranks: list[int] = []
    for start in range(0, len(gold), len(block)):
        scores = block[: len(gold) - start]
        for out, q_vec in zip(scores, q_vecs[start : start + len(scores)]):
            np.dot(index.vectors, q_vec, out=out[:-1])
        fused = _fuse(index, scores)
        at = golds[start : start + len(scores), None]
        g = np.take_along_axis(fused, at, axis=1)
        ahead = (fused > g) | ((fused == g) & (earlier < at))
        ranks.extend((ahead.sum(axis=1) + 1).tolist())
    recall = {
        k: round(100.0 * sum(1 for r in ranks if r <= k) / len(ranks), 2) for k in ks
    }
    return EvalReport(recall=recall, query_count=len(ranks), ranks=ranks)


def save_index(index: RetrievalIndex, directory: str | Path) -> None:
    """entries.jsonl + vectors.bin (count, dim, f64 rows, checksum) + meta.json."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_jsonl(
        d / "entries.jsonl",
        [{"pt_id": p, "table_id": t} for p, t in zip(index.pt_ids, index.table_ids)],
    )
    write_matrix_bin(d / "vectors.bin", index.vectors)
    meta = {
        "representation_mode": index.representation_mode,
        "fusion": index.fusion,
        "dim": int(index.vectors.shape[1]),
        "has_adapter": index.adapter is not None,
    }
    atomic_write_bytes(d / "meta.json", (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode())


def load_index(directory: str | Path, adapter: Adapter | None = None) -> RetrievalIndex:
    d = Path(directory)
    entries_path = d / "entries.jsonl"
    entries = read_records(entries_path, _ENTRY_FIELDS, operator.itemgetter("pt_id", "table_id"))
    vectors = read_matrix_bin(d / "vectors.bin")
    if len(vectors) != len(entries):
        raise ArtifactError(entries_path, "entries.jsonl and vectors.bin disagree on count")
    try:
        meta = json.loads((d / "meta.json").read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ArtifactError(d / "meta.json", f"invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ArtifactError(d / "meta.json", "expected a JSON object")
    # the index must be searched as it was built: through the same adapter
    # or none, at the vectors' width
    for key, given in (("has_adapter", adapter is not None), ("dim", vectors.shape[1])):
        got = meta.get(key)
        if type(got) is not type(given) or got != given:
            found = json.dumps(got) if key in meta else "missing"
            raise ArtifactError(d / "meta.json", f"{key} is {found}, expected "
                                f"{json.dumps(given)} from the vectors and adapter loaded")
    pt_ids = [pt_id for pt_id, _ in entries]
    try:
        return RetrievalIndex(
            pt_ids=pt_ids,
            table_ids=[table_id for _, table_id in entries],
            vectors=vectors,
            adapter=adapter,
            representation_mode=meta.get("representation_mode", "pt_only"),
            fusion=meta.get("fusion", "max"),
        )
    except ValueError as exc:
        # the counts agree, so a repeated pt_id or a setting of meta.json is at fault
        bad = entries_path if len(set(pt_ids)) != len(pt_ids) else d / "meta.json"
        raise ArtifactError(bad, str(exc)) from exc
