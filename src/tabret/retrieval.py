"""Exact-search retrieval over partial-table embeddings and R@k evaluation.

The index is an in-memory matrix of unit vectors, one row per partial
table. A query scores every row by dot product; a table's score is the
max over its rows (one strongly matching cluster is enough to retrieve
the table), with mean fusion available as an option. Ties rank by
table_id so reports are reproducible. RetrievalConfig holds the two
settings, the entry text's mode and the fusion, and checks them; an
index carries the one it was built under. A saved index keeps its
vectors in an fsio matrix container, whose 8-byte BLAKE2b trailer a load
verifies; a load also requires meta.json to state both settings, its dim
to be the vectors' width and its has_adapter to match the adapter given,
so no query is ranked in another space than the one the index was built
in. An index has at least one entry.

An index groups its rows by table once, when it is built or loaded, so a
block of queries is one scoring.score_block over the whole matrix plus
whole-array fusion. A block holds one pad column past the last row's
score, -inf under max fusion and 0.0 under mean, which the grid's
padding points at. Every score has the bits of np.dot(index.vectors, q)
(see scoring). np.add.reduceat does not add a group left to right (it
differed from Python's sum in 9432 of 20000 random groups), so mean
fusion adds the grid's rows one by one, the k-th score of every table at
step k, which is sum(v)'s order. Max fusion takes the grid's column
maxima.

build_index and evaluate map their rows through adapter_apply_rows,
which keeps the bits of the adapter_apply that search maps its query
with (see train).

evaluate scores its queries in blocks of about _BLOCK_BYTES of scores,
so memory stays bounded however many queries there are, and counts each
gold table's rank with scoring.counted_rank. search keeps only the head
of the same (-score, table_id) order: rank_tables takes it with
scoring.lexsort_head over -fused and the table positions.
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
from .scoring import counted_rank, lexsort_head, score_block
from .train import Adapter, adapter_apply, adapter_apply_rows

REPRESENTATION_MODES = ("pt_only", "pt_plus_queries")
FUSIONS = ("max", "mean")
# the score a block gives the grid's padding, which changes no fused score
_PAD = {"max": -np.inf, "mean": 0.0}
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
    config: RetrievalConfig = RetrievalConfig()
    # derived from table_ids: the distinct ids in sorted order, each one's
    # row count, and a grid whose column t lists table t's rows in stored
    # order, padded with len(table_ids) (a row number past the end)
    tables: list[str] = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.pt_ids) != len(self.table_ids) or len(self.pt_ids) != len(self.vectors):
            raise ValueError("pt_ids, table_ids and vectors must align")
        if not self.pt_ids:
            raise ValueError("an index needs at least one entry")
        if len(set(self.pt_ids)) != len(self.pt_ids):
            raise ValueError("pt_id entries must be unique")
        self.tables = sorted(set(self.table_ids))
        position = {t: i for i, t in enumerate(self.tables)}
        codes = np.array([position[t] for t in self.table_ids], dtype=np.intp)
        rows = np.argsort(codes, kind="stable")
        self._counts = np.bincount(codes, minlength=len(self.tables))
        starts = np.cumsum(self._counts) - self._counts
        self._grid = np.full((self._counts.max(), len(self.tables)), len(codes))
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
    config: RetrievalConfig = RetrievalConfig(),
) -> RetrievalIndex:
    """Embed one entry per partial table, in pt_id order."""
    if not pts:
        raise ValueError("cannot build an index over zero partial tables")
    ordered = sorted(pts, key=lambda p: p.pt_id)
    texts = [
        entry_text(pt, (queries_by_pt or {}).get(pt.pt_id, []), config.mode) for pt in ordered
    ]
    vectors = embed_texts(provider, texts, cache)
    if adapter is not None:
        vectors = adapter_apply_rows(adapter, vectors)
    return RetrievalIndex(
        pt_ids=[pt.pt_id for pt in ordered],
        table_ids=[pt.table_id for pt in ordered],
        vectors=vectors,
        adapter=adapter,
        config=config,
    )


def _fuse(index: RetrievalIndex, scores: np.ndarray) -> np.ndarray:
    """Fused table scores from a block of score_block, one query per row."""
    by_table = scores.take(index._grid, axis=1)
    if index.config.fusion == "max":
        return by_table.max(axis=1)
    # left to right like sum(); a pad adds 0.0, which changes no sum
    fused = np.zeros((len(scores), len(index.tables)))
    for k in range(by_table.shape[1]):
        fused += by_table[:, k]
    fused /= index._counts
    return fused


def rank_tables(
    index: RetrievalIndex, q_vec: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The top_k tables for an embedded (and adapter-mapped) query vector.

    Returns the positions into index.tables of the best min(top_k, table
    count) tables, best first, and the fused score of every position:
    the head of np.argsort(-fused, kind="stable"), so equal scores keep
    table_id order, found by selection.
    """
    fused = _fuse(index, score_block(index.vectors, q_vec[None], _PAD[index.config.fusion]))[0]
    return lexsort_head(-fused, np.arange(len(fused)), min(top_k, len(fused))), fused


def search(
    index: RetrievalIndex,
    query_text: str,
    provider: ProviderConfig,
    top_k: int = 10,
    cache: EmbeddingCache | None = None,
) -> list[tuple[str, float]]:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    q_vec = embed_texts(provider, [query_text], cache)[0]
    if index.adapter is not None:
        q_vec = adapter_apply(index.adapter, q_vec)
    top, fused = rank_tables(index, q_vec, top_k)
    return [(index.tables[i], float(fused[i])) for i in top.tolist()]


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
    per_block = max(1, _BLOCK_BYTES // (8 * (len(index.pt_ids) + 1)))
    pad = _PAD[index.config.fusion]
    ranks: list[int] = []
    for start in range(0, len(gold), per_block):
        fused = _fuse(index, score_block(index.vectors, q_vecs[start : start + per_block], pad))
        ranks.extend(counted_rank(fused, golds[start : start + per_block]).tolist())
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
        "representation_mode": index.config.mode,
        "fusion": index.config.fusion,
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
    meta_path = d / "meta.json"
    try:
        meta = json.loads(meta_path.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ArtifactError(meta_path, f"invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ArtifactError(meta_path, "expected a JSON object")
    # the index must be searched as it was built: through the same adapter
    # or none, at the vectors' width, under the settings it was built with
    allowed = {"has_adapter": (adapter is not None,), "dim": (vectors.shape[1],),
               "representation_mode": REPRESENTATION_MODES, "fusion": FUSIONS}
    for key, values in allowed.items():
        got = meta.get(key)
        if type(got) is not type(values[0]) or got not in values:
            found = json.dumps(got) if key in meta else "missing"
            raise ArtifactError(meta_path, f"{key} is {found}, expected "
                                + " or ".join(map(json.dumps, values)))
    try:
        return RetrievalIndex(
            pt_ids=[pt_id for pt_id, _ in entries],
            table_ids=[table_id for _, table_id in entries],
            vectors=vectors,
            adapter=adapter,
            config=RetrievalConfig(meta["representation_mode"], meta["fusion"]),
        )
    except ValueError as exc:  # entries.jsonl is empty or repeats a pt_id
        raise ArtifactError(entries_path, str(exc)) from exc
