"""Hard-negative mining: training triples from synthetic queries.

For each query, candidates are every partial table belonging to a
different source table (same-table siblings are never negatives). The
hard strategy keeps the top-h most similar candidates; the random
strategy draws h uniformly, for ablations. Similarity is a dot product
because all vectors are unit-norm. Mining always uses the frozen base
embeddings, never the adapter.

The candidate matrix is stacked once per mine_all call, and its rows
outside one source table, matrix[eligible] in candidate-list order, are
gathered once per table. Each of that table's queries then scores them
with one gemv, and np.lexsort picks the top h by (-score, pt_id). A
Q x P gemm, or one gemv over the full matrix with the query's own table
masked afterwards, would be fewer calls but not the same bits: a row's
dot product can change in its last bits with the row's position in the
matrix a gemv is given, which reorders near-ties. On OpenBLAS 0.3.31
with 800 x 64 unit rows, 79 of 39900 scores differed between the full
matrix and the same matrix less two rows, and 32963 of 40000 between a
gemm and per-query gemvs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .kpt import PartialTable
from .querygen import SyntheticQuery


MINING_STRATEGIES = ("hard", "random")


class MiningError(ValueError):
    """A query has no eligible negative candidates."""


@dataclass(frozen=True)
class MiningConfig:
    h: int = 8
    strategy: str = "hard"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.strategy not in MINING_STRATEGIES:
            raise ValueError(
                f"mining strategy must be one of {MINING_STRATEGIES}, got {self.strategy!r}"
            )


@dataclass(frozen=True)
class TrainingTriple:
    query_id: str
    positive_pt_id: str
    negative_pt_ids: tuple[str, ...]
    strategy: str


# a record's fields and their types, read once
TRIPLE_FIELDS = get_type_hints(TrainingTriple)


def _query_rng(seed: int, query_id: str) -> np.random.Generator:
    digest = hashlib.sha256(query_id.encode("utf-8")).digest()
    return np.random.default_rng((seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big"))


class Candidates:
    """The partial tables a query may draw negatives from, stacked once.

    matrix rows align with pts; row_table and id_rank give each row's
    source table and its pt_id's position in sorted order as integers.
    """

    def __init__(self, pts: list[PartialTable], pt_vecs: np.ndarray) -> None:
        if len(pts) != len(pt_vecs):
            raise ValueError("pt_vecs must align with pts")
        self.matrix = np.asarray(pt_vecs, dtype=np.float64)
        self.pt_ids = np.array([pt.pt_id for pt in pts], dtype=object)
        self.table_code = {t: i for i, t in enumerate(sorted({pt.table_id for pt in pts}))}
        self.row_table = np.array([self.table_code[pt.table_id] for pt in pts], dtype=np.intp)
        by_id = np.argsort(self.pt_ids, kind="stable")
        self.id_rank = np.empty_like(by_id)
        self.id_rank[by_id] = np.arange(len(by_id))


class _Pool:
    """The candidates outside one source table: their rows, gathered
    once, with their pt_ids and id ranks."""

    def __init__(self, candidates: Candidates, table_id: str) -> None:
        eligible = candidates.row_table != candidates.table_code.get(table_id, -1)
        self.matrix = candidates.matrix[eligible]
        self.pt_ids = candidates.pt_ids[eligible]
        self.id_rank = candidates.id_rank[eligible]

    def mine(self, query: SyntheticQuery, q_vec: np.ndarray, cfg: MiningConfig) -> TrainingTriple:
        if not len(self.pt_ids):
            raise MiningError(
                f"{query.query_id}: no partial tables outside table {query.table_id!r}"
            )
        take = min(cfg.h, len(self.pt_ids))
        if cfg.strategy == "hard":
            scores = np.dot(self.matrix, q_vec)
            chosen = self.pt_ids[np.lexsort((self.id_rank, -scores))[:take]]
        else:
            rng = _query_rng(cfg.seed, query.query_id)
            by_id = self.pt_ids[np.argsort(self.id_rank)]
            chosen = by_id[rng.choice(len(by_id), size=take, replace=False)]
        return TrainingTriple(
            query_id=query.query_id,
            positive_pt_id=query.pt_id,
            negative_pt_ids=tuple(chosen.tolist()),
            strategy=cfg.strategy,
        )


def mine_negatives(
    query: SyntheticQuery,
    q_vec: np.ndarray,
    candidates: Candidates,
    cfg: MiningConfig,
) -> TrainingTriple:
    """Build one triple; negatives exclude the query's own table entirely."""
    return _Pool(candidates, query.table_id).mine(query, q_vec, cfg)


def mine_all(
    queries: list[SyntheticQuery],
    query_vecs: np.ndarray,
    pts: list[PartialTable],
    cfg: MiningConfig,
    pt_vecs: np.ndarray,
) -> tuple[list[TrainingTriple], list[str]]:
    """One triple per query with >= 1 eligible candidate, sorted by query_id.

    query_vecs rows align with queries and pt_vecs rows with pts. Queries
    without any eligible candidate are skipped, and their ids returned
    alongside the triples. The queries are mined one source table at a
    time, so each table's pool is gathered once and only one is held.
    """
    if len(queries) != len(query_vecs):
        raise ValueError("query_vecs must align with queries")
    candidates = Candidates(pts, pt_vecs)
    by_table: dict[str, list[int]] = {}
    for i, query in enumerate(queries):
        by_table.setdefault(query.table_id, []).append(i)
    mined: list[TrainingTriple | None] = [None] * len(queries)
    for table_id, members in by_table.items():
        pool = _Pool(candidates, table_id)
        for i in members:
            try:
                mined[i] = pool.mine(queries[i], query_vecs[i], cfg)
            except MiningError:
                pass
    order = sorted(range(len(queries)), key=lambda i: queries[i].query_id)
    triples = [mined[i] for i in order if mined[i] is not None]
    skipped = [queries[i].query_id for i in order if mined[i] is None]
    return triples, skipped


def triple_to_record(t: TrainingTriple) -> dict:
    return dict(vars(t))


def triple_from_record(rec: dict) -> TrainingTriple:
    return TrainingTriple(
        rec["query_id"], rec["positive_pt_id"], tuple(rec["negative_pt_ids"]), rec["strategy"]
    )
