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
with one gemv and keeps the top h by (-score, pt_id) through
lexsort_head. np.partition finds the h-th smallest -score, and
np.lexsort orders only the rows at or below it, ties included, so the
picks are those of a lexsort of the whole pool (tests/test_mining.py
keeps that lexsort as the oracle) without its O(P log P) per query. -0.0
and 0.0 compare equal in both, so their tie goes to the pt_id.
lexsort_head has a second caller: retrieval.rank_tables takes a search's
top k tables with it, by (-fused score, table position). A Q x P gemm,
or one gemv over the full matrix with the query's own table masked
afterwards, would be fewer calls but not the same bits: a row's dot
product can change in its last bits with the row's position in the
matrix a gemv is given, which reorders near-ties. On OpenBLAS 0.3.31
with 800 x 64 unit rows, 79 of 39900 scores differed between the full
matrix and the same matrix less two rows, and 32963 of 40000 between a
gemm and per-query gemvs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .kpt import PartialTable, keyed_rng
from .querygen import SyntheticQuery


MINING_STRATEGIES = ("hard", "random")


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


def mine_all(
    queries: list[SyntheticQuery],
    query_vecs: np.ndarray,
    pts: list[PartialTable],
    cfg: MiningConfig,
    pt_vecs: np.ndarray,
) -> tuple[list[TrainingTriple], list[str]]:
    """One triple per query with >= 1 eligible candidate, sorted by query_id.

    query_vecs rows align with queries and pt_vecs rows with pts. A
    query's negatives exclude its own source table entirely; queries
    without any eligible candidate are skipped, and their ids returned
    alongside the triples. The queries are mined one source table at a
    time, so each table's pool is gathered once and only one is held.
    """
    if len(queries) != len(query_vecs):
        raise ValueError("query_vecs must align with queries")
    if len(pts) != len(pt_vecs):
        raise ValueError("pt_vecs must align with pts")
    matrix = np.asarray(pt_vecs, dtype=np.float64)
    pt_ids = np.array([pt.pt_id for pt in pts], dtype=object)
    # each row's source table, and its pt_id's position in sorted order
    table_code: dict[str, int] = {}
    row_table = np.array([table_code.setdefault(pt.table_id, len(table_code)) for pt in pts],
                         dtype=np.intp)
    id_rank = np.empty(len(pts), dtype=np.intp)
    id_rank[np.argsort(pt_ids, kind="stable")] = np.arange(len(pts))
    by_table: dict[str, list[int]] = {}
    for i, query in enumerate(queries):
        by_table.setdefault(query.table_id, []).append(i)
    mined: dict[int, TrainingTriple] = {}
    for table_id, members in by_table.items():
        eligible = row_table != table_code.get(table_id, -1)
        if not eligible.any():
            continue
        pool, pool_ids, pool_rank = matrix[eligible], pt_ids[eligible], id_rank[eligible]
        take = min(cfg.h, len(pool_ids))
        # the random strategy draws from the pool in pt_id order
        by_id = pool_ids[np.argsort(pool_rank)] if cfg.strategy == "random" else None
        for i in members:
            query = queries[i]
            if cfg.strategy == "hard":
                chosen = pool_ids[lexsort_head(-np.dot(pool, query_vecs[i]), pool_rank, take)]
            else:
                rng = keyed_rng(cfg.seed, query.query_id)
                chosen = by_id[rng.choice(len(by_id), size=take, replace=False)]
            mined[i] = TrainingTriple(
                query_id=query.query_id,
                positive_pt_id=query.pt_id,
                negative_pt_ids=tuple(chosen.tolist()),
                strategy=cfg.strategy,
            )
    order = sorted(range(len(queries)), key=lambda i: queries[i].query_id)
    triples = [mined[i] for i in order if i in mined]
    skipped = [queries[i].query_id for i in order if i not in mined]
    return triples, skipped


def lexsort_head(key: np.ndarray, rank: np.ndarray, take: int) -> np.ndarray:
    """np.lexsort((rank, key))[:take], for 1 <= take <= len(key), sorting
    only the rows that can be among them: every row whose key is at most
    the take-th smallest."""
    kth = np.partition(key, take - 1)[take - 1]
    rows = (key <= kth).nonzero()[0]
    return rows[np.lexsort((rank[rows], key[rows]))[:take]]


def triple_from_record(rec: dict) -> TrainingTriple:
    return TrainingTriple(
        rec["query_id"], rec["positive_pt_id"], tuple(rec["negative_pt_ids"]), rec["strategy"]
    )
