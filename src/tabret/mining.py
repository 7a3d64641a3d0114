"""Hard-negative mining: training triples from synthetic queries.

For each query, candidates are every partial table belonging to a
different source table (same-table siblings are never negatives). The
hard strategy keeps the top-h most similar candidates; the random
strategy draws h uniformly, for ablations. Similarity is a dot product
because all vectors are unit-norm. Mining always uses the frozen base
embeddings, never the adapter.

mine_all stacks the candidate matrix once and mines one source table's
queries at a time: scoring.hardest gathers the table's pool once and
keeps each query's top h by (-score, pt_id). The pool is gathered, not
masked out of the full matrix, to keep its scores' bits (see scoring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .kpt import PartialTable, keyed_rng
from .querygen import SyntheticQuery
from .scoring import hardest


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
        take = min(cfg.h, int(eligible.sum()))
        if not take:
            continue
        if cfg.strategy == "hard":
            picks = hardest(matrix, eligible, id_rank, query_vecs[members], take)
        else:
            # the random strategy draws from the pool in pt_id order
            by_id = eligible.nonzero()[0][np.argsort(id_rank[eligible])]
            picks = [by_id[keyed_rng(cfg.seed, queries[i].query_id).choice(
                len(by_id), size=take, replace=False)] for i in members]
        for i, rows in zip(members, picks):
            mined[i] = TrainingTriple(
                query_id=queries[i].query_id,
                positive_pt_id=queries[i].pt_id,
                negative_pt_ids=tuple(pt_ids[rows].tolist()),
                strategy=cfg.strategy,
            )
    order = sorted(range(len(queries)), key=lambda i: queries[i].query_id)
    triples = [mined[i] for i in order if i in mined]
    skipped = [queries[i].query_id for i in order if i not in mined]
    return triples, skipped


def triple_from_record(rec: dict) -> TrainingTriple:
    return TrainingTriple(
        rec["query_id"], rec["positive_pt_id"], tuple(rec["negative_pt_ids"]), rec["strategy"]
    )
