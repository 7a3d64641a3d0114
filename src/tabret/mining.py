"""Hard-negative mining: training triples from synthetic queries.

For each query, candidates are every partial table belonging to a
different source table (same-table siblings are never negatives). The
hard strategy keeps the top-h most similar candidates; the random
strategy draws h uniformly, for ablations. Similarity is a dot product
because all vectors are unit-norm. Mining always uses the frozen base
embeddings, never the adapter.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .kpt import PartialTable
from .querygen import SyntheticQuery


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
        if self.strategy not in ("hard", "random"):
            raise ValueError(f"mining strategy must be 'hard' or 'random', got {self.strategy!r}")


@dataclass(frozen=True)
class TrainingTriple:
    query_id: str
    positive_pt_id: str
    negative_pt_ids: tuple[str, ...]
    strategy: str


def _query_rng(seed: int, query_id: str) -> np.random.Generator:
    digest = hashlib.sha256(query_id.encode("utf-8")).digest()
    return np.random.default_rng((seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big"))


def mine_negatives(
    query: SyntheticQuery,
    q_vec: np.ndarray,
    all_pts: list[PartialTable],
    cfg: MiningConfig,
) -> TrainingTriple:
    """Build one triple; negatives exclude the query's own table entirely."""
    eligible = [pt for pt in all_pts if pt.table_id != query.table_id]
    if not eligible:
        raise MiningError(f"{query.query_id}: no partial tables outside table {query.table_id!r}")
    take = min(cfg.h, len(eligible))
    if cfg.strategy == "hard":
        matrix = np.stack([pt.embedding for pt in eligible])
        scores = np.dot(matrix, q_vec)
        order = sorted(range(len(eligible)), key=lambda i: (-scores[i], eligible[i].pt_id))
        chosen = [eligible[i].pt_id for i in order[:take]]
    else:
        rng = _query_rng(cfg.seed, query.query_id)
        pool = sorted(pt.pt_id for pt in eligible)
        chosen = [pool[i] for i in rng.choice(len(pool), size=take, replace=False)]
    return TrainingTriple(
        query_id=query.query_id,
        positive_pt_id=query.pt_id,
        negative_pt_ids=tuple(chosen),
        strategy=cfg.strategy,
    )


def mine_all(
    queries: list[SyntheticQuery],
    query_vecs: np.ndarray,
    pts: list[PartialTable],
    cfg: MiningConfig,
) -> tuple[list[TrainingTriple], list[str]]:
    """One triple per query with >= 1 eligible candidate, sorted by query_id.

    query_vecs rows align with queries. Queries without any eligible
    candidate are skipped, and their ids returned alongside the triples.
    """
    if len(queries) != len(query_vecs):
        raise ValueError("query_vecs must align with queries")
    for pt in pts:
        if pt.embedding is None:
            raise ValueError(f"{pt.pt_id}: partial table has no embedding")
    triples = []
    skipped = []
    order = sorted(range(len(queries)), key=lambda i: queries[i].query_id)
    for i in order:
        try:
            triples.append(mine_negatives(queries[i], query_vecs[i], pts, cfg))
        except MiningError:
            skipped.append(queries[i].query_id)
    return triples, skipped


def triple_to_record(t: TrainingTriple) -> dict:
    return asdict(t)


def triple_from_record(rec: dict) -> TrainingTriple:
    return TrainingTriple(
        rec["query_id"], rec["positive_pt_id"], tuple(rec["negative_pt_ids"]), rec["strategy"]
    )
