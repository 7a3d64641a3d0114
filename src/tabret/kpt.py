"""Partial-table construction from per-table cluster assignments.

Four strategies, one of which KptConfig.strategy names and checks when
the config is made. kpt_random samples s rows per cluster (the main
method); cb_centroid keeps the s rows nearest each centroid; s_single
keeps one nearest row per cluster; first_rows ignores clustering and
takes the leading rows as a baseline. Every partial table serializes as
a header line plus its rows in original order. kpt_random draws from
keyed_rng, one stream per (table, cluster), as mining's random negatives
do per query, so resampling one table never perturbs another's rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .cluster import ClusterLabels
from .corpus import Table, serialize_partial_table

STRATEGIES = ("kpt_random", "cb_centroid", "s_single", "first_rows")


@dataclass(frozen=True)
class KptConfig:
    strategy: str = "kpt_random"
    s: int = 5
    first_rows_k: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.first_rows_k < 1:
            raise ValueError("first_rows_k must be >= 1")


@dataclass(frozen=True)
class PartialTable:
    pt_id: str
    table_id: str
    strategy: str
    cluster_index: int | None
    row_indices: list[int]
    text: str

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if any(b <= a for a, b in zip(self.row_indices, self.row_indices[1:])):
            raise ValueError(f"{self.pt_id}: row_indices must be strictly ascending")
        if self.strategy == "s_single" and len(self.row_indices) != 1:
            raise ValueError(f"{self.pt_id}: s_single must select exactly one row")


# a record's fields and their types, read once
PT_FIELDS = get_type_hints(PartialTable)


def _pt_id(table_id: str, strategy: str, cluster_index: int | None) -> str:
    return f"{table_id}#{strategy}#{'f' if cluster_index is None else cluster_index}"


def keyed_rng(seed: int, key: str) -> np.random.Generator:
    """key's stream under seed: seed's low 64 bits XOR key's SHA-256 prefix."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng((seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big"))


def _make_pt(
    table: Table, strategy: str, cluster_index: int | None, rows: list[int]
) -> PartialTable:
    rows = sorted(rows)
    return PartialTable(
        pt_id=_pt_id(table.table_id, strategy, cluster_index),
        table_id=table.table_id,
        strategy=strategy,
        cluster_index=cluster_index,
        row_indices=rows,
        text=serialize_partial_table(table, rows),
    )


def build_kpts(
    table: Table, assignment: ClusterLabels | None, cfg: KptConfig
) -> list[PartialTable]:
    """One partial table per cluster under cfg.strategy (or one total for first_rows)."""
    strategy, m = cfg.strategy, len(table.instances)

    if strategy == "first_rows":
        return [_make_pt(table, strategy, None, list(range(min(cfg.first_rows_k, m))))]

    if assignment is None or len(assignment.labels) != m:
        got = "no assignment" if assignment is None else f"{len(assignment.labels)} labels"
        raise ValueError(f"table {table.table_id!r}: strategy {strategy} needs a "
                         f"cluster assignment covering {m} rows, got {got}")

    out = []
    for j in range(assignment.k):
        members = assignment.members(j)
        if strategy == "kpt_random":
            rng = keyed_rng(cfg.seed, f"{table.table_id}\x1f{j}")
            take = rng.choice(members, size=min(cfg.s, members.size), replace=False)
            rows = [int(i) for i in take]
        else:
            # nearest-to-centroid order, ties broken by lower row index
            by_distance = sorted(members, key=lambda i: (assignment.point_distances[i], i))
            count = 1 if strategy == "s_single" else min(cfg.s, members.size)
            rows = [int(i) for i in by_distance[:count]]
        out.append(_make_pt(table, strategy, j, rows))
    return out


def kpt_from_record(rec: dict) -> PartialTable:
    return PartialTable(**{name: rec[name] for name in PT_FIELDS})
