"""Partial-table construction from per-table cluster assignments.

Four strategies. kpt_random samples s rows per cluster (the main
method); cb_centroid keeps the s rows nearest each centroid; s_single
keeps one nearest row per cluster; first_rows ignores clustering and
takes the leading rows as a baseline. Every partial table serializes as
a header line plus its rows in original order.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cluster import ClusterLabels
from .corpus import Table, serialize_partial_table

STRATEGIES = ("kpt_random", "cb_centroid", "s_single", "first_rows")


@dataclass(frozen=True)
class KptConfig:
    s: int = 5
    first_rows_k: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.first_rows_k < 1:
            raise ValueError("first_rows_k must be >= 1")


@dataclass
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


def _pt_id(table_id: str, strategy: str, cluster_index: int | None) -> str:
    return f"{table_id}#{strategy}#{'f' if cluster_index is None else cluster_index}"


def _cluster_rng(seed: int, table_id: str, cluster_index: int) -> np.random.Generator:
    """Independent stream per (table, cluster): resampling one table can
    never perturb another's row selection."""
    digest = hashlib.sha256(f"{table_id}\x1f{cluster_index}".encode("utf-8")).digest()
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
    table: Table,
    assignment: ClusterLabels | None,
    cfg: KptConfig,
    strategy: str,
) -> list[PartialTable]:
    """One partial table per cluster (or one total for first_rows)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    m = len(table.instances)
    if m == 0:
        raise ValueError(f"table {table.table_id!r} has no rows")

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
            rng = _cluster_rng(cfg.seed, table.table_id, j)
            take = rng.choice(members, size=min(cfg.s, members.size), replace=False)
            rows = [int(i) for i in take]
        else:
            # nearest-to-centroid order, ties broken by lower row index
            by_distance = sorted(members, key=lambda i: (assignment.point_distances[i], i))
            count = 1 if strategy == "s_single" else min(cfg.s, members.size)
            rows = [int(i) for i in by_distance[:count]]
        out.append(_make_pt(table, strategy, j, rows))
    return out


def kpt_to_record(pt: PartialTable) -> dict:
    return asdict(pt)


def kpt_from_record(rec: dict) -> PartialTable:
    values = {f.name: rec[f.name] for f in fields(PartialTable)}
    return PartialTable(**{**values, "row_indices": [int(i) for i in values["row_indices"]]})
