"""Partial-table construction: per-cluster selection rules and identity."""

import numpy as np
import pytest

from tabret.cluster import ClusterLabels, ClusteringConfig, cluster_tables
from tabret.corpus import serialize_partial_table
from tabret.kpt import (
    STRATEGIES,
    KptConfig,
    PartialTable,
    build_kpts,
    kpt_from_record,
)

from conftest import make_table


def make_assignment(labels, point_distances=None, k=None) -> ClusterLabels:
    """Hand-built labels: build_kpts only consults k, labels, and
    point_distances."""
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1 if k is None else k
    if point_distances is None:
        point_distances = np.zeros(len(labels))
    return ClusterLabels(
        k=k,
        labels=labels,
        point_distances=np.asarray(point_distances, dtype=np.float64),
    )


def grid_table(table_id: str = "t", m: int = 12):
    return make_table(table_id, [[f"r{i:02d}", f"item {i}"] for i in range(m)])


class TestConfig:
    def test_defaults(self):
        cfg = KptConfig()
        assert cfg.strategy == "kpt_random"
        assert cfg.s == 5
        assert cfg.first_rows_k == 10

    @pytest.mark.parametrize("kwargs", [{"s": 0}, {"first_rows_k": 0}, {"s": -3}])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            KptConfig(**kwargs)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match=r"strategy must be one of \(.*\), got 'best_rows'"):
            KptConfig(strategy="best_rows")


class TestPartialTableValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            PartialTable(
                pt_id="x", table_id="t", strategy="nope",
                cluster_index=None, row_indices=[0], text="",
            )

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="ascending"):
            PartialTable(
                pt_id="x", table_id="t", strategy="kpt_random",
                cluster_index=0, row_indices=[3, 1], text="",
            )

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="ascending"):
            PartialTable(
                pt_id="x", table_id="t", strategy="kpt_random",
                cluster_index=0, row_indices=[1, 1], text="",
            )

    def test_s_single_must_have_one_row(self):
        with pytest.raises(ValueError, match="exactly one"):
            PartialTable(
                pt_id="x", table_id="t", strategy="s_single",
                cluster_index=0, row_indices=[0, 1], text="",
            )


class TestFirstRows:
    def test_takes_leading_rows(self):
        table = grid_table(m=30)
        pts = build_kpts(table, None, KptConfig(first_rows_k=10, strategy="first_rows"))
        assert len(pts) == 1
        assert pts[0].row_indices == list(range(10))

    def test_clamps_to_table_size(self):
        table = grid_table(m=4)
        pts = build_kpts(table, None, KptConfig(first_rows_k=10, strategy="first_rows"))
        assert pts[0].row_indices == [0, 1, 2, 3]

    def test_pt_id_uses_f_for_no_cluster(self):
        table = grid_table("inv_a", m=4)
        (pt,) = build_kpts(table, None, KptConfig(strategy="first_rows"))
        assert pt.pt_id == "inv_a#first_rows#f"
        assert pt.cluster_index is None

    def test_ignores_assignment(self):
        table = grid_table(m=6)
        assignment = make_assignment([0, 1, 0, 1, 0, 1])
        with_a = build_kpts(table, assignment, KptConfig(first_rows_k=3, strategy="first_rows"))
        without = build_kpts(table, None, KptConfig(first_rows_k=3, strategy="first_rows"))
        assert with_a[0].row_indices == without[0].row_indices == [0, 1, 2]


class TestClusterStrategies:
    def test_one_pt_per_cluster_with_id_format(self):
        table = grid_table("inv_a", m=6)
        assignment = make_assignment([0, 1, 2, 0, 1, 2])
        pts = build_kpts(table, assignment, KptConfig(s=2, strategy="kpt_random"))
        assert [pt.pt_id for pt in pts] == [
            "inv_a#kpt_random#0",
            "inv_a#kpt_random#1",
            "inv_a#kpt_random#2",
        ]
        assert [pt.cluster_index for pt in pts] == [0, 1, 2]

    def test_kpt_random_samples_within_cluster(self):
        table = grid_table(m=10)
        labels = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        assignment = make_assignment(labels)
        pts = build_kpts(table, assignment, KptConfig(s=3, seed=7, strategy="kpt_random"))
        for pt in pts:
            members = set(np.flatnonzero(np.asarray(labels) == pt.cluster_index))
            assert len(pt.row_indices) == 3
            assert set(pt.row_indices) <= members

    def test_kpt_random_takes_whole_small_cluster(self):
        table = grid_table(m=5)
        assignment = make_assignment([0, 0, 1, 1, 1])
        pts = build_kpts(table, assignment, KptConfig(s=4, strategy="kpt_random"))
        assert pts[0].row_indices == [0, 1]
        assert pts[1].row_indices == [2, 3, 4]

    def test_kpt_random_deterministic(self):
        table = grid_table(m=20)
        assignment = make_assignment([i % 3 for i in range(20)])
        cfg = KptConfig(s=4, seed=11, strategy="kpt_random")
        a = build_kpts(table, assignment, cfg)
        b = build_kpts(table, assignment, cfg)
        assert [pt.row_indices for pt in a] == [pt.row_indices for pt in b]

    def test_kpt_random_seed_changes_selection(self):
        table = grid_table(m=40)
        assignment = make_assignment([i % 2 for i in range(40)])
        a = build_kpts(table, assignment, KptConfig(s=5, seed=1, strategy="kpt_random"))
        b = build_kpts(table, assignment, KptConfig(s=5, seed=2, strategy="kpt_random"))
        assert [pt.row_indices for pt in a] != [pt.row_indices for pt in b]

    def test_kpt_random_streams_independent_across_tables(self):
        # same cluster shape, same seed, different table ids: the draw
        # must differ because each (table, cluster) has its own stream
        assignment = make_assignment([0] * 30)
        cfg = KptConfig(s=5, seed=3, strategy="kpt_random")
        a = build_kpts(grid_table("alpha", m=30), assignment, cfg)
        b = build_kpts(grid_table("beta", m=30), assignment, cfg)
        assert a[0].row_indices != b[0].row_indices

    def test_cb_centroid_keeps_nearest_rows(self):
        table = grid_table(m=6)
        assignment = make_assignment(
            [0, 0, 0, 0, 0, 0],
            point_distances=[5.0, 1.0, 3.0, 0.5, 4.0, 2.0],
        )
        (pt,) = build_kpts(table, assignment, KptConfig(s=3, strategy="cb_centroid"))
        # nearest three by distance are rows 3 (0.5), 1 (1.0), 5 (2.0)
        assert pt.row_indices == [1, 3, 5]

    def test_cb_centroid_breaks_distance_ties_by_row_index(self):
        table = grid_table(m=4)
        assignment = make_assignment(
            [0, 0, 0, 0], point_distances=[2.0, 2.0, 2.0, 2.0]
        )
        (pt,) = build_kpts(table, assignment, KptConfig(s=2, strategy="cb_centroid"))
        assert pt.row_indices == [0, 1]

    def test_s_single_keeps_one_nearest_per_cluster(self):
        table = grid_table(m=6)
        assignment = make_assignment(
            [0, 1, 0, 1, 0, 1],
            point_distances=[3.0, 9.0, 1.0, 2.0, 7.0, 8.0],
        )
        pts = build_kpts(table, assignment, KptConfig(s=5, strategy="s_single"))
        assert [pt.row_indices for pt in pts] == [[2], [3]]

    @pytest.mark.parametrize("strategy", ["kpt_random", "cb_centroid"])
    def test_large_s_recovers_cluster_partition(self, strategy):
        # with s >= every cluster size the per-cluster selections are
        # exactly the cluster members, so they partition the table
        table = grid_table(m=9)
        labels = [0, 2, 1, 0, 2, 1, 0, 2, 1]
        assignment = make_assignment(labels)
        pts = build_kpts(table, assignment, KptConfig(s=9, strategy=strategy))
        seen = [i for pt in pts for i in pt.row_indices]
        assert sorted(seen) == list(range(9))
        for pt in pts:
            members = np.flatnonzero(np.asarray(labels) == pt.cluster_index)
            assert pt.row_indices == [int(i) for i in members]


class TestTextAndOrdering:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_ascending_and_text_matches_serializer(self, strategy, tiny_table):
        if strategy == "first_rows":
            assignment = None
        else:
            assignment = make_assignment([0, 1, 0, 1], point_distances=[1, 2, 3, 4])
        for pt in build_kpts(tiny_table, assignment, KptConfig(s=2, seed=5, strategy=strategy)):
            assert pt.row_indices == sorted(pt.row_indices)
            assert pt.text == serialize_partial_table(tiny_table, pt.row_indices)
            assert pt.text.splitlines()[0] == "sku | name | qty"

    def test_kpt_random_rows_sorted_even_when_drawn_unordered(self):
        # draw nearly the whole cluster so any permutation of the draw
        # still must come back ascending
        table = grid_table(m=8)
        assignment = make_assignment([0] * 8)
        for seed in range(10):
            pts = build_kpts(table, assignment, KptConfig(s=7, seed=seed, strategy="kpt_random"))
            assert pts[0].row_indices == sorted(pts[0].row_indices)


class TestErrors:
    def test_cluster_strategy_without_assignment(self, tiny_table):
        with pytest.raises(ValueError, match="needs a cluster assignment"):
            build_kpts(tiny_table, None, KptConfig(strategy="kpt_random"))

    def test_cluster_strategy_with_mismatched_labels(self, tiny_table):
        assignment = make_assignment([0, 1])  # table has 4 rows
        with pytest.raises(ValueError, match="4 rows"):
            build_kpts(tiny_table, assignment, KptConfig(strategy="s_single"))


class TestRecordRoundTrip:
    def test_round_trip(self, tiny_table):
        assignment = make_assignment([0, 1, 0, 1], point_distances=[1, 2, 3, 4])
        for strategy in STRATEGIES:
            pts = build_kpts(
                tiny_table,
                assignment if strategy != "first_rows" else None,
                KptConfig(s=2, seed=1, strategy=strategy),
            )
            for pt in pts:
                back = kpt_from_record(vars(pt))
                assert back == pt

    def test_record_is_json_plain(self, tiny_table):
        import json

        (pt,) = build_kpts(tiny_table, None, KptConfig(strategy="first_rows"))
        text = json.dumps(vars(pt))
        assert json.loads(text)["pt_id"] == "inv_a#first_rows#f"


class TestWithRealClustering:
    def test_end_to_end_selection_stays_within_clusters(self, rng):
        # two well-separated blobs: cluster strategies must never mix rows
        # across the gap
        low = rng.normal(0.0, 0.05, size=(6, 3))
        high = rng.normal(8.0, 0.05, size=(6, 3))
        vectors = np.vstack([low, high])
        table = grid_table(m=12)
        assignment = cluster_tables([vectors], ClusteringConfig(r=1, k_max=2, seed=4))[0]
        for strategy in ("kpt_random", "cb_centroid", "s_single"):
            for pt in build_kpts(table, assignment, KptConfig(s=3, seed=4, strategy=strategy)):
                sides = {0 if i < 6 else 1 for i in pt.row_indices}
                assert len(sides) == 1
