"""K-means with the adaptive cluster count: invariants and small oracles."""

import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabret.cluster as cluster_mod
from tabret import pipeline, synthdata
from tabret.cluster import (
    ClusterAssignment,
    ClusteringConfig,
    _repair_empty,
    adaptive_k,
    cluster_tables,
)
from tabret.config import load_config
from tabret.corpus import write_corpus


def cluster_one(points, k, cfg):
    """One table clustered by cluster_tables with k = min(n, k)."""
    return cluster_tables([points], replace(cfg, r=1, k_max=k))[0]


# The per-restart k-means that cluster_tables runs in lockstep: one
# restart at a time, one (n, k, d) difference tensor per assignment, and
# each centroid the numpy mean of its members.


def _reference_assign(x, centroids):
    diff = x[:, None, :] - centroids[None, :, :]
    d2 = np.einsum("nkd,nkd->nk", diff, diff)
    return np.argmin(d2, axis=1), d2


def _reference_kmeanspp_init(x, k, rng):
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.einsum("nd,nd->n", x - x[chosen[0]], x - x[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total == 0.0:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.einsum("nd,nd->n", x - x[nxt], x - x[nxt]))
    return x[chosen].copy()


def reference_restarts(x, k, cfg):
    """Every restart's result, in restart order."""
    runs = []
    n = x.shape[0]
    for attempt in range(cfg.n_init):
        rng = np.random.default_rng((cfg.seed & 0xFFFFFFFFFFFFFFFF, attempt))
        centroids = _reference_kmeanspp_init(x, k, rng)
        labels, d2 = _reference_assign(x, centroids)
        _repair_empty(x, labels, centroids, d2)
        assigned = d2[np.arange(n), labels]
        history = [float(assigned.sum())]
        iterations = 0
        for _ in range(cfg.max_iters):
            iterations += 1
            for j in range(k):
                centroids[j] = x[labels == j].mean(axis=0)
            new_labels, d2 = _reference_assign(x, centroids)
            _repair_empty(x, new_labels, centroids, d2)
            assigned = d2[np.arange(n), new_labels]
            history.append(float(assigned.sum()))
            converged = bool(np.array_equal(new_labels, labels))
            labels = new_labels
            if converged:
                break
        runs.append(
            ClusterAssignment(
                k=k,
                labels=labels,
                centroids=centroids,
                inertia=history[-1],
                iterations_run=iterations,
                inertia_history=history,
                point_distances=np.sqrt(assigned),
            )
        )
    return runs


def reference_one_row(x):
    """cluster_tables' fixed result for a one-row table: k = 1, no Lloyd."""
    return ClusterAssignment(
        k=1, labels=np.zeros(1, dtype=np.intp), centroids=x.copy(), inertia=0.0,
        iterations_run=0, inertia_history=[0.0], point_distances=np.zeros(1),
    )


def reference_kmeans(vectors, k, cfg):
    """The best restart; ties keep the earliest."""
    best = None
    for run in reference_restarts(np.asarray(vectors, dtype=np.float64), k, cfg):
        if best is None or run.inertia < best.inertia:
            best = run
    return best


def assert_same_bits(got, want):
    assert got.k == want.k
    assert got.labels.tobytes() == want.labels.astype(got.labels.dtype).tobytes()
    assert got.point_distances.tobytes() == want.point_distances.tobytes()
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia_history == want.inertia_history
    assert got.inertia == want.inertia
    assert got.iterations_run == want.iterations_run


def exhaustive_two_cluster_optimum(points: np.ndarray) -> float:
    """Best possible SSE over every bipartition into two non-empty sets."""
    n = len(points)
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        sse = 0.0
        for side in (mask, ~mask):
            group = points[side]
            center = group.mean(axis=0)
            sse += float(((group - center) ** 2).sum())
        best = min(best, sse)
    return best


class TestAdaptiveK:
    def test_formula_spot_checks(self):
        cfg = ClusteringConfig(r=10, k_max=5)
        assert adaptive_k(1, cfg) == 1
        assert adaptive_k(10, cfg) == 1
        assert adaptive_k(11, cfg) == 2
        assert adaptive_k(49, cfg) == 5
        assert adaptive_k(50, cfg) == 5
        assert adaptive_k(1000, cfg) == 5

    def test_k_max_caps(self):
        assert adaptive_k(100, ClusteringConfig(r=1, k_max=3)) == 3

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            adaptive_k(0, ClusteringConfig())


class TestKmeansInvariants:
    def check_invariants(self, points, assignment):
        k = assignment.k
        # every cluster non-empty
        counts = np.bincount(assignment.labels, minlength=k)
        assert counts.min() >= 1
        # inertia history never increases
        hist = assignment.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        assert assignment.inertia == pytest.approx(hist[-1])
        # final assignment is nearest-centroid by value (ties between
        # equidistant centroids may resolve either way)
        d2 = ((points[:, None, :] - assignment.centroids[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(len(points)), assignment.labels]
        assert np.all(own <= d2.min(axis=1) + 1e-9)
        # centroids are exact member means
        for j in range(k):
            members = points[assignment.labels == j]
            np.testing.assert_allclose(assignment.centroids[j], members.mean(axis=0), atol=1e-9)
        # reported point distances match the assignment
        np.testing.assert_allclose(assignment.point_distances, np.sqrt(own), atol=1e-9)

    def test_invariants_on_seeded_datasets(self):
        for seed in range(25):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 64))
            d = int(r.integers(1, 16))
            k = int(r.integers(1, min(n, 6) + 1))
            points = r.normal(size=(n, d))
            assignment = cluster_one(points, k, ClusteringConfig(seed=seed))
            self.check_invariants(points, assignment)

    def test_duplicate_points(self):
        points = np.ones((6, 3))
        assignment = cluster_one(points, 2, ClusteringConfig(seed=0))
        self.check_invariants(points, assignment)
        assert assignment.inertia == pytest.approx(0.0, abs=1e-12)

    def test_near_optimal_on_tiny_instances(self):
        for seed in range(10):
            r = np.random.default_rng(1000 + seed)
            n = int(r.integers(3, 9))
            points = r.normal(size=(n, 2))
            assignment = cluster_one(points, 2, ClusteringConfig(seed=seed))
            best = exhaustive_two_cluster_optimum(points)
            assert assignment.inertia <= 1.05 * best + 1e-12

    def test_deterministic_per_seed(self, rng):
        points = rng.normal(size=(20, 4))
        a = cluster_one(points, 3, ClusteringConfig(seed=9))
        b = cluster_one(points, 3, ClusteringConfig(seed=9))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_well_separated_blobs_recovered(self):
        r = np.random.default_rng(3)
        blob_a = r.normal(size=(10, 2)) * 0.05
        blob_b = r.normal(size=(10, 2)) * 0.05 + 100.0
        points = np.vstack([blob_a, blob_b])
        assignment = cluster_one(points, 2, ClusteringConfig(seed=0))
        labels = assignment.labels
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]


@st.composite
def kmeans_problems(draw):
    """Points (often with repeated rows or on a coarse grid), k and a config."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.integers(-2, 3, size=(distinct, d)).astype(np.float64)
        # random signs turn the grid's zeros into a mix of +0.0 and -0.0
        base *= rng.choice([-1.0, 1.0], size=(distinct, d))
    else:
        base = rng.normal(size=(distinct, d))
    points = base[rng.integers(0, distinct, size=n)]
    cfg = ClusteringConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_init=draw(st.integers(1, 5)),
        max_iters=draw(st.integers(1, 8)),
    )
    return points, k, cfg


class TestLockstepMatchesReference:
    """cluster_tables runs the restarts of reference_kmeans in lockstep:
    every label, distance, centroid and history entry has the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(kmeans_problems())
    @example((np.ones((5, 3)), 3, ClusteringConfig(seed=1, n_init=3)))
    @example((np.array([[0.5, -0.0]]), 1, ClusteringConfig(seed=2, n_init=2)))
    def test_random_problems(self, problem):
        points, k, cfg = problem
        # a one-row table takes the k = 1 shortcut, not Lloyd
        want = reference_one_row(points) if len(points) == 1 else reference_kmeans(points, k, cfg)
        assert_same_bits(cluster_one(points, k, cfg), want)

    def test_duplicate_rows_take_the_zero_mass_seeding_fallback(self, monkeypatch):
        # two distinct rows and k = 3: after both are seeded the remaining
        # mass is zero, so the third seed is the lowest unused index
        points = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [2.0, -1.0], [0.0, 1.0]])
        cfg = ClusteringConfig(seed=4, n_init=4)
        totals = []
        real_init = cluster_mod._kmeanspp_init

        def spy(*args):
            seeds = real_init(*args)
            totals.extend(len({tuple(c) for c in run}) for run in seeds)
            return seeds

        monkeypatch.setattr(cluster_mod, "_kmeanspp_init", spy)
        got = cluster_one(points, 3, cfg)
        assert totals and all(t == 2 for t in totals)  # a repeated seed in every restart
        assert_same_bits(got, reference_kmeans(points, 3, cfg))

    def test_empty_cluster_repair(self, monkeypatch):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        cfg = ClusteringConfig(seed=0, n_init=3)
        repaired = []
        real_repair = cluster_mod._repair_empty

        def spy(x, labels, centroids, d2):
            repaired.append(np.bincount(labels, minlength=centroids.shape[0]).min() == 0)
            real_repair(x, labels, centroids, d2)

        monkeypatch.setattr(cluster_mod, "_repair_empty", spy)
        got = cluster_one(points, 3, cfg)
        assert any(repaired)
        assert np.bincount(got.labels, minlength=3).min() == 1
        assert_same_bits(got, reference_kmeans(points, 3, cfg))

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(6, 4))
        cfg = ClusteringConfig(seed=2, n_init=4)
        got = cluster_one(points, 6, cfg)
        assert sorted(got.labels.tolist()) == list(range(6))
        assert_same_bits(got, reference_kmeans(points, 6, cfg))

    def test_single_column(self, rng):
        # numpy sums a single column pairwise, which parts from a row-order
        # sum once a cluster has 9 or more members
        points = rng.normal(size=(60, 1))
        cfg = ClusteringConfig(seed=6, n_init=3)
        assert_same_bits(cluster_one(points, 2, cfg), reference_kmeans(points, 2, cfg))

    def test_single_restart(self, rng):
        points = rng.normal(size=(30, 5))
        cfg = ClusteringConfig(seed=8, n_init=1)
        assert_same_bits(cluster_one(points, 4, cfg), reference_kmeans(points, 4, cfg))

    def test_max_iters_cap_hit_by_some_restarts_only(self):
        # uncapped, the restarts converge after 3 to 11 iterations; capped
        # at 5, some have left the active set and others stop on the cap
        points = np.random.default_rng(0).normal(size=(40, 3))
        free = ClusteringConfig(seed=5, n_init=6, max_iters=100)
        uncapped = [run.iterations_run for run in reference_restarts(points, 4, free)]
        assert min(uncapped) < 5 < max(uncapped)
        cfg = ClusteringConfig(seed=5, n_init=6, max_iters=5)
        assert_same_bits(cluster_one(points, 4, cfg), reference_kmeans(points, 4, cfg))
        assert_same_bits(cluster_one(points, 4, free), reference_kmeans(points, 4, free))

    def test_earliest_restart_wins_a_tie(self):
        # identical rows give every restart inertia 0
        points = np.ones((4, 2))
        got = cluster_one(points, 2, ClusteringConfig(seed=3, n_init=5))
        assert got.inertia_history == reference_restarts(
            points, 2, ClusteringConfig(seed=3, n_init=5)
        )[0].inertia_history
        assert_same_bits(got, reference_kmeans(points, 2, ClusteringConfig(seed=3, n_init=5)))


class TestClusterTable:
    def test_single_row_table(self):
        one = np.array([[0.6, 0.8]])
        assignment = cluster_tables([one], ClusteringConfig())[0]
        assert assignment.k == 1
        assert list(assignment.labels) == [0]
        assert assignment.inertia == pytest.approx(0.0)

    def test_k_follows_adaptive_rule(self, rng):
        cfg = ClusteringConfig(r=10, k_max=5, seed=1)
        emb = rng.normal(size=(23, 8))
        assignment = cluster_tables([emb], cfg)[0]
        assert assignment.k == 3  # ceil(23/10)

    def test_k_never_exceeds_rows(self, rng):
        # 3 rows with r=1 would ask for k_max clusters; must clamp to 3
        cfg = ClusteringConfig(r=1, k_max=5, seed=1)
        assignment = cluster_tables([rng.normal(size=(3, 4))], cfg)[0]
        assert assignment.k <= 3
        assert np.bincount(assignment.labels, minlength=assignment.k).min() >= 1


def _points(rng, n, d, distinct, grid):
    """n rows drawn from `distinct` base rows, on a coarse signed grid or
    normal."""
    if grid:
        base = rng.integers(-2, 3, size=(distinct, d)).astype(np.float64)
        base *= rng.choice([-1.0, 1.0], size=(distinct, d))
    else:
        base = rng.normal(size=(distinct, d))
    return base[rng.integers(0, distinct, size=n)]


@st.composite
def table_mixes(draw):
    """Tables of several (n, d) shapes in shuffled order, a config whose
    adaptive k can reach n, and a slab bound that may cut a group into
    several chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for n, d in draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=4)):
        for _ in range(draw(st.integers(1, 4))):
            distinct = draw(st.integers(1, n))
            tables.append(_points(rng, n, d, distinct, draw(st.booleans())))
    cfg = ClusteringConfig(
        r=draw(st.integers(1, 6)),
        k_max=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_init=draw(st.integers(1, 4)),
        max_iters=draw(st.integers(1, 8)),
    )
    slab = draw(st.sampled_from([1, 2048, cluster_mod.SLAB_BYTES]))
    return draw(st.permutations(tables)), cfg, slab


def _reference_table(x, cfg):
    """One table's clustering through the per-restart oracle."""
    if len(x) == 1:
        return reference_one_row(x)
    return reference_kmeans(x, adaptive_k(len(x), cfg), cfg)


_GRID = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [2.0, -1.0], [0.0, 1.0]])


class TestClusterTables:
    """cluster_tables clusters each group of same-shape tables in lockstep
    and gives every table the bits of the per-restart oracle."""

    @settings(max_examples=120, deadline=None)
    @given(table_mixes())
    @example((  # one-row tables, d = 1, k = n and a group cut into chunks
        [np.array([[0.5]]), np.arange(6.0)[:, None], np.array([[1.0, 2.0]]),
         np.arange(6.0)[::-1, None], np.ones((6, 1))],
        ClusteringConfig(r=1, k_max=6, seed=3, n_init=2), 1,
    ))
    @example((  # duplicate rows take the zero-mass seeding fallback
        [_GRID, _GRID[::-1], np.ones((5, 2))], ClusteringConfig(r=1, k_max=3, seed=4), 2048,
    ))
    def test_mixed_shapes_match_the_per_table_oracle(self, mix):
        tables, cfg, slab = mix
        with mock.patch.object(cluster_mod, "SLAB_BYTES", slab):
            got = cluster_tables(tables, cfg)
        assert len(got) == len(tables)
        for x, a in zip(tables, got):
            assert_same_bits(a, _reference_table(x, cfg))

    def test_group_spans_several_chunks(self, monkeypatch):
        rng = np.random.default_rng(11)
        tables = [rng.normal(size=(9, 4)) for _ in range(7)]
        cfg = ClusteringConfig(r=3, seed=2, n_init=3)
        # three tables' slab fits, four do not
        monkeypatch.setattr(cluster_mod, "SLAB_BYTES", 3 * cfg.n_init * 9 * 4 * 8 + 100)
        sizes = []
        real_chunk = cluster_mod._kmeans_chunk

        def spy(chunk, *args):
            sizes.append(len(chunk))
            return real_chunk(chunk, *args)

        monkeypatch.setattr(cluster_mod, "_kmeans_chunk", spy)
        got = cluster_tables(tables, cfg)
        assert sizes == [3, 3, 1]
        for x, a in zip(tables, got):
            assert_same_bits(a, reference_kmeans(x, 3, cfg))

    def test_seed_generators_built_once_per_shape(self, monkeypatch):
        rng = np.random.default_rng(5)
        tables = [rng.normal(size=(12, 4)) for _ in range(10)]
        tables += [rng.normal(size=(30, 4)) for _ in range(5)]
        tables += [rng.normal(size=(1, 4)) for _ in range(3)]
        tables += [rng.normal(size=(12, 2)) for _ in range(2)]  # same (n, k), other d
        cfg = ClusteringConfig(seed=9, n_init=4)
        built = []
        real_rng = np.random.default_rng

        def counting(*args):
            built.append(args)
            return real_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        cluster_tables(tables, cfg)
        assert len(built) <= cfg.n_init * 2  # (n, k) = (12, 2) and (30, 3)

    def test_peak_allocation_stays_within_a_fixed_bound_of_the_per_table_loop(self):
        # Chunks of four 12-row tables: each chunk's 245 KB difference slab
        # is the largest array, against one table's 61 KB in the loop, so
        # the peak is 1.45x the loop's (737 KB against 507 KB, numpy 2.4.6).
        # Building a whole group, or repeating each table per restart,
        # would break the bound.
        rng = np.random.default_rng(0)
        tables = [rng.normal(size=(12, 64)) for _ in range(150)]
        cfg = ClusteringConfig(seed=1)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = peak(lambda: cluster_tables(tables, cfg))
        per_table = peak(lambda: [cluster_tables([x], cfg)[0] for x in tables])
        assert batched <= 1.5 * per_table

    def test_cluster_stage_peak_allocation_stays_near_the_per_table_loop(
        self, tmp_path, monkeypatch
    ):
        write_corpus(synthdata.build_corpus(150, 12, 15, 1), tmp_path / "corpus.jsonl")
        (tmp_path / "config.yaml").write_text(json.dumps({
            "corpus": {"path": "corpus.jsonl"}, "workspace": "ws", "seed": 1,
            "embedding": {"kind": "mock", "model_name": "mock-64", "dim": 64},
        }))
        cfg = load_config(tmp_path / "config.yaml")
        pipeline.run_pipeline(cfg, "ingest")
        pipeline.run_pipeline(cfg, "embed")
        run = pipeline._Run(cfg, lambda _: None)

        def stage_peak():
            tracemalloc.start()
            try:
                pipeline._stage_cluster(run)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stage_peak()  # first-call allocations land outside both measurements
        batched = stage_peak()
        monkeypatch.setattr(
            pipeline, "cluster_tables", lambda ms, c: [cluster_tables([m], c)[0] for m in ms]
        )
        per_table = stage_peak()
        assert batched <= 1.1 * per_table


class TestLloydStepsReuseTheColumnsOfUnmovedCentroids:
    """A Lloyd step recomputes the squared distances to a restart's
    centroid only where the centroid's bits moved, and every column of a
    restart that an empty-cluster repair touched; the bits stay the
    oracle's."""

    @staticmethod
    def lloyd_columns(monkeypatch):
        """Spy on the distance kernel: per Lloyd step, the (restart,
        centroid) columns it computed and the restarts times k it could
        have computed. A step starts with its _member_means call. A call
        for some of the restarts must take no more memory than one for
        all: its (rows, n, d) slab and (rows, d) centroids within the
        (R, n, d) slab."""
        steps = []
        real_means, real_dist = cluster_mod._member_means, cluster_mod._sq_dist_to

        def means(padded, tab, labels, k):
            steps.append({"computed": 0, "all": tab.size * k})
            return real_means(padded, tab, labels, k)

        def dist(xs, tab, points, *rows):
            out = real_dist(xs, tab, points, *rows)
            n = xs.shape[1]
            assert out.shape[0] == tab.size or out.shape[0] * (n + 1) <= tab.size * n
            if steps:  # seeding and the first assignment come before any step
                steps[-1]["computed"] += out.shape[0]
            return out

        monkeypatch.setattr(cluster_mod, "_member_means", means)
        monkeypatch.setattr(cluster_mod, "_sq_dist_to", dist)
        return steps

    @pytest.mark.parametrize("data_seed, shape, count, r, k", [
        (21, (40, 6), 3, 8, 5),  # 12 restarts of 40 rows
        # 40 restarts of 8 rows: a step finds 36 of them stale in one
        # column, too many to recompute alone within the full slab
        (3, (8, 3), 10, 3, 3),
    ])
    def test_unmoved_columns_are_not_recomputed_and_the_bits_hold(
        self, monkeypatch, data_seed, shape, count, r, k
    ):
        rng = np.random.default_rng(data_seed)
        tables = [rng.normal(size=shape) for _ in range(count)]
        cfg = ClusteringConfig(r=r, seed=3, n_init=4)
        steps = self.lloyd_columns(monkeypatch)
        got = cluster_tables(tables, cfg)
        assert all(s["computed"] <= s["all"] for s in steps)
        assert sum(s["computed"] for s in steps) < sum(s["all"] for s in steps)
        for x, a in zip(tables, got):
            assert a.k == k
            assert_same_bits(a, reference_kmeans(x, k, cfg))

    def test_a_repaired_restart_recomputes_every_column(self, monkeypatch):
        # three equal rows and k = 3: the seeds repeat (0, 0), so the third
        # cluster starts empty and takes row 0; row 0 alone is its cluster,
        # so its centroid keeps its bits into the first Lloyd step, as do
        # the other two, and only the repair makes that step recompute
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        cfg = ClusteringConfig(seed=0, n_init=1)
        events = []
        real_repair, real_means = cluster_mod._repair_empty, cluster_mod._member_means

        def repair(x, labels, centroids, d2):
            empty = np.flatnonzero(np.bincount(labels, minlength=centroids.shape[0]) == 0)
            real_repair(x, labels, centroids, d2)
            events.append(("repair", {int(j): centroids[j].tobytes() for j in empty}))

        def means(padded, tab, labels, k):
            out = real_means(padded, tab, labels, k)
            events.append(("means", out[0].copy()))
            return out

        monkeypatch.setattr(cluster_mod, "_repair_empty", repair)
        monkeypatch.setattr(cluster_mod, "_member_means", means)
        steps = self.lloyd_columns(monkeypatch)
        got = cluster_one(points, 3, cfg)
        (_, repaired), (_, first_means) = events[0], events[1]
        assert repaired and all(first_means[j].tobytes() == b for j, b in repaired.items())
        assert steps[0] == {"computed": 3, "all": 3}
        assert_same_bits(got, reference_kmeans(points, 3, cfg))
