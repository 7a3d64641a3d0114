"""K-means with the adaptive cluster count: invariants and small oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabret.cluster as cluster_mod
from tabret.cluster import (
    ClusterAssignment,
    ClusteringConfig,
    _repair_empty,
    adaptive_k,
    cluster_table,
    kmeans,
)


# The per-restart k-means that kmeans runs in lockstep: one restart at a
# time, one (n, k, d) difference tensor per assignment, and each centroid
# the numpy mean of its members.


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
            assignment = kmeans(points, k, ClusteringConfig(seed=seed))
            self.check_invariants(points, assignment)

    def test_duplicate_points(self):
        points = np.ones((6, 3))
        assignment = kmeans(points, 2, ClusteringConfig(seed=0))
        self.check_invariants(points, assignment)
        assert assignment.inertia == pytest.approx(0.0, abs=1e-12)

    def test_near_optimal_on_tiny_instances(self):
        for seed in range(10):
            r = np.random.default_rng(1000 + seed)
            n = int(r.integers(3, 9))
            points = r.normal(size=(n, 2))
            assignment = kmeans(points, 2, ClusteringConfig(seed=seed))
            best = exhaustive_two_cluster_optimum(points)
            assert assignment.inertia <= 1.05 * best + 1e-12

    def test_deterministic_per_seed(self, rng):
        points = rng.normal(size=(20, 4))
        a = kmeans(points, 3, ClusteringConfig(seed=9))
        b = kmeans(points, 3, ClusteringConfig(seed=9))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_k_greater_than_points_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(2, 3)), 5, ClusteringConfig())

    def test_well_separated_blobs_recovered(self):
        r = np.random.default_rng(3)
        blob_a = r.normal(size=(10, 2)) * 0.05
        blob_b = r.normal(size=(10, 2)) * 0.05 + 100.0
        points = np.vstack([blob_a, blob_b])
        assignment = kmeans(points, 2, ClusteringConfig(seed=0))
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
    """kmeans runs the restarts of reference_kmeans in lockstep: every
    label, distance, centroid and history entry has the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(kmeans_problems())
    @example((np.ones((5, 3)), 3, ClusteringConfig(seed=1, n_init=3)))
    def test_random_problems(self, problem):
        points, k, cfg = problem
        assert_same_bits(kmeans(points, k, cfg), reference_kmeans(points, k, cfg))

    def test_duplicate_rows_take_the_zero_mass_seeding_fallback(self, monkeypatch):
        # two distinct rows and k = 3: after both are seeded the remaining
        # mass is zero, so the third seed is the lowest unused index
        points = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [2.0, -1.0], [0.0, 1.0]])
        cfg = ClusteringConfig(seed=4, n_init=4)
        totals = []
        real_init = cluster_mod._kmeanspp_init

        def spy(x, k, rngs):
            seeds = real_init(x, k, rngs)
            totals.extend(len({tuple(c) for c in run}) for run in seeds)
            return seeds

        monkeypatch.setattr(cluster_mod, "_kmeanspp_init", spy)
        got = kmeans(points, 3, cfg)
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
        got = kmeans(points, 3, cfg)
        assert any(repaired)
        assert np.bincount(got.labels, minlength=3).min() == 1
        assert_same_bits(got, reference_kmeans(points, 3, cfg))

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(6, 4))
        cfg = ClusteringConfig(seed=2, n_init=4)
        got = kmeans(points, 6, cfg)
        assert sorted(got.labels.tolist()) == list(range(6))
        assert_same_bits(got, reference_kmeans(points, 6, cfg))

    def test_single_column(self, rng):
        # numpy sums a single column pairwise, which parts from a row-order
        # sum once a cluster has 9 or more members
        points = rng.normal(size=(60, 1))
        cfg = ClusteringConfig(seed=6, n_init=3)
        assert_same_bits(kmeans(points, 2, cfg), reference_kmeans(points, 2, cfg))

    def test_single_restart(self, rng):
        points = rng.normal(size=(30, 5))
        cfg = ClusteringConfig(seed=8, n_init=1)
        assert_same_bits(kmeans(points, 4, cfg), reference_kmeans(points, 4, cfg))

    def test_max_iters_cap_hit_by_some_restarts_only(self):
        # uncapped, the restarts converge after 3 to 11 iterations; capped
        # at 5, some have left the active set and others stop on the cap
        points = np.random.default_rng(0).normal(size=(40, 3))
        free = ClusteringConfig(seed=5, n_init=6, max_iters=100)
        uncapped = [run.iterations_run for run in reference_restarts(points, 4, free)]
        assert min(uncapped) < 5 < max(uncapped)
        cfg = ClusteringConfig(seed=5, n_init=6, max_iters=5)
        assert_same_bits(kmeans(points, 4, cfg), reference_kmeans(points, 4, cfg))
        assert_same_bits(kmeans(points, 4, free), reference_kmeans(points, 4, free))

    def test_earliest_restart_wins_a_tie(self):
        # identical rows give every restart inertia 0
        points = np.ones((4, 2))
        got = kmeans(points, 2, ClusteringConfig(seed=3, n_init=5))
        assert got.inertia_history == reference_restarts(
            points, 2, ClusteringConfig(seed=3, n_init=5)
        )[0].inertia_history
        assert_same_bits(got, reference_kmeans(points, 2, ClusteringConfig(seed=3, n_init=5)))


class TestClusterTable:
    def test_single_row_table(self):
        one = np.array([[0.6, 0.8]])
        assignment = cluster_table(one, ClusteringConfig())
        assert assignment.k == 1
        assert list(assignment.labels) == [0]
        assert assignment.inertia == pytest.approx(0.0)

    def test_k_follows_adaptive_rule(self, rng):
        cfg = ClusteringConfig(r=10, k_max=5, seed=1)
        emb = rng.normal(size=(23, 8))
        assignment = cluster_table(emb, cfg)
        assert assignment.k == 3  # ceil(23/10)

    def test_k_never_exceeds_rows(self, rng):
        # 3 rows with r=1 would ask for k_max clusters; must clamp to 3
        cfg = ClusteringConfig(r=1, k_max=5, seed=1)
        assignment = cluster_table(rng.normal(size=(3, 4)), cfg)
        assert assignment.k <= 3
        assert np.bincount(assignment.labels, minlength=assignment.k).min() >= 1
