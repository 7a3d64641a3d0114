"""K-means over instance embeddings with an adaptive cluster count.

The cluster count is k = min(ceil(m / r), k_max) for a table with m
rows. Lloyd iterations start from k-means++ seeding and run until the
assignment reaches a fixed point (or max_iters). Exiting on a fixed
point, rather than on a small centroid shift, is what guarantees the
return-state invariants: each centroid is exactly the mean of its members
and every point sits in its nearest cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusteringConfig:
    r: int = 10
    k_max: int = 5
    max_iters: int = 100
    seed: int = 0
    n_init: int = 10

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")


@dataclass
class ClusterAssignment:
    k: int
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations_run: int
    # sum of squared distances after init and after each Lloyd iteration
    inertia_history: list[float]
    # Euclidean distance of each point to its assigned centroid
    point_distances: np.ndarray

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)


def adaptive_k(m: int, cfg: ClusteringConfig) -> int:
    """Cluster count for a table with m rows: min(ceil(m / r), k_max)."""
    if m < 1:
        raise ValueError(f"instance count must be >= 1, got {m}")
    return min(math.ceil(m / cfg.r), cfg.k_max)


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, computed without BLAS matmul
    so results are bitwise-reproducible across environments."""
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = _sq_distances(x, centroids)
    labels = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
    return labels, d2


def _repair_empty(
    x: np.ndarray, labels: np.ndarray, centroids: np.ndarray, d2: np.ndarray
) -> None:
    """Give each empty cluster the point farthest from its own centroid.

    Only points whose cluster would stay non-empty are eligible; ties go
    to the lowest point index. The donated point becomes the empty
    cluster's centroid, so total inertia strictly decreases. Mutates
    labels and centroids in place.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            continue
        assigned_d2 = d2[np.arange(x.shape[0]), labels]
        eligible = counts[labels] > 1
        # an empty cluster implies some cluster has >= 2 members
        candidates = np.flatnonzero(eligible)
        best = candidates[np.argmax(assigned_d2[candidates])]
        counts[labels[best]] -= 1
        counts[j] += 1
        labels[best] = j
        centroids[j] = x[best]
        d2[:, j] = np.einsum("nd,nd->n", x - x[best], x - x[best])


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.einsum("nd,nd->n", x - x[chosen[0]], x - x[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total == 0.0:
            # all remaining mass sits on already-chosen points; take the
            # lowest-index point not yet used
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.einsum("nd,nd->n", x - x[nxt], x - x[nxt]))
    return x[chosen].copy()


def kmeans(vectors: np.ndarray, k: int, cfg: ClusteringConfig) -> ClusterAssignment:
    """Best of cfg.n_init Lloyd runs, deterministic in cfg.seed.

    A single k-means++ start can settle in a poor local minimum even on
    tiny inputs; restarts keep the final inertia near the true optimum.
    Ties between restarts keep the earliest one.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array of vectors, got shape {x.shape}")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of vectors n={n}")

    best: ClusterAssignment | None = None
    for attempt in range(cfg.n_init):
        rng = np.random.default_rng((cfg.seed & 0xFFFFFFFFFFFFFFFF, attempt))
        run = _lloyd_once(x, k, rng, cfg.max_iters)
        if best is None or run.inertia < best.inertia:
            best = run
    return best


def _lloyd_once(
    x: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> ClusterAssignment:
    n = x.shape[0]
    centroids = _kmeanspp_init(x, k, rng)
    labels, d2 = _assign(x, centroids)
    _repair_empty(x, labels, centroids, d2)
    assigned = d2[np.arange(n), labels]
    history = [float(assigned.sum())]

    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        for j in range(k):
            centroids[j] = x[labels == j].mean(axis=0)
        new_labels, d2 = _assign(x, centroids)
        _repair_empty(x, new_labels, centroids, d2)
        assigned = d2[np.arange(n), new_labels]
        history.append(float(assigned.sum()))
        converged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        if converged:
            break

    return ClusterAssignment(
        k=k,
        labels=labels,
        centroids=centroids,
        inertia=history[-1],
        iterations_run=iterations,
        inertia_history=history,
        point_distances=np.sqrt(assigned),
    )


def cluster_table(embeddings: np.ndarray, cfg: ClusteringConfig) -> ClusterAssignment:
    """adaptive_k followed by kmeans; a one-row table skips Lloyd entirely."""
    x = np.asarray(embeddings, dtype=np.float64)
    m = x.shape[0]
    k = adaptive_k(m, cfg)
    if m == 1:
        return ClusterAssignment(
            k=1,
            labels=np.zeros(1, dtype=np.intp),
            centroids=x.copy(),
            inertia=0.0,
            iterations_run=0,
            inertia_history=[0.0],
            point_distances=np.zeros(1),
        )
    return kmeans(x, k, cfg)
