"""K-means over instance embeddings with an adaptive cluster count.

The cluster count is k = min(ceil(m / r), k_max) for a table with m
rows. Lloyd iterations start from k-means++ seeding and run until the
assignment reaches a fixed point (or max_iters). Exiting on a fixed
point, rather than on a small centroid shift, is what guarantees the
return-state invariants: each centroid is exactly the mean of its members
and every point sits in its nearest cluster.

The n_init restarts run in lockstep on one (n_init, k, d) centroid array
and give the bits of running them one after another (tests/test_cluster.py
keeps that per-restart loop as its oracle). This rests on the following
floating-point facts, checked on numpy 2.4 with OpenBLAS 0.3.31:

- einsum("rnd,rnd->rn") over one (n_init, n, d) slab per centroid gives
  each row the bits of einsum("nkd,nkd->nk") over an (n, k, d) tensor:
  both add a row's d products in one inner loop, without BLAS, so the
  bits do not depend on the machine's BLAS either. The working set is
  one such slab, n_init / k times the per-restart (n, k, d) tensor: a
  few hundred KB for the benchmark's tables, but it grows with n * d.
- x[labels == j].mean(axis=0) with d >= 2 adds the member rows one at a
  time, in row order, into a +0.0 accumulator, then divides by the
  count; _member_means does the same for every restart and cluster at
  once. np.add.reduceat and a BLAS product group the additions
  differently and change the last bits. With d == 1 numpy sums the
  column pairwise instead, so that case keeps the per-cluster mean.
- The row sums of a C-contiguous (n_init, n) array equal each row's own
  sum (the same pairwise summation), so every restart's inertia is the
  sum the per-restart loop took.
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
class ClusterLabels:
    """A table's clustering as partial-table construction reads it."""

    k: int
    labels: np.ndarray
    # Euclidean distance of each point to its assigned centroid
    point_distances: np.ndarray

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)


@dataclass
class ClusterAssignment(ClusterLabels):
    centroids: np.ndarray
    inertia: float
    iterations_run: int
    # sum of squared distances after init and after each Lloyd iteration
    inertia_history: list[float]


def adaptive_k(m: int, cfg: ClusteringConfig) -> int:
    """Cluster count for a table with m rows: min(ceil(m / r), k_max)."""
    if m < 1:
        raise ValueError(f"instance count must be >= 1, got {m}")
    return min(math.ceil(m / cfg.r), cfg.k_max)


def _sq_dist_to(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(R, n) squared Euclidean distances from every row of x to each of
    R points, computed without BLAS so the bits do not depend on the
    machine (see the module docstring)."""
    diff = x[None, :, :] - points[:, None, :]
    return np.einsum("rnd,rnd->rn", diff, diff)


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each row for R restarts of (k, d) centroids:
    (R, n) labels and (R, n, k) squared distances."""
    runs, k, _ = centroids.shape
    d2 = np.empty((runs, x.shape[0], k))
    for j in range(k):
        d2[:, :, j] = _sq_dist_to(x, centroids[:, j])
    labels = np.argmin(d2, axis=2)  # argmin takes the lowest index on ties
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


def _assign_and_repair(
    x: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign every restart, repair the ones left with an empty cluster
    (mutating their centroids), and return (R, n) labels and the (R, n)
    squared distance of each row to its own centroid."""
    k = centroids.shape[1]
    labels, d2 = _assign(x, centroids)
    empty = ~(labels[:, :, None] == np.arange(k)).any(axis=1).all(axis=1)
    for r in np.flatnonzero(empty):
        _repair_empty(x, labels[r], centroids[r], d2[r])
    return labels, np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]


def _kmeanspp_init(x: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(R, k, d) k-means++ seeds, one restart per generator.

    Each generator sees the same integers/choice calls, in the same
    order, as a restart seeded on its own.
    """
    n = x.shape[0]
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = np.full((len(rngs), n), np.inf)
    for c in range(1, k):
        d2 = np.minimum(d2, _sq_dist_to(x, x[chosen[:, c - 1]]))
        for r, rng in enumerate(rngs):
            total = float(d2[r].sum())
            if total == 0.0:
                # all remaining mass sits on already-chosen points; take the
                # lowest-index point not yet used
                taken = set(chosen[r, :c].tolist())
                chosen[r, c] = next(i for i in range(n) if i not in taken)
            else:
                chosen[r, c] = rng.choice(n, p=d2[r] / total)
    return x[chosen]


def _member_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(R, k, d) mean of each cluster's rows, for (R, n) labels with no
    empty cluster.

    The sums start at +0.0 and add member rows one at a time in row
    order, as ``x[labels == j].mean(axis=0)`` does for d >= 2; a slot past
    a cluster's last member reads a row of +0.0, which cannot change a
    sum that started at +0.0. numpy sums a single column (d == 1)
    pairwise, so that case calls it per cluster.
    """
    runs, n = labels.shape
    if x.shape[1] == 1:
        return np.array([[x[lab == j].mean(axis=0) for j in range(k)] for lab in labels])
    onehot = labels[:, :, None] == np.arange(k)
    counts = onehot.sum(axis=1)
    rank = np.take_along_axis(np.cumsum(onehot, axis=1), labels[:, :, None], axis=2)[:, :, 0] - 1
    # slots[r, j, s]: the row of cluster j's s-th member in restart r, or n
    slots = np.full((runs, k, int(counts.max())), n)
    slots[np.arange(runs)[:, None], labels, rank] = np.arange(n)
    padded = np.vstack([x, np.zeros((1, x.shape[1]))])
    sums = np.zeros((runs, k, x.shape[1]))
    for s in range(slots.shape[2]):
        sums += padded[slots[:, :, s]]
    return sums / counts[:, :, None]


def kmeans(vectors: np.ndarray, k: int, cfg: ClusteringConfig) -> ClusterAssignment:
    """Best of cfg.n_init Lloyd runs, deterministic in cfg.seed.

    A single k-means++ start can settle in a poor local minimum even on
    tiny inputs; restarts keep the final inertia near the true optimum.
    The restarts run in lockstep on one (n_init, k, d) centroid array,
    each with its own generator; a restart leaves the active set once its
    labels stop changing. Ties between restarts keep the earliest one.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array of vectors, got shape {x.shape}")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of vectors n={n}")

    rngs = [
        np.random.default_rng((cfg.seed & 0xFFFFFFFFFFFFFFFF, attempt))
        for attempt in range(cfg.n_init)
    ]
    centroids = _kmeanspp_init(x, k, rngs)
    labels, assigned = _assign_and_repair(x, centroids)
    histories = [[h] for h in assigned.sum(axis=1).tolist()]
    iterations = [0] * cfg.n_init

    active = np.arange(cfg.n_init)
    for it in range(1, cfg.max_iters + 1):
        if active.size == 0:
            break
        old = labels[active]
        moved = _member_means(x, old, k)
        new, new_assigned = _assign_and_repair(x, moved)
        for r, h in zip(active.tolist(), new_assigned.sum(axis=1).tolist()):
            histories[r].append(h)
            iterations[r] = it
        centroids[active] = moved
        labels[active] = new
        assigned[active] = new_assigned
        active = active[~(new == old).all(axis=1)]

    best = 0
    for r in range(1, cfg.n_init):
        if histories[r][-1] < histories[best][-1]:
            best = r
    return ClusterAssignment(
        k=k,
        labels=labels[best],
        centroids=centroids[best],
        inertia=histories[best][-1],
        iterations_run=iterations[best],
        inertia_history=histories[best],
        point_distances=np.sqrt(assigned[best]),
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
