"""K-means over instance embeddings with an adaptive cluster count.

The cluster count is k = min(ceil(m / r), k_max) for a table with m
rows. Lloyd iterations start from k-means++ seeding and run until the
assignment reaches a fixed point (or max_iters). Exiting on a fixed
point, rather than on a small centroid shift, is what guarantees the
return-state invariants: each centroid is exactly the mean of its members
and every point sits in its nearest cluster.

cluster_tables clusters a whole corpus in one call. Tables with the same
row count n, width d and cluster count k form a group, and all T * n_init
restarts of a group run in lockstep on one (R, k, d) centroid array, each
restart reading its own table's rows from a (T, n + 1, d) stack of the
group's tables; one-row tables keep the k = 1 shortcut. A group is cut
into chunks of whole tables whose (R, n, d) difference slab stays within
SLAB_BYTES (256 KB), and a chunk holds at least one table, so a 150-row
table at d = 64 forms a chunk of its own. The batching pays only where
tables share a row count: where every table's row count differs, each
group is one table and the call costs what one call per table does.
Every restart gives the bits of running it alone (tests/test_cluster.py
keeps that per-restart loop as its oracle), because of the following
facts, checked on numpy 2.4.6 with OpenBLAS 0.3.31:

- Restart (seed, attempt) seeds from default_rng((seed, attempt)): one
  integers(n), then one choice(n, p=d2 / total) per further seed, except
  that a zero total takes the lowest unused row and no draw. Nothing
  else reads the generator, so the draws depend only on (seed, attempt,
  n, k), and one call takes them once per (n, k): integers(n), then
  k - 1 random()s, the m-th choice call using the m-th uniform u. On
  numpy 2.4, Generator.choice(n, p=q) is exactly cdf = q.cumsum();
  cdf /= cdf[-1]; cdf.searchsorted(u, side="right"), and on that
  non-decreasing cdf the index is the count of entries <= u, which every
  restart of a chunk takes at once.
- einsum("rnd,rnd->rn") over one (R, n, d) slab per centroid gives each
  row the bits of einsum("nkd,nkd->nk") over an (n, k, d) tensor: both
  add a row's d products in one inner loop, without BLAS, so the bits do
  not depend on the machine's BLAS either.
- x[labels == j].mean(axis=0) with d >= 2 adds the member rows one at a
  time, in row order, into a +0.0 accumulator, then divides by the
  count; _member_means does the same for every restart and cluster at
  once. np.add.reduceat and a BLAS product group the additions
  differently and change the last bits. With d == 1 numpy sums the
  column pairwise instead, so that case keeps the per-cluster mean.
- The row sums of a C-contiguous (R, n) array equal each row's own sum
  (the same pairwise summation), so every restart's inertia and seeding
  total is the sum the per-restart loop took, and the row-wise cumsum is
  each row's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Bound on a chunk's (R, n, d) float64 difference slab, R = its tables
# times n_init; a chunk holds at least one table.
SLAB_BYTES = 256 * 1024


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


def _one_row(x: np.ndarray) -> ClusterAssignment:
    """A one-row table's clustering: k = 1, without Lloyd."""
    return ClusterAssignment(
        k=1,
        labels=np.zeros(1, dtype=np.intp),
        centroids=x.copy(),
        inertia=0.0,
        iterations_run=0,
        inertia_history=[0.0],
        point_distances=np.zeros(1),
    )


def _seed_draws(n: int, k: int, cfg: ClusteringConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every attempt's k-means++ draws for an n-row table and k clusters:
    (n_init,) first seeds and (n_init, k - 1) uniforms, the m-th taken by
    the m-th choice call (see the module docstring)."""
    first = np.empty(cfg.n_init, dtype=np.intp)
    uniforms = np.empty((cfg.n_init, k - 1))
    for attempt in range(cfg.n_init):
        rng = np.random.default_rng((cfg.seed & 0xFFFFFFFFFFFFFFFF, attempt))
        first[attempt] = rng.integers(n)
        uniforms[attempt] = rng.random(k - 1)
    return first, uniforms


def _sq_dist_to(xs: np.ndarray, tab: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(R, n) squared Euclidean distances from every row of restart r's
    table xs[tab[r]] to points[r], computed without BLAS so the bits do
    not depend on the machine (see the module docstring)."""
    diff = xs[tab]
    diff -= points[:, None, :]
    return np.einsum("rnd,rnd->rn", diff, diff)


def _assign(
    xs: np.ndarray, tab: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each row for R restarts of (k, d) centroids:
    (R, n) labels and (R, n, k) squared distances."""
    runs, k, _ = centroids.shape
    d2 = np.empty((runs, xs.shape[1], k))
    for j in range(k):
        d2[:, :, j] = _sq_dist_to(xs, tab, centroids[:, j])
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
    xs: np.ndarray, tab: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign every restart, repair the ones left with an empty cluster
    (mutating their centroids), and return (R, n) labels and the (R, n)
    squared distance of each row to its own centroid."""
    k = centroids.shape[1]
    labels, d2 = _assign(xs, tab, centroids)
    empty = ~(labels[:, :, None] == np.arange(k)).any(axis=1).all(axis=1)
    for r in np.flatnonzero(empty):
        _repair_empty(xs[tab[r]], labels[r], centroids[r], d2[r])
    return labels, np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]


def _kmeanspp_init(
    xs: np.ndarray, tab: np.ndarray, k: int, first: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """(R, k, d) k-means++ seeds from each restart's first index and
    uniforms, as its own generator's integers and choice calls pick them."""
    runs, n = tab.size, xs.shape[1]
    chosen = np.empty((runs, k), dtype=np.intp)
    chosen[:, 0] = first
    d2 = np.full((runs, n), np.inf)
    for c in range(1, k):
        d2 = np.minimum(d2, _sq_dist_to(xs, tab, xs[tab, chosen[:, c - 1]]))
        totals = d2.sum(axis=1)
        live = totals != 0.0
        cdf = (d2[live] / totals[live, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(u, side="right") on a non-decreasing cdf
        chosen[live, c] = (cdf <= uniforms[live, c - 1, None]).sum(axis=1)
        for r in np.flatnonzero(~live):
            # all remaining mass sits on already-chosen points; take the
            # lowest-index point not yet used
            taken = set(chosen[r, :c].tolist())
            chosen[r, c] = next(i for i in range(n) if i not in taken)
    return xs[tab[:, None], chosen]


def _member_means(
    padded: np.ndarray, tab: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """(R, k, d) mean of each cluster's rows, for (R, n) labels with no
    empty cluster; padded is the (T, n + 1, d) table stack whose last row
    per table is +0.0.

    The sums start at +0.0 and add member rows one at a time in row
    order, as ``x[labels == j].mean(axis=0)`` does for d >= 2; a slot past
    a cluster's last member reads the +0.0 row, which cannot change a
    sum that started at +0.0. numpy sums a single column (d == 1)
    pairwise, so that case calls it per cluster.
    """
    runs, n = labels.shape
    if padded.shape[2] == 1:
        return np.array(
            [[padded[t, :n][lab == j].mean(axis=0) for j in range(k)] for t, lab in zip(tab, labels)]
        )
    onehot = labels[:, :, None] == np.arange(k)
    counts = onehot.sum(axis=1)
    rank = np.take_along_axis(np.cumsum(onehot, axis=1), labels[:, :, None], axis=2)[:, :, 0] - 1
    # slots[r, j, s]: the row of cluster j's s-th member in restart r, or n
    slots = np.full((runs, k, int(counts.max())), n)
    slots[np.arange(runs)[:, None], labels, rank] = np.arange(n)
    sums = np.zeros((runs, k, padded.shape[2]))
    for s in range(slots.shape[2]):
        sums += padded[tab[:, None], slots[:, :, s]]
    return sums / counts[:, :, None]


def _kmeans_chunk(
    tables: list[np.ndarray],
    k: int,
    cfg: ClusteringConfig,
    draws: tuple[np.ndarray, np.ndarray],
) -> list[ClusterAssignment]:
    """Best of cfg.n_init Lloyd runs for each of T (n, d) tables, all
    T * n_init restarts in lockstep on one (R, k, d) centroid array.

    Restart r runs attempt r % n_init on table r // n_init and leaves the
    active set once its labels stop changing. Ties between a table's
    restarts keep the earliest one.
    """
    n_init = cfg.n_init
    n, d = tables[0].shape
    padded = np.zeros((len(tables), n + 1, d))
    for t, x in enumerate(tables):
        padded[t, :n] = x
    xs = padded[:, :n]
    tab = np.repeat(np.arange(len(tables)), n_init)
    first, uniforms = draws
    centroids = _kmeanspp_init(
        xs, tab, k, np.tile(first, len(tables)), np.tile(uniforms, (len(tables), 1))
    )
    labels, assigned = _assign_and_repair(xs, tab, centroids)
    histories = [[h] for h in assigned.sum(axis=1).tolist()]
    iterations = [0] * tab.size

    active = np.arange(tab.size)
    for it in range(1, cfg.max_iters + 1):
        if active.size == 0:
            break
        old = labels[active]
        moved = _member_means(padded, tab[active], old, k)
        new, new_assigned = _assign_and_repair(xs, tab[active], moved)
        for r, h in zip(active.tolist(), new_assigned.sum(axis=1).tolist()):
            histories[r].append(h)
            iterations[r] = it
        centroids[active] = moved
        labels[active] = new
        assigned[active] = new_assigned
        active = active[~(new == old).all(axis=1)]

    final = np.array([h[-1] for h in histories]).reshape(len(tables), n_init)
    best = np.arange(len(tables)) * n_init + np.argmin(final, axis=1)  # first minimum
    labels, centroids, distances = labels[best], centroids[best], np.sqrt(assigned[best])
    return [
        ClusterAssignment(
            k=k,
            labels=labels[t],
            centroids=centroids[t],
            inertia=histories[r][-1],
            iterations_run=iterations[r],
            inertia_history=histories[r],
            point_distances=distances[t],
        )
        for t, r in enumerate(best.tolist())
    ]


def cluster_tables(
    matrices: Sequence[np.ndarray], cfg: ClusteringConfig
) -> list[ClusterAssignment]:
    """Best of cfg.n_init Lloyd runs, deterministic in cfg.seed, for every
    matrix in order, with k = adaptive_k of its row count; a one-row table
    skips Lloyd. A single k-means++ start can settle in a poor local
    minimum even on tiny inputs; restarts keep the final inertia near the
    true optimum. The tables of one (n, d, k) shape are clustered
    together in chunks of at most SLAB_BYTES."""
    xs = [np.asarray(m, dtype=np.float64) for m in matrices]
    out: list[ClusterAssignment | None] = [None] * len(xs)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, x in enumerate(xs):
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D array of vectors, got shape {x.shape}")
        k = adaptive_k(x.shape[0], cfg)
        if x.shape[0] == 1:
            out[i] = _one_row(x)
        else:
            groups.setdefault((*x.shape, k), []).append(i)
    draws: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for (n, d, k), members in groups.items():
        if (n, k) not in draws:
            draws[n, k] = _seed_draws(n, k, cfg)
        per_chunk = max(1, SLAB_BYTES // (cfg.n_init * n * max(d, 1) * 8))
        for start in range(0, len(members), per_chunk):
            part = members[start : start + per_chunk]
            for i, a in zip(part, _kmeans_chunk([xs[i] for i in part], k, cfg, draws[n, k])):
                out[i] = a
    return out  # type: ignore[return-value]
