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
  count. _member_means gathers cluster j's member rows of every restart
  into one (R, w, d) stack, padded with +0.0 rows, and sums it with one
  np.add.reduce(axis=1, initial=0.0): with d >= 2 the inner loop runs
  along d, so the slots are added one at a time in row order from +0.0,
  as the mean does: against that slot-by-slot loop, 0 of 200 random
  stacks with -0.0 entries differed at each of d = 2, 3 and 64. With
  d == 1 numpy sums the column pairwise instead (156 of 200 differed),
  so that case keeps the per-cluster mean. np.add.reduceat and a BLAS
  product group the additions differently and change the last bits.
- A Lloyd step keeps each restart's (n, k) squared distances from the
  last one and recomputes column j only where centroid j's bits moved,
  compared as uint64 since -0.0 == +0.0, and every column of a restart
  that _repair_empty touched. A kept column has the bits a recomputation
  would give: by the einsum fact above, a row's distance depends only on
  the row and the centroid's bits, not on which restarts share the
  slab. The stale restarts of a column are recomputed alone only where
  their slab and their gathered centroids fit in the full slab, so the
  peak allocation does not grow. With k <= 2 every step after the first
  follows a label change, which moves a row out of one cluster into the
  other, so both centroids move (bar equal rows) and the step
  recomputes everything without comparing. Of the Lloyd columns at
  k > 2, a cold build kept 23.6 % on the tall benchmark workload (k = 5,
  seed 1), 12.6 % on http (k = 3, seed 1) and 12.6 % on the demo (k = 3,
  seed 7).
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


def _sq_dist_to(
    xs: np.ndarray, tab: np.ndarray, points: np.ndarray, rows: slice | np.ndarray = slice(None)
) -> np.ndarray:
    """(R', n) squared Euclidean distances from every row of restart r's
    table xs[tab[r]] to points[r], for the R' restarts r in rows, computed
    without BLAS so the bits do not depend on the machine (see the module
    docstring)."""
    diff = xs[tab[rows]]
    diff -= points[rows, None, :]  # a copy of the rows' points lives for this line only
    return np.einsum("rnd,rnd->rn", diff, diff)


def _assign(
    xs: np.ndarray,
    tab: np.ndarray,
    centroids: np.ndarray,
    d2: np.ndarray,
    stale: np.ndarray | None = None,
) -> np.ndarray:
    """Nearest centroid of each row for R restarts of (k, d) centroids:
    (R, n) labels. d2 holds the (R, n, k) squared distances, and column
    (r, j) is recomputed for centroids[r, j] where stale[r, j], or
    everywhere when stale is None; the other columns were computed for
    centroids of the same bits, which give the same distances again."""
    runs, n, k = d2.shape
    for j in range(k):
        rows = None if stale is None else np.flatnonzero(stale[:, j])
        # the stale rows' slab and their gathered points stay within the
        # full (R, n, d) slab, or the whole column is recomputed
        if rows is None or rows.size * (n + 1) > runs * n:
            d2[:, :, j] = _sq_dist_to(xs, tab, centroids[:, j])
        elif rows.size:
            d2[rows, :, j] = _sq_dist_to(xs, tab, centroids[:, j], rows)
    return np.argmin(d2, axis=2)  # argmin takes the lowest index on ties


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
    xs: np.ndarray,
    tab: np.ndarray,
    centroids: np.ndarray,
    d2: np.ndarray,
    stale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign every restart (see _assign), repair the ones left with an
    empty cluster (mutating their centroids and distances), and return
    (R, n) labels, the (R, n) squared distance of each row to its own
    centroid and the (R,) mask of repaired restarts."""
    k = centroids.shape[1]
    labels = _assign(xs, tab, centroids, d2, stale)
    repaired = ~(labels[:, :, None] == np.arange(k)).any(axis=1).all(axis=1)
    for r in np.flatnonzero(repaired):
        _repair_empty(xs[tab[r]], labels[r], centroids[r], d2[r])
    return labels, np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0], repaired


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

    Each cluster's sums start at +0.0 and add its member rows one at a
    time in row order, one reduce over a (R, w, d) gather of its slots,
    as ``x[labels == j].mean(axis=0)`` does for d >= 2; a slot past a
    cluster's last member reads the +0.0 row, which cannot change a sum
    that started at +0.0. numpy sums a single column (d == 1) pairwise,
    so that case calls it per cluster.
    """
    runs, n = labels.shape
    if padded.shape[2] == 1:
        return np.array(
            [[padded[t, :n][lab == j].mean(axis=0) for j in range(k)] for t, lab in zip(tab, labels)]
        )
    # seen[r, i, j]: how many of restart r's rows 0..i are in cluster j
    seen = np.cumsum(labels[:, :, None] == np.arange(k), axis=1)
    counts = seen[:, -1]
    rank = seen.reshape(-1, k)[np.arange(labels.size), labels.ravel()].reshape(runs, n) - 1
    widths = counts.max(axis=0)
    # slots[r, j, s]: the row of cluster j's s-th member in restart r, or n
    slots = np.full((runs, k, int(widths.max())), n)
    slots[np.arange(runs)[:, None], labels, rank] = np.arange(n)
    sums = np.empty((runs, k, padded.shape[2]))
    for j, width in enumerate(widths.tolist()):
        members = padded[tab[:, None], slots[:, j, :width]]
        sums[:, j] = np.add.reduce(members, axis=1, initial=0.0)
        del members  # one cluster's gather alive at a time
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
    d2 = np.empty((tab.size, n, k))
    labels, assigned, repaired = _assign_and_repair(xs, tab, centroids, d2)
    histories = [[h] for h in assigned.sum(axis=1).tolist()]
    iterations = [0] * tab.size

    # d2 and repaired cover the active restarts, in the order of active
    active = np.arange(tab.size)
    for it in range(1, cfg.max_iters + 1):
        if active.size == 0:
            break
        old = labels[active]
        moved = _member_means(padded, tab[active], old, k)
        stale = None  # with k <= 2 both centroids move (see the module docstring)
        if k > 2:
            stale = (moved.view(np.uint64) != centroids[active].view(np.uint64)).any(axis=2)
            stale[repaired] = True
        new, new_assigned, repaired = _assign_and_repair(xs, tab[active], moved, d2, stale)
        for r, h in zip(active.tolist(), new_assigned.sum(axis=1).tolist()):
            histories[r].append(h)
            iterations[r] = it
        centroids[active] = moved
        labels[active] = new
        assigned[active] = new_assigned
        going = ~(new == old).all(axis=1)
        if not going.all():
            active, d2, repaired = active[going], d2[going], repaired[going]

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
