"""Dot-product scoring and the one ranking rule of mining and retrieval.

Hard mining ranks a query's eligible partial tables, and search and
evaluate rank tables by fused score, in one order: descending score,
ties by an id rank (pt_id order in mining, table_id order in
retrieval), with -0.0 equal to 0.0. lexsort_head takes the head of that
order by selection: np.partition finds the take-th smallest key, and
np.lexsort orders only the rows at or below it, ties included.
counted_rank places one table in it without sorting: the tables scoring
above it, plus those before it that tie with it, plus one, which is
where np.argsort(-fused, kind="stable") puts it, as fused scores are
finite. tests/test_scoring.py keeps the full lexsort and a loop of
np.dot as oracles, and tests/test_retrieval.py the stable sort.

Scores decide near-ties and reach the artifacts, so each keeps its
bits. The BLAS facts that fix them, on numpy 2.4.6 with OpenBLAS 0.3.31
(SkylakeX kernel, one thread):

- A stacked np.matmul, its matrix broadcast or one per slice, hands
  each slice to the gemv, gemm or dot the slice alone takes, with its
  bits: score_block (nine shapes of 1 to 2000 rows, 1 to 800 queries,
  d = 8, 64 and 128), train.loss_and_grad and adapter_apply_rows rely
  on it. A block of one is np.dot itself through out=: the same gemv
  without the broadcast (7.1 against 8.5 us at 800 x 64).
- A gemm changes the bits: a Q x P gemm of a block against the matrix's
  transpose differed from per-query gemvs in 528095 of 640000 scores at
  800 x 800 x 64. No block, window or pool is one gemm.
- A row's bits can change with its position in the matrix: in
  M[a:a+n] @ q, a row can differ from a gemv over all of M only among
  the last n mod 4 rows passed (79 of 39900 scores, 800 x 64, against
  the same less two rows). So score_block takes the whole matrix in
  stored order, and hardest gathers each pool and scores it alone.
- Above about 8192 rows, OpenBLAS splits a gemv across 2 threads, and
  the bits then differ from one thread's for some sizes (8193, 12801,
  12803 and 50001 rows at d = 64; none of those tried up to 8192).
"""

from __future__ import annotations

import numpy as np


def lexsort_head(key: np.ndarray, rank: np.ndarray, take: int) -> np.ndarray:
    """np.lexsort((rank, key))[:take], for 1 <= take <= len(key), sorting
    only the rows that can be among them: every row whose key is at most
    the take-th smallest."""
    kth = np.partition(key, take - 1)[take - 1]
    rows = (key <= kth).nonzero()[0]
    return rows[np.lexsort((rank[rows], key[rows]))[:take]]


def score_block(matrix: np.ndarray, q_vecs: np.ndarray, pad: float) -> np.ndarray:
    """Every row's score for each query of q_vecs, one query per row, and
    one column past the last row holding pad."""
    block = np.empty((len(q_vecs), len(matrix) + 1))
    block[:, -1] = pad
    if len(q_vecs) == 1:
        np.dot(matrix, q_vecs[0], out=block[0, :-1])
    else:
        np.matmul(matrix, q_vecs[:, :, None], out=block[:, :-1, None])
    return block


def hardest(matrix: np.ndarray, eligible: np.ndarray, rank: np.ndarray, q_vecs: np.ndarray,
            take: int) -> list[np.ndarray]:
    """For each query of q_vecs, the matrix rows of its take best eligible
    rows by (-score, rank). The pool matrix[eligible] is gathered once and
    scored by one gemv per query."""
    rows = eligible.nonzero()[0]
    pool, pool_rank = matrix[rows], rank[rows]
    return [rows[lexsort_head(-np.dot(pool, q), pool_rank, take)] for q in q_vecs]


def counted_rank(fused: np.ndarray, golds: np.ndarray) -> np.ndarray:
    """Each row's 1-based place of its column golds[i] in (-fused, column)
    order."""
    at = golds[:, None]
    g = np.take_along_axis(fused, at, axis=1)
    ahead = (fused > g) | ((fused == g) & (np.arange(fused.shape[1]) < at))
    return ahead.sum(axis=1) + 1
