"""Contrastive adapter training over frozen base embeddings.

The trainable object is a single d x d matrix W applied to both query
and document vectors, with the output re-normalized; W starts as the
identity, so untrained retrieval equals base retrieval. The loss per
triple is InfoNCE over the mined negatives:

    L = -log( exp(s+/tau) / (exp(s+/tau) + sum_i exp(si-/tau)) )

evaluated in shifted log-sum-exp form. When the positive logit is the
maximum the loss collapses to log1p of the shifted negative mass, which
keeps losses like 4e-18 exact instead of rounding them to zero at
tau = 0.01. Gradients are analytic, including the normalization map
(projection onto the unit sphere's tangent), and are verified against
central finite differences by gradient_check.

train stacks every vector the triples name into one matrix once
(stack_rows); each triple is an index array over it, and matrix[idx]
is the (h+2, d) row block [q; pos; negs] of one triple. loss_and_grad
and mean_loss take a stack of B such blocks, (B, h+2, d), for triples
with the same h: train cuts each accumulation window into runs of
consecutive equal-length triples, mean_loss cuts chunks of _LOSS_CHUNK
triples the same way, and both add the results in triple order.
loss_and_grad works on whole arrays in the order of operations of a
loop with one np.outer per term (tests/test_train.py keeps that loop,
and the train loop around it, as its oracles), so the window sums and
the adapter keep their bits. Its BLAS calls are the loop's, per triple:
W @ q, W @ pos, negs @ W.T, n_hat @ q_hat and n_hat.T @ ds, each made
as a stacked np.matmul (see scoring). Only the work around them is
shaped for speed (checked byte for byte against the loop on 3000 random
stacks of 1 to 39 triples, d from 1 to 64):

- Norms are numpy's own np.linalg.norm formulas: sqrt(v.dot(v)) for a
  vector, taken as a stacked (1, d) @ (d, 1) matmul, and
  sqrt(np.add.reduce(v * v)) along each row.
- One exp(z - max z) serves both the loss and the softmax; exp is
  elementwise, so its slice [1:] has the bits of exp(z[1:] - max z).
  Each row's loss takes log1p or log as np.where picks, and the
  ufuncs give an array element the bits they give it alone.
- The tangent projections take all h + 2 dot products with one stacked
  np.matmul of (h+2, 1, d) by (h+2, d, 1); einsum sums in another order.
- Each triple's h + 2 outer products are summed by one
  np.einsum("ia,ib->ab") call and added into the window's sum, triple
  after triple. The einsum sums from +0.0, so it can give +0.0 where the
  loop gives -0.0; nothing else differs. The window sum cannot see that
  sign: it starts at +0.0, and under round-to-nearest a sum that starts
  at +0.0 never becomes -0.0 (of 9045 random triples, 617 gradients
  differed from the loop's in a zero's sign, and no window sum did). A
  stacked "tia,tib->tab" kept the bits but was slower than per-triple
  calls; one einsum or gemm over a whole window changes bits (scoring).
- mean_loss runs the forward pass only.

A stack fails as a whole on a collapsed norm, and _forward names the
first block that collapsed. When a stack collapses, or leaves a
non-finite loss or window sum, train redoes its triples one at a time,
each into a zero sum, so the first triple in window order that fails
raises, as it would on its own; if none fails alone, the sum overflowed,
and the stack's first triple is named. mean_loss names the first
collapsing triple of its stack. Both errors name the triple's query_id.

adapter_apply_rows maps a whole matrix with the bits of adapter_apply per
row (tests/test_train.py keeps that loop as the oracle): its stacked
matmuls hand each row to the gemv of W @ v, and each squared norm to the
dot of out.dot(out). np.einsum("ij,ij->i") would sum the squared norms
in another order, and V @ W.T is one gemm; neither is used.

adapter.bin holds the magic, u32 version, u32 dim and row-major f64 W,
then the 8-byte BLAKE2b trailer of fsio.checksum. Version 2 marks that
trailer; version 1 files (CRC-64 trailer) are rejected and rebuilt.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .fsio import CHECKSUM_SIZE, ArtifactError, atomic_write_bytes, checksum, read_checked
from .mining import TrainingTriple

ADAPTER_MAGIC = b"CGPTADPT"
ADAPTER_VERSION = 2
# triples per stack in mean_loss, which bounds its allocation
_LOSS_CHUNK = 32


class TrainError(RuntimeError):
    """Training hit a non-finite loss or gradient, or a collapsed vector."""


class _Collapsed(TrainError):
    """An adapted vector of a stack's block has norm zero; block is the
    first such block."""

    def __init__(self, block: int) -> None:
        super().__init__("adapted vector collapsed to zero")
        self.block = block


@dataclass(frozen=True)
class TrainConfig:
    tau: float = 0.01
    epochs: int = 2
    accumulation_steps: int = 32
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        for name in ("tau", "learning_rate", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:  # NaN included
                raise ValueError(f"{name} must be a positive finite number")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1")


@dataclass
class Adapter:
    W: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.W.shape[0])


@dataclass
class TrainReport:
    initial_loss: float
    final_loss: float
    epoch_mean_losses: list[float]
    steps: int
    triples_seen: int
    log: list[dict] = field(default_factory=list, repr=False)


def adapter_apply(adapter: Adapter, v: np.ndarray) -> np.ndarray:
    """W v / ||W v||; identity W returns v up to normalization rounding."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (adapter.dim,):
        raise ValueError(f"vector dim {v.shape} does not match adapter dim {adapter.dim}")
    out = adapter.W @ v
    # np.linalg.norm's own formula for a vector, without its dispatch
    n = math.sqrt(out.dot(out))
    if n == 0.0:
        raise ValueError("adapter maps this vector to zero; cannot normalize")
    return out / n


def adapter_apply_rows(adapter: Adapter, vectors: np.ndarray) -> np.ndarray:
    """adapter_apply of each row of vectors, bit for bit, in one stacked pass."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != adapter.dim:
        raise ValueError(f"vectors of shape {v.shape} do not match adapter dim {adapter.dim}")
    out = np.matmul(adapter.W, v[:, :, None])[:, :, 0]
    norms = np.sqrt(np.matmul(out[:, None, :], out[:, :, None])[:, 0, 0])
    if not norms.all():
        raise ValueError("adapter maps a vector to zero; cannot normalize")
    return out / norms[:, None]


def infonce_loss(
    q_vec: np.ndarray, pos_vec: np.ndarray, neg_vecs: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Loss plus the raw similarities, sims[0] positive, sims[1:] negatives.

    Inputs are unit vectors; similarities are plain dot products.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    q_vec = np.asarray(q_vec, dtype=np.float64)
    s_pos = float(np.dot(q_vec, pos_vec))
    if len(neg_vecs) == 0:
        return 0.0, np.array([s_pos])
    s_neg = np.dot(np.asarray(neg_vecs, dtype=np.float64), q_vec)
    sims = np.concatenate(([s_pos], s_neg))
    return float(_loss_and_exp(sims[None], tau)[0][0]), sims


def _loss_and_exp(sims: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's loss over the similarity rows [s+, s-...], and exp(z -
    max z) of the logits z = sims / tau, which the softmax of
    loss_and_grad reuses."""
    z = sims / tau
    m = z.max(axis=1)
    e = np.exp(z - m[:, None])
    # where the positive is the largest logit, log1p keeps sub-epsilon losses exact
    loss = np.where(
        z[:, 0] == m, np.log1p(e[:, 1:].sum(axis=1)), m - z[:, 0] + np.log(e.sum(axis=1))
    )
    return loss, e


def _forward(W: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adapted unit vectors of each block [q, pos, negs...] of the stack
    R, the norms they were divided by, and the similarities [s+, s-...]."""
    hats = np.empty(R.shape)
    hats[:, :2] = np.matmul(W, R[:, :2, :, None])[..., 0]
    hats[:, 2:] = np.matmul(R[:, 2:], W.T)
    qp = hats[:, :2]
    norms = np.empty(R.shape[:2])
    norms[:, :2] = np.sqrt(np.matmul(qp[:, :, None, :], qp[:, :, :, None])[..., 0, 0])
    norms[:, 2:] = np.sqrt(np.add.reduce(hats[:, 2:] * hats[:, 2:], axis=2))
    if not norms.all():
        raise _Collapsed(int(norms.all(axis=1).argmin()))
    hats /= norms[:, :, None]
    sims = np.empty((len(R), R.shape[1] - 1))
    sims[:, 0] = np.matmul(hats[:, None, 0], hats[:, 1, :, None])[:, 0, 0]
    sims[:, 1:] = np.matmul(hats[:, 2:], hats[:, 0, :, None])[..., 0]
    return hats, norms, sims


def _losses(W: np.ndarray, R: np.ndarray, tau: float) -> np.ndarray:
    """The losses of loss_and_grad, without the gradients."""
    return _loss_and_exp(_forward(W, R)[2], tau)[0]


def loss_and_grad(W: np.ndarray, R: np.ndarray, tau: float, grad_sum: np.ndarray) -> np.ndarray:
    """InfoNCE losses of a stack of triples, and their exact gradients in
    W added into grad_sum.

    R is (B, n, d): B blocks of the triples' base unit vectors, each
    [q; pos; negs] with the same n - 2 negatives; both sides go through
    the same W and renormalization before the similarities. Each
    triple's d x d gradient is added into grad_sum in stack order.
    Returns the (B,) losses.
    """
    hats, norms, sims = _forward(W, R)
    if R.shape[1] == 2:
        return np.zeros(len(R))
    loss, e = _loss_and_exp(sims, tau)
    # dL/ds: positive gets (p0 - 1)/tau, negative i gets pi/tau
    ds = e / e.sum(axis=1)[:, None]
    ds /= tau
    ds[:, 0] -= 1.0 / tau

    q_hat, p_hat, n_hat = hats[:, :1], hats[:, 1], hats[:, 2:]
    # gradient w.r.t. each unit vector, rows in the order of hats
    g = np.empty_like(hats)
    np.multiply(ds[:, :, None], q_hat, out=g[:, 1:])
    g[:, 0] = ds[:, :1] * p_hat + np.matmul(n_hat.transpose(0, 2, 1), ds[:, 1:, None])[..., 0]
    # pull each row back through v -> v/||v|| (projection onto the tangent)
    dots = np.matmul(g[:, :, None, :], hats[:, :, :, None])[..., 0, 0]
    g -= dots[:, :, None] * hats
    g /= norms[:, :, None]
    # per triple, one outer product per row, summed first to last (module docstring)
    for j in range(len(R)):
        grad_sum += np.einsum("ia,ib->ab", g[j], R[j])
    return loss


class _Adam:
    def __init__(self, shape: tuple[int, ...], cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, w: np.ndarray, grad: np.ndarray) -> None:
        c = self.cfg
        self.t += 1
        self.m = c.adam_beta1 * self.m + (1 - c.adam_beta1) * grad
        self.v = c.adam_beta2 * self.v + (1 - c.adam_beta2) * grad * grad
        m_hat = self.m / (1 - c.adam_beta1**self.t)
        v_hat = self.v / (1 - c.adam_beta2**self.t)
        w -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.adam_eps)


def stack_rows(
    triples: list[TrainingTriple], vectors: dict[str, np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every vector the triples name as the rows of one matrix, and per
    triple the indices of its [q; pos; negs] rows in that matrix."""
    row_of: dict[str, int] = {}
    blocks = []
    for t in triples:
        ids = (t.query_id, t.positive_pt_id, *t.negative_pt_ids)
        for vid in ids:
            if vid not in vectors:
                raise TrainError(f"{t.query_id}: missing base embedding for {vid!r}")
        blocks.append(np.array([row_of.setdefault(vid, len(row_of)) for vid in ids]))
    return np.stack([vectors[vid] for vid in row_of]), blocks


def _stacks(
    items: Iterable[int], matrix: np.ndarray, blocks: list[np.ndarray]
) -> Iterator[tuple[list[int], np.ndarray]]:
    """items cut into runs of consecutive triples with equal-length
    blocks, each run with its (B, h+2, d) stack of rows."""
    for _, group in itertools.groupby(items, key=lambda i: len(blocks[i])):
        run = list(group)
        yield run, matrix[np.stack([blocks[i] for i in run])]


def _collapsed_at(triple: TrainingTriple) -> TrainError:
    return TrainError(f"adapted vector collapsed to zero at triple {triple.query_id}")


def mean_loss(
    triples: list[TrainingTriple],
    matrix: np.ndarray,
    blocks: list[np.ndarray],
    W: np.ndarray,
    tau: float,
) -> float:
    """Mean loss over the triples, which stack_rows gave as matrix and blocks."""
    if not blocks:
        raise ValueError("no triples to evaluate")
    total = 0.0
    for start in range(0, len(blocks), _LOSS_CHUNK):
        chunk = range(start, min(start + _LOSS_CHUNK, len(blocks)))
        for run, R in _stacks(chunk, matrix, blocks):
            try:
                losses = _losses(W, R, tau)
            except _Collapsed as exc:
                raise _collapsed_at(triples[run[exc.block]]) from None
            for loss in losses.tolist():
                total += loss
    return total / len(blocks)


def _checked_loss_and_grad(
    w: np.ndarray, R: np.ndarray, tau: float, grad_sum: np.ndarray, run: list[TrainingTriple]
) -> list[float]:
    """loss_and_grad of the stack R of the triples run, into grad_sum; on
    failure, the TrainError of the run's first triple that fails alone,
    or, if none does (the sum overflowed), of the run's first triple."""
    try:
        losses = loss_and_grad(w, R, tau, grad_sum)
        if np.isfinite(losses).all() and np.isfinite(grad_sum).all():
            return losses.tolist()
    except _Collapsed:
        pass
    for triple, block in zip(run, R):
        alone = np.zeros_like(w)
        try:
            losses = loss_and_grad(w, block[None], tau, alone)
        except _Collapsed:
            raise _collapsed_at(triple) from None
        if not (np.isfinite(losses).all() and np.isfinite(alone).all()):
            raise TrainError(f"non-finite loss or gradient at triple {triple.query_id}")
    raise TrainError(f"non-finite loss or gradient at triple {run[0].query_id}")


def train(
    triples: list[TrainingTriple],
    vectors: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> tuple[Adapter, TrainReport]:
    """Identity-initialized adapter fit with Adam over accumulated windows.

    Each window of accumulation_steps triples contributes one Adam step
    on the mean gradient; a short tail window still flushes. Triples are
    shuffled per epoch with the seeded generator (the seed taken modulo
    2**64), so the whole run is deterministic. Each run of consecutive
    triples with as many negatives in a window goes through
    loss_and_grad as one stack, which adds the gradients into the
    window's sum in triple order; the losses are added in that order too.
    """
    if not triples:
        raise ValueError("cannot train on zero triples")
    dims = {v.shape[0] for v in vectors.values()}
    if len(dims) != 1:
        raise ValueError(f"mixed embedding dims in vector store: {sorted(dims)}")
    d = dims.pop()
    matrix, blocks = stack_rows(triples, vectors)

    w = np.eye(d, dtype=np.float64)
    initial_loss = mean_loss(triples, matrix, blocks, w, cfg.tau)
    optimizer = _Adam((d, d), cfg)
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    epoch_means = []
    log: list[dict] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triples)) if cfg.shuffle else range(len(triples))
        epoch_total = 0.0
        for start in range(0, len(order), cfg.accumulation_steps):
            grad_sum = np.zeros_like(w)
            window_losses: list[float] = []
            window = order[start : start + cfg.accumulation_steps]
            for run, R in _stacks(window, matrix, blocks):
                run_triples = [triples[i] for i in run]
                for loss in _checked_loss_and_grad(w, R, cfg.tau, grad_sum, run_triples):
                    epoch_total += loss
                    window_losses.append(loss)
            optimizer.step(w, grad_sum / len(window_losses))
            log.append(
                {
                    "epoch": epoch,
                    "step": optimizer.t,
                    "loss": sum(window_losses) / len(window_losses),
                }
            )
        epoch_means.append(epoch_total / len(triples))

    final_loss = mean_loss(triples, matrix, blocks, w, cfg.tau)
    report = TrainReport(
        initial_loss=initial_loss,
        final_loss=final_loss,
        epoch_mean_losses=epoch_means,
        steps=optimizer.t,
        triples_seen=cfg.epochs * len(triples),
        log=log,
    )
    return Adapter(W=w), report


def gradient_check(
    dim: int = 8, n_triples: int = 5, step: float = 1e-5, tau: float = 0.5, seed: int = 7
) -> float:
    """Max relative error of the analytic gradient vs central differences;
    NaN when any difference quotient is not finite."""
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    worst = 0.0
    for _ in range(n_triples):
        # a stack of one: q, pos and three negatives
        R = np.stack([_unit(rng.normal(size=dim)) for _ in range(5)])[None]
        w = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
        grad = np.zeros((dim, dim))
        loss_and_grad(w, R, tau, grad)
        for i in range(dim):
            for j in range(dim):
                w_plus, w_minus = w.copy(), w.copy()
                w_plus[i, j] += step
                w_minus[i, j] -= step
                lp = _losses(w_plus, R, tau)[0]
                lm = _losses(w_minus, R, tau)[0]
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(grad[i, j]), abs(numeric), 1e-6)
                # np.maximum keeps a NaN error, where max(worst, nan) is worst
                worst = float(np.maximum(worst, abs(grad[i, j] - numeric) / denom))
    return worst


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def save_adapter(adapter: Adapter, path: str) -> None:
    """Binary layout: magic, u32 version, u32 dim, row-major f64 W, checksum trailer."""
    header = ADAPTER_MAGIC + struct.pack("<II", ADAPTER_VERSION, adapter.dim)
    w = np.ascontiguousarray(adapter.W, dtype="<f8")
    atomic_write_bytes(path, header, w, checksum(header, w))


def load_adapter(path: str, expected_dim: int | None = None) -> Adapter:
    with open(path, "rb") as fh:
        header = fh.read(len(ADAPTER_MAGIC) + 8)
        size = os.fstat(fh.fileno()).st_size
        if size < len(ADAPTER_MAGIC) + 8 + CHECKSUM_SIZE or not header.startswith(ADAPTER_MAGIC):
            raise ArtifactError(path, "not an adapter file")
        version, dim = struct.unpack_from("<II", header, len(ADAPTER_MAGIC))
        w = read_checked(fh, path, header, (dim, dim))
    if version != ADAPTER_VERSION:
        raise ArtifactError(path, f"unsupported adapter version {version}")
    if w is None:
        raise ArtifactError(path, f"payload size does not match dim {dim}")
    if expected_dim is not None and dim != expected_dim:
        raise ArtifactError(path, f"adapter dim {dim} != provider dim {expected_dim}")
    return Adapter(W=w)
