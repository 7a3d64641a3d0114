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

loss_and_grad works on whole arrays in the order of operations of a
loop with one np.outer per term (tests/test_train.py keeps that loop as
its oracle), so gradients and the adapter keep their bits. Checked on
numpy 2.4 with OpenBLAS 0.3.31:

- The tangent projections take all h + 2 dot products with one stacked
  np.matmul of (h+2, 1, d) by (h+2, d, 1). Each product has the bits of
  np.dot of the two rows; einsum sums in a different order.
- The h + 2 outer products form one (h+2, d, d) array, summed by
  np.add.reduce(axis=0, initial=-0.0): for d >= 2 it adds the terms one
  at a time in order, starting from -0.0, which leaves the first term's
  bits as they are. Without initial, numpy starts from +0.0 and loses
  the sign of an entry whose terms are all -0.0. With d == 1 numpy adds
  pairwise, but every term is then a signed zero (the tangent of a
  1-vector is 0), whose sum does not depend on the order.
- mean_loss runs the forward pass only.

Batching a whole accumulation window stays out of scope: stacking B
triples turns the per-triple products negs @ W.T and n_hat @ q_hat into
one larger BLAS product, and OpenBLAS blocks a larger product
differently, which changes the last bits of its rows (V @ W.T against
per-row W @ v differed in 41410 of 51200 entries, 800 x 64, one
thread). The adapter would no longer be byte-identical.

adapter.bin holds the magic, u32 version, u32 dim and row-major f64 W,
then the 8-byte BLAKE2b trailer of fsio.checksum. Version 2 marks that
trailer; version 1 files (CRC-64 trailer) are rejected and rebuilt.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .fsio import CHECKSUM_SIZE, ArtifactError, atomic_write_bytes, checksum
from .mining import TrainingTriple

ADAPTER_MAGIC = b"CGPTADPT"
ADAPTER_VERSION = 2


class TrainError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


class AdapterFormatError(ArtifactError):
    """An adapter file is corrupt or has the wrong shape."""


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
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1")


@dataclass
class Adapter:
    W: np.ndarray
    version: int = ADAPTER_VERSION

    @property
    def dim(self) -> int:
        return int(self.W.shape[0])

    @classmethod
    def identity(cls, dim: int) -> "Adapter":
        return cls(W=np.eye(dim, dtype=np.float64))


@dataclass
class TrainReport:
    initial_loss: float
    final_loss: float
    epoch_mean_losses: list[float]
    steps: int
    triples_seen: int
    wall_time_s: float
    log: list[dict] = field(default_factory=list, repr=False)


def adapter_apply(adapter: Adapter, v: np.ndarray) -> np.ndarray:
    """normalize(W v); identity W returns v up to normalization rounding."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (adapter.dim,):
        raise ValueError(f"vector dim {v.shape} does not match adapter dim {adapter.dim}")
    out = adapter.W @ v
    n = float(np.linalg.norm(out))
    if n == 0.0:
        raise ValueError("adapter maps this vector to zero; cannot normalize")
    return out / n


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
    loss = _loss_from_sims(sims, tau)
    return loss, sims


def _loss_from_sims(sims: np.ndarray, tau: float) -> float:
    z = sims / tau
    m = float(np.max(z))
    if z[0] == m:
        # positive is the largest logit: log1p keeps sub-epsilon losses exact
        return float(np.log1p(np.sum(np.exp(z[1:] - m))))
    return float(m - z[0] + np.log(np.sum(np.exp(z - m))))


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / e.sum()


def _normalize_with_grad(a: np.ndarray) -> tuple[np.ndarray, float]:
    n = float(np.linalg.norm(a))
    if n == 0.0:
        raise TrainError("adapted vector collapsed to zero")
    return a / n, n


def _forward(
    W: np.ndarray, q: np.ndarray, pos: np.ndarray, negs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adapted unit vectors as rows [q, pos, negs...], the norms they
    were divided by, and the similarities [s+, s-...]."""
    q_hat, q_norm = _normalize_with_grad(W @ q)
    p_hat, p_norm = _normalize_with_grad(W @ pos)
    n_raw = negs @ W.T
    n_norms = np.linalg.norm(n_raw, axis=1)
    if np.any(n_norms == 0.0):
        raise TrainError("adapted negative collapsed to zero")
    n_hat = n_raw / n_norms[:, None]
    sims = np.concatenate(([np.dot(q_hat, p_hat)], n_hat @ q_hat))
    hats = np.vstack([q_hat, p_hat, n_hat])
    norms = np.concatenate(([q_norm, p_norm], n_norms))
    return hats, norms, sims


def _triple_loss(
    W: np.ndarray, q: np.ndarray, pos: np.ndarray, negs: np.ndarray, tau: float
) -> float:
    """The loss of loss_and_grad, without the gradient."""
    return _loss_from_sims(_forward(W, q, pos, negs)[2], tau)


def loss_and_grad(
    W: np.ndarray,
    q: np.ndarray,
    pos: np.ndarray,
    negs: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """InfoNCE loss and its exact gradient in W for one triple.

    q, pos and rows of negs are base unit vectors; both sides go through
    the same W and renormalization before the similarities.
    """
    hats, norms, sims = _forward(W, q, pos, negs)
    if len(negs) == 0:
        return 0.0, np.zeros_like(W)
    loss = _loss_from_sims(sims, tau)
    probs = _softmax(sims / tau)
    # dL/ds: positive gets (p0 - 1)/tau, negative i gets pi/tau
    ds = probs / tau
    ds[0] -= 1.0 / tau

    q_hat, p_hat, n_hat = hats[0], hats[1], hats[2:]
    # gradient w.r.t. each unit vector, rows in the order of hats
    g_hat = np.vstack([ds[0] * p_hat + n_hat.T @ ds[1:], ds[0] * q_hat, ds[1:, None] * q_hat])
    # pull each row back through v -> v/||v|| (projection onto the tangent)
    dots = np.matmul(g_hat[:, None, :], hats[:, :, None])[:, 0, 0]
    g_raw = (g_hat - dots[:, None] * hats) / norms[:, None]
    inputs = np.vstack([q, pos, negs])
    # one outer product per row of inputs, summed first to last from -0.0
    # (the additive identity), so the first term keeps its bits
    return loss, np.add.reduce(g_raw[:, :, None] * inputs[:, None, :], axis=0, initial=-0.0)


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


def _triple_vectors(
    triple: TrainingTriple, vectors: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        q = vectors[triple.query_id]
        pos = vectors[triple.positive_pt_id]
        negs = np.stack([vectors[nid] for nid in triple.negative_pt_ids])
    except KeyError as exc:
        raise TrainError(f"{triple.query_id}: missing base embedding for {exc}") from None
    return q, pos, negs


def mean_loss(
    triples: list[TrainingTriple],
    vectors: dict[str, np.ndarray],
    W: np.ndarray,
    tau: float,
) -> float:
    if not triples:
        raise ValueError("no triples to evaluate")
    total = 0.0
    for t in triples:
        total += _triple_loss(W, *_triple_vectors(t, vectors), tau)
    return total / len(triples)


def train(
    triples: list[TrainingTriple],
    vectors: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> tuple[Adapter, TrainReport]:
    """Identity-initialized adapter fit with Adam over accumulated windows.

    Each window of accumulation_steps triples contributes one Adam step
    on the mean gradient; a short tail window still flushes. Triples are
    shuffled per epoch with the seeded generator, so the whole run is
    deterministic.
    """
    if not triples:
        raise ValueError("cannot train on zero triples")
    dims = {v.shape[0] for v in vectors.values()}
    if len(dims) != 1:
        raise ValueError(f"mixed embedding dims in vector store: {sorted(dims)}")
    d = dims.pop()

    start = time.monotonic()
    w = np.eye(d, dtype=np.float64)
    initial_loss = mean_loss(triples, vectors, w, cfg.tau)
    optimizer = _Adam((d, d), cfg)
    rng = np.random.default_rng(cfg.seed)
    epoch_means = []
    log: list[dict] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triples)) if cfg.shuffle else np.arange(len(triples))
        epoch_total = 0.0
        grad_sum = np.zeros_like(w)
        window_losses: list[float] = []
        for pos_in_epoch, idx in enumerate(order):
            t = triples[int(idx)]
            q, pos, negs = _triple_vectors(t, vectors)
            loss, grad = loss_and_grad(w, q, pos, negs, cfg.tau)
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise TrainError(f"non-finite loss or gradient at triple {t.query_id}")
            epoch_total += loss
            grad_sum += grad
            window_losses.append(loss)
            if len(window_losses) == cfg.accumulation_steps or pos_in_epoch == len(order) - 1:
                optimizer.step(w, grad_sum / len(window_losses))
                log.append(
                    {
                        "epoch": epoch,
                        "step": optimizer.t,
                        "loss": sum(window_losses) / len(window_losses),
                    }
                )
                grad_sum = np.zeros_like(w)
                window_losses = []
        epoch_means.append(epoch_total / len(triples))

    final_loss = mean_loss(triples, vectors, w, cfg.tau)
    report = TrainReport(
        initial_loss=initial_loss,
        final_loss=final_loss,
        epoch_mean_losses=epoch_means,
        steps=optimizer.t,
        triples_seen=cfg.epochs * len(triples),
        wall_time_s=time.monotonic() - start,
        log=log,
    )
    return Adapter(W=w), report


def gradient_check(
    dim: int = 8, n_triples: int = 5, step: float = 1e-5, tau: float = 0.5, seed: int = 7
) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_triples):
        q = _unit(rng.normal(size=dim))
        pos = _unit(rng.normal(size=dim))
        negs = np.stack([_unit(rng.normal(size=dim)) for _ in range(3)])
        w = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
        _, grad = loss_and_grad(w, q, pos, negs, tau)
        for i in range(dim):
            for j in range(dim):
                w_plus = w.copy()
                w_plus[i, j] += step
                w_minus = w.copy()
                w_minus[i, j] -= step
                lp = _triple_loss(w_plus, q, pos, negs, tau)
                lm = _triple_loss(w_minus, q, pos, negs, tau)
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(grad[i, j]), abs(numeric), 1e-6)
                worst = max(worst, abs(grad[i, j] - numeric) / denom)
    return worst


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def save_adapter(adapter: Adapter, path: str) -> None:
    """Binary layout: magic, u32 version, u32 dim, row-major f64 W, checksum trailer."""
    payload = (
        ADAPTER_MAGIC
        + struct.pack("<II", adapter.version, adapter.dim)
        + np.ascontiguousarray(adapter.W, dtype="<f8").tobytes()
    )
    atomic_write_bytes(path, payload + checksum(payload))


def load_adapter(path: str, expected_dim: int | None = None) -> Adapter:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(ADAPTER_MAGIC) + 8 + CHECKSUM_SIZE or not blob.startswith(ADAPTER_MAGIC):
        raise AdapterFormatError(path, "not an adapter file")
    payload = memoryview(blob)[:-CHECKSUM_SIZE]
    if checksum(payload) != blob[-CHECKSUM_SIZE:]:
        raise AdapterFormatError(path, "checksum mismatch (truncated or corrupt)")
    version, dim = struct.unpack_from("<II", payload, len(ADAPTER_MAGIC))
    if version != ADAPTER_VERSION:
        raise AdapterFormatError(path, f"unsupported adapter version {version}")
    data = payload[len(ADAPTER_MAGIC) + 8 :]
    if len(data) != 8 * dim * dim:
        raise AdapterFormatError(path, f"payload size does not match dim {dim}")
    if expected_dim is not None and dim != expected_dim:
        raise AdapterFormatError(path, f"adapter dim {dim} != provider dim {expected_dim}")
    w = np.frombuffer(data, dtype="<f8").reshape(dim, dim).copy()
    return Adapter(W=w, version=version)
