"""Contrastive training: loss against a high-precision oracle, exact
gradients against finite differences, optimizer behavior, adapter I/O."""

import math
import struct
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import tabret.train as train_mod
from tabret.embed import mock_embed
from tabret.fsio import ArtifactError, checksum
from tabret.mining import TrainingTriple
from tabret.train import (
    ADAPTER_MAGIC,
    ADAPTER_VERSION,
    Adapter,
    TrainConfig,
    TrainError,
    adapter_apply,
    adapter_apply_rows,
    gradient_check,
    infonce_loss,
    load_adapter,
    loss_and_grad,
    mean_loss,
    save_adapter,
    stack_rows,
    train,
)

def infonce_reference(s_pos: float, s_negs, tau: float) -> float:
    """High-precision evaluation of log(1 + sum(exp((s_i - s_pos)/tau))).

    240 digits, because the sum can sit as low as exp(-200) ~ 1e-87 and
    the 1 + total step must not swallow it.
    """
    with mp.workdps(240):
        zp = mpf(float(s_pos)) / mpf(float(tau))
        total = mpf(0)
        for s in s_negs:
            total += mpmath.exp(mpf(float(s)) / mpf(float(tau)) - zp)
        return float(mpmath.log(1 + total))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_unit(rng, dim: int) -> np.ndarray:
    return unit(rng.normal(size=dim))


def loss_and_grad_sum(w, stack, tau):
    """loss_and_grad's losses and the sum of its gradients, from +0.0."""
    grad_sum = np.zeros_like(w)
    return loss_and_grad(w, stack, tau, grad_sum), grad_sum


class TestInfonceLoss:
    def test_matches_high_precision_reference(self, rng):
        for _ in range(200):
            n_negs = int(rng.integers(1, 9))
            s_pos = float(rng.uniform(-1, 1))
            s_negs = rng.uniform(-1, 1, size=n_negs)
            tau = float(rng.choice([0.01, 0.05, 0.2, 1.0]))
            # drive the loss through actual vectors: q = e1, docs built so
            # the dot products hit the sampled similarities exactly
            dim = n_negs + 2
            q = np.zeros(dim)
            q[0] = 1.0
            pos = np.zeros(dim)
            pos[0], pos[1] = s_pos, np.sqrt(1 - s_pos**2)
            negs = np.zeros((n_negs, dim))
            for i, s in enumerate(s_negs):
                negs[i, 0], negs[i, 2 + i] = s, np.sqrt(1 - s**2)
            loss, sims = infonce_loss(q, pos, negs, tau)
            expected = infonce_reference(sims[0], sims[1:], tau)
            assert loss == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_symmetric_pair_is_ln2(self):
        # one negative with the same similarity as the positive: the
        # softmax is an exact coin flip
        q = np.array([1.0, 0.0])
        doc = np.array([0.6, 0.8])
        loss, _ = infonce_loss(q, doc, np.array([doc]), tau=0.37)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_sharp_tau_easy_case_is_tiny_but_exact(self):
        q = np.array([1.0, 0.0])
        pos = np.array([1.0, 0.0])
        neg = np.array([[-1.0, 0.0]])
        loss, _ = infonce_loss(q, pos, neg, tau=0.01)
        # exp(-200) is far below float epsilon; log1p keeps it exact
        assert loss == pytest.approx(infonce_reference(1.0, [-1.0], 0.01), rel=1e-10, abs=0.0)
        assert 0.0 < loss < 1e-80

    def test_sharp_tau_hard_case_is_large_and_finite(self):
        q = np.array([1.0, 0.0])
        pos = np.array([-1.0, 0.0])
        neg = np.array([[1.0, 0.0]])
        loss, _ = infonce_loss(q, pos, neg, tau=0.01)
        assert np.isfinite(loss)
        assert loss == pytest.approx(200.0, abs=1e-6)

    def test_loss_never_negative(self, rng):
        for _ in range(50):
            q = random_unit(rng, 6)
            pos = random_unit(rng, 6)
            negs = np.stack([random_unit(rng, 6) for _ in range(4)])
            loss, _ = infonce_loss(q, pos, negs, 0.01)
            assert loss >= 0.0
            assert np.isfinite(loss)

    def test_sims_layout(self):
        q = np.array([1.0, 0.0])
        pos = np.array([0.0, 1.0])
        negs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, sims = infonce_loss(q, pos, negs, 1.0)
        assert sims == pytest.approx([0.0, 1.0, -1.0])

    def test_no_negatives_is_zero_loss(self):
        q = np.array([1.0, 0.0])
        pos = np.array([0.6, 0.8])
        loss, sims = infonce_loss(q, pos, np.zeros((0, 2)), 0.5)
        assert loss == 0.0
        assert sims == pytest.approx([0.6])

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_tau_must_be_positive(self, tau):
        q = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="tau"):
            infonce_loss(q, q, np.array([q]), tau)


class TestLossAndGrad:
    def test_gradient_matches_central_differences(self, rng):
        # independent finite-difference check, separate from the
        # library's own gradient_check
        dim, step = 5, 1e-6
        for _ in range(4):
            q = random_unit(rng, dim)
            pos = random_unit(rng, dim)
            negs = np.stack([random_unit(rng, dim) for _ in range(3)])
            w = np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))
            stack = np.vstack([q, pos, negs])[None]
            grad = loss_and_grad_sum(w, stack, tau=0.5)[1]
            for i in range(dim):
                for j in range(dim):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += step
                    wm[i, j] -= step
                    lp = loss_and_grad_sum(wp, stack, 0.5)[0][0]
                    lm = loss_and_grad_sum(wm, stack, 0.5)[0][0]
                    numeric = (lp - lm) / (2 * step)
                    denom = max(abs(grad[i, j]), abs(numeric), 1e-6)
                    assert abs(grad[i, j] - numeric) / denom < 1e-4

    def test_identity_matrix_reproduces_plain_loss(self, rng):
        q = random_unit(rng, 7)
        pos = random_unit(rng, 7)
        negs = np.stack([random_unit(rng, 7) for _ in range(4)])
        plain, _ = infonce_loss(q, pos, negs, 0.1)
        through_w = loss_and_grad_sum(np.eye(7), np.vstack([q, pos, negs])[None], 0.1)[0][0]
        assert through_w == pytest.approx(plain, rel=1e-12)

    def test_loss_invariant_under_matrix_rescale(self, rng):
        # renormalization makes the similarities scale-free in W, so the
        # loss cannot change and the gradient shrinks by the same factor
        q = random_unit(rng, 6)
        pos = random_unit(rng, 6)
        negs = np.stack([random_unit(rng, 6) for _ in range(3)])
        w = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
        stack = np.vstack([q, pos, negs])[None]
        loss1, grad1 = loss_and_grad_sum(w, stack, 0.2)
        loss3, grad3 = loss_and_grad_sum(3.0 * w, stack, 0.2)
        assert loss3[0] == pytest.approx(loss1[0], rel=1e-12)
        np.testing.assert_allclose(grad3, grad1 / 3.0, rtol=1e-9, atol=1e-12)

    def test_no_negatives_zero_gradient(self):
        q = np.array([1.0, 0.0])
        loss, grad = loss_and_grad_sum(np.eye(2), np.stack([[q, q], [q, -q]]), 0.5)
        assert loss.tolist() == [0.0, 0.0]
        assert np.all(grad == 0.0)

    def test_collapsed_vector_raises(self):
        q = np.array([1.0, 0.0])
        negs = np.array([[0.0, 1.0]])
        with pytest.raises(TrainError, match="zero"):
            loss_and_grad_sum(np.zeros((2, 2)), np.vstack([q, q, negs])[None], 0.5)

    def test_library_gradient_check_is_tight(self):
        assert gradient_check(dim=6, n_triples=3, seed=11) < 1e-4

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    def test_a_non_finite_difference_quotient_makes_the_error_nan(self, step):
        with np.errstate(invalid="ignore", over="ignore"):
            assert math.isnan(gradient_check(dim=3, n_triples=1, step=step))


def reference_loss_and_grad(W, q, pos, negs, tau):
    """loss_and_grad as one np.outer per term, added in order: the
    query's term, the positive's, then one per negative."""

    def unit_and_norm(a):
        n = float(np.linalg.norm(a))
        return a / n, n

    def tangent(g_hat, a_hat, norm):
        return (g_hat - np.dot(g_hat, a_hat) * a_hat) / norm

    q_hat, q_norm = unit_and_norm(W @ q)
    p_hat, p_norm = unit_and_norm(W @ pos)
    if len(negs) == 0:
        return 0.0, np.zeros_like(W)
    n_raw = negs @ W.T
    n_norms = np.linalg.norm(n_raw, axis=1)
    n_hat = n_raw / n_norms[:, None]
    sims = np.concatenate(([np.dot(q_hat, p_hat)], n_hat @ q_hat))
    z = sims / tau
    m = float(np.max(z))
    if z[0] == m:
        loss = float(np.log1p(np.sum(np.exp(z[1:] - m))))
    else:
        loss = float(m - z[0] + np.log(np.sum(np.exp(z - m))))
    e = np.exp(z - np.max(z))
    ds = (e / e.sum()) / tau
    ds[0] -= 1.0 / tau
    g_q_hat = ds[0] * p_hat + n_hat.T @ ds[1:]
    dW = np.outer(tangent(g_q_hat, q_hat, q_norm), q)
    dW += np.outer(tangent(ds[0] * q_hat, p_hat, p_norm), pos)
    for i in range(len(negs)):
        dW += np.outer(tangent(ds[1 + i] * q_hat, n_hat[i], float(n_norms[i])), negs[i])
    return loss, dW


def reference_sum(w, stack, tau, grad_sum):
    """The reference's losses of the triples of a stack, their gradients
    added into grad_sum in stack order, as the train loop adds them."""
    losses = []
    for rows in stack:
        loss, grad = reference_loss_and_grad(w, rows[0], rows[1], rows[2:], tau)
        grad_sum += grad
        losses.append(loss)
    return losses


@st.composite
def triples_and_adapters(draw):
    """One triple of unit vectors with 0 to 12 negatives, an adapter near
    (or at) the identity, and a temperature."""
    d = draw(st.integers(1, 17))
    h = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, pos = random_unit(rng, d), random_unit(rng, d)
    negs = np.array([random_unit(rng, d) for _ in range(h)]).reshape(h, d)
    if d > 1 and draw(st.booleans()):
        # a coordinate that is a signed zero in every vector: each gradient
        # entry in its column is a sum of signed zeros
        col, zero = draw(st.integers(0, d - 1)), draw(st.sampled_from([0.0, -0.0]))
        q[col] = pos[col] = zero
        negs[:, col] = zero
    scale = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5]))
    w = np.eye(d) + scale * rng.normal(size=(d, d))
    tau = draw(st.sampled_from([0.01, 0.07, 0.5, 1.0]))
    return w, q, pos, negs, tau


class TestMatchesPerNegativeReference:
    """The stacked pass and the loss-only path keep the reference's bits:
    same losses, same bytes of the gradients' in-order sum, same mean
    loss. The sign of a zero in one triple's gradient goes unchecked: a
    sum that starts at +0.0 cannot show it."""

    @settings(max_examples=200, deadline=None)
    @given(triples_and_adapters())
    def test_loss_and_gradient_bytes(self, problem):
        w, q, pos, negs, tau = problem
        stack = np.vstack([q, pos, negs])[None]
        losses, grad_sum = loss_and_grad_sum(w, stack, tau)
        ref_sum = np.zeros_like(w)
        assert losses.tolist() == reference_sum(w, stack, tau, ref_sum)
        assert grad_sum.tobytes() == ref_sum.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(triples_and_adapters(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_stacks_of_several_triples_keep_the_in_order_sum(self, problem, b, seed):
        w, q, pos, negs, tau = problem
        d, h = len(q), len(negs)
        rng = np.random.default_rng(seed)
        stack = np.stack(
            [np.vstack([q, pos, negs])]
            + [np.stack([random_unit(rng, d) for _ in range(h + 2)]) for _ in range(b - 1)]
        )
        if d > 1:
            # the planted signed-zero column, if any, in every triple of the stack
            zero_cols = np.flatnonzero((stack[0] == 0.0).all(axis=0))
            stack[:, :, zero_cols] = stack[0, 0, zero_cols]
        # the sum of the window's earlier stacks, +0.0 in the planted column
        prefix = rng.normal(size=(d, d))
        if d > 1:
            prefix[:, zero_cols] = 0.0
        grad_sum, ref_sum = prefix.copy(), prefix.copy()
        losses = loss_and_grad(w, stack, tau, grad_sum)
        assert losses.shape == (b,)
        assert losses.tolist() == reference_sum(w, stack, tau, ref_sum)
        assert grad_sum.tobytes() == ref_sum.tobytes()

    @pytest.mark.parametrize(
        "dim, negs_per_triple, n", [(8, 4, 14), (7, 11, 14), (33, 1, 14), (1, 3, 14), (8, 5, 70)]
    )
    def test_mean_loss_equals_the_reference_mean(self, dim, negs_per_triple, n):
        triples, vectors = toy_problem(n=n, dim=dim, negs_per_triple=negs_per_triple)
        # runs of five triples one negative short: stacks of mixed lengths,
        # cut across the chunks of 32 where n = 70
        triples = [
            replace(t, negative_pt_ids=t.negative_pt_ids[: negs_per_triple - i // 5 % 2])
            for i, t in enumerate(triples)
        ]
        w = np.eye(dim) + 0.2 * np.random.default_rng(dim).normal(size=(dim, dim))
        total = 0.0
        for t in triples:
            negs = np.array([vectors[n] for n in t.negative_pt_ids]).reshape(-1, dim)
            total += reference_loss_and_grad(
                w, vectors[t.query_id], vectors[t.positive_pt_id], negs, 0.1
            )[0]
        assert mean_loss(triples, *stack_rows(triples, vectors), w, 0.1) == total / len(triples)

    def test_one_gradient_per_triple_per_epoch(self, monkeypatch):
        # each triple goes through loss_and_grad once per epoch, and
        # mean_loss (initial and final) takes the loss-only path
        stacked = []
        real = train_mod.loss_and_grad

        def counting(w, stack, tau, grad_sum):
            stacked.append(len(stack))
            return real(w, stack, tau, grad_sum)

        monkeypatch.setattr(train_mod, "loss_and_grad", counting)
        triples, vectors = toy_problem(n=10)
        cfg = TrainConfig(tau=0.1, epochs=3, accumulation_steps=4, seed=2)
        _, report = train(triples, vectors, cfg)
        assert sum(stacked) == cfg.epochs * len(triples) == report.triples_seen
        # equal-length triples: one stack per window of 4, 4 and 2
        assert stacked == [4, 4, 2] * cfg.epochs

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "d, column", [(1, None), *((d, c) for d in (2, 64) for c in ("+0.0", "-0.0", "underflow"))]
    )
    def test_exact_zero_entries_keep_the_reference_bytes(self, d, column, seed):
        # gradient entries that come out exactly zero: at d = 1 every term
        # is a signed zero; otherwise one column holds the same signed
        # zero in every vector of every triple, or +-0.0 and +-5e-324,
        # whose products with the row gradients underflow to +-0.0 or
        # stay one subnormal step from it
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(3, 6, d))
        stack /= np.linalg.norm(stack, axis=2, keepdims=True)
        if column == "underflow":
            tiny = rng.choice([-5e-324, -0.0, 0.0, 5e-324], size=stack.shape[:2])
            stack[:, :, rng.integers(d)] = tiny
        elif column is not None:
            stack[:, :, rng.integers(d)] = float(column)
        w = np.eye(d) + 0.1 * rng.normal(size=(d, d))
        losses, grad_sum = loss_and_grad_sum(w, stack, 1.0)
        ref_sum = np.zeros_like(w)
        assert losses.tolist() == reference_sum(w, stack, 1.0, ref_sum)
        assert grad_sum.tobytes() == ref_sum.tobytes()
        zero_entries = 0
        for rows in stack:
            ref_grad = reference_loss_and_grad(w, rows[0], rows[1], rows[2:], 1.0)[1]
            zero_entries += int((ref_grad == 0.0).sum())
        assert zero_entries > 0

    def test_terms_that_cancel_in_row_order_keep_the_reference_bytes(self):
        # mock embeddings of short texts share values, so an entry's terms
        # can cancel exactly in row order and leave a residue when summed
        # in another order, as a pairwise sum over the 8 rows would
        texts = ["sku b model", "c", "a c zone", "2 1", "zone c", "1 aisle", "x c model",
                 "aisle part"]
        rows = np.stack([mock_embed(t, 8) for t in texts])
        losses, grad_sum = loss_and_grad_sum(np.eye(8), rows[None], 0.07)
        ref_sum = np.zeros((8, 8))
        assert losses.tolist() == reference_sum(np.eye(8), rows[None], 0.07, ref_sum)
        assert grad_sum.tobytes() == ref_sum.tobytes()
        assert (ref_sum == 0.0).any()


class TestFirstFailureInWindowOrder:
    """Two triples of one window fail: train raises the error of the one
    that comes first in the window, as a pass one triple at a time does,
    whether the two share a stack or not."""

    @pytest.mark.parametrize("first, second", [("nan", "zero"), ("zero", "nan"), ("nan", "nan")])
    @pytest.mark.parametrize("same_length", [True, False])
    def test_first_failing_triple_raises(self, monkeypatch, first, second, same_length):
        # mean_loss raises on a collapse before any window runs; skip it to reach the loop
        monkeypatch.setattr(train_mod, "mean_loss", lambda *args: 0.0)
        triples, vectors = toy_problem(n=10)
        if not same_length:
            triples[6] = replace(triples[6], negative_pt_ids=triples[6].negative_pt_ids[:2])
        for i, kind in ((3, first), (6, second)):
            vectors[f"q{i}"] = np.full(8, np.nan) if kind == "nan" else np.zeros(8)
        expected = ("non-finite loss or gradient" if first == "nan"
                    else "adapted vector collapsed to zero") + " at triple q3$"
        cfg = TrainConfig(tau=0.1, epochs=1, accumulation_steps=10, shuffle=False)
        with pytest.raises(TrainError, match=expected):
            train(triples, vectors, cfg)

    @pytest.mark.parametrize("zero", ["q3", "p5"])
    @pytest.mark.parametrize("same_length", [True, False])
    def test_mean_loss_names_the_first_collapsing_triple(self, zero, same_length):
        # unstubbed: the initial mean_loss raises before any window runs,
        # naming the first triple that holds the zero vector (q3 as its
        # query, p5 as triple 5's positive), mid-stack either way
        triples, vectors = toy_problem(n=10)
        if not same_length:
            triples[2] = replace(triples[2], negative_pt_ids=triples[2].negative_pt_ids[:2])
        vectors[zero] = np.zeros(8)
        first = triples[[zero in (t.query_id, t.positive_pt_id, *t.negative_pt_ids)
                         for t in triples].index(True)].query_id
        cfg = TrainConfig(tau=0.1, epochs=1, accumulation_steps=10, shuffle=False)
        with pytest.raises(TrainError, match=f"collapsed to zero at triple {first}$"):
            train(triples, vectors, cfg)

    def test_a_sum_that_overflows_names_its_stacks_first_triple(self):
        # at tau = 1e-308 each triple's gradient is finite (entries near
        # 1.8e307; the positive and the negative tie, so the softmax is
        # 1/2 each), but sixteen of them overflow the window's sum. Four
        # triples without negatives make a first stack that adds zeros.
        vectors = {"p": np.array([0.5, 0.5, 0.0]), "n": np.array([0.5, 0.0, 0.5])}
        triples = []
        for i in range(20):
            vectors[f"q{i}"] = np.array([1.0, 0.0, 0.0])
            triples.append(TrainingTriple(f"q{i}", "p", ("n",) if i >= 4 else (), "hard"))
        matrix, blocks = stack_rows(triples, vectors)
        alone = np.zeros((3, 3))
        loss_and_grad(np.eye(3), matrix[blocks[4]][None], 1e-308, alone)
        assert np.isfinite(alone).all() and abs(alone).max() > np.finfo(float).max / 16
        cfg = TrainConfig(tau=1e-308, epochs=1, accumulation_steps=20, shuffle=False)
        with np.errstate(over="ignore"), pytest.raises(
            TrainError, match="non-finite loss or gradient at triple q4$"
        ):
            train(triples, vectors, cfg)


def toy_problem(n: int = 12, dim: int = 8, negs_per_triple: int = 4):
    """Queries equal to their positives, negatives drawn from the rest."""
    rng = np.random.default_rng(0)
    vectors: dict[str, np.ndarray] = {}
    for i in range(n):
        v = random_unit(rng, dim)
        vectors[f"q{i}"] = v
        vectors[f"p{i}"] = v
    triples = [
        TrainingTriple(
            query_id=f"q{i}",
            positive_pt_id=f"p{i}",
            negative_pt_ids=tuple(
                f"p{j}" for j in range(n) if j != i
            )[:negs_per_triple],
            strategy="hard",
        )
        for i in range(n)
    ]
    return triples, vectors


def reference_train(triples, vectors, cfg):
    """train as a loop over dict lookups, np.stack and
    reference_loss_and_grad, with Adam written out: the oracle for the
    row blocks. A triple without negatives gets an empty (0, d) stack,
    where np.stack of no arrays would raise."""
    d = len(next(iter(vectors.values())))

    def loss_and_grad_of(t, w):
        negs = [vectors[nid] for nid in t.negative_pt_ids]
        negs = np.stack(negs) if negs else np.zeros((0, d))
        return reference_loss_and_grad(
            w, vectors[t.query_id], vectors[t.positive_pt_id], negs, cfg.tau
        )

    def mean(w):
        total = 0.0
        for t in triples:
            total += loss_and_grad_of(t, w)[0]
        return total / len(triples)

    w = np.eye(d)
    initial = mean(w)
    m, v, steps = np.zeros((d, d)), np.zeros((d, d)), 0
    rng = np.random.default_rng(cfg.seed)
    epoch_means, log = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triples)) if cfg.shuffle else np.arange(len(triples))
        epoch_total = 0.0
        grad_sum = np.zeros_like(w)
        window_losses = []
        for pos_in_epoch, idx in enumerate(order):
            loss, grad = loss_and_grad_of(triples[int(idx)], w)
            epoch_total += loss
            grad_sum += grad
            window_losses.append(loss)
            if len(window_losses) == cfg.accumulation_steps or pos_in_epoch == len(order) - 1:
                g = grad_sum / len(window_losses)
                steps += 1
                m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
                v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
                m_hat = m / (1 - cfg.adam_beta1**steps)
                v_hat = v / (1 - cfg.adam_beta2**steps)
                w -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
                log.append(
                    {"epoch": epoch, "step": steps, "loss": sum(window_losses) / len(window_losses)}
                )
                grad_sum = np.zeros_like(w)
                window_losses = []
        epoch_means.append(epoch_total / len(triples))
    return w, initial, mean(w), epoch_means, log


@st.composite
def training_problems(draw):
    """1 to 9 triples of dimension 1 to 17 with 0 to 12 negatives each,
    drawn per triple from a shared pool so that a window mixes lengths,
    and a training config."""
    d = draw(st.integers(1, 17))
    n_triples = draw(st.integers(1, 9))
    hs = draw(st.lists(st.integers(0, 12), min_size=n_triples, max_size=n_triples))
    n_pts = max(hs) + 1 + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = {f"q{i}": random_unit(rng, d) for i in range(n_triples)}
    vectors.update({f"p{j}": random_unit(rng, d) for j in range(n_pts)})
    if d > 1 and draw(st.booleans()):
        # a coordinate that is a signed zero in every vector: every
        # gradient entry in its column is a sum of signed zeros
        col, zero = draw(st.integers(0, d - 1)), draw(st.sampled_from([0.0, -0.0]))
        for vec in vectors.values():
            vec[col] = zero
    triples = []
    for i, h in enumerate(hs):
        picks = rng.permutation(n_pts)[: h + 1]
        negs = tuple(f"p{j}" for j in picks[1:])
        triples.append(TrainingTriple(f"q{i}", f"p{picks[0]}", negs, "hard"))
    cfg = TrainConfig(
        tau=draw(st.sampled_from([0.01, 0.07, 0.5])),
        epochs=draw(st.integers(0, 3)),
        accumulation_steps=draw(st.sampled_from([1, 2, 3, 4, 32])),
        learning_rate=draw(st.sampled_from([1e-3, 1e-2, 5e-2])),
        seed=draw(st.integers(0, 2**16)),
        shuffle=draw(st.booleans()),
    )
    return triples, vectors, cfg


class TestTrainMatchesReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(training_problems())
    def test_adapter_bytes_and_losses(self, problem):
        triples, vectors, cfg = problem
        adapter, report = train(triples, vectors, cfg)
        w, initial, final, epoch_means, log = reference_train(triples, vectors, cfg)
        assert adapter.W.tobytes() == w.tobytes()
        assert report.initial_loss == initial
        assert report.final_loss == final
        assert report.epoch_mean_losses == epoch_means
        assert report.log == log


class TestTrain:
    def test_reduces_loss_on_separable_problem(self):
        triples, vectors = toy_problem()
        cfg = TrainConfig(
            tau=0.1, epochs=20, accumulation_steps=4, learning_rate=1e-2, seed=3
        )
        adapter, report = train(triples, vectors, cfg)
        assert report.final_loss < 0.5 * report.initial_loss
        assert len(report.epoch_mean_losses) == 20
        assert adapter.dim == 8

    def test_deterministic(self):
        triples, vectors = toy_problem()
        cfg = TrainConfig(tau=0.1, epochs=3, accumulation_steps=4, seed=5)
        a1, r1 = train(triples, vectors, cfg)
        a2, r2 = train(triples, vectors, cfg)
        assert np.array_equal(a1.W, a2.W)
        assert r1.final_loss == r2.final_loss
        assert r1.epoch_mean_losses == r2.epoch_mean_losses

    def test_zero_epochs_keeps_identity(self):
        triples, vectors = toy_problem()
        adapter, report = train(triples, vectors, TrainConfig(tau=0.1, epochs=0))
        assert np.array_equal(adapter.W, np.eye(8))
        assert report.initial_loss == report.final_loss
        assert report.steps == 0
        assert report.triples_seen == 0

    def test_accumulation_window_step_count(self):
        triples, vectors = toy_problem(n=10)
        cfg = TrainConfig(tau=0.1, epochs=2, accumulation_steps=4, seed=1)
        _, report = train(triples, vectors, cfg)
        # per epoch: windows of 4, 4, then the 2-triple tail still flushes
        assert report.steps == 2 * 3
        assert report.triples_seen == 2 * 10
        assert [entry["step"] for entry in report.log] == [1, 2, 3, 4, 5, 6]

    def test_initial_loss_is_identity_loss(self):
        triples, vectors = toy_problem()
        cfg = TrainConfig(tau=0.1, epochs=1)
        _, report = train(triples, vectors, cfg)
        assert report.initial_loss == pytest.approx(
            mean_loss(triples, *stack_rows(triples, vectors), np.eye(8), 0.1), rel=1e-12
        )

    def test_shuffle_off_processes_in_order(self):
        triples, vectors = toy_problem()
        cfg_a = TrainConfig(tau=0.1, epochs=2, shuffle=False, seed=1)
        cfg_b = TrainConfig(tau=0.1, epochs=2, shuffle=False, seed=99)
        a, _ = train(triples, vectors, cfg_a)
        b, _ = train(triples, vectors, cfg_b)
        # without shuffling the seed has nothing left to influence
        assert np.array_equal(a.W, b.W)

    def test_a_seed_is_taken_modulo_2_64(self):
        triples, vectors = toy_problem()
        cfg = TrainConfig(tau=0.1, epochs=2, accumulation_steps=4, seed=-1)
        negative, _ = train(triples, vectors, cfg)
        top, _ = train(triples, vectors, replace(cfg, seed=2**64 - 1))
        zero, _ = train(triples, vectors, replace(cfg, seed=0))
        assert negative.W.tobytes() == top.W.tobytes() != zero.W.tobytes()

    def test_a_window_allocates_one_sum_not_a_gradient_per_triple(self):
        # 64 triples of 8 negatives at d = 256, windows of 32: one stack
        # of 32 gradients would be a (32, 256, 256) array of 16 MiB
        triples, vectors = toy_problem(n=64, dim=256, negs_per_triple=8)
        cfg = TrainConfig(tau=0.1, epochs=1, accumulation_steps=32)
        tracemalloc.start()
        try:
            train(triples, vectors, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 256 * 256 * 8

    def test_zero_triples_rejected(self):
        with pytest.raises(ValueError, match="zero triples"):
            train([], {"a": np.ones(3)}, TrainConfig())

    def test_mixed_dims_rejected(self):
        triples, vectors = toy_problem()
        vectors["odd"] = np.ones(3)
        with pytest.raises(ValueError, match="mixed"):
            train(triples, vectors, TrainConfig())

    def test_missing_vector_named_in_error(self):
        triples, vectors = toy_problem()
        del vectors["p3"]
        with pytest.raises(TrainError, match="p3"):
            train(triples, vectors, TrainConfig(tau=0.1, epochs=1))

    @pytest.mark.parametrize(
        "kwargs",
        [{"tau": 0.0}, {"tau": -0.5}, {"tau": float("inf")}, {"tau": float("nan")},
         {"epochs": -1}, {"accumulation_steps": 0}, {"learning_rate": 0.0},
         {"learning_rate": float("nan")}, {"adam_eps": -1.0}, {"adam_eps": float("inf")},
         {"adam_beta1": 1.0}, {"adam_beta1": -0.1}, {"adam_beta2": 1.0}],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdapterApply:
    def test_identity_returns_unit_input(self, rng):
        v = random_unit(rng, 16)
        out = adapter_apply(Adapter(np.eye(16)), v)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_output_is_unit_norm(self, rng):
        adapter = Adapter(W=np.eye(6) + 0.5 * rng.normal(size=(6, 6)))
        out = adapter_apply(adapter, random_unit(rng, 6))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            adapter_apply(Adapter(np.eye(4)), np.ones(5))

    def test_zero_output_rejected(self):
        adapter = Adapter(W=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="normalize"):
            adapter_apply(adapter, np.ones(3))


class TestAdapterApplyRows:
    """The stacked pass against the per-row loop, byte for byte."""

    @pytest.mark.parametrize("dim", [8, 64, 1024])
    @pytest.mark.parametrize("rows", [1, 800])
    def test_equals_the_per_row_loop(self, rng, rows, dim):
        adapter = Adapter(W=np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)))
        vectors = np.stack([random_unit(rng, dim) for _ in range(rows)])
        loop = np.stack([adapter_apply(adapter, v) for v in vectors])
        assert adapter_apply_rows(adapter, vectors).tobytes() == loop.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 70)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_equals_the_per_row_loop_on_random_shapes(self, shape, seed, scale):
        rows, dim = shape
        rng = np.random.default_rng(seed)
        adapter = Adapter(W=scale * rng.normal(size=(dim, dim)))
        vectors = rng.normal(size=(rows, dim))
        loop = np.stack([adapter_apply(adapter, v) for v in vectors])
        assert adapter_apply_rows(adapter, vectors).tobytes() == loop.tobytes()

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            adapter_apply_rows(Adapter(np.eye(4)), np.ones((2, 5)))
        with pytest.raises(ValueError, match="dim"):
            adapter_apply_rows(Adapter(np.eye(4)), np.ones(4))

    def test_zero_output_rejected(self):
        adapter = Adapter(W=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="normalize"):
            adapter_apply_rows(adapter, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


class TestAdapterIO:
    def test_round_trip_exact(self, tmp_path, rng):
        adapter = Adapter(W=rng.normal(size=(12, 12)))
        path = tmp_path / "adapter.bin"
        save_adapter(adapter, str(path))
        back = load_adapter(str(path))
        assert np.array_equal(back.W, adapter.W)
        assert back.dim == 12

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        adapter = Adapter(W=rng.normal(size=(6, 6)))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_adapter(adapter, str(p1))
        save_adapter(adapter, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_expected_dim_enforced(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(np.eye(8)), str(path))
        assert load_adapter(str(path), expected_dim=8).dim == 8
        with pytest.raises(ArtifactError, match="dim 8 != provider dim 16") as exc_info:
            load_adapter(str(path), expected_dim=16)
        assert exc_info.value.path == path

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(np.eye(4)), str(path))
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTADPT!"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="not an adapter") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path

    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(np.eye(4)), str(path))
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(np.eye(4)), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path

    def test_every_single_byte_flip_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(W=np.arange(4.0).reshape(2, 2)), str(path))
        blob = path.read_bytes()
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(ArtifactError, match="not an adapter|checksum mismatch") as exc_info:
                load_adapter(str(path))
            assert exc_info.value.path == path

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_truncation_by_up_to_a_trailer_rejected(self, tmp_path, cut):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(np.eye(2)), str(path))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        # rebuild the container by hand with a bumped version field
        w = np.eye(3)
        payload = (
            ADAPTER_MAGIC + struct.pack("<II", 99, 3) + w.astype("<f8").tobytes()
        )
        path.write_bytes(payload + checksum(payload))
        with pytest.raises(ArtifactError, match="version 99") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        # claims dim 3 but carries a 2x2 matrix
        payload = (
            ADAPTER_MAGIC
            + struct.pack("<II", ADAPTER_VERSION, 3)
            + np.eye(2).astype("<f8").tobytes()
        )
        path.write_bytes(payload + checksum(payload))
        with pytest.raises(ArtifactError, match="size") as exc_info:
            load_adapter(str(path))
        assert exc_info.value.path == path
