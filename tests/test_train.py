"""Contrastive training: loss against a high-precision oracle, exact
gradients against finite differences, optimizer behavior, adapter I/O."""

import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import tabret.train as train_mod
from tabret.fsio import checksum
from tabret.mining import TrainingTriple
from tabret.train import (
    ADAPTER_MAGIC,
    ADAPTER_VERSION,
    Adapter,
    AdapterFormatError,
    TrainConfig,
    TrainError,
    adapter_apply,
    gradient_check,
    infonce_loss,
    load_adapter,
    loss_and_grad,
    mean_loss,
    save_adapter,
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
            _, grad = loss_and_grad(w, q, pos, negs, tau=0.5)
            for i in range(dim):
                for j in range(dim):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += step
                    wm[i, j] -= step
                    lp, _ = loss_and_grad(wp, q, pos, negs, 0.5)
                    lm, _ = loss_and_grad(wm, q, pos, negs, 0.5)
                    numeric = (lp - lm) / (2 * step)
                    denom = max(abs(grad[i, j]), abs(numeric), 1e-6)
                    assert abs(grad[i, j] - numeric) / denom < 1e-4

    def test_identity_matrix_reproduces_plain_loss(self, rng):
        q = random_unit(rng, 7)
        pos = random_unit(rng, 7)
        negs = np.stack([random_unit(rng, 7) for _ in range(4)])
        plain, _ = infonce_loss(q, pos, negs, 0.1)
        through_w, _ = loss_and_grad(np.eye(7), q, pos, negs, 0.1)
        assert through_w == pytest.approx(plain, rel=1e-12)

    def test_loss_invariant_under_matrix_rescale(self, rng):
        # renormalization makes the similarities scale-free in W, so the
        # loss cannot change and the gradient shrinks by the same factor
        q = random_unit(rng, 6)
        pos = random_unit(rng, 6)
        negs = np.stack([random_unit(rng, 6) for _ in range(3)])
        w = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
        loss1, grad1 = loss_and_grad(w, q, pos, negs, 0.2)
        loss3, grad3 = loss_and_grad(3.0 * w, q, pos, negs, 0.2)
        assert loss3 == pytest.approx(loss1, rel=1e-12)
        np.testing.assert_allclose(grad3, grad1 / 3.0, rtol=1e-9, atol=1e-12)

    def test_no_negatives_zero_gradient(self):
        q = np.array([1.0, 0.0])
        loss, grad = loss_and_grad(np.eye(2), q, q, np.zeros((0, 2)), 0.5)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_collapsed_vector_raises(self):
        q = np.array([1.0, 0.0])
        negs = np.array([[0.0, 1.0]])
        with pytest.raises(TrainError, match="zero"):
            loss_and_grad(np.zeros((2, 2)), q, q, negs, 0.5)

    def test_library_gradient_check_is_tight(self):
        assert gradient_check(dim=6, n_triples=3, seed=11) < 1e-4


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
    """The stacked gradient and the loss-only path keep the reference's
    bits: same loss, same gradient bytes, same mean loss."""

    @settings(max_examples=200, deadline=None)
    @given(triples_and_adapters())
    def test_loss_and_gradient_bytes(self, problem):
        w, q, pos, negs, tau = problem
        loss, grad = loss_and_grad(w, q, pos, negs, tau)
        ref_loss, ref_grad = reference_loss_and_grad(w, q, pos, negs, tau)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dim, negs_per_triple", [(8, 4), (7, 11), (33, 1), (1, 3)])
    def test_mean_loss_equals_the_reference_mean(self, dim, negs_per_triple):
        triples, vectors = toy_problem(n=14, dim=dim, negs_per_triple=negs_per_triple)
        w = np.eye(dim) + 0.2 * np.random.default_rng(dim).normal(size=(dim, dim))
        total = 0.0
        for t in triples:
            negs = np.stack([vectors[n] for n in t.negative_pt_ids])
            total += reference_loss_and_grad(
                w, vectors[t.query_id], vectors[t.positive_pt_id], negs, 0.1
            )[0]
        assert mean_loss(triples, vectors, w, 0.1) == total / len(triples)

    def test_one_gradient_per_triple_per_epoch(self, monkeypatch):
        # mean_loss (initial and final) takes the loss-only path
        calls = []
        real = train_mod.loss_and_grad

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(train_mod, "loss_and_grad", counting)
        triples, vectors = toy_problem(n=10)
        cfg = TrainConfig(tau=0.1, epochs=3, accumulation_steps=4, seed=2)
        _, report = train(triples, vectors, cfg)
        assert len(calls) == cfg.epochs * len(triples) == report.triples_seen


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
            mean_loss(triples, vectors, np.eye(8), 0.1), rel=1e-12
        )

    def test_shuffle_off_processes_in_order(self):
        triples, vectors = toy_problem()
        cfg_a = TrainConfig(tau=0.1, epochs=2, shuffle=False, seed=1)
        cfg_b = TrainConfig(tau=0.1, epochs=2, shuffle=False, seed=99)
        a, _ = train(triples, vectors, cfg_a)
        b, _ = train(triples, vectors, cfg_b)
        # without shuffling the seed has nothing left to influence
        assert np.array_equal(a.W, b.W)

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
        [{"tau": 0.0}, {"tau": -0.5}, {"epochs": -1}, {"accumulation_steps": 0}],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdapterApply:
    def test_identity_returns_unit_input(self, rng):
        v = random_unit(rng, 16)
        out = adapter_apply(Adapter.identity(16), v)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_output_is_unit_norm(self, rng):
        adapter = Adapter(W=np.eye(6) + 0.5 * rng.normal(size=(6, 6)))
        out = adapter_apply(adapter, random_unit(rng, 6))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            adapter_apply(Adapter.identity(4), np.ones(5))

    def test_zero_output_rejected(self):
        adapter = Adapter(W=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="normalize"):
            adapter_apply(adapter, np.ones(3))


class TestAdapterIO:
    def test_round_trip_exact(self, tmp_path, rng):
        adapter = Adapter(W=rng.normal(size=(12, 12)))
        path = tmp_path / "adapter.bin"
        save_adapter(adapter, str(path))
        back = load_adapter(str(path))
        assert np.array_equal(back.W, adapter.W)
        assert back.version == adapter.version
        assert back.dim == 12

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        adapter = Adapter(W=rng.normal(size=(6, 6)))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_adapter(adapter, str(p1))
        save_adapter(adapter, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_expected_dim_enforced(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter.identity(8), str(path))
        assert load_adapter(str(path), expected_dim=8).dim == 8
        with pytest.raises(AdapterFormatError, match="dim 8 != provider dim 16"):
            load_adapter(str(path), expected_dim=16)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter.identity(4), str(path))
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTADPT!"
        path.write_bytes(bytes(blob))
        with pytest.raises(AdapterFormatError, match="not an adapter"):
            load_adapter(str(path))

    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter.identity(4), str(path))
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(AdapterFormatError, match="checksum"):
            load_adapter(str(path))

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter.identity(4), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(AdapterFormatError):
            load_adapter(str(path))

    def test_every_single_byte_flip_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter(W=np.arange(4.0).reshape(2, 2)), str(path))
        blob = path.read_bytes()
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(AdapterFormatError):
                load_adapter(str(path))

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_truncation_by_up_to_a_trailer_rejected(self, tmp_path, cut):
        path = tmp_path / "adapter.bin"
        save_adapter(Adapter.identity(2), str(path))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(AdapterFormatError):
            load_adapter(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        # rebuild the container by hand with a bumped version field
        w = np.eye(3)
        payload = (
            ADAPTER_MAGIC + struct.pack("<II", 99, 3) + w.astype("<f8").tobytes()
        )
        path.write_bytes(payload + checksum(payload))
        with pytest.raises(AdapterFormatError, match="version 99"):
            load_adapter(str(path))

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "adapter.bin"
        # claims dim 3 but carries a 2x2 matrix
        payload = (
            ADAPTER_MAGIC
            + struct.pack("<II", ADAPTER_VERSION, 3)
            + np.eye(2).astype("<f8").tobytes()
        )
        path.write_bytes(payload + checksum(payload))
        with pytest.raises(AdapterFormatError, match="size"):
            load_adapter(str(path))
