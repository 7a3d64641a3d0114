"""Acceptance gate: one test per shipped guarantee.

Each test carries a `criterion` marker; the terminal summary prints one
PASS/FAIL line per criterion after the run. Every check is against an
oracle that does not share code with the implementation under test:
direct arithmetic, exhaustive enumeration, 60-digit arithmetic, central
finite differences, an independent brute-force miner, or byte equality.
"""

import json
import math
import random
import time
from itertools import combinations

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

import tabret.embed
import tabret.querygen
from tabret.cluster import ClusteringConfig, adaptive_k, cluster_tables
from tabret.config import load_config
from tabret.corpus import write_corpus
from tabret.embed import mock_embed
from tabret.kpt import PartialTable, build_kpts, KptConfig
from tabret.mining import MiningConfig, mine_all
from tabret.pipeline import parse_variants, run_compare, run_pipeline
from tabret.querygen import GenConfig, PROMPT_TEMPLATE, SyntheticQuery, render_prompt
from tabret.synthdata import build_corpus
from tabret.train import infonce_loss, loss_and_grad


@pytest.mark.criterion(1, "adaptive cluster count")
def test_adaptive_cluster_count_exact():
    started = time.monotonic()
    for m in range(1, 201):
        for r in (1, 5, 10):
            for k_max in (1, 5):
                cfg = ClusteringConfig(r=r, k_max=k_max)
                # independent arithmetic: integer ceiling division
                expected = min(-(-m // r), k_max)
                assert adaptive_k(m, cfg) == expected, (m, r, k_max)
    assert time.monotonic() - started < 1.0


def exhaustive_two_cluster_optimum(points: np.ndarray) -> float:
    """Try every 2-way split; the optimum inertia over all of them."""
    n = len(points)
    best = math.inf
    indices = range(n)
    for size in range(1, n // 2 + 1):
        for left in combinations(indices, size):
            right = tuple(i for i in indices if i not in left)
            total = 0.0
            for side in (left, right):
                pts = points[list(side)]
                total += float(((pts - pts.mean(axis=0)) ** 2).sum())
            best = min(best, total)
    return best


@pytest.mark.criterion(2, "k-means invariants")
def test_kmeans_invariants_and_tiny_optimality():
    started = time.monotonic()
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 17))
        k = int(rng.integers(1, min(n, 6) + 1))
        x = rng.normal(size=(n, d))
        result = cluster_tables([x], ClusteringConfig(r=1, k_max=k, seed=case))[0]

        hist = result.inertia_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1)), case

        d2 = ((x[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(n), result.labels]
        assert np.all(own <= d2.min(axis=1) + 1e-9), case

        for j in range(k):
            members = x[result.labels == j]
            assert len(members) > 0, case
            np.testing.assert_allclose(
                result.centroids[j], members.mean(axis=0), atol=1e-9
            )

    for case in range(20):
        rng = np.random.default_rng(2000 + case)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        result = cluster_tables([x], ClusteringConfig(r=1, k_max=2, seed=case))[0]
        optimum = exhaustive_two_cluster_optimum(x)
        assert result.inertia <= 1.05 * optimum + 1e-12, case

    assert time.monotonic() - started < 30.0


@pytest.mark.criterion(3, "InfoNCE loss against 240-digit arithmetic")
def test_infonce_matches_high_precision_closed_form():
    def reference(s_pos: float, s_negs, tau: float) -> float:
        # 240 digits: the sum can sit as low as exp(-200) ~ 1e-87, and
        # the 1 + total step must keep ~60 digits of it afterwards
        with mp.workdps(240):
            zp = mpf(s_pos) / mpf(tau)
            total = mpf(0)
            for s in s_negs:
                total += mpmath.exp(mpf(float(s)) / mpf(tau) - zp)
            return float(mpmath.log(1 + total))

    def loss_via_vectors(s_pos: float, s_negs, tau: float) -> float:
        # vectors engineered so the dot products equal the drawn
        # similarities bitwise: q is e1 and each doc puts its target
        # similarity in the first coordinate
        dim = len(s_negs) + 2
        q = np.zeros(dim)
        q[0] = 1.0
        pos = np.zeros(dim)
        pos[0], pos[1] = s_pos, math.sqrt(1 - s_pos**2)
        negs = np.zeros((len(s_negs), dim))
        for i, s in enumerate(s_negs):
            negs[i, 0], negs[i, 2 + i] = s, math.sqrt(1 - s**2)
        loss, sims = infonce_loss(q, pos, negs, tau)
        assert sims[0] == s_pos and np.array_equal(sims[1:], s_negs)
        return loss

    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_negs = int(rng.integers(1, 17))
        s_pos = float(rng.uniform(-1, 1))
        s_negs = rng.uniform(-1, 1, size=n_negs)
        tau = float(rng.choice([0.01, 0.05, 0.2, 0.7, 1.0]))
        loss = loss_via_vectors(s_pos, s_negs, tau)
        expected = reference(s_pos, s_negs, tau)
        assert abs(loss - expected) <= 1e-10 * max(abs(expected), 1e-300)

    # symmetry: one negative scoring exactly like the positive
    assert loss_via_vectors(0.6, np.array([0.6]), 0.37) == pytest.approx(
        math.log(2.0), abs=1e-12
    )

    # extreme similarities at the production temperature stay finite
    for s_pos in (-1.0, 1.0):
        for s_neg in (-1.0, 1.0):
            for n in (1, 8):
                loss = loss_via_vectors(s_pos, np.full(n, s_neg), 0.01)
                assert np.isfinite(loss)
                assert loss >= 0.0


@pytest.mark.criterion(4, "analytic gradient against central differences")
def test_adapter_gradient_matches_finite_differences():
    dim, step, tau = 8, 1e-5, 0.5
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        q = rng.normal(size=dim)
        q /= np.linalg.norm(q)
        pos = rng.normal(size=dim)
        pos /= np.linalg.norm(pos)
        negs = rng.normal(size=(3, dim))
        negs /= np.linalg.norm(negs, axis=1)[:, None]
        w = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
        stack = np.vstack([q, pos, negs])[None]
        grad = np.zeros((dim, dim))
        loss_and_grad(w, stack, tau, grad)
        for i in range(dim):
            for j in range(dim):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wm[i, j] -= step
                lp = loss_and_grad(wp, stack, tau, np.zeros((dim, dim)))[0]
                lm = loss_and_grad(wm, stack, tau, np.zeros((dim, dim)))[0]
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(grad[i, j]), abs(numeric), 1e-6)
                worst = max(worst, abs(grad[i, j] - numeric) / denom)
    assert worst < 1e-4


MINING_POOL = (
    "anchor bramble copper derrick ember fathom girder harbor ingot jetty "
    "keel lantern mastic nickel oakum pulley quarry rivet sparrow tiller "
    "awning bollard capstan davit fairlead gunwale hawser keelson mooring "
    "oarlock pintle quoin rudder scupper thwart windlass yardarm bilge "
    "cleat dunnage"
).split()


@pytest.mark.criterion(5, "hard mining against brute force")
def test_mining_matches_independent_brute_force():
    # every text samples 12 words from a shared pool, so each query sees
    # a smooth gradient of overlaps and its top ranks are separated by
    # far more than any float summation-order noise (verified below)
    dim = 48
    tie_text = "overflow manifest shared between depots"
    words = random.Random(10)
    sentence = lambda: " ".join(words.choice(MINING_POOL) for _ in range(12))
    pts, queries = [], []
    for t in range(20):
        for c in range(2):
            if c == 1 and t in (4, 9):
                # two tables share this chunk verbatim: their vectors tie
                # bitwise, so ranking between them must fall to pt_id
                text = tie_text
            else:
                text = sentence()
            pt = PartialTable(
                pt_id=f"tbl{t:02d}#kpt_random#{c}",
                table_id=f"tbl{t:02d}",
                strategy="kpt_random",
                cluster_index=c,
                row_indices=[c],
                text=text,
            )
            pts.append(pt)
        queries.append(
            SyntheticQuery(
                query_id=f"tbl{t:02d}#kpt_random#0#q0",
                pt_id=f"tbl{t:02d}#kpt_random#0",
                table_id=f"tbl{t:02d}",
                text=sentence(),
                lang="en",
            )
        )
    # one query worded like the shared chunk, from a third table, so both
    # tied copies are eligible and land at the top of its ranking
    queries.append(
        SyntheticQuery(
            query_id="tbl00#kpt_random#0#q1",
            pt_id="tbl00#kpt_random#0",
            table_id="tbl00",
            text=tie_text,
            lang="en",
        )
    )
    q_vecs = np.stack([mock_embed(q.text, dim) for q in queries])
    pt_vecs = {pt.pt_id: mock_embed(pt.text, dim) for pt in pts}
    h = 8
    triples, skipped = mine_all(
        queries, q_vecs, pts, MiningConfig(h=h, strategy="hard"),
        np.stack([pt_vecs[pt.pt_id] for pt in pts]),
    )
    assert skipped == []

    # brute force: rebuild every triple with scalar dots and an explicit
    # (descending score, ascending id) sort, in query_id order
    expected = []
    for i in sorted(range(len(queries)), key=lambda i: queries[i].query_id):
        q = queries[i]
        scored = sorted(
            (-float(np.dot(pt_vecs[pt.pt_id], q_vecs[i])), pt.pt_id, pt)
            for pt in pts
            if pt.table_id != q.table_id
        )
        # fixture sanity: within the ranks that decide the output, scores
        # are either far apart or come from bitwise-identical vectors
        window = scored[: h + 1]
        for (s_a, _, pt_a), (s_b, _, pt_b) in zip(window, window[1:]):
            assert s_b - s_a > 1e-9 or np.array_equal(
                pt_vecs[pt_a.pt_id], pt_vecs[pt_b.pt_id]
            ), f"{q.query_id}: ranking is numerically unstable"
        expected.append(
            (q.query_id, q.pt_id, tuple(pid for _, pid, _ in scored[:h]))
        )
    got = [(t.query_id, t.positive_pt_id, t.negative_pt_ids) for t in triples]
    assert got == expected

    # the tie-probe query ranks both shared copies first, in id order
    probe = next(t for t in triples if t.query_id == "tbl00#kpt_random#0#q1")
    assert probe.negative_pt_ids[:2] == ("tbl04#kpt_random#1", "tbl09#kpt_random#1")

    for t in triples:
        positive_table = t.positive_pt_id.split("#", 1)[0]
        assert all(n.split("#", 1)[0] != positive_table for n in t.negative_pt_ids)


PIPELINE_CONFIG = """\
corpus:
  path: corpus.jsonl
workspace: workspace
seed: 7
embedding:
  kind: mock
  model_name: mock-128
  dim: 128
train:
  epochs: 3
"""


def forbid_network(monkeypatch):
    def refuse(url, body, headers=None, timeout=None):
        raise AssertionError(f"network call attempted: {url}")

    monkeypatch.setattr(tabret.embed, "post_json", refuse)
    monkeypatch.setattr(tabret.querygen, "post_json", refuse)


@pytest.mark.criterion(6, "end-to-end directional gains on a planted corpus")
def test_pipeline_directional_gains(tmp_path, monkeypatch):
    forbid_network(monkeypatch)
    started = time.monotonic()
    write_corpus(build_corpus(), tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(PIPELINE_CONFIG, encoding="utf-8")
    cfg = load_config(tmp_path / "config.yaml")
    variants = parse_variants(
        "kpt_random+hard+adapter,"
        "kpt_random+random+adapter,"
        "kpt_random+hard+no-adapter,"
        "first_rows+hard+no-adapter",
        cfg,
    )
    out = run_compare(cfg, variants)
    r1 = {row["variant"]: row["recall"]["R@1"] for row in out["rows"]}

    # (a) cluster-sampled chunks must beat the leading-rows baseline
    assert r1["kpt_random-hard-no-adapter"] > r1["first_rows-hard-no-adapter"]

    # (b) training halves the mean loss and lifts held-out R@1 >= 5 points
    report = json.loads(
        (
            cfg.workspace / "compare" / "kpt_random-hard-adapter" / "train_report.json"
        ).read_text()
    )
    assert report["final_loss"] <= 0.5 * report["initial_loss"]
    assert (
        r1["kpt_random-hard-adapter"] >= r1["kpt_random-hard-no-adapter"] + 5.0
    )

    # (c) hard negatives do at least as well as random negatives
    assert r1["kpt_random-hard-adapter"] >= r1["kpt_random-random-adapter"]

    assert time.monotonic() - started < 120.0


@pytest.mark.criterion(7, "byte-identical artifacts across reruns")
def test_pipeline_determinism(tmp_path, monkeypatch):
    forbid_network(monkeypatch)
    write_corpus(build_corpus(n_tables=12, n_rows=20), tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(PIPELINE_CONFIG, encoding="utf-8")
    for ws in ("run_a", "run_b"):
        cfg = load_config(tmp_path / "config.yaml", overrides=[f"workspace={ws}"])
        run_pipeline(cfg, "all")
    for name in (
        "kpts.jsonl",
        "queries.jsonl",
        "triples.jsonl",
        "adapter.bin",
        "report.json",
    ):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


@pytest.mark.criterion(8, "prompt rendered byte-exact from the template")
def test_prompt_byte_exact(tiny_table):
    (pt,) = build_kpts(tiny_table, None, KptConfig(first_rows_k=3, strategy="first_rows"))
    cfg = GenConfig(n_q=5, lang="en")
    rendered = render_prompt(pt, cfg)
    # independent substitution; the chunk goes in last so its own text
    # can never be re-templated
    expected = (
        PROMPT_TEMPLATE.replace("{questions_per_chunk}", "5")
        .replace("{lang}", "en")
        .replace("{table_chunk}", pt.text)
    )
    assert rendered.encode("utf-8") == expected.encode("utf-8")
