"""Retrieval index: fusion rules, hand-counted recall, persistence."""

import functools
import json
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tabret.retrieval as retrieval
from tabret.embed import ProviderConfig, mock_embed
from tabret.fsio import ArtifactError
from tabret.kpt import PartialTable
from tabret.querygen import SyntheticQuery
from tabret.retrieval import (
    EvalReport,
    RetrievalConfig,
    RetrievalIndex,
    build_index,
    entry_text,
    evaluate,
    load_index,
    rank_tables,
    save_index,
    search,
)
from tabret.train import Adapter, adapter_apply

MOCK = ProviderConfig(kind="mock", model_name="mock-32", dim=32)


def make_pt(pt_id: str, table_id: str, text: str) -> PartialTable:
    return PartialTable(
        pt_id=pt_id,
        table_id=table_id,
        strategy="kpt_random",
        cluster_index=0,
        row_indices=[0],
        text=text,
    )


def hand_index(rows: list[tuple[str, str, list[float]]], fusion: str = "max"):
    """Index straight from (pt_id, table_id, vector) rows."""
    return RetrievalIndex(
        pt_ids=[r[0] for r in rows],
        table_ids=[r[1] for r in rows],
        vectors=np.array([r[2] for r in rows], dtype=np.float64),
        config=RetrievalConfig(fusion=fusion),
    )


def ranked(index: RetrievalIndex, q_vec: np.ndarray) -> list[tuple[str, float]]:
    """rank_tables as (table_id, fused score) pairs, best first."""
    order, fused = rank_tables(index, q_vec, top_k=len(index.tables))
    return [(index.tables[i], float(fused[i])) for i in order]


def reference_rank_tables(index: RetrievalIndex, q_vec: np.ndarray) -> list[tuple[str, float]]:
    """The dict-based ranker that rank_tables replaced, kept as the oracle.

    Mean fusion folds each table's scores left to right, which is what
    sum() does up to Python 3.11 (3.12's sum compensates).
    """
    scores = np.dot(index.vectors, q_vec)
    table_scores: dict[str, list[float]] = {}
    for table_id, score in zip(index.table_ids, scores):
        table_scores.setdefault(table_id, []).append(float(score))
    if index.config.fusion == "max":
        fused = {t: max(v) for t, v in table_scores.items()}
    else:
        fused = {t: functools.reduce(operator.add, v, 0.0) / len(v) for t, v in table_scores.items()}
    return sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))


TABLE_NAMES = ["a", "a!", "a#b", "b", "b-1", "c", "c10", "c9", "z", "Z"]


@st.composite
def random_index(draw):
    """1-9 partial tables per table, rows interleaved across tables, each
    vector drawn from a small pool so tables share vectors and tie exactly."""
    dim = draw(st.integers(2, 5))
    unit = st.floats(-1.0, 1.0, allow_nan=False, width=64)
    pool = draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=1, max_size=4))
    tables = draw(st.lists(st.sampled_from(TABLE_NAMES), min_size=1, max_size=8, unique=True))
    rows = [
        (table, pool[pick])
        for table in tables
        for pick in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
    ]
    rows = draw(st.permutations(rows))
    index = RetrievalIndex(
        pt_ids=[f"{t}#kpt_random#{i}" for i, (t, _) in enumerate(rows)],
        table_ids=[t for t, _ in rows],
        vectors=np.array([v for _, v in rows], dtype=np.float64),
        config=RetrievalConfig(fusion=draw(st.sampled_from(["max", "mean"]))),
    )
    queries = draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=1, max_size=3))
    return index, np.array(queries, dtype=np.float64)


class TestAgainstReferenceRanker:
    @settings(max_examples=300, deadline=None)
    @given(case=random_index(), data=st.data())
    def test_search_and_evaluate_match_the_dict_ranker(self, case, data):
        index, q_vecs = case
        texts = [f"query {i}" for i in range(len(q_vecs))]
        by_text = dict(zip(texts, q_vecs))
        fake_embed = lambda provider, batch, cache=None: np.array([by_text[t] for t in batch])
        with mock.patch.object(retrieval, "embed_texts", fake_embed):
            gold = []
            for text, q_vec in zip(texts, q_vecs):
                expected = reference_rank_tables(index, q_vec)
                assert ranked(index, q_vec) == expected
                top_k = data.draw(st.integers(1, len(index.tables)))
                assert search(index, text, MOCK, top_k=top_k) == expected[:top_k]
                gold += [(text, t, rank) for rank, (t, _) in enumerate(expected, start=1)]
            report = evaluate(index, [(text, t) for text, t, _ in gold], MOCK)
        assert report.ranks == [rank for _, _, rank in gold]


def reference_evaluate(index, gold, provider, ks=(1, 5, 10), cache=None) -> EvalReport:
    """The per-query evaluate that block scoring replaced, kept as the
    oracle: a gold table's rank is its position in rank_tables's order."""
    position = {t: i for i, t in enumerate(index.tables)}
    q_vecs = retrieval.embed_texts(provider, [q for q, _ in gold], cache)
    ranks = []
    for (_, gold_id), q_vec in zip(gold, q_vecs):
        if index.adapter is not None:
            q_vec = adapter_apply(index.adapter, q_vec)
        order, _ = rank_tables(index, q_vec, top_k=len(index.tables))
        ranks.append(int(np.flatnonzero(order == position[gold_id])[0]) + 1)
    recall = {k: round(100.0 * sum(1 for r in ranks if r <= k) / len(ranks), 2) for k in ks}
    return EvalReport(recall=recall, query_count=len(ranks), ranks=ranks)


def maps_to_unit(adapter: Adapter, q_vec: np.ndarray) -> bool:
    try:
        adapter_apply(adapter, q_vec)
    except ValueError:  # W q is zero, or its squared norm underflows
        return False
    return True


class TestBlockEvaluateMatchesPerQueryRanking:
    @settings(max_examples=300, deadline=None)
    @given(case=random_index(), data=st.data())
    def test_ranks_and_recall_equal_the_oracle(self, case, data):
        index, q_vecs = case
        if data.draw(st.booleans(), label="adapter"):
            dim = index.vectors.shape[1]
            noise = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=dim * dim, max_size=dim * dim))
            index.adapter = Adapter(W=np.eye(dim) + np.reshape(noise, (dim, dim)))
            assume(all(map(functools.partial(maps_to_unit, index.adapter), q_vecs)))
        # gold pairs may repeat a query or a table, and the pool makes ties
        texts = [f"query {i}" for i in range(len(q_vecs))]
        by_text = dict(zip(texts, q_vecs))
        gold = data.draw(st.lists(
            st.tuples(st.sampled_from(texts), st.sampled_from(index.tables)), min_size=1, max_size=9
        ), label="gold")
        # a block of per_block queries; 1 makes every block a single query
        per_block = data.draw(st.integers(1, len(gold) + 1), label="per_block")
        bytes_per_query = 8 * (len(index.pt_ids) + 1)
        fake_embed = lambda provider, batch, cache=None: np.array([by_text[t] for t in batch])
        with mock.patch.object(retrieval, "embed_texts", fake_embed):
            want = reference_evaluate(index, gold, MOCK, ks=(1, 2, 3))
            block_bytes = per_block * bytes_per_query + 7
            with mock.patch.object(retrieval, "_BLOCK_BYTES", block_bytes):
                got = evaluate(index, gold, MOCK, ks=(1, 2, 3))
        assert got.ranks == want.ranks
        assert got.recall == want.recall and got.query_count == want.query_count

    def test_one_query_per_block_and_a_short_last_block(self, monkeypatch):
        rows = [("a#kpt_random#0", "a", [1.0, 0.0]), ("b#kpt_random#0", "b", [0.0, 1.0]),
                ("b#kpt_random#1", "b", [1.0, 0.0]), ("c#kpt_random#0", "c", [0.6, 0.8])]
        queries = {"x": [1.0, 0.0], "y": [0.0, 1.0], "z": [0.6, 0.8]}
        monkeypatch.setattr(retrieval, "embed_texts",
                            lambda provider, texts, cache=None: np.array([queries[t] for t in texts]))
        gold = [(q, t) for q in queries for t in ("a", "b", "c")]
        for fusion in ("max", "mean"):
            index = hand_index(rows, fusion)
            want = reference_evaluate(index, gold, MOCK).ranks
            for per_block in (1, 2, 4, 9, 100):
                monkeypatch.setattr(retrieval, "_BLOCK_BYTES", per_block * 8 * 5)
                assert evaluate(index, gold, MOCK).ranks == want, (fusion, per_block)


def parent_scores(index: RetrievalIndex, q_vec: np.ndarray) -> np.ndarray:
    """One query's row scores and pad as rank_tables made them before the
    stacked matmul, kept as the oracle: one np.dot written through out=."""
    scores = np.empty(len(index.pt_ids) + 1)
    scores[-1] = -np.inf if index.config.fusion == "max" else 0.0
    np.dot(index.vectors, q_vec, out=scores[:-1])
    return scores


def parent_fuse(index: RetrievalIndex, scores: np.ndarray) -> np.ndarray:
    """_fuse as it was for one query's scores, kept as the oracle."""
    by_table = scores.take(index._grid)
    if index.config.fusion == "max":
        return by_table.max(axis=0)
    fused = np.zeros(len(index.tables))
    for row in by_table:
        fused += row
    fused /= index._counts
    return fused


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def planted_vectors(rng: np.random.Generator, n: int, dim: int, zeros: float) -> np.ndarray:
    """n rows whose entries are 0.0 or -0.0 with probability zeros, with
    about a fifth of the rows repeating another, so scores tie exactly."""
    x = rng.normal(size=(n, dim))
    x[rng.random(x.shape) < zeros] = 0.0
    x[rng.random(x.shape) < 0.5] *= -1.0
    repeat = rng.random(n) < 0.2
    x[repeat] = x[rng.integers(0, n, repeat.sum())]
    return x


@st.composite
def scored_index(draw):
    """An index of 1-400 rows over up to 30 tables at d = 8, 64 or 128, and
    1-60 queries, both with planted zeros of either sign."""
    dim = draw(st.sampled_from([8, 64, 128]), label="dim")
    rows = draw(st.integers(1, 400), label="rows")
    tables = draw(st.integers(1, min(rows, 30)), label="tables")
    zeros = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]), label="zeros")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    index = RetrievalIndex(
        pt_ids=[f"p{i}" for i in range(rows)],
        table_ids=[f"t{i:02d}" for i in rng.integers(0, tables, rows)],
        vectors=planted_vectors(rng, rows, dim, zeros),
        config=RetrievalConfig(fusion=draw(st.sampled_from(["max", "mean"]), label="fusion")),
    )
    return index, planted_vectors(rng, draw(st.integers(1, 60), label="queries"), dim, zeros), rng


class TestStackedScoresKeepThePerQueryBits:
    """score_block is one stacked matmul for a whole block of queries
    (tests/test_scoring.py checks its scores); every fused score and rank
    must keep the bits of the per-query np.dot that search and evaluate
    made before."""

    @settings(max_examples=150, deadline=None)
    @given(case=scored_index())
    def test_fusing_a_block_equals_fusing_each_query(self, case):
        # planted row scores: exact ties and zeros of both signs
        index, q_vecs, rng = case
        block = rng.choice([0.0, -0.0, 0.25, -0.25, 1.0], size=(len(q_vecs), len(index.pt_ids) + 1))
        block[:, -1] = retrieval._PAD[index.config.fusion]
        want = np.stack([parent_fuse(index, row) for row in block])
        assert np.array_equal(bits(retrieval._fuse(index, block)), bits(want))

    @settings(max_examples=100, deadline=None)
    @given(case=scored_index(), data=st.data())
    def test_rank_tables_and_evaluate_over_blocks_match_the_per_query_path(self, case, data):
        index, q_vecs, rng = case
        texts = [f"query {i}" for i in range(len(q_vecs))]
        gold = [(text, index.tables[t]) for text, t in
                zip(texts, rng.integers(0, len(index.tables), len(texts)))]
        ranks = []
        for q_vec, (_, gold_id) in zip(q_vecs, gold):
            want = parent_fuse(index, parent_scores(index, q_vec))
            order, fused = rank_tables(index, q_vec, top_k=len(index.tables))
            assert np.array_equal(bits(fused), bits(want))
            assert np.array_equal(order, np.argsort(-want, kind="stable"))
            ranks.append(int(np.flatnonzero(order == index.tables.index(gold_id))[0]) + 1)
        per_block = data.draw(st.integers(1, max(1, len(q_vecs) // 2)), label="per_block")
        fake_embed = lambda provider, batch, cache=None: q_vecs[[texts.index(t) for t in batch]]
        with mock.patch.object(retrieval, "embed_texts", fake_embed), \
                mock.patch.object(retrieval, "_BLOCK_BYTES", per_block * 8 * (len(index.pt_ids) + 1)):
            assert evaluate(index, gold, MOCK).ranks == ranks


# exact ties and both signed zeros, among values of either sign
TIE_SCORES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.25])


@st.composite
def planted_block(draw):
    """An index of 1-12 tables with 1-3 rows each, rows interleaved, and
    one query's planted row scores: exact ties, and tables whose every
    score is -0.0 against tables at 0.0."""
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12), label="counts")
    table_ids = draw(st.permutations([f"t{t:02d}" for t, n in enumerate(counts) for _ in range(n)]))
    fusion = draw(st.sampled_from(["max", "mean"]), label="fusion")
    index = RetrievalIndex(
        pt_ids=[f"p{i}" for i in range(len(table_ids))],
        table_ids=table_ids,
        vectors=np.zeros((len(table_ids), 2)),
        config=RetrievalConfig(fusion=fusion),
    )
    scores = draw(st.lists(st.one_of(TIE_SCORES, st.floats(-1, 1)),
                           min_size=len(table_ids), max_size=len(table_ids)), label="scores")
    block = np.array([scores + [-np.inf if fusion == "max" else 0.0]])
    return index, block


class TestSearchTakesTheHeadOfTheStableSort:
    """rank_tables and search select their top k; the full stable sort of
    the fused scores stays here as the oracle of its head."""

    @settings(max_examples=300, deadline=None)
    @given(case=planted_block(), data=st.data())
    def test_planted_ties_and_signed_zeros(self, case, data):
        index, block = case
        top_k = data.draw(st.integers(1, len(index.tables) + 2), label="top_k")
        q_vec = np.array([1.0, 0.0])
        with mock.patch.object(retrieval, "score_block", lambda matrix, q_vecs, pad: block.copy()), \
                mock.patch.object(retrieval, "embed_texts", lambda *args: q_vec[None]):
            top, fused = rank_tables(index, q_vec, top_k)
            want = np.argsort(-fused, kind="stable")[:top_k]
            assert top.tolist() == want.tolist()
            got = search(index, "query", MOCK, top_k=top_k)
        assert bits(np.array([s for _, s in got])).tolist() == bits(fused[want]).tolist()
        assert [t for t, _ in got] == [index.tables[i] for i in want]

    @settings(max_examples=100, deadline=None)
    @given(case=scored_index(), data=st.data())
    def test_scored_rows_with_planted_zeros(self, case, data):
        index, q_vecs, _ = case
        top_k = data.draw(st.integers(1, len(index.tables) + 2), label="top_k")
        for q_vec in q_vecs[:5]:
            want = parent_fuse(index, parent_scores(index, q_vec))
            top, fused = rank_tables(index, q_vec, top_k)
            assert np.array_equal(bits(fused), bits(want))
            assert top.tolist() == np.argsort(-want, kind="stable")[:top_k].tolist()

    def test_negative_zero_ties_with_zero_in_table_id_order(self):
        index = hand_index([("p0", "c", [0.0, 1.0]), ("p1", "a", [0.0, 1.0]),
                            ("p2", "b", [0.0, 1.0]), ("p3", "d", [1.0, 0.0])])
        block = np.array([[0.0, -0.0, 0.0, -1.0, -np.inf]])
        with mock.patch.object(retrieval, "score_block", lambda matrix, q_vecs, pad: block.copy()):
            top, fused = rank_tables(index, np.array([1.0, 0.0]), 3)
        assert bits(fused).tolist() == bits(np.array([-0.0, 0.0, 0.0, -1.0])).tolist()
        assert [index.tables[i] for i in top] == ["a", "b", "c"]


class TestFusion:
    # table A holds two orthogonal chunks, table B one diagonal chunk;
    # for q = e1 the fusions disagree: max sees A's perfect chunk (1.0
    # vs 0.707), mean averages A down to 0.5
    rows = [
        ("A#kpt_random#0", "A", [1.0, 0.0]),
        ("A#kpt_random#1", "A", [0.0, 1.0]),
        ("B#kpt_random#0", "B", [np.sqrt(0.5), np.sqrt(0.5)]),
    ]

    def test_max_fusion_rewards_best_chunk(self):
        ranking = ranked(hand_index(self.rows, "max"), np.array([1.0, 0.0]))
        assert [t for t, _ in ranking] == ["A", "B"]
        assert ranking[0][1] == pytest.approx(1.0)
        assert ranking[1][1] == pytest.approx(np.sqrt(0.5))

    def test_mean_fusion_averages_chunks(self):
        ranking = ranked(hand_index(self.rows, "mean"), np.array([1.0, 0.0]))
        assert [t for t, _ in ranking] == ["B", "A"]
        assert dict(ranking)["A"] == pytest.approx(0.5)

    def test_score_ties_rank_by_table_id(self):
        rows = [
            ("zeta#kpt_random#0", "zeta", [1.0, 0.0]),
            ("alpha#kpt_random#0", "alpha", [1.0, 0.0]),
            ("mid#kpt_random#0", "mid", [0.5, 0.5]),
        ]
        ranking = ranked(hand_index(rows), np.array([1.0, 0.0]))
        assert [t for t, _ in ranking] == ["alpha", "zeta", "mid"]

    def test_ranking_covers_every_table_once(self):
        ranking = ranked(hand_index(self.rows), np.array([0.3, 0.7]))
        assert sorted(t for t, _ in ranking) == ["A", "B"]


class TestEvaluateHandCounted:
    def test_recall_at_k_from_planted_ranks(self, monkeypatch):
        # 12 single-chunk tables on the coordinate axes: a query's score
        # against table i is simply its i-th component, so we can plant
        # any rank we like per query
        n = 12
        rows = [
            (f"t{i:02d}#kpt_random#0", f"t{i:02d}", list(np.eye(n)[i])) for i in range(n)
        ]
        index = hand_index(rows)

        def vector_with_gold_rank(rank: int) -> list[float]:
            descending = [1.0 - 0.05 * j for j in range(n)]
            v = [0.0] * n
            v[0] = descending[rank - 1]  # gold t00 takes the rank-th value
            spare = [x for j, x in enumerate(descending) if j != rank - 1]
            for i in range(1, n):
                v[i] = spare[i - 1]
            return v

        planted = {
            f"query rank {r}": vector_with_gold_rank(r) for r in (1, 2, 6, 11)
        }
        monkeypatch.setattr(
            retrieval,
            "embed_texts",
            lambda provider, texts, cache=None: np.array([planted[t] for t in texts]),
        )
        gold = [(text, "t00") for text in planted]
        report = evaluate(index, gold, MOCK, ks=(1, 5, 10))
        assert report.ranks == [1, 2, 6, 11]
        assert report.query_count == 4
        assert report.recall == {1: 25.0, 5: 50.0, 10: 75.0}

    def test_recall_monotone_in_k(self):
        pts = [
            make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: widget flavor {i}")
            for i in range(10)
        ]
        index = build_index(pts, None, MOCK)
        gold = [(f"which table holds widget flavor {i}", f"t{i}") for i in range(10)]
        report = evaluate(index, gold, MOCK, ks=(1, 2, 5, 10))
        values = [report.recall[k] for k in (1, 2, 5, 10)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_unknown_gold_table_is_an_error(self):
        index = hand_index([("a#kpt_random#0", "a", [1.0, 0.0])])
        with pytest.raises(ValueError, match="ghost"):
            evaluate(index, [("hello", "ghost")], MOCK)

    def test_empty_gold_rejected(self):
        index = hand_index([("a#kpt_random#0", "a", [1.0, 0.0])])
        with pytest.raises(ValueError, match="no evaluation queries"):
            evaluate(index, [], MOCK)

    def test_report_json_shape(self):
        report = EvalReport(recall={1: 25.0, 5: 50.0}, query_count=4, ranks=[1, 7])
        out = report.to_json()
        assert out == {
            "recall": {"R@1": 25.0, "R@5": 50.0},
            "query_count": 4,
            "ranks": [1, 7],
        }


class TestBuildIndexAndSearch:
    def test_entries_sorted_by_pt_id(self):
        pts = [
            make_pt("b#kpt_random#0", "b", "h\nh: two"),
            make_pt("a#kpt_random#1", "a", "h\nh: three"),
            make_pt("a#kpt_random#0", "a", "h\nh: one"),
        ]
        index = build_index(pts, None, MOCK)
        assert index.pt_ids == ["a#kpt_random#0", "a#kpt_random#1", "b#kpt_random#0"]
        assert index.table_ids == ["a", "a", "b"]

    def test_self_similarity_is_one(self):
        pts = [
            make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: distinct payload {i}")
            for i in range(6)
        ]
        index = build_index(pts, None, MOCK)
        for pt in pts:
            ranking = search(index, pt.text, MOCK, top_k=1)
            assert ranking[0][0] == pt.table_id
            assert ranking[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_search_truncates_to_top_k(self):
        pts = [make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: {i}") for i in range(7)]
        index = build_index(pts, None, MOCK)
        assert len(search(index, "anything", MOCK, top_k=3)) == 3

    def test_search_validates_arguments(self):
        pts = [make_pt("a#kpt_random#0", "a", "h\nh: x")]
        index = build_index(pts, None, MOCK)
        with pytest.raises(ValueError, match="top_k"):
            search(index, "q", MOCK, top_k=0)

    def test_zero_pts_rejected(self):
        with pytest.raises(ValueError, match="zero partial tables"):
            build_index([], None, MOCK)

    def test_adapter_transforms_stored_vectors(self, rng):
        pts = [make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: item {i}") for i in range(4)]
        base = build_index(pts, None, MOCK)
        adapter = Adapter(W=np.eye(32) + 0.2 * rng.normal(size=(32, 32)))
        adapted = build_index(pts, None, MOCK, adapter=adapter)
        expected = np.stack([adapter_apply(adapter, v) for v in base.vectors])
        np.testing.assert_allclose(adapted.vectors, expected, atol=1e-12)
        # rows stay unit-norm after adaptation
        np.testing.assert_allclose(
            np.linalg.norm(adapted.vectors, axis=1), 1.0, atol=1e-9
        )

    def test_search_maps_query_through_adapter(self, rng):
        pts = [make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: item {i}") for i in range(4)]
        adapter = Adapter(W=np.eye(32) + 0.2 * rng.normal(size=(32, 32)))
        index = build_index(pts, None, MOCK, adapter=adapter)
        got = search(index, "some probe text", MOCK)
        q_vec = adapter_apply(adapter, mock_embed("some probe text", 32))
        assert got == ranked(index, q_vec)[:10]

    def test_identity_adapter_matches_no_adapter(self):
        pts = [make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: item {i}") for i in range(4)]
        plain = build_index(pts, None, MOCK)
        via_identity = build_index(pts, None, MOCK, adapter=Adapter(np.eye(32)))
        np.testing.assert_allclose(via_identity.vectors, plain.vectors, atol=1e-12)


class TestRepresentationModes:
    def test_entry_text_pt_only(self):
        pt = make_pt("a#kpt_random#0", "a", "h\nh: v")
        queries = [
            SyntheticQuery("a#kpt_random#0#q0", "a#kpt_random#0", "a", "who?", "en")
        ]
        assert entry_text(pt, queries, "pt_only") == "h\nh: v"

    def test_entry_text_appends_queries(self):
        pt = make_pt("a#kpt_random#0", "a", "h\nh: v")
        queries = [
            SyntheticQuery("a#kpt_random#0#q0", "a#kpt_random#0", "a", "who?", "en"),
            SyntheticQuery("a#kpt_random#0#q1", "a#kpt_random#0", "a", "what?", "en"),
        ]
        assert entry_text(pt, queries, "pt_plus_queries") == "h\nh: v\nwho?\nwhat?"

    def test_entry_text_without_queries_falls_back(self):
        pt = make_pt("a#kpt_random#0", "a", "h\nh: v")
        assert entry_text(pt, [], "pt_plus_queries") == "h\nh: v"

    def test_mode_changes_embeddings(self):
        pt = make_pt("a#kpt_random#0", "a", "h\nh: v")
        queries = {
            "a#kpt_random#0": [
                SyntheticQuery("a#kpt_random#0#q0", "a#kpt_random#0", "a", "who?", "en")
            ]
        }
        plain = build_index([pt], None, MOCK)
        enriched = build_index([pt], queries, MOCK, config=RetrievalConfig(mode="pt_plus_queries"))
        assert enriched.config.mode == "pt_plus_queries"
        assert not np.allclose(plain.vectors, enriched.vectors)


class TestIndexValidation:
    def test_misaligned_lengths(self):
        with pytest.raises(ValueError, match="align"):
            RetrievalIndex(pt_ids=["a"], table_ids=["a", "b"], vectors=np.zeros((1, 2)))

    def test_duplicate_pt_ids(self):
        with pytest.raises(ValueError, match="unique"):
            RetrievalIndex(
                pt_ids=["a", "a"], table_ids=["t", "t"], vectors=np.zeros((2, 2))
            )

    def test_no_entries(self):
        with pytest.raises(ValueError, match="at least one entry"):
            RetrievalIndex(pt_ids=[], table_ids=[], vectors=np.zeros((0, 4)))

    def test_unknown_mode_and_fusion(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            RetrievalConfig(mode="chunks")
        with pytest.raises(ValueError, match="fusion must be one of"):
            RetrievalConfig(fusion="sum")


class TestPersistence:
    def build(self) -> RetrievalIndex:
        pts = [
            make_pt(f"t{i}#kpt_random#0", f"t{i}", f"h\nh: payload {i}") for i in range(5)
        ]
        return build_index(pts, None, MOCK, config=RetrievalConfig(fusion="mean"))

    def test_round_trip(self, tmp_path):
        index = self.build()
        save_index(index, tmp_path / "index")
        back = load_index(tmp_path / "index")
        assert back.pt_ids == index.pt_ids
        assert back.table_ids == index.table_ids
        assert np.array_equal(back.vectors, index.vectors)
        assert back.config == RetrievalConfig(mode="pt_only", fusion="mean")
        assert back.adapter is None

    def test_load_attaches_adapter(self, tmp_path):
        adapter = Adapter(np.eye(32))
        index = self.build()
        index.adapter = adapter
        save_index(index, tmp_path / "index")
        back = load_index(tmp_path / "index", adapter=adapter)
        assert back.adapter is adapter

    @pytest.mark.parametrize("built_with, loaded_with", [(True, False), (False, True)])
    def test_adapter_must_match_meta(self, tmp_path, built_with, loaded_with):
        index = self.build()
        index.adapter = Adapter(np.eye(32)) if built_with else None
        save_index(index, tmp_path / "index")
        adapter = Adapter(np.eye(32)) if loaded_with else None
        expected = f"has_adapter is {json.dumps(built_with)}, expected {json.dumps(loaded_with)}"
        with pytest.raises(ArtifactError, match=expected) as exc_info:
            load_index(tmp_path / "index", adapter=adapter)
        assert exc_info.value.path == tmp_path / "index" / "meta.json"

    @pytest.mark.parametrize(
        "edit, found",
        [
            (lambda meta: meta.pop("has_adapter"), "has_adapter is missing"),
            (lambda meta: meta.update(has_adapter=0), "has_adapter is 0"),
            (lambda meta: meta.pop("dim"), "dim is missing"),
            (lambda meta: meta.update(dim=64), "dim is 64"),
            (lambda meta: meta.update(dim=32.0), "dim is 32.0"),
        ],
        ids=["no-has_adapter", "has_adapter-not-bool", "no-dim", "other-dim", "dim-not-int"],
    )
    def test_meta_must_state_adapter_and_dim(self, tmp_path, edit, found):
        save_index(self.build(), tmp_path / "index")
        path = tmp_path / "index" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ArtifactError, match=f"meta.json: {found}, expected ") as exc_info:
            load_index(tmp_path / "index")
        assert exc_info.value.path == path

    def test_vector_corruption_detected(self, tmp_path):
        index = self.build()
        save_index(index, tmp_path / "index")
        blob = bytearray((tmp_path / "index" / "vectors.bin").read_bytes())
        blob[-12] ^= 0x40
        (tmp_path / "index" / "vectors.bin").write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum mismatch") as exc_info:
            load_index(tmp_path / "index")
        assert exc_info.value.path == tmp_path / "index" / "vectors.bin"

    def test_count_mismatch_detected(self, tmp_path):
        index = self.build()
        save_index(index, tmp_path / "index")
        entries = (tmp_path / "index" / "entries.jsonl").read_text().splitlines()
        (tmp_path / "index" / "entries.jsonl").write_text("\n".join(entries[:-1]) + "\n")
        with pytest.raises(ArtifactError, match="disagree on count") as exc_info:
            load_index(tmp_path / "index")
        assert exc_info.value.path == tmp_path / "index" / "entries.jsonl"
