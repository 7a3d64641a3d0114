"""Negative mining checked against a brute-force re-derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabret.embed import mock_embed
from tabret.kpt import PartialTable
from tabret.mining import (
    MINING_STRATEGIES,
    MiningConfig,
    TrainingTriple,
    mine_all,
    triple_from_record,
)
from tabret.querygen import SyntheticQuery

DIM = 32


def make_pt(table: int, chunk: int, text: str | None = None) -> PartialTable:
    return PartialTable(
        pt_id=f"t{table:02d}#kpt_random#{chunk}",
        table_id=f"t{table:02d}",
        strategy="kpt_random",
        cluster_index=chunk,
        row_indices=[chunk],
        text=text or f"table {table} chunk {chunk} with assorted inventory words",
    )


def vecs(pts: list[PartialTable]) -> np.ndarray:
    return np.stack([mock_embed(pt.text, DIM) for pt in pts])


def mine_one(query, q_vec, pts, cfg):
    """The triple mine_all gives one query, or None when it skips it."""
    triples, _ = mine_all([query], np.asarray(q_vec)[None], pts, cfg, vecs(pts))
    return triples[0] if triples else None


def make_query(table: int, chunk: int = 0, ordinal: int = 0) -> SyntheticQuery:
    return SyntheticQuery(
        query_id=f"t{table:02d}#kpt_random#{chunk}#q{ordinal}",
        pt_id=f"t{table:02d}#kpt_random#{chunk}",
        table_id=f"t{table:02d}",
        text=f"what is in table {table} chunk {chunk}",
        lang="en",
    )


@pytest.fixture
def corpus_pts() -> list[PartialTable]:
    return [make_pt(t, c) for t in range(8) for c in range(2)]


def brute_force_hard(query, q_vec, all_pts, h, all_vecs=None) -> list[str]:
    """Independent re-derivation: per-candidate scalar dot products,
    explicit sort on (descending score, ascending id), then cut."""
    if all_vecs is None:
        all_vecs = vecs(all_pts)
    ranked = []
    for pt, vec in zip(all_pts, all_vecs):
        if pt.table_id == query.table_id:
            continue
        ranked.append((-float(np.dot(vec, q_vec)), pt.pt_id))
    ranked.sort()
    return [pt_id for _, pt_id in ranked[: min(h, len(ranked))]]


class TestHardMining:
    def test_matches_brute_force_ids_and_order(self, corpus_pts):
        cfg = MiningConfig(h=5, strategy="hard")
        for table in range(8):
            query = make_query(table)
            q_vec = mock_embed(query.text, DIM)
            triple = mine_one(query, q_vec, corpus_pts, cfg)
            assert list(triple.negative_pt_ids) == brute_force_hard(
                query, q_vec, corpus_pts, cfg.h
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_random_pools(self, data):
        # small integer vectors: every dot product is exact in any order,
        # and a pool of few distinct vectors makes exact ties common
        dim = data.draw(st.integers(1, 4))
        entry = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        palette = data.draw(st.lists(entry, min_size=1, max_size=4))
        picks = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=30))
        pts, rows = [], []
        for chunk, (table, colour) in enumerate(picks):
            pts.append(make_pt(table, chunk))
            rows.append(palette[colour % len(palette)])
        pt_vecs = np.array(rows, dtype=np.float64)
        q_vec = np.array(data.draw(entry), dtype=np.float64)
        query = make_query(data.draw(st.integers(0, 6)))
        h = data.draw(st.integers(1, 12))
        expected = brute_force_hard(query, q_vec, pts, h, pt_vecs)
        triples, skipped = mine_all([query], q_vec[None], pts, MiningConfig(h=h), pt_vecs)
        if expected:
            assert list(triples[0].negative_pt_ids) == expected
        else:
            assert skipped == [query.query_id]

    def test_never_selects_own_table(self, corpus_pts):
        cfg = MiningConfig(h=100, strategy="hard")
        query = make_query(3)
        triple = mine_one(query, mock_embed(query.text, DIM), corpus_pts, cfg)
        assert all(not pt_id.startswith("t03#") for pt_id in triple.negative_pt_ids)
        # own table has 2 of the 16 chunks; everything else is taken
        assert len(triple.negative_pt_ids) == 14

    def test_h_clamps_to_candidate_count(self, corpus_pts):
        query = make_query(0)
        q_vec = mock_embed(query.text, DIM)
        triple = mine_one(query, q_vec, corpus_pts, MiningConfig(h=999))
        assert len(triple.negative_pt_ids) == 14

    def test_exact_score_ties_break_by_pt_id(self):
        # two chunks in different tables share one text, hence one
        # embedding; querying with that same vector makes them tie at
        # the top and the lower id must come first
        shared = "identical chunk text"
        pts = [
            make_pt(5, 0, text=shared),
            make_pt(2, 0, text=shared),
            make_pt(7, 0),
            make_pt(9, 0),
        ]
        query = make_query(9)
        triple = mine_one(query, mock_embed(shared, DIM), pts, MiningConfig(h=2))
        assert list(triple.negative_pt_ids) == ["t02#kpt_random#0", "t05#kpt_random#0"]

    def test_insensitive_to_candidate_list_order(self, corpus_pts, rng):
        cfg = MiningConfig(h=6)
        query = make_query(1)
        q_vec = mock_embed(query.text, DIM)
        baseline = mine_one(query, q_vec, corpus_pts, cfg)
        shuffled = list(corpus_pts)
        rng.shuffle(shuffled)
        assert mine_one(query, q_vec, shuffled, cfg) == baseline

    def test_triple_fields(self, corpus_pts):
        query = make_query(4, chunk=1, ordinal=2)
        q_vec = mock_embed(query.text, DIM)
        triple = mine_one(query, q_vec, corpus_pts, MiningConfig(h=3))
        assert triple.query_id == "t04#kpt_random#1#q2"
        assert triple.positive_pt_id == "t04#kpt_random#1"
        assert triple.strategy == "hard"


def lexsort_mine(queries, query_vecs, pts, h, pt_vecs):
    """Hard mining as a lexsort of each query's whole pool by (-score,
    pt_id rank), the pool gathered as mine_all gathers it so that each
    score has mine_all's bits: the oracle for selecting before sorting."""
    pt_ids = np.array([pt.pt_id for pt in pts], dtype=object)
    rank = np.empty(len(pts), dtype=np.intp)
    rank[np.argsort(pt_ids, kind="stable")] = np.arange(len(pts))
    picks = {}
    for query, q_vec in zip(queries, query_vecs):
        eligible = np.array([pt.table_id != query.table_id for pt in pts], dtype=bool)
        if eligible.any():
            scores = np.dot(pt_vecs[eligible], q_vec)
            order = np.lexsort((rank[eligible], -scores))[: min(h, int(eligible.sum()))]
            picks[query.query_id] = tuple(pt_ids[eligible][order].tolist())
    return picks


class TestSelectionMatchesFullLexsort:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mine_all_picks_as_a_lexsort_of_the_whole_pool(self, data):
        # a few distinct unit vectors repeated make exact score ties, and
        # an h up to 12 against pools of 1 to 29 rows is often larger
        dim = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        palette = [v / np.linalg.norm(v) for v in rng.normal(size=(data.draw(st.integers(1, 5)), dim))]
        tables = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
        pts = [make_pt(table, chunk) for chunk, table in enumerate(tables)]
        pt_vecs = np.stack([palette[rng.integers(len(palette))] for _ in pts])
        if data.draw(st.booleans()):
            # a query orthogonal to some rows: exact zero scores
            pt_vecs[: len(pts) // 2] = 0.0
            pt_vecs[: len(pts) // 2, 0] = 1.0
        queries = [make_query(t, ordinal=k) for k, t in enumerate(data.draw(
            st.lists(st.integers(0, 6), min_size=1, max_size=6)))]
        query_vecs = np.stack([palette[rng.integers(len(palette))] for _ in queries])
        if dim > 1:
            query_vecs[:, 0] = 0.0
        h = data.draw(st.integers(1, 12))
        triples, _ = mine_all(queries, query_vecs, pts, MiningConfig(h=h), pt_vecs)
        expected = lexsort_mine(queries, query_vecs, pts, h, pt_vecs)
        assert {t.query_id: t.negative_pt_ids for t in triples} == expected


class TestRandomMining:
    def test_deterministic_per_seed(self, corpus_pts):
        cfg = MiningConfig(h=5, strategy="random", seed=11)
        query = make_query(2)
        q_vec = mock_embed(query.text, DIM)
        a = mine_one(query, q_vec, corpus_pts, cfg)
        b = mine_one(query, q_vec, corpus_pts, cfg)
        assert a == b

    def test_seed_changes_draw(self, corpus_pts):
        query = make_query(2)
        q_vec = mock_embed(query.text, DIM)
        draws = {
            mine_one(
                query, q_vec, corpus_pts, MiningConfig(h=5, strategy="random", seed=s)
            ).negative_pt_ids
            for s in range(6)
        }
        assert len(draws) > 1

    def test_queries_get_independent_streams(self, corpus_pts):
        cfg = MiningConfig(h=5, strategy="random", seed=0)
        draws = {
            mine_one(
                make_query(2, ordinal=i),
                mock_embed("same text", DIM),
                corpus_pts,
                cfg,
            ).negative_pt_ids
            for i in range(6)
        }
        assert len(draws) > 1

    def test_ignores_similarity_but_respects_eligibility(self, corpus_pts):
        cfg = MiningConfig(h=100, strategy="random", seed=3)
        query = make_query(6)
        triple = mine_one(query, mock_embed(query.text, DIM), corpus_pts, cfg)
        assert len(triple.negative_pt_ids) == 14
        assert len(set(triple.negative_pt_ids)) == 14
        assert all(not pt_id.startswith("t06#") for pt_id in triple.negative_pt_ids)

    def test_draws_of_a_fixed_pool_are_pinned(self, corpus_pts):
        # two queries share one source table's pool; each draws from its own stream
        queries = [make_query(2, 0, 0), make_query(2, 1, 1), make_query(5, 0, 2)]
        q_vecs = np.stack([mock_embed(q.text, DIM) for q in queries])
        cfg = MiningConfig(h=3, strategy="random", seed=11)
        triples, skipped = mine_all(queries, q_vecs, corpus_pts, cfg, vecs(corpus_pts))
        assert skipped == []
        assert {t.query_id: t.negative_pt_ids for t in triples} == {
            "t02#kpt_random#0#q0": ("t05#kpt_random#0", "t00#kpt_random#0", "t03#kpt_random#1"),
            "t02#kpt_random#1#q1": ("t06#kpt_random#0", "t00#kpt_random#1", "t06#kpt_random#1"),
            "t05#kpt_random#0#q2": ("t06#kpt_random#1", "t03#kpt_random#1", "t01#kpt_random#1"),
        }

    def test_insensitive_to_candidate_list_order(self, corpus_pts, rng):
        # the draw happens over an id-sorted pool, so shuffling the
        # candidate list cannot change the outcome
        cfg = MiningConfig(h=4, strategy="random", seed=9)
        query = make_query(1)
        q_vec = mock_embed(query.text, DIM)
        baseline = mine_one(query, q_vec, corpus_pts, cfg)
        shuffled = list(corpus_pts)
        rng.shuffle(shuffled)
        assert mine_one(query, q_vec, shuffled, cfg) == baseline


class TestEligibility:
    @pytest.mark.parametrize("strategy", MINING_STRATEGIES)
    def test_no_candidates_skips_the_query(self, strategy):
        pts = [make_pt(1, 0), make_pt(1, 1)]
        query = make_query(1)
        q_vecs = mock_embed(query.text, DIM)[None]
        cfg = MiningConfig(strategy=strategy)
        assert mine_all([query], q_vecs, pts, cfg, vecs(pts)) == ([], [query.query_id])


class TestMineAll:
    def test_sorted_by_query_id_and_aligned(self, corpus_pts):
        queries = [make_query(t, ordinal=o) for t in (5, 1, 3) for o in (1, 0)]
        q_vecs = np.stack([mock_embed(q.text, DIM) for q in queries])
        triples, skipped = mine_all(queries, q_vecs, corpus_pts, MiningConfig(h=4), vecs(corpus_pts))
        assert skipped == []
        assert [t.query_id for t in triples] == sorted(q.query_id for q in queries)
        # each triple matches mining its own query directly
        by_id = {q.query_id: (q, v) for q, v in zip(queries, q_vecs)}
        for triple in triples:
            q, v = by_id[triple.query_id]
            assert triple == mine_one(q, v, corpus_pts, MiningConfig(h=4))

    def test_skips_queries_without_candidates(self):
        # the pool holds only table 9, so its queries have nothing eligible
        # and land in the skip list, in query_id order, instead of failing
        queries = [make_query(9, ordinal=1), make_query(3), make_query(9, ordinal=0)]
        q_vecs = np.stack([mock_embed(q.text, DIM) for q in queries])
        only_own = [make_pt(9, 0)]
        triples, skipped = mine_all(queries, q_vecs, only_own, MiningConfig(h=2), vecs(only_own))
        assert [(t.query_id, t.negative_pt_ids) for t in triples] == [
            ("t03#kpt_random#0#q0", ("t09#kpt_random#0",))
        ]
        assert skipped == ["t09#kpt_random#0#q0", "t09#kpt_random#0#q1"]

    def test_misaligned_vectors_rejected(self, corpus_pts):
        queries = [make_query(0)]
        q_vecs = np.zeros((2, DIM))
        with pytest.raises(ValueError, match="query_vecs must align"):
            mine_all(queries, q_vecs, corpus_pts, MiningConfig(), vecs(corpus_pts))

    def test_misaligned_pt_vecs_rejected(self, corpus_pts):
        queries = [make_query(0)]
        q_vecs = np.stack([mock_embed(q.text, DIM) for q in queries])
        with pytest.raises(ValueError, match="pt_vecs must align"):
            mine_all(queries, q_vecs, corpus_pts, MiningConfig(), vecs(corpus_pts)[:-1])


class TestConfigValidation:
    @pytest.mark.parametrize("h", [0, -2])
    def test_h_positive(self, h):
        with pytest.raises(ValueError, match="h must"):
            MiningConfig(h=h)

    def test_strategy_checked(self):
        with pytest.raises(ValueError, match="hard.*random|random.*hard"):
            MiningConfig(strategy="semi-hard")


class TestRecordRoundTrip:
    def test_round_trip(self):
        triple = TrainingTriple(
            query_id="t00#kpt_random#0#q0",
            positive_pt_id="t00#kpt_random#0",
            negative_pt_ids=("t01#kpt_random#0", "t02#kpt_random#1"),
            strategy="hard",
        )
        assert triple_from_record(vars(triple)) == triple
