"""Scoring against its oracles: the full lexsort and a loop of np.dot.
evaluate's counted rank is checked against the stable sort in
tests/test_retrieval.py, through evaluate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tabret.scoring import lexsort_head, score_block

from test_retrieval import bits, parent_scores, scored_index

# exact ties and both signed zeros, among values of either sign
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25])


class TestSelectionMatchesFullLexsort:
    @settings(max_examples=300, deadline=None)
    @given(
        neg=st.lists(st.one_of(TIE_VALUES, st.floats(-1, 1)), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_hardest_is_the_head_of_the_full_lexsort(self, neg, data):
        neg = np.array(neg)
        rank = np.array(data.draw(st.permutations(range(len(neg)))), dtype=np.intp)
        take = data.draw(st.integers(1, len(neg)))
        assert lexsort_head(neg, rank, take).tolist() == np.lexsort((rank, neg))[:take].tolist()

    def test_signed_zeros_tie_and_break_by_rank(self):
        neg = np.array([0.0, -0.0, -0.0, 0.0, 1.0])
        rank = np.array([3, 4, 0, 1, 2])
        assert lexsort_head(neg, rank, 2).tolist() == [2, 3]
        assert lexsort_head(neg, rank, 4).tolist() == [2, 3, 0, 1]


class TestStackedScoresKeepThePerQueryBits:
    @settings(max_examples=150, deadline=None)
    @given(case=scored_index())
    def test_scores_equal_a_loop_of_dot_bit_for_bit(self, case):
        index, q_vecs, _ = case
        want = np.stack([parent_scores(index, q) for q in q_vecs])
        pad = -np.inf if index.config.fusion == "max" else 0.0
        assert np.array_equal(bits(score_block(index.vectors, q_vecs, pad)), bits(want))

