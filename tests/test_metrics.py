import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctclab.metrics import corpus_rate, edit_distance


@functools.lru_cache(maxsize=None)
def oracle_distance(ref: tuple, hyp: tuple) -> int:
    """Brute-force recursive edit distance (the independent oracle)."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        oracle_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
        oracle_distance(ref, hyp[1:]) + 1,
        oracle_distance(ref[1:], hyp) + 1,
    )


class TestEditDistance:
    def test_identity(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert corpus_rate([([1, 2, 3], [1, 2, 3])]) == 0.0

    def test_all_deletions(self):
        assert edit_distance(["a", "b", "c"], []) == 3

    def test_mixed_case(self):
        # hand-checked DP table: one substitution (b->x), one insertion (d)
        assert edit_distance(["a", "b", "c"], ["a", "x", "c", "d"]) == 2
        assert corpus_rate([(["a", "b", "c"], ["a", "x", "c", "d"])]) == pytest.approx(2 / 3)

    def test_empty_ref_rate_guard(self):
        assert edit_distance([], [5, 6]) == 2
        assert corpus_rate([([], [5, 6])]) == 2.0  # denominator floored at 1

    def test_counts_sum_to_distance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ref = tuple(rng.integers(1, 4, size=rng.integers(0, 7)))
            hyp = tuple(rng.integers(1, 4, size=rng.integers(0, 7)))
            assert edit_distance(ref, hyp) == oracle_distance(ref, hyp)

    def test_length_difference_and_max_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ref = tuple(rng.integers(1, 5, size=rng.integers(0, 8)))
            hyp = tuple(rng.integers(1, 5, size=rng.integers(0, 8)))
            d = edit_distance(ref, hyp)
            assert abs(len(ref) - len(hyp)) <= d <= max(len(ref), len(hyp), 0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (tuple(rng.integers(1, 4, size=rng.integers(0, 6)))
                       for _ in range(3))
            dab = edit_distance(a, b)
            dbc = edit_distance(b, c)
            dac = edit_distance(a, c)
            assert dac <= dab + dbc

    def test_exhaustive_small(self):
        seqs = [seq for n in range(4) for seq in itertools.product((1, 2, 3), repeat=n)]
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp) == oracle_distance(ref, hyp)

    @given(st.data())
    def test_long_sequences_match_oracle(self, data):
        # lengths drawn first, so that many pass one 64-bit word of the
        # bit-parallel column
        symbols = st.integers(1, data.draw(st.integers(1, 4)))
        ref, hyp = (tuple(data.draw(st.lists(symbols, min_size=n, max_size=n)))
                    for n in (data.draw(st.integers(0, 90)), data.draw(st.integers(0, 90))))
        assert edit_distance(ref, hyp) == oracle_distance(ref, hyp)
        oracle_distance.cache_clear()  # long pairs would hold ~1 MB each

    def test_string_and_tuple_tokens(self):
        rng = np.random.default_rng(3)
        for table in (["a", "bc", "", "d e"], [(1,), (1, 2), ("x", 0), ()]):
            for _ in range(100):
                ref = tuple(rng.integers(0, 4, size=rng.integers(0, 70)))
                hyp = tuple(rng.integers(0, 4, size=rng.integers(0, 70)))
                tokens = ([table[t] for t in ref], [table[t] for t in hyp])
                assert edit_distance(*tokens) == oracle_distance(ref, hyp)
                oracle_distance.cache_clear()


class TestCorpusRate:
    def test_single_pair_equals_edit_distance_rate(self):
        ref, hyp = [1, 2, 3], [1, 9, 3]
        assert corpus_rate([(ref, hyp)]) == edit_distance(ref, hyp) / len(ref)

    def test_duplication_invariance(self):
        pairs = [([1, 2], [1]), ([3, 4, 5], [3, 4, 5, 6])]
        assert corpus_rate(pairs) == corpus_rate(pairs * 3)

    def test_mixed_corpus_hand_computed(self):
        pairs = [
            ([1, 2, 3], [1, 2, 3]),      # 0 errors, ref len 3
            ([1, 2], [2]),               # 1 deletion, ref len 2
            ([4, 5, 6], [4, 7, 6, 8]),   # 1 sub + 1 ins, ref len 3
        ]
        assert corpus_rate(pairs) == pytest.approx(3 / 8)

    @given(st.lists(st.tuples(st.lists(st.integers(1, 4), max_size=7),
                              st.lists(st.integers(1, 4), max_size=7)),
                    min_size=1, max_size=6))
    def test_total_distance_over_total_length(self, pairs):
        distance = sum(edit_distance(ref, hyp) for ref, hyp in pairs)
        length = sum(len(ref) for ref, _ in pairs)
        assert corpus_rate(pairs) == distance / max(1, length)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_rate([])
