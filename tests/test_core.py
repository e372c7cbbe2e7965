import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from permpat.cli import main
from permpat.core import (
    PatternTrie,
    Permutation,
    PinnedPattern,
    count_occurrences,
    iter_occurrences,
    parse_compact,
    parse_permutation,
)
from permpat.families import build_tkm

from conftest import brute_occurrence_list, complement, reverse


@st.composite
def perms(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(values))


@st.composite
def patterns(draw, max_m=4):
    m = draw(st.integers(1, max_m))
    values = draw(st.permutations(list(range(1, m + 1))))
    return Permutation(tuple(values))


class TestMakePermutation:
    """Building a Permutation from its values validates them."""

    def test_identity_case(self):
        assert Permutation((1,)).values == (1,)

    def test_order_preserved(self):
        assert Permutation((2, 1, 3)).values == (2, 1, 3)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Permutation((2, 2, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Permutation((1, 3))
        with pytest.raises(ValueError, match="outside"):
            Permutation((0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Permutation(())

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            Permutation((True, 2))

    def test_str_is_comma_separated(self):
        assert str(Permutation((2, 1, 3))) == "2,1,3"

    def test_compact(self):
        assert Permutation((2, 1, 4, 3)).compact() == "2143"

    def test_compact_past_nine_rejected(self):
        with pytest.raises(ValueError, match="n <= 9"):
            Permutation(tuple(range(1, 11))).compact()


class TestSymmetries:
    @pytest.mark.parametrize("values, expected", [
        ((1,), (1,)),
        ((1, 2, 3), (3, 2, 1)),
        ((2, 4, 1, 3), (3, 1, 4, 2)),
    ])
    def test_complement(self, values, expected):
        assert complement(Permutation(values)).values == expected

    @pytest.mark.parametrize("values, expected", [
        ((1,), (1,)),
        ((1, 2, 3), (3, 2, 1)),
        ((2, 4, 1, 3), (3, 1, 4, 2)),
    ])
    def test_reverse(self, values, expected):
        assert reverse(Permutation(values)).values == expected

    @given(perms())
    def test_involutions(self, p):
        assert complement(complement(p)) == p
        assert reverse(reverse(p)) == p

    @given(perms(max_n=6), patterns(max_m=3))
    def test_occurrence_counts_respect_symmetry(self, host, pattern):
        base = count_occurrences(host, pattern)
        assert count_occurrences(complement(host), complement(pattern)) == base
        assert count_occurrences(reverse(host), reverse(pattern)) == base


class TestOccurrences:
    def test_known_count(self):
        # brute force over all C(4,3) index triples gives exactly these two
        host = Permutation((1, 3, 2, 4))
        pat = Permutation((1, 2, 3))
        assert brute_occurrence_list(host.values, pat.values) == [(1, 2, 4), (1, 3, 4)]
        assert count_occurrences(host, pat) == 2

    def test_pattern_longer_than_host(self):
        assert count_occurrences(Permutation((1, 2, 3)),
                                 Permutation((1, 2, 3, 4))) == 0

    def test_capped_count(self):
        host = Permutation((1, 3, 2, 4))
        assert count_occurrences(host, Permutation((1, 2, 3)), cap=1) == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            count_occurrences(Permutation((1, 2)), Permutation((1, 2)), cap=0)

    def test_find_occurrences_listing(self):
        host = Permutation((1, 3, 2, 4))
        got = list(iter_occurrences(host, Permutation((1, 2, 3))))
        assert got == [(1, 2, 4), (1, 3, 4)]

    def test_find_occurrences_none(self):
        assert list(iter_occurrences(Permutation((2, 1)), Permutation((1, 2)))) == []

    def test_whole_host_occurrence(self):
        got = list(iter_occurrences(Permutation((1, 3, 2)), Permutation((1, 3, 2))))
        assert got == [(1, 2, 3)]

    def test_limit_must_be_positive(self, capsys):
        # the listing limit is checked where it is read: the occurrences command
        code = main(["occurrences", "--host", "1,2", "--pattern", "1,2",
                     "--limit", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: limit must be a positive integer\n"

    def test_matches_brute_force_on_random_grid(self):
        rng = random.Random(20240811)
        for _ in range(300):
            n = rng.randint(1, 9)
            m = rng.randint(1, min(6, n + 1))
            host = list(range(1, n + 1))
            rng.shuffle(host)
            pat = list(range(1, m + 1))
            rng.shuffle(pat)
            H = Permutation(tuple(host))
            P = Permutation(tuple(pat))
            expected = brute_occurrence_list(host, pat)
            assert list(iter_occurrences(H, P)) == expected
            assert count_occurrences(H, P) == len(expected)
            for cap in (1, 2):
                assert count_occurrences(H, P, cap=cap) == min(len(expected), cap)

    @given(perms(max_n=6), patterns(max_m=3))
    def test_count_equals_listing_size(self, host, pattern):
        listing = list(iter_occurrences(host, pattern))
        assert count_occurrences(host, pattern) == len(listing)

    @given(st.integers(2, 3), st.integers(3, 6))
    def test_total_over_all_patterns_is_binomial(self, k, n):
        from math import comb
        rng = random.Random(k * 100 + n)
        host_vals = list(range(1, n + 1))
        rng.shuffle(host_vals)
        host = Permutation(tuple(host_vals))
        total = sum(
            count_occurrences(host, Permutation(p))
            for p in permutations(range(1, k + 1))
        )
        assert total == comb(n, k)


class TestPinnedPattern:
    @given(patterns(max_m=5), st.integers(0, 8), st.integers(1, 3), st.data())
    def test_count_ending_at_matches_brute(self, pattern, t, cap, data):
        # prefix+[value] is any distinct-value word; only occurrences that
        # use its last position end at the appended value.
        word = data.draw(st.permutations(list(range(1, t + 2))))
        prefix, value = word[:-1], word[-1]
        brute = sum(1 for pos in brute_occurrence_list(word, pattern.values)
                    if pos[-1] == t + 1)
        got = PinnedPattern(pattern.values).count_ending_at(prefix, value, cap)
        assert got == min(cap, brute)

    @pytest.mark.parametrize("pattern", [(1, 2), (1,)])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_positive(self, pattern, cap):
        # a cap below 1 once counted every occurrence ending at the value
        with pytest.raises(ValueError, match="cap must be a positive"):
            PinnedPattern(pattern).count_ending_at((1, 2, 3), 4, cap)


class _ReadLog(tuple):
    """A host that records each position read from it."""

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self.reads = Counter()
        return self

    def __getitem__(self, p):
        self.reads[p] += 1
        return super().__getitem__(p)


class TestPatternTrie:
    def test_prefixes_that_share_an_order_share_a_node(self):
        # T(4,2): one first slot, its second below or above, and so on
        trie = PatternTrie(p for p in permutations(range(1, 5)) if p[0] == 2)
        widths = []
        level = [trie.root]
        for _ in range(4):
            level = [entry[0] for node in level for entry in node
                     if entry is not None]
            widths.append(len(level))
        assert widths == [1, 2, 4, 6]

    def test_an_entry_carries_its_patterns_later_demands(self):
        # every pattern of T(4,2) has one later entry below its 2, two above
        trie = PatternTrie(p.values for p in build_tkm(4, 2).patterns)
        assert trie.root[0][1] == ((1, 2),)
        # then 1 (none below, two above), or 3 or 4 (one or two below)
        below, above = trie.root[0][0]
        assert below[1] == ((0, 2),)
        assert above[1] == ((1, 1), (2, 0))

    @pytest.mark.parametrize("host, pattern", [
        ((2, 3, 1), (1, 2, 3)),  # one later value above the 2, two needed
        ((2, 1, 3), (3, 2, 1)),  # one later value below the 2, two needed
    ])
    def test_a_position_without_room_for_the_rest_is_passed_over(
            self, host, pattern):
        # each position is read once for its counts, and the first once
        # more as the only candidate for the first slot, which is refused
        # before any later slot is tried
        host = _ReadLog(host)
        assert PatternTrie([pattern]).hits(host, 1) == []
        assert host.reads == {0: 2, 1: 1, 2: 1}

    @given(perms(max_n=8), st.lists(patterns(max_m=5), min_size=1,
                                    max_size=5))
    def test_matches_the_occurrence_walk(self, host, pats):
        # the trie holds each distinct pattern once, so count each once
        k = len(pats[0])
        pats = list(dict.fromkeys(p for p in pats if len(p) == k))
        counts = Counter({p.values: count_occurrences(host, p) for p in pats})
        total = sum(counts.values())
        trie = PatternTrie(p.values for p in pats)
        for cap in (1, 2, 3):
            assert len(trie.hits(host.values, cap)) == min(cap, total)
        # past the total, every occurrence of every pattern is met once
        assert Counter(trie.hits(host.values, total + 1)) == +counts

    def test_an_empty_trie_occurs_nowhere(self):
        assert PatternTrie([]).hits((1, 2, 3), 1) == []


class TestParsing:
    @pytest.mark.parametrize("text", ["2,1,3", "2 1 3", " 2, 1 ,3 "])
    def test_accepts_both_separators(self, text):
        assert parse_permutation(text).values == (2, 1, 3)

    @pytest.mark.parametrize("text", ["", "a,b", "2,2,1", "0,1", "1,3",
                                      "\u0661", "2,\u00b9", "+1", "1_0"])
    def test_rejects_invalid(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text)

    def test_parse_compact(self):
        assert parse_compact("2143").values == (2, 1, 4, 3)

    @pytest.mark.parametrize("text", ["", "120", "a13", "22", "\u0661\u0662",
                                      "1\u00b2"])
    def test_parse_compact_rejects(self, text):
        with pytest.raises(ValueError):
            parse_compact(text)
