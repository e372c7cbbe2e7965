from itertools import permutations
from math import factorial

import pytest

from permpat.core import Permutation, parse_compact
from permpat.families import (
    PatternSet,
    adhoc_set,
    avoids_all,
    build_m,
    build_tkm,
    build_union_tkm,
    contains_exactly_once,
    parse_set_expression,
)

from conftest import complement


def _values(pattern_set):
    return {p.compact() for p in pattern_set.patterns}


class TestBuildTkm:
    def test_t31(self):
        assert _values(build_tkm(3, 1)) == {"123", "132"}

    def test_t42(self):
        assert _values(build_tkm(4, 2)) == {
            "2134", "2143", "2314", "2341", "2413", "2431"}

    def test_t22(self):
        assert _values(build_tkm(2, 2)) == {"21"}

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_size_is_factorial(self, k):
        for m in range(1, k + 1):
            assert len(build_tkm(k, m)) == factorial(k - 1)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            build_tkm(3, 0)
        with pytest.raises(ValueError):
            build_tkm(3, 4)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            build_tkm(1, 1)

    def test_k_past_the_digits_rejected_before_building(self):
        # k=10 would list 9! patterns before failing anywhere else
        with pytest.raises(ValueError, match="k=10 outside 2..9"):
            build_tkm(10, 1)
        with pytest.raises(ValueError, match="k=10 outside 2..9"):
            build_m(10, 1, Permutation(tuple(range(1, 11))))
        with pytest.raises(ValueError, match="k=10 outside 2..9"):
            build_union_tkm(10, (1, 2))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_families_partition_sk(self, k):
        union = set()
        total = 0
        for m in range(1, k + 1):
            fam = set(build_tkm(k, m).patterns)
            assert not (union & fam)
            union |= fam
            total += len(fam)
        assert total == factorial(k)
        assert union == {Permutation(p) for p in permutations(range(1, k + 1))}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_complement_maps_family_to_mirror(self, k):
        for m in range(1, k + 1):
            image = {complement(p) for p in build_tkm(k, m).patterns}
            assert image == set(build_tkm(k, k + 1 - m).patterns)


class TestBuildM:
    def test_m31(self):
        assert _values(build_m(3, 1, parse_compact("132"))) == {"123"}

    def test_m32(self):
        assert _values(build_m(3, 2, parse_compact("231"))) == {"213"}

    def test_m41(self):
        got = build_m(4, 1, parse_compact("1234"))
        assert len(got) == 5
        assert parse_compact("1234") not in got.patterns

    def test_tau_not_in_family(self):
        with pytest.raises(ValueError):
            build_m(3, 1, parse_compact("213"))
        with pytest.raises(ValueError):
            build_m(3, 1, parse_compact("12"))


class TestBuildUnion:
    def test_u312(self):
        assert _values(build_union_tkm(3, (1, 2))) == {"123", "132", "213", "231"}

    def test_full_union_is_s3(self):
        assert len(build_union_tkm(3, (1, 2, 3))) == 6

    def test_single_m_matches_tkm(self):
        assert set(build_union_tkm(4, (2,)).patterns) == set(build_tkm(4, 2).patterns)

    def test_tkm_is_the_one_entry_union(self):
        assert build_tkm(4, 2) == build_union_tkm(4, (2,))
        assert build_tkm(4, 2).label() == "Tkm(4,2)"

    def test_rejects_bad_ms(self):
        with pytest.raises(ValueError):
            build_union_tkm(3, ())
        with pytest.raises(ValueError):
            build_union_tkm(3, (2, 1))
        with pytest.raises(ValueError):
            build_union_tkm(3, (1, 4))


class TestAdhoc:
    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            adhoc_set([parse_compact("12"), parse_compact("123")])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            adhoc_set([parse_compact("12"), parse_compact("12")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adhoc_set([])

    def test_patternset_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PatternSet(k=3, patterns=(parse_compact("132"), parse_compact("123")))


def _perms(*texts):
    return tuple(parse_compact(t) for t in texts)


class TestSetConsistency:
    """A family set is checked whole: its patterns must be exactly what its
    ms and tau describe."""

    def test_union_whose_ms_disagree_with_its_patterns(self):
        with pytest.raises(ValueError, match="start with an m in ms"):
            PatternSet(k=3, patterns=_perms("123"), ms=(2,))

    def test_union_missing_one_pattern(self):
        full = build_union_tkm(4, (1, 3))
        with pytest.raises(ValueError, match="every pattern of its families"):
            PatternSet(k=4, patterns=full.patterns[1:], ms=(1, 3))

    def test_m_set_whose_patterns_do_not_start_with_m(self):
        with pytest.raises(ValueError, match="start with an m in ms"):
            PatternSet(k=3, patterns=_perms("213"), ms=(1,),
                       tau=parse_compact("132"))

    def test_m_set_whose_tau_starts_elsewhere(self):
        with pytest.raises(ValueError, match=r"tau must lie in T\(3,1\)"):
            PatternSet(k=3, patterns=_perms("123"), ms=(1,),
                       tau=parse_compact("231"))

    def test_m_set_that_lists_tau(self):
        with pytest.raises(ValueError, match="must not be a member"):
            PatternSet(k=3, patterns=_perms("132"), ms=(1,),
                       tau=parse_compact("132"))

    def test_m_set_with_two_first_entries(self):
        with pytest.raises(ValueError, match="exactly one m"):
            PatternSet(k=3, patterns=_perms("123", "132", "213"),
                       ms=(1, 2), tau=parse_compact("231"))

    @pytest.mark.parametrize("ms, tau", [
        ((1,), "132"),
        ((1, 4), None),
    ])
    def test_other_contradictions(self, ms, tau):
        with pytest.raises(ValueError):
            PatternSet(k=3, patterns=_perms("123", "132"), ms=ms,
                       tau=None if tau is None else parse_compact(tau))


class TestPredicates:
    def test_avoids_decreasing(self):
        assert avoids_all(Permutation((3, 2, 1)), build_tkm(3, 1))

    def test_contains_itself(self):
        assert not avoids_all(Permutation((1, 3, 2)), build_tkm(3, 1))

    def test_t42_hit(self):
        assert not avoids_all(Permutation((2, 1, 3, 4)), build_tkm(4, 2))

    def test_exactly_once_basic(self):
        avoid = build_m(3, 1, parse_compact("132"))
        assert contains_exactly_once(Permutation((1, 3, 2)), avoid)
        assert not contains_exactly_once(Permutation((1, 2, 3)), avoid)

    def test_exactly_once_231(self):
        avoid = build_m(3, 2, parse_compact("231"))
        assert contains_exactly_once(Permutation((2, 3, 1)), avoid)

    def test_exactly_once_rejects_tkm_set(self):
        with pytest.raises(ValueError):
            contains_exactly_once(Permutation((1, 3, 2)), build_tkm(3, 1))

    def test_every_long_permutation_contains_a_length3_pattern(self):
        # monotone-subsequence sanity bound, brute-verified at k=3, n=5
        all_s3 = adhoc_set(Permutation(p) for p in permutations((1, 2, 3)))
        for perm in permutations(range(1, 6)):
            assert not avoids_all(Permutation(perm), all_s3)


class TestSetExpressions:
    @pytest.mark.parametrize("text, size", [
        ("Tkm(3,1)", 2),
        ("M(4,2;2143)", 5),
        ("U(4;1,3)", 12),
        ("{123,132}", 2),
    ])
    def test_parse_and_size(self, text, size):
        assert len(parse_set_expression(text)) == size

    @pytest.mark.parametrize("text", [
        "Tkm(3,1)", "M(4,2;2143)", "U(4;1,3)", "{123,132}",
    ])
    def test_label_round_trip(self, text):
        ps = parse_set_expression(text)
        assert ps.label() == text
        again = parse_set_expression(ps.label())
        assert again.patterns == ps.patterns
        assert again.kind == ps.kind

    def test_whitespace_tolerated(self):
        ps = parse_set_expression(" Tkm( 3 , 1 ) ")
        assert ps.label() == "Tkm(3,1)"

    @pytest.mark.parametrize("text", [
        "", "bogus", "Tkm(3)", "Tkm(3,4)", "M(3,1;213)", "U(3;)", "U(3;2,1)",
        "{}", "{12,123}", "{12,12}", "Tkm(1,1)",
    ])
    def test_rejects_invalid(self, text):
        with pytest.raises(ValueError):
            parse_set_expression(text)
