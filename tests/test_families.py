from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from permpat import families
from permpat.core import (Permutation, PatternTrie, count_occurrences,
                          parse_compact)
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
from permpat.enumeration import count_avoiders, enumerate_avoiders

from conftest import brute_contains_exactly_once, complement


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
            assert len(build_tkm(k, m).patterns) == factorial(k - 1)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            build_tkm(3, 0)
        with pytest.raises(ValueError):
            build_tkm(3, 4)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            build_tkm(1, 1)

    def test_k_past_the_digits_rejected_before_building(self):
        # checked at construction, before any pattern is listed
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
        assert len(got.patterns) == 5
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
        assert len(build_union_tkm(3, (1, 2, 3)).patterns) == 6

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
            PatternSet(k=3, listed=(parse_compact("132"), parse_compact("123")))


def _perms(*texts):
    return tuple(parse_compact(t) for t in texts)


def _sorted_members(k, ms, tau=None):
    """The length-k patterns whose first entry is in ms, minus tau, by a
    filter over all of S_k."""
    return tuple(sorted(Permutation(p) for p in permutations(range(1, k + 1))
                        if p[0] in ms and Permutation(p) != tau))


class TestSetConsistency:
    """Construction is the one place that checks a set, and a family set is
    described by k, ms and tau alone, so every set that can be built is
    valid."""

    def test_m_set_whose_tau_starts_elsewhere(self):
        with pytest.raises(ValueError, match=r"tau must lie in T\(3,1\)"):
            PatternSet(k=3, ms=(1,), tau=parse_compact("231"))

    def test_m_set_with_two_first_entries(self):
        with pytest.raises(ValueError, match="exactly one m"):
            PatternSet(k=3, ms=(1, 2), tau=parse_compact("231"))

    @pytest.mark.parametrize("ms, tau", [
        ((), "132"),
        ((1, 4), None),
    ])
    def test_other_contradictions(self, ms, tau):
        with pytest.raises(ValueError, match="first entries"):
            PatternSet(k=3, ms=ms,
                       tau=None if tau is None else parse_compact(tau))

    def test_empty_set_rejected(self):
        # every permutation would avoid it, and its label "{}" does not parse
        with pytest.raises(ValueError, match="nonempty"):
            PatternSet(k=0)

    def test_family_past_nine_rejected_when_built_directly(self):
        with pytest.raises(ValueError, match="k=10 outside 2..9"):
            PatternSet(k=10, ms=(1,))

    @pytest.mark.parametrize("ms, tau", [((1,), None), ((1, 3), None),
                                         ((1,), "132")])
    def test_family_set_that_lists_patterns_rejected(self, ms, tau):
        with pytest.raises(ValueError, match="lists no patterns"):
            PatternSet(k=3, listed=_perms("123"), ms=ms,
                       tau=None if tau is None else parse_compact(tau))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_family_set_round_trips(self, k):
        sets = [(ms, None) for r in range(1, k + 1)
                for ms in combinations(range(1, k + 1), r)]
        sets += [((tau.values[0],), tau)
                 for tau in _sorted_members(k, range(1, k + 1))]
        for ms, tau in sets:
            ps = (build_union_tkm(k, ms) if tau is None
                  else build_m(k, ms[0], tau))
            assert parse_set_expression(ps.label()) == ps
            assert ps.patterns == _sorted_members(k, ms, tau)

    def test_family_sets_list_no_patterns_until_read(self, monkeypatch):
        built = []
        real_init = Permutation.__init__

        def counting_init(p, values):
            built.append(values)
            real_init(p, values)

        monkeypatch.setattr(families, "_family_patterns",
                            lambda *args: pytest.fail("patterns listed"))
        monkeypatch.setattr(Permutation, "__init__", counting_init)
        assert build_union_tkm(9, range(1, 10)).kind == "union"
        assert count_avoiders(12, build_tkm(4, 2)) == 118098
        assert built == []

    @pytest.mark.parametrize("text", ["Tkm(4,2)", "U(4;1,3)", "M(4,2;2143)"])
    def test_tuple_built_tries_walk_as_the_members_do(self, text):
        # a family set's tries are built from value tuples; on all of S_7
        # they find what tries built from its validated members find
        ps = parse_set_expression(text)
        tries = [(ps.trie, PatternTrie(p.values for p in ps.patterns))]
        if ps.tau is not None:
            tkm = build_tkm(ps.k, ps.ms[0])
            tries.append((ps.family_trie,
                          PatternTrie(p.values for p in tkm.patterns)))
        for host in permutations(range(1, 8)):
            for built, reference in tries:
                assert built.hits(host, 3) == reference.hits(host, 3)

    def test_family_trie_builds_no_permutation(self, monkeypatch):
        ps = parse_set_expression("M(6,3;312456)")
        built = []
        real_init = Permutation.__init__

        def counting_init(p, values):
            built.append(values)
            real_init(p, values)

        monkeypatch.setattr(Permutation, "__init__", counting_init)
        tau = (3, 1, 2, 4, 5, 6)
        assert ps.family_trie.hits(tau, 2) == [tau]
        assert ps.trie.hits(tau, 2) == []
        assert built == []


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

    def test_a_permutation_shorter_than_k_avoids_without_reading_patterns(
            self, monkeypatch):
        monkeypatch.setattr(families, "_family_patterns",
                            lambda *args: pytest.fail("patterns listed"))
        assert avoids_all(Permutation((2, 1)), build_tkm(9, 9))
        assert len(list(enumerate_avoiders(6, build_tkm(9, 9)))) == 720

    def test_every_long_permutation_contains_a_length3_pattern(self):
        # monotone-subsequence sanity bound, brute-verified at k=3, n=5
        all_s3 = adhoc_set(Permutation(p) for p in permutations((1, 2, 3)))
        for perm in permutations(range(1, 6)):
            assert not avoids_all(Permutation(perm), all_s3)


class TestExactlyOnceCheck:
    """contains_exactly_once walks the trie of all of T(k,m) once; the brute
    filter over every k-subsequence is the oracle."""

    @pytest.mark.parametrize("text", [
        "M(2,1;12)",  # T(2,1) is tau alone, so the rest of the set is empty
        "M(2,2;21)", "M(3,1;132)", "M(3,2;231)", "M(3,3;312)",
        "M(4,2;2143)", "M(4,4;4123)",
    ])
    def test_every_permutation_to_n7(self, text):
        avoid = parse_set_expression(text)
        tau = avoid.tau.values
        for n in range(1, 8):
            for perm in permutations(range(1, n + 1)):
                assert (contains_exactly_once(Permutation(perm), avoid)
                        == brute_contains_exactly_once(perm, tau)), perm


# one set of length-5 patterns, whose trie is five slots deep
_LONGER_SET = "{24153,31254,52413}"


def _every_small_set():
    unions = [build_union_tkm(k, ms) for k in (2, 3, 4)
              for size in range(1, k + 1)
              for ms in combinations(range(1, k + 1), size)]
    m_sets = [build_m(4, m, tau) for m in range(1, 5)
              for tau in build_tkm(4, m).patterns]
    adhoc = [parse_set_expression(text) for text in (
        "{1}", "{12}", "{21}", "{2413,3142}", "{123,321}", "{1324}",
        "{4231}", "{132,213,321}", _LONGER_SET)]
    return unions + m_sets + adhoc


@pytest.fixture(scope="module")
def small_hosts():
    """Every permutation of S_1..S_7 with the patterns of length at most 4,
    and of the length-5 set, that it contains, each found by its own capped
    count."""
    pats = [Permutation(p) for k in range(1, 5)
            for p in permutations(range(1, k + 1))]
    pats += parse_set_expression(_LONGER_SET).patterns
    hosts = []
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            host = Permutation(perm)
            hosts.append((host, {p for p in pats if len(p) <= n
                                 and count_occurrences(host, p, cap=1)}))
    return hosts


class TestSetContainmentWalk:
    """avoids_all walks the set's prefix trie once; each pattern counted on
    its own by the occurrence walk is the oracle."""

    @pytest.mark.parametrize("pattern_set", _every_small_set(),
                             ids=PatternSet.label)
    def test_exhaustive_to_n7(self, pattern_set, small_hosts):
        members = set(pattern_set.patterns)
        for host, contained in small_hosts:
            assert avoids_all(host, pattern_set) == members.isdisjoint(contained)

    @given(st.data())
    def test_random_sets_against_the_occurrence_walk(self, data):
        k = data.draw(st.integers(1, 5))
        pats = data.draw(st.lists(st.permutations(range(1, k + 1)),
                                  min_size=1, max_size=6, unique_by=tuple))
        n = data.draw(st.integers(1, 12))
        host = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
        pattern_set = adhoc_set(Permutation(tuple(p)) for p in pats)
        assert avoids_all(host, pattern_set) == (not any(
            count_occurrences(host, p, cap=1) for p in pattern_set.patterns))

    def test_a_length_1500_pattern_does_not_recurse(self):
        n = 1500
        pattern = Permutation(tuple(range(1, n + 1)))
        pattern_set = adhoc_set([pattern])
        assert not avoids_all(pattern, pattern_set)
        # the last two entries swapped: one must be dropped, and the walk
        # backs out of depth n-1 to find the match that drops the other
        host = Permutation(tuple(range(1, n)) + (n + 1, n))
        assert not avoids_all(host, pattern_set)
        assert avoids_all(Permutation(tuple(range(n + 1, 0, -1))), pattern_set)
        swapped = tuple(range(1, n - 1)) + (n, n - 1)
        assert avoids_all(Permutation(swapped), pattern_set)

    def test_a_short_permutation_builds_no_trie(self):
        pattern_set = build_tkm(9, 9)
        assert avoids_all(Permutation((2, 1)), pattern_set)
        assert "trie" not in vars(pattern_set)

    def test_a_listing_builds_its_set_trie_once(self, monkeypatch):
        built = []
        real = families.PatternTrie

        def counting_trie(patterns):
            built.append(1)
            return real(patterns)

        monkeypatch.setattr(families, "PatternTrie", counting_trie)
        assert len(list(enumerate_avoiders(7, build_tkm(4, 2)))) == 486
        assert built == [1]

    def test_a_built_trie_leaves_equality_and_hash_alone(self):
        built, fresh = build_tkm(4, 2), build_tkm(4, 2)
        assert not avoids_all(Permutation((2, 1, 3, 4)), built)
        assert "trie" in vars(built) and "trie" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert len({built, fresh}) == 1


class TestSetExpressions:
    @pytest.mark.parametrize("text, size", [
        ("Tkm(3,1)", 2),
        ("M(4,2;2143)", 5),
        ("U(4;1,3)", 12),
        ("{123,132}", 2),
    ])
    def test_parse_and_size(self, text, size):
        assert len(parse_set_expression(text).patterns) == size

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
