import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from permpat.core import Permutation, count_occurrences, parse_compact
from permpat.enumeration import (
    _count_vector,
    _scan_count,
    count_avoiders,
    count_exactly_once,
    enumerate_avoiders,
    enumerate_exactly_once,
    occurrence_histogram,
)
from permpat.families import (
    adhoc_set,
    avoids_all,
    build_m,
    build_tkm,
    build_union_tkm,
    contains_exactly_once,
)
from permpat.verify import _count_both_exactly_one

from conftest import (
    brute_contains_exactly_once,
    brute_count_avoiders,
    brute_flatten,
)


class TestEnumerateAvoiders:
    def test_t31_at_n3(self):
        got = [p.compact() for p in enumerate_avoiders(3, build_tkm(3, 1))]
        assert got == ["213", "231", "312", "321"]

    def test_patterns_longer_than_host(self):
        got = [p.compact() for p in enumerate_avoiders(2, build_tkm(3, 1))]
        assert got == ["12", "21"]

    def test_avoiding_12_forces_decreasing(self):
        got = list(enumerate_avoiders(4, adhoc_set([parse_compact("12")])))
        assert got == [Permutation((4, 3, 2, 1))]

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 1),
        build_tkm(3, 2),
        build_tkm(4, 2),
        build_union_tkm(3, (1, 2)),
        build_union_tkm(4, (1, 3)),
        adhoc_set([parse_compact("123")]),
        adhoc_set([parse_compact("132"), parse_compact("213")]),
    ])
    @pytest.mark.parametrize("n", [1, 3, 5, 6])
    def test_stream_contract(self, n, pattern_set):
        out = list(enumerate_avoiders(n, pattern_set))
        assert out == sorted(out)
        assert len(set(out)) == len(out)
        assert all(avoids_all(p, pattern_set) for p in out)
        assert len(out) == count_avoiders(n, pattern_set)

    def test_stream_contract_at_n8(self):
        for pattern_set in (build_tkm(3, 1), adhoc_set([parse_compact("123")])):
            out = list(enumerate_avoiders(8, pattern_set))
            assert out == sorted(out)
            assert len(out) == count_avoiders(8, pattern_set)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_avoiders(0, build_tkm(3, 1)))


class TestCountAvoiders:
    def test_known_counts(self):
        assert count_avoiders(5, build_tkm(3, 1)) == 16
        assert count_avoiders(5, build_tkm(4, 2)) == 54
        assert count_avoiders(3, build_union_tkm(3, (1, 2, 3))) == 0

    def test_below_k_everything_avoids(self):
        for n in range(1, 4):
            assert count_avoiders(n, build_tkm(4, 2)) == factorial(n)

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 1), build_tkm(3, 3), build_tkm(4, 2),
        build_union_tkm(3, (1, 3)), build_union_tkm(4, (2, 4)),
        adhoc_set([parse_compact("231")]),
        adhoc_set([parse_compact("123"), parse_compact("321")]),
    ])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_naive_filter(self, n, pattern_set):
        assert count_avoiders(n, pattern_set) == brute_count_avoiders(n, pattern_set)

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 2), build_tkm(4, 1), build_union_tkm(4, (1, 4)),
        adhoc_set([parse_compact("132")]),
    ])
    @pytest.mark.parametrize("n", [5, 6])
    def test_exhaustive_flag_agrees(self, n, pattern_set):
        assert (count_avoiders(n, pattern_set, exhaustive=True)
                == count_avoiders(n, pattern_set))

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 1), build_tkm(4, 3), build_union_tkm(3, (2, 3)),
        build_tkm(4, 2), adhoc_set([parse_compact("213")]),
    ])
    def test_partition_by_first_entry_sums_to_total(self, pattern_set):
        for n in (5, 6, 7):
            total = count_avoiders(n, pattern_set, exhaustive=True)
            assert count_avoiders(n, pattern_set) == total
            # the walk's listing, split by first entry, matches a filter of
            # S_n part by part, and the parts sum to the scan's total
            parts = Counter(p.values[0]
                            for p in enumerate_avoiders(n, pattern_set))
            assert sum(parts.values()) == total
            assert parts == Counter(
                perm[0] for perm in permutations(range(1, n + 1))
                if avoids_all(Permutation(perm), pattern_set))

    def test_guards(self):
        with pytest.raises(ValueError):
            count_avoiders(0, build_tkm(3, 1))
        with pytest.raises(ValueError, match="desk-scale"):
            count_avoiders(13, adhoc_set([parse_compact("12")]))
        assert count_avoiders(13, adhoc_set([parse_compact("12")]), force=True) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_entry_passes_the_same_rule(self, n):
        # every permutation contains the pattern 1, its first entry included
        ps = adhoc_set([Permutation((1,))])
        assert count_avoiders(n, ps) == 0
        assert count_avoiders(n, ps, exhaustive=True) == 0
        assert list(enumerate_avoiders(n, ps)) == []


class TestCountExactlyOnce:
    def test_known_values(self):
        assert count_exactly_once(4, 3, 1, parse_compact("132")) == 4
        assert count_exactly_once(3, 3, 2, parse_compact("231")) == 1

    @pytest.mark.parametrize("k, m, tau", [
        (3, 1, "123"), (3, 1, "132"), (3, 2, "213"), (3, 3, "321"),
        (4, 1, "1342"), (4, 2, "2413"), (4, 4, "4123"),
    ])
    def test_at_n_equals_k_single_witness(self, k, m, tau):
        # the single member is tau itself
        assert count_exactly_once(k, k, m, parse_compact(tau)) == 1

    def test_tau_must_start_with_m(self):
        with pytest.raises(ValueError):
            count_exactly_once(4, 3, 1, parse_compact("213"))

    def test_tau_must_have_length_k(self):
        with pytest.raises(ValueError):
            count_exactly_once(4, 3, 1, parse_compact("12"))

    def _filter_oracle(self, n, k, m, tau):
        avoid = build_m(k, m, tau)
        return sum(
            1 for perm in permutations(range(1, n + 1))
            if contains_exactly_once(Permutation(perm), tau, avoid)
        )

    @pytest.mark.parametrize("k, m", [(3, 1), (3, 2), (3, 3),
                                      (4, 1), (4, 2), (4, 3), (4, 4)])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_direct_filter(self, n, k, m):
        for tau in build_tkm(k, m).patterns:
            assert (count_exactly_once(n, k, m, tau)
                    == self._filter_oracle(n, k, m, tau))

    @pytest.mark.parametrize("n, k, m, tau", [
        (8, 3, 1, "132"),
        (7, 4, 2, "2413"),
        (7, 4, 1, "1234"),
    ])
    def test_matches_direct_filter_larger_spots(self, n, k, m, tau):
        tau_p = parse_compact(tau)
        assert count_exactly_once(n, k, m, tau_p) == self._filter_oracle(n, k, m, tau_p)

    def test_guards(self):
        with pytest.raises(ValueError):
            count_exactly_once(0, 3, 1, parse_compact("132"))
        with pytest.raises(ValueError):
            count_exactly_once(13, 3, 1, parse_compact("132"))


class TestEnumerateExactlyOnce:
    @pytest.mark.parametrize("n, k, m, tau", [
        (5, 3, 1, "132"), (5, 3, 2, "231"), (6, 4, 2, "2143"),
    ])
    def test_matches_count_and_membership(self, n, k, m, tau):
        tau_p = parse_compact(tau)
        out = list(enumerate_exactly_once(n, k, m, tau_p))
        assert out == sorted(out)
        assert len(out) == count_exactly_once(n, k, m, tau_p)
        avoid = build_m(k, m, tau_p)
        assert all(contains_exactly_once(p, tau_p, avoid) for p in out)

    def test_first_member_arrives_without_walking_the_class(self):
        # S_20(T(4,2); 2143) has 3^16 members; a listing that collected the
        # class before yielding would not return here.
        first = next(enumerate_exactly_once(20, 4, 2, parse_compact("2143"),
                                            force=True))
        assert first.values == tuple(range(1, 17)) + (18, 17, 20, 19)


class TestHistogram:
    def test_n3_profile(self):
        hist = occurrence_histogram(3, parse_compact("123"))
        assert hist == {0: 5, 1: 1}

    def test_pattern_longer_than_host(self):
        hist = occurrence_histogram(2, parse_compact("123"))
        assert hist == {0: 2}

    def test_n4_full_profiles(self):
        # frozen from an independent subsequence scan of all of S_4
        assert occurrence_histogram(4, parse_compact("123")) == {
            0: 14, 1: 6, 2: 3, 4: 1}
        assert occurrence_histogram(4, parse_compact("132")) == {
            0: 14, 1: 5, 2: 4, 3: 1}

    @pytest.mark.parametrize("n", [1, 3, 5, 6])
    def test_total_is_factorial_and_zero_bucket_counts_avoiders(self, n):
        for tau in ("123", "231"):
            hist = occurrence_histogram(n, parse_compact(tau))
            assert sum(hist.values()) == factorial(n)
            assert (hist.get(0, 0)
                    == count_avoiders(n, adhoc_set([parse_compact(tau)])))

    def test_bucket_r_matches_direct_count(self):
        tau = parse_compact("123")
        hist = occurrence_histogram(5, tau)
        for r, bucket in hist.items():
            direct = sum(
                1 for perm in permutations(range(1, 6))
                if count_occurrences(Permutation(perm), tau) == r)
            assert bucket == direct


class TestPrefixPruningSoundness:
    @settings(max_examples=60)
    @given(st.data())
    def test_containment_is_monotone_under_extension(self, data):
        n = data.draw(st.integers(2, 7))
        host = data.draw(st.permutations(list(range(1, n + 1))))
        cut = data.draw(st.integers(1, n - 1))
        m = data.draw(st.integers(2, 3))
        pattern = Permutation(tuple(data.draw(
            st.permutations(list(range(1, m + 1))))))
        prefix = Permutation(brute_flatten(host[:cut]))
        extended = Permutation(brute_flatten(host[:cut + 1]))
        if count_occurrences(prefix, pattern, cap=1):
            assert count_occurrences(extended, pattern, cap=1)


class TestRouteAgreement:
    def test_pruned_vs_scan_on_random_adhoc_sets(self):
        rng = random.Random(77)
        for _ in range(25):
            k = rng.randint(2, 4)
            universe = list(permutations(range(1, k + 1)))
            size = rng.randint(1, min(4, len(universe)))
            pats = rng.sample(universe, size)
            ps = adhoc_set(Permutation(p) for p in pats)
            n = rng.randint(1, 6)
            assert (count_avoiders(n, ps)
                    == count_avoiders(n, ps, exhaustive=True))

    def test_every_walker_rule_against_the_scan(self):
        rng = random.Random(3)
        sets = []
        for _ in range(20):
            k = rng.randint(2, 5)
            ms = [m for m in range(1, k + 1) if rng.random() < 0.5]
            ms = ms or [rng.randint(1, k)]
            sets.append(build_tkm(k, ms[0]) if len(ms) == 1
                        else build_union_tkm(k, ms))
        for _ in range(20):
            k = rng.randint(1, 4)
            universe = list(permutations(range(1, k + 1)))
            pats = rng.sample(universe, rng.randint(1, min(4, len(universe))))
            sets.append(adhoc_set(Permutation(p) for p in pats))
        for ps in sets:
            n = rng.randint(1, 7)
            total = count_avoiders(n, ps)
            assert total == count_avoiders(n, ps, exhaustive=True)
            out = list(enumerate_avoiders(n, ps))
            assert all(a < b for a, b in zip(out, out[1:]))
            assert len(out) == total

    def test_exactly_once_rule_against_a_brute_filter(self):
        rng = random.Random(4)
        for _ in range(20):
            k = rng.randint(2, 4)
            m = rng.randint(1, k)
            tau = rng.choice(build_tkm(k, m).patterns)
            n = rng.randint(1, 7)
            members = [Permutation(p) for p in permutations(range(1, n + 1))
                       if brute_contains_exactly_once(p, tau.values)]
            assert list(enumerate_exactly_once(n, k, m, tau)) == members
            assert count_exactly_once(n, k, m, tau) == len(members)


@st.composite
def family_sets(draw):
    k = draw(st.integers(2, 5))
    ms = draw(st.lists(st.integers(1, k), min_size=1, max_size=k, unique=True))
    if len(ms) == 1 and draw(st.booleans()):
        return build_tkm(k, ms[0])
    return build_union_tkm(k, sorted(ms))


@st.composite
def adhoc_sets(draw):
    k = draw(st.integers(1, 4))
    universe = sorted(permutations(range(1, k + 1)))
    pats = draw(st.lists(st.sampled_from(universe), min_size=1,
                         max_size=min(4, len(universe)), unique=True))
    return adhoc_set(Permutation(p) for p in pats)


@st.composite
def exactly_once_triples(draw):
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, k))
    return k, m, draw(st.sampled_from(build_tkm(k, m).patterns))


@st.composite
def count_vector_queries(draw):
    """One or two disjoint groups of length-3 or length-4 patterns and a
    target of 0 to 2 occurrences per group."""
    k = draw(st.sampled_from([3, 4]))
    universe = sorted(permutations(range(1, k + 1)))
    pats = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4,
                         unique=True))
    cut = draw(st.integers(0, len(pats) - 1))
    groups = (tuple(pats[:cut]), tuple(pats[cut:])) if cut else (tuple(pats),)
    target = tuple(draw(st.integers(0, 2)) for _ in groups)
    return groups, target


class TestRouteDifferential:
    """Every route drawn against every other: the walk, the exhaustive scan
    and the brute filters of conftest."""

    def _check_avoiders(self, n, ps):
        total = brute_count_avoiders(n, ps)
        assert count_avoiders(n, ps) == total
        assert count_avoiders(n, ps, exhaustive=True) == total
        out = list(enumerate_avoiders(n, ps))
        assert all(a < b for a, b in zip(out, out[1:]))
        assert len(out) == total

    @settings(max_examples=25)
    @given(family_sets(), st.integers(1, 7))
    def test_family_routes_agree(self, ps, n):
        self._check_avoiders(n, ps)

    @settings(max_examples=25)
    @given(adhoc_sets(), st.integers(1, 7))
    def test_adhoc_routes_agree(self, ps, n):
        self._check_avoiders(n, ps)

    @settings(max_examples=25)
    @given(exactly_once_triples(), st.integers(1, 7))
    def test_exactly_once_routes_agree(self, triple, n):
        k, m, tau = triple
        members = [Permutation(p) for p in permutations(range(1, n + 1))
                   if brute_contains_exactly_once(p, tau.values)]
        assert count_exactly_once(n, k, m, tau) == len(members)
        assert list(enumerate_exactly_once(n, k, m, tau)) == members

    @settings(max_examples=50)
    @given(count_vector_queries(), st.integers(1, 7))
    def test_vector_routes_agree(self, query, n):
        groups, target = query
        scan = _scan_count(n, groups, max(target) + 1)
        assert _count_vector(n, groups, target) == scan.get(target, 0)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_vector_walk_matches_the_robertson_both_scan(self, n):
        both = _count_vector(n, (((1, 2, 3),), ((1, 3, 2),)), (1, 1))
        assert both == _count_both_exactly_one(n)
