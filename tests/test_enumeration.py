import hashlib
import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations, islice, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from permpat import enumeration, families
from permpat.core import (Permutation, PinnedPattern, count_occurrences,
                          parse_compact)
from permpat.enumeration import (
    DESK_SCALE_LIMIT,
    HARD_N_LIMIT,
    _count_exactly_once_rec,
    _adhoc_rule,
    _count_generic,
    _exactly_once_rule,
    _iter_avoiders,
    _match_tables,
    _rank_rows,
    _scan_count,
    _walk,
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
from permpat.formulas import (bona, formula_corollary_interval,
                              formula_theorem1, formula_theorem3,
                              formula_theorem4, noonan,
                              recurrence_coefficient)
from permpat.verify import _count_both_exactly_one

from conftest import (
    brute_contains_exactly_once,
    brute_count_avoiders,
    brute_flatten,
    scan_count_avoiders,
    time_limit,
    tree_count_exactly,
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

    def test_tkm_9_5_is_listed_at_2000(self):
        # every increasing prefix of a T(9,5) pattern fits the identity, so
        # only the guard's look-ahead, which finds no entry with four
        # smaller values after it, keeps its re-check short
        with time_limit(60):
            first = next(enumerate_avoiders(2000, build_tkm(9, 5), force=True))
        assert first.values == tuple(range(1, 2001))


class TestListingsCheckTheirArguments:
    """Both listings raise when called, before any item is asked for."""

    @pytest.mark.parametrize("n, force, match", [
        (0, False, "n >= 1"),
        (DESK_SCALE_LIMIT + 1, False, "desk-scale"),
        (HARD_N_LIMIT + 1, False, "hard limit"),
        (HARD_N_LIMIT + 1, True, "hard limit"),
    ])
    @pytest.mark.parametrize("listing, pattern_set", [
        (enumerate_avoiders, build_tkm(3, 1)),
        (enumerate_exactly_once, build_m(3, 1, parse_compact("132"))),
    ], ids=["avoiders", "exactly_once"])
    def test_n_is_checked_at_the_call(self, listing, pattern_set, n, force,
                                      match):
        with pytest.raises(ValueError, match=match):
            listing(n, pattern_set, force=force)

    def test_exactly_once_needs_an_m_set_at_the_call(self):
        with pytest.raises(ValueError, match="not an M"):
            enumerate_exactly_once(5, build_tkm(3, 1))


class TestFamilyRuleTable:
    def test_matches_every_rank_tested(self):
        # the reference tests every rank of every row, O(n^2 * |ms|)
        for k in range(2, 7):
            for size in range(1, k + 1):
                for ms in combinations(range(1, k + 1), size):
                    for n in range(1, 15):
                        got = [[r for r, _ in row]
                               for row in _rank_rows(n, k, ms, 1)]
                        assert got == [
                            [r for r in range(later + 1)
                             if all(r < m - 1 or later - r < k - m for m in ms)]
                            for later in range(n)], (k, ms, n)

    def test_rank_rows_match_the_dense_count(self):
        # the reference counts the occurrences started at every rank of
        # every row; below=1 for every union, below=2 for every single m
        for k in range(2, 7):
            queries = [(ms, 1) for size in range(1, k + 1)
                       for ms in combinations(range(1, k + 1), size)]
            queries += [((m,), 2) for m in range(1, k + 1)]
            for ms, below in queries:
                for n in range(1, 15):
                    rows = _rank_rows(n, k, ms, below)
                    assert rows == [
                        [(r, c) for r in range(later + 1)
                         if (c := sum(comb(r, m - 1) * comb(later - r, k - m)
                                      for m in ms)) < below]
                        for later in range(n)], (k, ms, below, n)
                    assert max(map(len, rows)) <= 2 * k, (k, ms, below, n)


class TestUnionsAreRankRowProducts:
    """A union is counted as the product of its rank rows and listed by
    `_walk` over those rows, so its closed forms hold far past the
    desk-scale limit."""

    def test_theorem1_at_2000(self):
        assert (count_avoiders(2000, build_tkm(9, 5), force=True)
                == formula_theorem1(2000, 9))

    def test_interval_union_at_500(self):
        assert (count_avoiders(500, build_union_tkm(5, (2, 3, 4)), force=True)
                == formula_corollary_interval(500, 5, 2, 4))

    @pytest.mark.parametrize("ms", [
        ms for size in range(1, 5) for ms in combinations(range(1, 5), size)])
    def test_every_k4_union_follows_its_recurrence_at_500(self, ms):
        union = build_union_tkm(4, ms)
        assert (count_avoiders(500, union, force=True)
                == recurrence_coefficient(4, ms)
                * count_avoiders(499, union, force=True))

    def test_a_union_is_never_walked(self, monkeypatch):
        def refuse(name):
            def fail(*args):
                raise AssertionError(f"a union went through {name}")
            return fail

        union = build_union_tkm(4, (1, 2))
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_walk", refuse("_walk"))
            assert count_avoiders(6, union) == 48
        # the listing walks the rank rows and searches no pattern
        monkeypatch.setattr(enumeration, "_adhoc_rule", refuse("_adhoc_rule"))
        monkeypatch.setattr(PinnedPattern, "count_ending_at",
                            refuse("PinnedPattern"))
        assert len(list(enumerate_avoiders(6, union))) == 48


class TestWalk:
    def test_yields_permutations_that_stay_put(self):
        # each member is its own Permutation, not a list the walk reuses
        walked = list(_walk(3, _adhoc_rule(_match_tables(((1, 2, 3),)), 3)))
        assert walked == [parse_compact(t)
                          for t in ("132", "213", "231", "312", "321")]


def walk_exactly_once(n, k, m, tau):
    """The members of S_n(T(k,m); tau) as `_walk` lists them from the rule's
    steps, which the level count sums instead."""
    return _walk(n, _exactly_once_rule(n, k, m, tau))


def counted_walk(n, steps, limit=None):
    """The first `limit` members `_walk` lists under `steps` (all of them by
    default), and how many nodes it asked for steps."""
    calls = 0

    def counted(later, state):
        nonlocal calls
        calls += 1
        return steps(later, state)

    return list(islice(_walk(n, counted), limit)), calls


class TestExactlyOnceLevelCounts:
    """An exactly-once class is counted level by level over the rule's rank
    states, so theorems 3 and 4 hold far past the desk-scale limit; the walk
    over the same steps stays its cross-check."""

    @pytest.mark.parametrize("k, m", [(k, m) for k in range(2, 5)
                                      for m in range(1, k + 1)])
    def test_matches_the_walk_up_to_nine(self, k, m):
        for tau in build_tkm(k, m).patterns:
            for n in range(1, 10):
                walked = sum(1 for _ in walk_exactly_once(n, k, m, tau.values))
                assert (_count_exactly_once_rec(n, k, m, tau.values)
                        == walked), (tau, n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_the_walk_meets_no_dead_end(self, k):
        # every node the walk asks for steps is a proper prefix of a member,
        # the empty one included, for every M(k,m;tau) at n <= 9 (n <= 8 for
        # k = 5)
        for m in range(1, k + 1):
            for tau in build_tkm(k, m).patterns:
                for n in range(1, 9 if k == 5 else 10):
                    members, calls = counted_walk(
                        n, _exactly_once_rule(n, k, m, tau.values))
                    prefixes = {p.values[:d] for p in members
                                for d in range(1, n)}
                    assert calls == len(prefixes) + 1, (tau, n)
                    assert (len(members)
                            == _count_exactly_once_rec(n, k, m, tau.values))

    @pytest.mark.parametrize("n, k, m, tau, limit, members, calls", [
        (11, 4, 2, "2143", None, 2187, 9841),
        (2000, 9, 5, "512346789", 1, 1, 2000),
    ], ids=["M(4,2;2143)-11", "M(9,5;512346789)-2000-first"])
    def test_nodes_asked_for_steps(self, n, k, m, tau, limit, members,
                                   calls):
        # a None state kept where too few entries remain for tau to start
        # is a dead end; keeping them asks at 75,451 nodes for the first
        # listing and 279,124 for the first member of the second
        steps = _exactly_once_rule(n, k, m, parse_compact(tau).values)
        listed, asked = counted_walk(n, steps, limit)
        assert (len(listed), asked) == (members, calls)

    def test_a_count_is_never_walked(self, monkeypatch):
        def walk(*args):
            raise AssertionError("an exactly-once count went through _walk")

        monkeypatch.setattr(enumeration, "_walk", walk)
        assert count_exactly_once(6, build_m(4, 2, parse_compact("2143"))) == 9

    @pytest.mark.parametrize("n, k, m, tau", [
        (2000, 9, 5, "512346789"),
        (2000, 9, 1, "123456789"),
        (500, 4, 2, "2143"),
    ])
    def test_theorems_at_large_n(self, n, k, m, tau):
        expected = (formula_theorem3(n, k) if m == 1
                    else formula_theorem4(n, k, m))
        avoid = build_m(k, m, parse_compact(tau))
        assert count_exactly_once(n, avoid, force=True) == expected

    def test_a_count_keeps_no_steps(self):
        # the count expands each state once per level, so memoised steps
        # would never be read again; held, they peak at 23.2 MB here
        avoid = build_m(9, 1, parse_compact("123456789"))
        tracemalloc.start()
        try:
            count_exactly_once(2000, avoid, force=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


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

    @pytest.mark.parametrize("m, tau", [(1, "12"), (2, "21")])
    def test_an_m_set_with_no_members(self, m, tau):
        # T(2,1) is {12} and T(2,2) is {21}, so removing tau leaves nothing
        pattern_set = build_m(2, m, parse_compact(tau))
        assert pattern_set.patterns == ()
        for n in range(1, 7):
            assert count_avoiders(n, pattern_set) == factorial(n)
            assert len(list(enumerate_avoiders(n, pattern_set))) == factorial(n)

    @pytest.mark.parametrize("pattern_set", [
        build_m(k, m, tau) for k in (3, 4) for m in range(1, k + 1)
        for tau in build_tkm(k, m).patterns
    ], ids=lambda pattern_set: pattern_set.label())
    def test_m_sets_match_naive_filter(self, pattern_set):
        for n in range(1, 7):
            assert (count_avoiders(n, pattern_set)
                    == brute_count_avoiders(n, pattern_set))

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 2), build_tkm(4, 1), build_union_tkm(4, (1, 4)),
        adhoc_set([parse_compact("132")]),
    ])
    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_the_scan(self, n, pattern_set):
        assert (scan_count_avoiders(n, pattern_set)
                == count_avoiders(n, pattern_set))

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 1), build_tkm(4, 3), build_union_tkm(3, (2, 3)),
        build_tkm(4, 2), adhoc_set([parse_compact("213")]),
    ])
    def test_partition_by_first_entry_sums_to_total(self, pattern_set):
        for n in (5, 6, 7):
            total = scan_count_avoiders(n, pattern_set)
            assert count_avoiders(n, pattern_set) == total
            # the walk's listing, split by first entry, matches a filter of
            # S_n part by part, and the parts sum to the scan's total.  The
            # filter counts each pattern on its own, so it shares nothing
            # with the prefix trie that guards the listing.
            parts = Counter(p.values[0]
                            for p in enumerate_avoiders(n, pattern_set))
            assert sum(parts.values()) == total
            assert parts == Counter(
                perm[0] for perm in permutations(range(1, n + 1))
                if not any(count_occurrences(Permutation(perm), pat, cap=1)
                           for pat in pattern_set.patterns))

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
        assert scan_count_avoiders(n, ps) == 0
        assert list(enumerate_avoiders(n, ps)) == []


class TestCountExactlyOnce:
    def test_known_values(self):
        assert count_exactly_once(4, build_m(3, 1, parse_compact("132"))) == 4
        assert count_exactly_once(3, build_m(3, 2, parse_compact("231"))) == 1

    @pytest.mark.parametrize("k, m, tau", [
        (3, 1, "123"), (3, 1, "132"), (3, 2, "213"), (3, 3, "321"),
        (4, 1, "1342"), (4, 2, "2413"), (4, 4, "4123"),
    ])
    def test_at_n_equals_k_single_witness(self, k, m, tau):
        # the single member is tau itself
        assert count_exactly_once(k, build_m(k, m, parse_compact(tau))) == 1

    def test_tau_must_start_with_m(self):
        with pytest.raises(ValueError):
            count_exactly_once(4, build_m(3, 1, parse_compact("213")))

    def test_tau_must_have_length_k(self):
        with pytest.raises(ValueError):
            count_exactly_once(4, build_m(3, 1, parse_compact("12")))

    def _filter_oracle(self, n, avoid):
        return sum(
            1 for perm in permutations(range(1, n + 1))
            if contains_exactly_once(Permutation(perm), avoid)
        )

    @pytest.mark.parametrize("k, m", [(3, 1), (3, 2), (3, 3),
                                      (4, 1), (4, 2), (4, 3), (4, 4)])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_direct_filter(self, n, k, m):
        for tau in build_tkm(k, m).patterns:
            avoid = build_m(k, m, tau)
            assert count_exactly_once(n, avoid) == self._filter_oracle(n, avoid)

    @pytest.mark.parametrize("n, k, m, tau", [
        (8, 3, 1, "132"),
        (7, 4, 2, "2413"),
        (7, 4, 1, "1234"),
    ])
    def test_matches_direct_filter_larger_spots(self, n, k, m, tau):
        avoid = build_m(k, m, parse_compact(tau))
        assert count_exactly_once(n, avoid) == self._filter_oracle(n, avoid)

    def test_guards(self):
        with pytest.raises(ValueError):
            count_exactly_once(0, build_m(3, 1, parse_compact("132")))
        with pytest.raises(ValueError):
            count_exactly_once(13, build_m(3, 1, parse_compact("132")))

    @pytest.mark.parametrize("pattern_set", [
        build_tkm(3, 1), build_union_tkm(3, (1, 2)), adhoc_set([parse_compact("132")]),
    ], ids=["tkm", "union", "adhoc"])
    def test_takes_only_an_m_set(self, pattern_set):
        with pytest.raises(ValueError, match="not an M"):
            count_exactly_once(5, pattern_set)
        with pytest.raises(ValueError, match="not an M"):
            contains_exactly_once(Permutation((1, 3, 2)), pattern_set)


class TestLongAdhocPatterns:
    """An ad hoc member longer than 9 has no digit-string form, so the set's
    label writes it in one-line form and the errors that name the set
    still say what went wrong."""

    long_set = adhoc_set([Permutation(tuple(range(1, 11)))])

    def test_exactly_once_operations_say_not_an_m_set(self):
        with pytest.raises(ValueError, match="not an M"):
            count_exactly_once(5, self.long_set)
        with pytest.raises(ValueError, match="not an M"):
            enumerate_exactly_once(5, self.long_set)
        with pytest.raises(ValueError, match="not an M"):
            contains_exactly_once(Permutation((1, 3, 2)), self.long_set)

    def test_a_failed_guard_raises_its_runtime_error(self, monkeypatch):
        monkeypatch.setattr(enumeration, "avoids_all", lambda p, s: False)
        with pytest.raises(RuntimeError,
                           match=r"for \{\(1,2,3,4,5,6,7,8,9,10\)\}"):
            list(enumerate_avoiders(3, self.long_set))


class TestEnumerateExactlyOnce:
    @pytest.mark.parametrize("n, k, m, tau", [
        (5, 3, 1, "132"), (5, 3, 2, "231"), (6, 4, 2, "2143"),
    ])
    def test_matches_count_and_membership(self, n, k, m, tau):
        avoid = build_m(k, m, parse_compact(tau))
        out = list(enumerate_exactly_once(n, avoid))
        assert out == sorted(out)
        assert len(out) == count_exactly_once(n, avoid)
        assert all(contains_exactly_once(p, avoid) for p in out)

    def test_the_family_trie_is_built_once_per_listing(self, monkeypatch):
        # the guard walks every member over one trie of all of T(4,2), tau
        # included
        built = []
        real = families.PatternTrie

        def counting_trie(patterns):
            patterns = list(patterns)
            built.append(patterns)
            return real(patterns)

        monkeypatch.setattr(families, "PatternTrie", counting_trie)
        out = list(enumerate_exactly_once(8, build_m(4, 2,
                                                     parse_compact("2143"))))
        assert len(out) == 81
        assert built == [[p.values for p in build_tkm(4, 2).patterns]]

    def test_first_member_arrives_without_walking_the_class(self):
        # S_20(T(4,2); 2143) has 3^16 members; a listing that collected the
        # class before yielding would not return here.
        avoid = build_m(4, 2, parse_compact("2143"))
        first = next(enumerate_exactly_once(20, avoid, force=True))
        assert first.values == tuple(range(1, 17)) + (18, 17, 20, 19)

    def test_m_9_5_is_listed_at_2000(self):
        avoid = build_m(9, 5, parse_compact("512346789"))
        with time_limit(60):
            first = next(enumerate_exactly_once(2000, avoid, force=True))
        assert first.values == (tuple(range(1, 1992))
                                + (1996, 1992, 1993, 1994, 1995)
                                + tuple(range(1997, 2001)))


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


def brute_scan_tally(n, groups, cap):
    """`_scan_count`'s tally, from a Counter of every subsequence's
    flattening over S_n."""
    k = len(groups[0][0])
    tally = Counter()
    for perm in permutations(range(1, n + 1)):
        flats = Counter(map(brute_flatten, combinations(perm, k)))
        vector = tuple(sum(flats[p] for p in patterns) for patterns in groups)
        if cap is not None and max(vector) >= cap:
            vector = None
        tally[vector] += 1
    return dict(tally)


ROBERTSON_GROUPS = (((1, 2, 3),), ((1, 3, 2),))


class TestScanTable:
    """The scan looks each subsequence up by its values and shares a
    prefix's counts with every permutation below it; pattern groups of
    length 4 and 3, capped and not, are checked against a brute tally, from
    n < k, where every permutation tallies as all zeros.  The length-3
    groups are Robertson's two, exactly one 123 and one 132 (DMTCS 3,
    1999), and Simion and Schmidt's pair {123, 132} as one group, avoided
    by 2^(n-1) permutations."""

    @pytest.mark.parametrize("groups", [
        (((1, 3, 2, 4),), ((2, 4, 1, 3), (3, 1, 4, 2))),
        (((1, 2, 3, 4), (4, 3, 2, 1)), ((1, 4, 3, 2),), ((2, 1, 4, 3),)),
        ROBERTSON_GROUPS,
        (((1, 2, 3), (1, 3, 2)),),
    ], ids=["1324|2413,3142", "1234,4321|1432|2143", "123|132", "123,132"])
    @pytest.mark.parametrize("cap", [None, 1, 2])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_a_brute_tally(self, n, groups, cap):
        assert _scan_count(n, groups, cap) == brute_scan_tally(n, groups, cap)

    def test_robertson_tally_at_8(self):
        # (0,0) is Simion-Schmidt's 2^7, (0,1) robertson_single's 6·2^5 and
        # (1,1) robertson_both's 5·4·2^3
        assert _scan_count(8, ROBERTSON_GROUPS, 2) == {
            (0, 0): 128, (0, 1): 192, (1, 0): 192, (1, 1): 160, None: 39648}

    @pytest.mark.parametrize("groups", [
        (((1,),),),
        (((1, 2),),),
        (((1, 2),), ((2, 1),)),
        (((1, 2), (2, 1)),),
    ], ids=["1", "12", "12|21", "12,21"])
    @pytest.mark.parametrize("cap", [3, 5])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_short_patterns_match_a_brute_tally(self, n, groups, cap):
        # At k = 1 every value is an occurrence, so a prefix's look-ahead
        # reaches n at the root; at k = 2 each lookup is of the empty tuple.
        assert _scan_count(n, groups, cap) == brute_scan_tally(n, groups, cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_refuses_a_cap_below_one(self, cap):
        with pytest.raises(ValueError):
            _scan_count(4, ROBERTSON_GROUPS, cap)

    def test_robertson_scan_looks_each_subsequence_up_once_per_prefix(
            self, monkeypatch):
        # A scan of every permutation looks up 649,510 subsequences of S_8
        # before the caps stop it.  Sharing each prefix's counts with every
        # permutation below it takes the 56 value sets of the lookup tables
        # from `combinations`, and at each prefix the walk extends, each
        # entry of the prefix (k = 3) once for every next entry and every
        # value left after it: under 90,000 tuples even when only a placed
        # entry's own count is checked against the caps.
        yielded = count_scan_tuples(monkeypatch)
        assert _count_both_exactly_one(8) == 160
        assert yielded() <= 90_000

    def test_robertson_scan_stops_where_the_pending_counts_reach_the_caps(
            self, monkeypatch):
        # Every unused value is placed in the end and adds at least its
        # pending count, so a prefix whose pending counts already take a
        # group to 2 is tallied whole before any entry is placed after it:
        # 30,884 tuples at n = 8.
        yielded = count_scan_tuples(monkeypatch)
        assert _count_both_exactly_one(8) == 160
        assert yielded() <= 31_000


def count_scan_tuples(monkeypatch):
    """Route the scan's `combinations` through a counting wrapper; the
    returned function reads the number of tuples yielded so far."""
    yielded = 0

    def counting(values, r):
        nonlocal yielded
        for subsequence in combinations(values, r):
            yielded += 1
            yield subsequence

    monkeypatch.setattr(enumeration, "combinations", counting)
    return lambda: yielded


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


def record_kernel_calls(monkeypatch) -> list[int]:
    """Route every `count_ending_at` call through a wrapper; the returned
    list collects each call's result."""
    results = []
    count_ending_at = PinnedPattern.count_ending_at

    def recorded(self, prefix, value, cap):
        results.append(count_ending_at(self, prefix, value, cap))
        return results[-1]

    monkeypatch.setattr(PinnedPattern, "count_ending_at", recorded)
    return results


class TestExactWalkSearch:
    """The kernel calls of the tests' generating tree, pinned: the number
    of `count_ending_at` calls and the sum of their results change with any
    change to the caps or to the pruning."""

    @pytest.mark.parametrize("n, pattern, members, calls, summed", [
        (6, (1, 2, 3), 110, 547, 362),
        (6, (1, 3, 2), 84, 506, 354),
        (8, (1, 2, 3), 1638, 9105, 7491),
    ], ids=["noonan-6", "bona-6", "noonan-8"])
    def test_kernel_calls(self, monkeypatch, n, pattern, members, calls,
                          summed):
        results = record_kernel_calls(monkeypatch)
        assert tree_count_exactly(n, (pattern,), 1) == members
        assert (len(results), sum(results)) == (calls, summed)

    def test_a_class_of_one_costs_one_node_per_level(self, monkeypatch):
        # A walk over values visits every increasing prefix of S_20 to find
        # the identity; the tree keeps one node per level, whose j+1
        # children each cost one kernel call.
        n = 20
        results = record_kernel_calls(monkeypatch)
        assert tree_count_exactly(n, ((2, 1),), 0) == 1
        assert len(results) <= n * (n + 1) // 2

    def test_exactly_one_123_at_ten(self):
        assert tree_count_exactly(10, ((1, 2, 3),), 1) == 23256


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
def m_sets(draw):
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, k))
    return build_m(k, m, draw(st.sampled_from(build_tkm(k, m).patterns)))


@st.composite
def exact_count_queries(draw):
    """One to four patterns of length 3 or 4 and a target of 0 to 2
    occurrences, all patterns taken together."""
    k = draw(st.sampled_from([3, 4]))
    universe = sorted(permutations(range(1, k + 1)))
    pats = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4,
                         unique=True))
    return tuple(pats), draw(st.integers(0, 2))


class TestRouteDifferential:
    """Every route drawn against every other: the walk, the exhaustive scan
    and the brute filters of conftest."""

    def _check_avoiders(self, n, ps):
        total = brute_count_avoiders(n, ps)
        assert count_avoiders(n, ps) == total
        assert scan_count_avoiders(n, ps) == total
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
    @given(m_sets(), st.integers(1, 7))
    def test_exactly_once_routes_agree(self, avoid, n):
        # the level count and the walk over the same rank steps, each
        # against the brute filter
        members = [Permutation(p) for p in permutations(range(1, n + 1))
                   if brute_contains_exactly_once(p, avoid.tau.values)]
        assert count_exactly_once(n, avoid) == len(members)
        assert list(enumerate_exactly_once(n, avoid)) == members

    @settings(max_examples=25)
    @given(adhoc_sets(), st.integers(1, 7))
    def test_count_matches_the_listing_walk(self, ps, n):
        # both follow the ad hoc rule, but the count runs on the set's
        # cheapest symmetric image and the listing on the set as given
        patterns = tuple(p.values for p in ps.patterns)
        walked = sum(1 for _ in _iter_avoiders(n, ps))
        assert _count_generic(n, patterns) == walked

    @settings(max_examples=50)
    @given(exact_count_queries(), st.integers(1, 7))
    def test_exact_count_routes_agree(self, query, n):
        patterns, target = query
        expected = _scan_count(n, (patterns,), target + 1).get((target,), 0)
        assert tree_count_exactly(n, patterns, target) == expected
        assert _count_generic(n, patterns, target) == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_robertson_both_scan_matches_a_brute_filter(self, n):
        def one_each(perm):
            flats = Counter(map(brute_flatten, combinations(perm, 3)))
            return flats[(1, 2, 3)] == flats[(1, 3, 2)] == 1

        brute = sum(map(one_each, permutations(range(1, n + 1))))
        assert _count_both_exactly_one(n) == brute


def wilf_class(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of a length-4 pattern's Wilf class: the patterns
    of length 4 fall into three classes of equal avoider counts, those of
    1234, 1342 and 1324 (Stankova, "Forbidden subsequences", Discrete Math.
    132 (1994))."""
    for rep, members in (((1, 3, 2, 4), {(1, 3, 2, 4), (4, 2, 3, 1)}),
                         ((1, 2, 3, 4), {(1, 2, 3, 4), (4, 3, 2, 1),
                                         (1, 2, 4, 3), (2, 1, 3, 4),
                                         (3, 4, 2, 1), (4, 3, 1, 2),
                                         (2, 1, 4, 3), (3, 4, 1, 2),
                                         (1, 4, 3, 2), (3, 2, 1, 4),
                                         (2, 3, 4, 1), (4, 1, 2, 3)})):
        if pattern in members:
            return rep
    return (1, 3, 4, 2)


@cache
def tree_count(n: int, patterns: tuple[tuple[int, ...], ...],
               target: int = 0) -> int:
    return tree_count_exactly(n, patterns, target)


@st.composite
def long_adhoc_lists(draw):
    """One to four distinct patterns of one length from 1 to 5."""
    k = draw(st.integers(1, 5))
    universe = sorted(permutations(range(1, k + 1)))
    return tuple(draw(st.lists(st.sampled_from(universe), min_size=1,
                               max_size=min(4, len(universe)), unique=True)))


def record_rank_states(monkeypatch) -> list[tuple]:
    """Route every ad hoc rule through a wrapper; the returned list collects
    each (later, state) whose steps are taken."""
    seen = []
    adhoc_rule = enumeration._adhoc_rule

    def recorded(nodes, k, target=0):
        steps = adhoc_rule(nodes, k, target)

        def expand(later, state):
            seen.append((later, state))
            return steps(later, state)
        return expand

    monkeypatch.setattr(enumeration, "_adhoc_rule", recorded)
    return seen


class TestMergedAvoiderCount:
    """The level count of an ad hoc set, avoided or contained an exact
    number of times, against the generating tree that it replaced, which
    stays as its oracle in conftest."""

    @pytest.mark.parametrize("patterns", [
        subset for r in range(1, 7)
        for subset in combinations(sorted(permutations(range(1, 4))), r)
    ], ids=lambda subset: ",".join("".join(map(str, p)) for p in subset))
    def test_every_set_of_length_3_patterns(self, patterns):
        for n in range(1, 10):
            for target in range(3):
                assert (_count_generic(n, patterns, target)
                        == tree_count(n, patterns, target))

    @pytest.mark.parametrize("pattern", sorted(permutations(range(1, 5))),
                             ids=lambda p: "".join(map(str, p)))
    def test_every_length_4_pattern(self, pattern):
        # the tree runs once per Wilf class and length; the merged count
        # runs for each pattern.  At n=9, where the tree takes about a
        # second per class, the published counts stand in for it (OEIS
        # A005802, A022558 and A061552).
        rep = wilf_class(pattern)
        for n in range(1, 9):
            assert _count_generic(n, (pattern,)) == tree_count(n, (rep,))
        assert _count_generic(9, (pattern,)) == {
            (1, 2, 3, 4): 94359, (1, 3, 4, 2): 91245, (1, 3, 2, 4): 94776}[rep]
        # a Wilf class of avoiders need not share its exact counts
        for n in range(1, 8):
            for target in (1, 2):
                assert (_count_generic(n, (pattern,), target)
                        == tree_count(n, (pattern,), target))

    @settings(max_examples=25)
    @given(long_adhoc_lists(), st.integers(1, 8))
    def test_ad_hoc_lists(self, patterns, n):
        assert _count_generic(n, patterns) == tree_count(n, patterns)

    def test_the_count_never_walks_the_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the merged count searched a pinned pattern")

        monkeypatch.setattr(PinnedPattern, "count_ending_at", refuse)
        assert count_avoiders(7, adhoc_set([parse_compact("1324")])) == 2762
        assert _count_generic(7, ((1, 3, 2, 4),), 1) == 522

    @pytest.mark.parametrize("n, patterns, target, members", [
        (2, ((1, 2, 3),), 0, 2), (2, ((1, 2, 3),), 1, 0),
        (3, (), 0, 6), (3, (), 1, 0),
        (3, ((1,),), 3, 6), (3, ((1,),), 2, 0), (3, ((1,),), 0, 0),
        (1, ((1,),), 1, 1),
    ], ids=["short-0", "short-1", "empty-0", "empty-1", "k1-3", "k1-2",
            "k1-0", "k1-n1"])
    def test_targets_the_rule_never_sees(self, n, patterns, target, members):
        # below the patterns' length no permutation holds an occurrence, and
        # each entry is one occurrence of the pattern 1
        assert _count_generic(n, patterns, target) == members
        assert tree_count_exactly(n, patterns, target) == members

    def test_inversions_past_the_pattern_length(self):
        # A target past k-1 widens the run margin to t+1.  Exactly t
        # occurrences of 21 are t inversions, counted by the Mahonian
        # numbers, the coefficients of the product over i <= n of
        # 1 + x + ... + x^(i-1) (Knuth, TAOCP Vol. 3, 5.1.1); 12 counts
        # the same by reversal.
        top = 6
        row = [1] + [0] * top
        for n in range(1, 21):
            row = [sum(row[max(0, t - n + 1):t + 1]) for t in range(top + 1)]
            for target in range(top + 1):
                assert (_count_generic(n, ((2, 1),), target)
                        == _count_generic(n, ((1, 2),), target) == row[target])

    @pytest.mark.parametrize("pattern", [(1, 2, 3), (1, 3, 2)],
                             ids=["123", "132"])
    def test_a_target_past_the_pattern_length(self, pattern):
        assert (_count_generic(9, (pattern,), 3)
                == tree_count_exactly(9, (pattern,), 3))

    @pytest.mark.parametrize("pattern, count", [((1, 2, 3), noonan),
                                                ((1, 3, 2), bona)],
                             ids=["noonan", "bona"])
    def test_exactly_one_at_twenty(self, pattern, count):
        # out of the tree's reach: it reaches each member as its own leaf
        with time_limit(10):
            assert _count_generic(20, (pattern,), 1) == count(20)

    @pytest.mark.parametrize(
        "patterns, n, target, members, states, matches, digest", [
        (((1, 2, 3, 4),), 9, 0, 94359, 86, 127,
         "ac1dad237c3011c6658f6f698183f1282a6efb4f68a98d15a7f3737952ead1dd"),
        (((1, 3, 2, 4),), 9, 0, 94776, 199, 440,
         "f9018a82eccb16b87cbf56d4366d32dcb41a08ce22efc3d2f93042cd1e9dbcc3"),
        (((1, 3, 4, 2),), 9, 0, 91245, 127, 215,
         "d713c11885140ac54254b63c0d80f26cbd3f493609d87dbba5a93d32118a7291"),
        (((1, 3, 2),), 10, 0, 16796, 46, 36,
         "caf9023b3d2c5b4ee843ed905797c3718f43ca011648adeeefb3f7d166569e08"),
        (((2, 4, 1, 3), (3, 1, 4, 2)), 8, 0, 8558, 189, 581,
         "559120f7b1f9ae056624a4e443b71f0b09e15bcf0832bb72d0bb4879db3979ef"),
        (((2, 4, 1, 5, 3), (3, 1, 2, 5, 4), (5, 2, 4, 1, 3)), 7, 0, 3833, 120,
         274,
         "11536d6e3ea5e13522d27d4fb14024fa92eeac5042487845cfe2b25379bfc672"),
        # Both tries store matches at one node, "1", so the states of
        # exactly one 123 and one 132 agree; what a match one entry short
        # needs differs.
        (((1, 2, 3),), 10, 1, 23256, 201, 337,
         "3776647ee79d2b8a579c7a78cfc7be48da8ab6c621555de81673260924931d1a"),
        (((1, 3, 2),), 10, 1, 19448, 201, 337,
         "3776647ee79d2b8a579c7a78cfc7be48da8ab6c621555de81673260924931d1a"),
    ], ids=["1234", "1324", "1342", "132", "2413,3142",
            "24153,31254,52413", "123-once", "132-once"])
    def test_shapes_worked_out(self, monkeypatch, patterns, n, target,
                               members, states, matches, digest):
        # The number of rank states the count expands, and their matches in
        # all, pinned: dropping any reduction leaves the count right but
        # keeps more states apart.  The digest of the states themselves, at
        # each level, pins that a faster step expands the very same ones.
        # Past target 0 a state is (count, matches).
        seen = record_rank_states(monkeypatch)
        assert _count_generic(n, patterns, target) == members
        assert (len(seen), sum(len(state[1] if target else state)
                               for _, state in seen if state)
                ) == (states, matches)
        listed = "\n".join(sorted(map(repr, seen))).encode()
        assert hashlib.sha256(listed).hexdigest() == digest

    def test_one_table_per_distinct_image(self, monkeypatch):
        # {123}'s eight images are {123} and {321}, four times each: each
        # distinct one is costed once from its shape, and only the cheapest,
        # the first of the two at equal cost, gets full tables
        calls = {"_cost": [], "_match_tables": []}
        for name, seen in calls.items():
            def counted(patterns, seen=seen, real=getattr(enumeration, name)):
                seen.append(patterns)
                return real(patterns)
            monkeypatch.setattr(enumeration, name, counted)
        assert _count_generic(6, ((1, 2, 3),)) == 132
        assert calls == {"_cost": [((1, 2, 3),), ((3, 2, 1),)],
                         "_match_tables": [((1, 2, 3),)]}

    @settings(max_examples=50)
    @given(long_adhoc_lists().filter(lambda ps: len(ps[0]) > 1))
    def test_shape_cost_is_the_tables_cost(self, patterns):
        # the cost read from the needed gaps alone is the one the full
        # tables give: their two-sided points and needed gaps
        for image in enumeration._images(patterns):
            nodes = _match_tables(image)
            assert enumeration._cost(image) == (
                sum(len(node.fixed) for node in nodes),
                sum(len(node.needs) for node in nodes))

    def test_finishability_counts_unused_values(self, monkeypatch):
        # a partial match of 123456789 is dropped once some gap it needs
        # holds fewer unused values than its completions place there; with
        # only an empty gap dropping it, 3,796 states are expanded
        seen = record_rank_states(monkeypatch)
        assert _count_generic(12, ((1, 2, 3, 4, 5, 6, 7, 8, 9),)) == 478842196
        assert len(seen) <= 300

    @pytest.mark.parametrize("pattern, members", [("21", 1), ("12", 1),
                                                  ("1", 0)])
    def test_a_class_of_one_at_the_hard_limit(self, pattern, members):
        # the tree took about a minute of CPU for {21} here
        assert count_avoiders(HARD_N_LIMIT, adhoc_set([parse_compact(pattern)]),
                              force=True) == members

    @pytest.mark.parametrize("pattern, member", [
        ("12", range(HARD_N_LIMIT, 0, -1)), ("21", range(1, HARD_N_LIMIT + 1))
    ], ids=["12", "21"])
    def test_a_class_of_one_is_listed_at_the_hard_limit(self, pattern, member):
        # a walk over values refused every smaller candidate of {12} at
        # every entry; the rule skips each run of refused ranks at once
        listed = list(enumerate_avoiders(
            HARD_N_LIMIT, adhoc_set([parse_compact(pattern)]), force=True))
        assert listed == [Permutation(tuple(member))]

    @pytest.mark.parametrize("pattern", ["123", "132"])
    def test_catalan_listings_at_nine(self, pattern):
        # the runs between cuts are wide enough here for their middle ranks
        # to copy the first one's state; the guard re-checks each member
        pattern_set = adhoc_set([parse_compact(pattern)])
        listed = list(enumerate_avoiders(9, pattern_set))
        assert all(a < b for a, b in zip(listed, listed[1:]))
        assert len(listed) == count_avoiders(9, pattern_set) == 4862


def simion_schmidt(n: int, subset: frozenset) -> int | None:
    """|S_n(T)| for T a set of one to three patterns of length 3, from
    Simion and Schmidt, "Restricted permutations", Europ. J. Combin. 6
    (1985).  None where the closed form does not say: below n=5 for a set
    holding both 123 and 321."""
    if len(subset) == 1:
        return comb(2 * n, n) // (n + 1)
    both_monotone = {"123", "321"} <= subset
    if both_monotone and n < 5:
        return None
    if len(subset) == 2:
        if both_monotone:
            return 0
        if subset in ({"123", "231"}, {"123", "312"}, {"132", "321"},
                      {"213", "321"}):
            return comb(n, 2) + 1
        return 2 ** (n - 1)
    if both_monotone:
        return 0
    if subset in ({"123", "132", "213"}, {"231", "312", "321"}):
        fib = [0, 1]
        while len(fib) < n + 2:
            fib.append(fib[-1] + fib[-2])
        return fib[n + 1]
    return n


class TestSimionSchmidt:
    """The paper's opening counts: every T ⊆ S_3 with one to three
    members, against the closed forms of Simion and Schmidt."""

    @pytest.mark.parametrize("subset", [
        frozenset(subset) for r in (1, 2, 3)
        for subset in combinations(["123", "132", "213", "231", "312",
                                    "321"], r)
    ], ids=lambda subset: ",".join(sorted(subset)))
    def test_closed_forms_to_twelve(self, subset):
        pattern_set = adhoc_set(map(parse_compact, subset))
        for n in range(1, 13):
            expected = simion_schmidt(n, subset)
            if expected is not None:
                assert count_avoiders(n, pattern_set) == expected

    def test_catalan_at_forty(self):
        assert (count_avoiders(40, adhoc_set([parse_compact("132")]),
                               force=True)
                == comb(80, 40) // 41)

