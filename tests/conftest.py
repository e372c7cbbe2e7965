"""Shared brute-force oracles for the tests.

These are deliberately naive, independent reimplementations (rank-by-sort
flattening, subsequence scans over itertools.combinations) so the package's
pruned search machinery is always checked against something that cannot
share its bugs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def brute_flatten(values) -> tuple[int, ...]:
    ranked = sorted(values)
    return tuple(ranked.index(v) + 1 for v in values)


def brute_occurrence_list(host_values, pattern_values) -> list[tuple[int, ...]]:
    """All 1-based occurrence index tuples, in lexicographic order."""
    m = len(pattern_values)
    target = tuple(pattern_values)
    out = []
    for idx in combinations(range(len(host_values)), m):
        if brute_flatten([host_values[i] for i in idx]) == target:
            out.append(tuple(i + 1 for i in idx))
    return out


def brute_contains_any(perm_values, pattern_keys: frozenset, k: int) -> bool:
    return any(brute_flatten(sub) in pattern_keys
               for sub in combinations(perm_values, k))


def brute_count_avoiders(n: int, pattern_set) -> int:
    keys = frozenset(p.values for p in pattern_set.patterns)
    k = pattern_set.k
    return sum(
        1 for perm in permutations(range(1, n + 1))
        if not brute_contains_any(perm, keys, k)
    )


def brute_contains_exactly_once(perm_values, tau_values) -> bool:
    """True when exactly one k-subsequence flattens to a pattern starting
    with tau[0], and that one is tau: the permutation avoids T(k,tau[0])
    minus tau and contains tau exactly once."""
    k = len(tau_values)
    hits = [flat for flat in map(brute_flatten, combinations(perm_values, k))
            if flat[0] == tau_values[0]]
    return hits == [tuple(tau_values)]
