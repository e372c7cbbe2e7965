"""Shared brute-force oracles for the tests.

These are deliberately naive, independent reimplementations (rank-by-sort
flattening, subsequence scans over itertools.combinations) so the package's
pruned search machinery is always checked against something that cannot
share its bugs.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from itertools import combinations, permutations

from hypothesis import settings

from permpat.core import Permutation
from permpat.enumeration import _scan_count

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time have
    passed, so that a search that has regressed fails its test instead of
    holding up the run.  Where the platform has no SIGALRM, no limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def complement(p: Permutation) -> Permutation:
    """Replace each entry v by n+1-v, in place positionally."""
    n = len(p)
    return Permutation(tuple(n + 1 - v for v in p.values))


def reverse(p: Permutation) -> Permutation:
    """Reverse the positions, keeping the values."""
    return Permutation(tuple(p.values[::-1]))


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


def scan_count_avoiders(n: int, pattern_set) -> int:
    """|S_n(pattern_set)| by the package's unpruned scan oracle, which
    shares none of the pruned walk's machinery."""
    patterns = tuple(p.values for p in pattern_set.patterns)
    return _scan_count(n, (patterns,), 1).get((0,), 0)


def brute_contains_exactly_once(perm_values, tau_values) -> bool:
    """True when exactly one k-subsequence flattens to a pattern starting
    with tau[0], and that one is tau: the permutation avoids T(k,tau[0])
    minus tau and contains tau exactly once."""
    k = len(tau_values)
    hits = [flat for flat in map(brute_flatten, combinations(perm_values, k))
            if flat[0] == tau_values[0]]
    return hits == [tuple(tau_values)]
