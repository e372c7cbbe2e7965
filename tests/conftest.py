"""Shared brute-force oracles for the tests.

These are deliberately naive, independent reimplementations (rank-by-sort
flattening, subsequence scans over itertools.combinations) so the package's
pruned search machinery is always checked against something that cannot
share its bugs.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path

from hypothesis import settings

from permpat.core import Permutation, PinnedPattern
from permpat.enumeration import _scan_count

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def child_env() -> dict[str, str]:
    """The environment for a child Python process that imports this
    checkout's package, whether or not it is installed."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


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


def tree_count_exactly(n: int, patterns: tuple[tuple[int, ...], ...],
                       target: int) -> int:
    """Count the permutations of S_n with exactly `target` occurrences of
    the patterns in all, on West's generating tree: the oracle of the rank
    states' exact count, sharing none of its machinery.  A node is a
    standardized prefix, doubled so that a child's new entry is an odd value
    between two entries or past either end.  Each member adds its
    occurrences ending there, found by a pinned-pattern search capped at
    one past what the target leaves; a leaf must reach the target."""
    checks = [PinnedPattern(p).count_ending_at for p in patterns]
    total = 0
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        prefix, count = stack.pop()
        last = len(prefix) == n - 1
        for new in range(1, 2 * len(prefix) + 2, 2):
            child = count
            for ends_at in checks:
                child += ends_at(prefix, new, target - child + 1)
                if child > target:
                    break
            else:
                if not last:
                    stack.append(([q + 2 if q > new else q for q in prefix]
                                  + [new + 1], child))
                elif child == target:
                    total += 1
    return total
