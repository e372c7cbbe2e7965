"""Backtracking enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route extends prefixes value by value and checks, for each
  candidate, only the occurrences that would END at the appended value
  (appending a value can create no other occurrence).  For the first-entry
  families T(k,m) and their unions that check collapses to an exact count
  over rank compositions; for arbitrary pattern lists it is a capped
  pinned-pattern search per member.
* The oracle route is one naive scan, `_scan_count`: it walks every
  permutation of S_n and every k-subsequence, with no pruning and none of
  the occurrence machinery of `core`, so the two routes cross-validate
  each other.  `count_avoiders(exhaustive=True)`, `occurrence_histogram`
  and the verifier's exactly-one-123-and-one-132 oracle all read it.

All counts are exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations as _permutations
from math import comb, factorial
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import Permutation, PinnedPattern
from .families import PatternSet, avoids_all, build_m, contains_exactly_once

__all__ = [
    "DESK_SCALE_LIMIT",
    "Histogram",
    "enumerate_avoiders",
    "count_avoiders",
    "count_exactly_once",
    "enumerate_exactly_once",
    "occurrence_histogram",
]

DESK_SCALE_LIMIT = 12

_avoider_cache: dict[tuple, int] = {}
_scan_cache: dict[tuple, dict[tuple[int, ...] | None, int]] = {}
_exactly_once_cache: dict[tuple, int] = {}


def _check_n(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError(f"n={n}; this module requires n >= 1")
    if n > DESK_SCALE_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the desk-scale limit {DESK_SCALE_LIMIT}: the "
            f"search space grows like n! ({DESK_SCALE_LIMIT}! is already "
            f"{factorial(DESK_SCALE_LIMIT)}); pass force=True to override")


def _set_key(pattern_set: PatternSet) -> tuple:
    return (pattern_set.k, tuple(p.values for p in pattern_set.patterns))


@dataclass(frozen=True)
class Histogram:
    """Distribution of occurrence counts of one pattern over all of S_n;
    only nonzero buckets are stored, and the buckets sum to n!."""

    pattern: Permutation
    n: int
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        if sum(self.counts.values()) != factorial(self.n):
            raise ValueError("histogram buckets must sum to n!")
        if any(r < 0 or c <= 0 for r, c in self.counts.items()):
            raise ValueError("histogram buckets must be nonzero at r >= 0")

    def as_json_map(self) -> dict[str, str]:
        """JSON wire form: {"r": "count"} with decimal-string counts."""
        return {str(r): str(self.counts[r]) for r in sorted(self.counts)}


# ---------------------------------------------------------------------------
# Incremental containment checks
# ---------------------------------------------------------------------------

def _family_hit_table(k: int, ms: tuple[int, ...], n: int) -> list[list[bool]]:
    """hit[s][l]: given a candidate first element with s smaller and l larger
    elements available after it, can some pattern whose first-entry rank lies
    in ms be completed?  (Any rank arrangement of the later elements works,
    so only the counts matter.)"""
    size = n + 2
    table = [[False] * size for _ in range(size)]
    for s in range(size):
        row = table[s]
        for l in range(size):
            for m in ms:
                if s >= m - 1 and l >= k - m:
                    row[l] = True
                    break
    return table


def _count_family(n: int, k: int, ms: tuple[int, ...],
                  first_entry: int | None) -> int:
    """Count avoiders of the union of T(k,m) for m in ms."""
    hit = _family_hit_table(k, ms, n)
    prefix: list[int] = []
    smaller_after: list[int] = []
    remaining = list(range(1, n + 1))

    def rec(t: int) -> int:
        if t == n:
            return 1
        total = 0
        for idx in range(n - t):
            v = remaining[idx]
            ok = True
            for i in range(t):
                b = 1 if v < prefix[i] else 0
                s = smaller_after[i] + b
                if hit[s][t - i - s]:
                    ok = False
                    break
            if ok:
                remaining.pop(idx)
                for i in range(t):
                    if v < prefix[i]:
                        smaller_after[i] += 1
                prefix.append(v)
                smaller_after.append(0)
                total += rec(t + 1)
                smaller_after.pop()
                prefix.pop()
                for i in range(t):
                    if v < prefix[i]:
                        smaller_after[i] -= 1
                remaining.insert(idx, v)
        return total

    if first_entry is None:
        return rec(0)
    prefix.append(first_entry)
    smaller_after.append(0)
    remaining.remove(first_entry)
    return rec(1)


def _count_generic(n: int, patterns: tuple[tuple[int, ...], ...],
                   first_entry: int | None) -> int:
    """Count avoiders of an arbitrary pattern list via capped pinned search."""
    pinned = [PinnedPattern(p) for p in patterns]
    prefix: list[int] = []
    remaining = list(range(1, n + 1))

    def rec(t: int) -> int:
        if t == n:
            return 1
        total = 0
        for idx in range(n - t):
            v = remaining[idx]
            ok = True
            for pp in pinned:
                if pp.count_ending_at(prefix, v, 1):
                    ok = False
                    break
            if ok:
                remaining.pop(idx)
                prefix.append(v)
                total += rec(t + 1)
                prefix.pop()
                remaining.insert(idx, v)
        return total

    if first_entry is None:
        return rec(0)
    prefix.append(first_entry)
    remaining.remove(first_entry)
    return rec(1)


def _scan_count(n: int, groups: tuple[tuple[tuple[int, ...], ...], ...],
                cap: int | None = None,
                first_entry: int | None = None
                ) -> dict[tuple[int, ...] | None, int]:
    """Unpruned oracle: for every permutation of S_n (or only those starting
    with first_entry), count the k-subsequences matching each group of
    length-k patterns, and tally the count vectors.

    Groups must be disjoint.  A permutation in which some group reaches
    `cap` occurrences stops being scanned and is tallied under None, so
    every vector in the tally is exact.  Results are cached.
    """
    key = (n, groups, cap, first_entry)
    if key in _scan_cache:
        return _scan_cache[key]
    k = len(groups[0][0])
    slots = range(k)
    # Sorting the slots of a subsequence by value gives the inverse of its
    # pattern, so each pattern is looked up by its inverse.
    group_of = {tuple(sorted(slots, key=p.__getitem__)): g
                for g, patterns in enumerate(groups) for p in patterns}
    tally: dict[tuple[int, ...] | None, int] = {}
    for perm in _permutations(range(1, n + 1)):
        if first_entry is not None and perm[0] != first_entry:
            continue
        counts = [0] * len(groups)
        vector: tuple[int, ...] | None = None
        for sub in combinations(perm, k):
            g = group_of.get(tuple(sorted(slots, key=sub.__getitem__)))
            if g is not None:
                counts[g] += 1
                if counts[g] == cap:
                    break
        else:
            vector = tuple(counts)
        tally[vector] = tally.get(vector, 0) + 1
    _scan_cache[key] = tally
    return tally


def _iter_avoiders(n: int, pattern_set: PatternSet) -> Iterator[Permutation]:
    """Yield avoiders in lexicographic order via prefix backtracking."""
    prefix: list[int] = []
    smaller_after: list[int] = []
    remaining = list(range(1, n + 1))
    if pattern_set.kind in ("tkm", "union"):
        k = pattern_set.k
        hit = _family_hit_table(k, pattern_set.ms, n)

        def extension_ok(v: int, t: int) -> bool:
            for i in range(t):
                b = 1 if v < prefix[i] else 0
                s = smaller_after[i] + b
                if hit[s][t - i - s]:
                    return False
            return True
    else:
        pinned = [PinnedPattern(p.values) for p in pattern_set.patterns]

        def extension_ok(v: int, t: int) -> bool:
            return not any(pp.count_ending_at(prefix, v, 1) for pp in pinned)

    def rec(t: int) -> Iterator[Permutation]:
        if t == n:
            yield Permutation(tuple(prefix))
            return
        for idx in range(n - t):
            v = remaining[idx]
            if extension_ok(v, t):
                remaining.pop(idx)
                for i in range(t):
                    if v < prefix[i]:
                        smaller_after[i] += 1
                prefix.append(v)
                smaller_after.append(0)
                yield from rec(t + 1)
                smaller_after.pop()
                prefix.pop()
                for i in range(t):
                    if v < prefix[i]:
                        smaller_after[i] -= 1
                remaining.insert(idx, v)

    yield from rec(0)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def enumerate_avoiders(n: int, pattern_set: PatternSet, *,
                       force: bool = False) -> Iterator[Permutation]:
    """Stream every permutation of S_n avoiding all patterns in the set, in
    lexicographic order.  Each emitted permutation is re-verified through
    `avoids_all` as a guard against checker bugs."""
    _check_n(n, force)
    for p in _iter_avoiders(n, pattern_set):
        if not avoids_all(p, pattern_set):
            raise RuntimeError(
                f"enumerated {p} fails avoids_all for "
                f"{pattern_set.label()}")
        yield p


def count_avoiders(n: int, pattern_set: PatternSet, *,
                   first_entry: int | None = None,
                   exhaustive: bool = False,
                   force: bool = False) -> int:
    """|S_n(pattern_set)|, by pruned backtracking without materializing
    permutations.

    first_entry restricts to permutations starting with that value (counting
    over any partition of the first entry sums to the full count).
    exhaustive switches to the unpruned scan oracle.
    """
    _check_n(n, force)
    if first_entry is not None and not 1 <= first_entry <= n:
        raise ValueError(f"first_entry={first_entry} outside 1..{n}")

    if exhaustive:
        patterns = tuple(p.values for p in pattern_set.patterns)
        return _scan_count(n, (patterns,), 1, first_entry).get((0,), 0)

    key = (n, _set_key(pattern_set), first_entry)
    if key not in _avoider_cache:
        if pattern_set.kind in ("tkm", "union"):
            value = _count_family(n, pattern_set.k, pattern_set.ms, first_entry)
        else:
            patterns = tuple(p.values for p in pattern_set.patterns)
            value = _count_generic(n, patterns, first_entry)
        _avoider_cache[key] = value
    return _avoider_cache[key]


def _exactly_once_params(n: int, k: int, m: int, tau: Permutation) -> None:
    if k < 2:
        raise ValueError("exactly-once counting needs k >= 2")
    if not 1 <= m <= k:
        raise ValueError(f"m={m} outside 1..{k}")
    if len(tau) != k:
        raise ValueError(f"tau must have length k={k}")
    if tau.values[0] != m:
        raise ValueError(f"tau must start with m={m}, got {tau}")


def _count_exactly_once_rec(n: int, k: int, m: int, tau: tuple[int, ...],
                            first_entry: int | None,
                            collect: list | None) -> int:
    """Count (or collect, in lexicographic order) permutations avoiding
    T(k,m) minus tau while containing tau exactly once.

    Pruning: a candidate extension is abandoned as soon as the family
    occurrences it would complete either include a non-tau member or push
    the tau count past one.  Appending v with first element at position i
    completes C(s, need_s) * C(l, need_l) family occurrences, where s and l
    count the smaller/larger prefix elements after i; only totals 0 and 1
    can survive, and a surviving single occurrence is tau or not by a capped
    pinned search.
    """
    pinned_tau = PinnedPattern(tau)
    choose = [[comb(s, r) for r in range(k)] for s in range(n + 1)]
    prefix: list[int] = []
    smaller_after: list[int] = []
    remaining = list(range(1, n + 1))

    def rec(t: int, tau_cnt: int) -> int:
        if t == n:
            if tau_cnt == 1:
                if collect is not None:
                    collect.append(Permutation(tuple(prefix)))
                return 1
            return 0
        total = 0
        for idx in range(n - t):
            v = remaining[idx]
            c_fam = 0
            for i in range(t):
                if v < prefix[i]:
                    need_s = m - 2
                    need_l = k - m
                else:
                    need_s = m - 1
                    need_l = k - m - 1
                if need_s < 0 or need_l < 0:
                    continue
                s = smaller_after[i]
                l = t - 1 - i - s
                if s >= need_s and l >= need_l:
                    c_fam += choose[s][need_s] * choose[l][need_l]
                    if c_fam >= 2:
                        break
            if c_fam >= 2:
                continue
            new_cnt = tau_cnt
            if c_fam == 1:
                if tau_cnt == 1:
                    continue
                if pinned_tau.count_ending_at(prefix, v, 1) == 0:
                    continue
                new_cnt = 1
            remaining.pop(idx)
            for i in range(t):
                if v < prefix[i]:
                    smaller_after[i] += 1
            prefix.append(v)
            smaller_after.append(0)
            total += rec(t + 1, new_cnt)
            smaller_after.pop()
            prefix.pop()
            for i in range(t):
                if v < prefix[i]:
                    smaller_after[i] -= 1
            remaining.insert(idx, v)
        return total

    if first_entry is None:
        return rec(0, 0)
    prefix.append(first_entry)
    smaller_after.append(0)
    remaining.remove(first_entry)
    return rec(1, 0)


def count_exactly_once(n: int, k: int, m: int, tau: Permutation, *,
                       first_entry: int | None = None,
                       force: bool = False) -> int:
    """|S_n(T(k,m); tau)|: permutations avoiding every pattern of T(k,m)
    except tau while containing tau exactly once."""
    _check_n(n, force)
    _exactly_once_params(n, k, m, tau)
    if first_entry is not None and not 1 <= first_entry <= n:
        raise ValueError(f"first_entry={first_entry} outside 1..{n}")

    key = (n, k, m, tau.values, first_entry)
    if key not in _exactly_once_cache:
        _exactly_once_cache[key] = _count_exactly_once_rec(
            n, k, m, tau.values, first_entry, None)
    return _exactly_once_cache[key]


def enumerate_exactly_once(n: int, k: int, m: int, tau: Permutation, *,
                           force: bool = False) -> Iterator[Permutation]:
    """Stream S_n(T(k,m); tau) in lexicographic order, re-verifying each
    member through `contains_exactly_once`."""
    _check_n(n, force)
    _exactly_once_params(n, k, m, tau)
    avoid = build_m(k, m, tau)
    out: list[Permutation] = []
    _count_exactly_once_rec(n, k, m, tau.values, None, out)
    for p in out:
        if not contains_exactly_once(p, tau, avoid):
            raise RuntimeError(
                f"enumerated {p} fails contains_exactly_once "
                f"for tau={tau}")
        yield p


def occurrence_histogram(n: int, tau: Permutation, *,
                         force: bool = False) -> Histogram:
    """Full distribution of the occurrence count of tau over S_n, by
    exhaustive unpruned scan (this is the oracle route: no shortcuts)."""
    _check_n(n, force)
    tally = _scan_count(n, ((tau.values,),))
    return Histogram(pattern=tau, n=n,
                     counts={vector[0]: c for vector, c in tally.items()})
