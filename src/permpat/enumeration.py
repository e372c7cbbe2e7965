"""Enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route is one iterative prefix walker, `_walk`, that asks a
  rule which values may come next and decides each entry when it is
  placed.  An unused value's rank among the unused values is the number of
  smaller entries that will follow it (its inversion-table digit), so for
  the first-entry families T(k,m), their unions and the exactly-once classes
  the rule knows from that rank alone every family occurrence the entry
  starts.  For arbitrary pattern lists the rule is a capped pinned-pattern
  search per member over the occurrences that would END at the appended
  value (appending a value can create no other occurrence).  The count
  rule, `_vector_rule`, counts those occurrences per group of patterns,
  each capped at one past what the group may still take, and reaches an
  exact count vector: the verifier's noonan and bona oracles (exactly one
  123, exactly one 132) use it.
* The oracle route is one naive scan, `_scan_count`: it walks every
  permutation of S_n and every k-subsequence, with no pruning and none of
  the occurrence machinery of `core`, so the two routes cross-validate
  each other.  `count_avoiders(exhaustive=True)`, `occurrence_histogram`
  (a plain {occurrences: permutations} dict) and the verifier's
  exactly-one-123-and-one-132 oracle read it.  No verifier claim reads
  `occurrence_histogram`: it stays for library callers and for the
  benchmark's trace mode, which wraps it by name.

Nothing is cached between calls, and the listings stream: each permutation is
yielded as the walk reaches it.  All counts are exact Python integers;
nothing here touches floating point.
"""

from __future__ import annotations

from itertools import combinations, permutations as _permutations
from math import comb, factorial
from typing import Iterator

from .core import Permutation, PinnedPattern
from .families import PatternSet, avoids_all, build_m, contains_exactly_once

__all__ = [
    "DESK_SCALE_LIMIT",
    "enumerate_avoiders",
    "count_avoiders",
    "count_exactly_once",
    "enumerate_exactly_once",
    "occurrence_histogram",
]

DESK_SCALE_LIMIT = 12


def _check_n(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError(f"n={n}; this module requires n >= 1")
    if n > DESK_SCALE_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the desk-scale limit {DESK_SCALE_LIMIT}: the "
            f"search space grows like n! ({DESK_SCALE_LIMIT}! is already "
            f"{factorial(DESK_SCALE_LIMIT)}); pass force=True to override")


# ---------------------------------------------------------------------------
# The prefix walker and its rules
# ---------------------------------------------------------------------------
#
# A rule is children(prefix, unused, state): it yields (r, state') for each
# value unused[r] that may follow prefix, in increasing r, where unused is
# the sorted list of values not yet placed.  The candidate unused[r] will be
# followed by exactly r smaller entries and len(unused) - 1 - r larger ones
# (its inversion-table digit is r), so a rule can decide from r alone every
# pattern occurrence the candidate starts.
#
# `_count_family`, `_count_generic`, `_iter_avoiders` and
# `_count_exactly_once_rec` stay as thin entry points over `_walk`: the
# benchmark's trace mode (perfbench/child.py) times each walk under its name.

def _walk(n: int, children) -> Iterator[list[int]]:
    """Yield every complete prefix that the rule allows at each step, in
    lexicographic order.  The yielded list is the walker's own and changes
    after the consumer resumes it."""
    prefix: list[int] = []
    ranks: list[int] = []
    unused = list(range(1, n + 1))
    stack = [iter(children(prefix, unused, None))]
    while stack:
        for r, state in stack[-1]:
            prefix.append(unused.pop(r))
            if unused:
                ranks.append(r)
                stack.append(iter(children(prefix, unused, state)))
                break  # descend: the new top of the stack is iterated next
            yield prefix
            unused.insert(r, prefix.pop())
        else:
            # the top node has no more children: undo the entry it added
            stack.pop()
            if ranks:
                unused.insert(ranks.pop(), prefix.pop())


def _family_rule(n: int, k: int, ms: tuple[int, ...]):
    """Avoid the union of T(k,m) for m in ms: an entry with s smaller and l
    larger later entries starts an occurrence iff s >= m-1 and l >= k-m for
    some m in ms, whatever order the later entries take."""
    allowed = [[(r, None) for r in range(later + 1)
                if all(r < m - 1 or later - r < k - m for m in ms)]
               for later in range(n)]
    return lambda prefix, unused, state: allowed[len(unused) - 1]


def _generic_rule(patterns: tuple[tuple[int, ...], ...]):
    """Avoid an arbitrary pattern list: a candidate is allowed when no
    occurrence of any member ends at it (appending a value can create no
    other occurrence)."""
    checks = [PinnedPattern(p).count_ending_at for p in patterns]

    def children(prefix, unused, state):
        for r, v in enumerate(unused):
            for ends_at in checks:
                if ends_at(prefix, v, 1):
                    break
            else:
                yield r, None

    return children


def _vector_rule(groups: tuple[tuple[tuple[int, ...], ...], ...],
                 target: tuple[int, ...]):
    """Reach an exact occurrence count per group of patterns: the state is
    the tuple of counts so far (None at the root, meaning all zeros).  Each
    member adds the occurrences that end at the candidate, counted up to one
    past what its group has left, so a candidate that takes a group past
    its target is seen and refused.  The last entry must reach the target.
    """
    checks = [(g, PinnedPattern(p).count_ending_at)
              for g, patterns in enumerate(groups) for p in patterns]
    zeros = (0,) * len(groups)

    def children(prefix, unused, state):
        counts = zeros if state is None else state
        last = len(unused) == 1
        for r, v in enumerate(unused):
            child = list(counts)
            for g, ends_at in checks:
                child[g] += ends_at(prefix, v, target[g] - child[g] + 1)
                if child[g] > target[g]:
                    break
            else:
                child = tuple(child)
                if not last or child == target:
                    yield r, child

    return children


def _count_vector(n: int, groups: tuple[tuple[tuple[int, ...], ...], ...],
                  target: tuple[int, ...]) -> int:
    """Count the permutations of S_n in which group g of patterns (groups
    disjoint) has exactly target[g] occurrences."""
    return sum(1 for _ in _walk(n, _vector_rule(groups, target)))


def _count_family(n: int, k: int, ms: tuple[int, ...]) -> int:
    """Count avoiders of the union of T(k,m) for m in ms."""
    return sum(1 for _ in _walk(n, _family_rule(n, k, ms)))


def _count_generic(n: int, patterns: tuple[tuple[int, ...], ...]) -> int:
    """Count avoiders of an arbitrary pattern list."""
    return sum(1 for _ in _walk(n, _generic_rule(patterns)))


def _scan_count(n: int, groups: tuple[tuple[tuple[int, ...], ...], ...],
                cap: int | None = None) -> dict[tuple[int, ...] | None, int]:
    """Unpruned oracle: for every permutation of S_n, count the
    k-subsequences matching each group of length-k patterns, and tally the
    count vectors.

    Groups must be disjoint.  A permutation in which some group reaches
    `cap` occurrences stops being scanned and is tallied under None, so
    every vector in the tally is exact.
    """
    k = len(groups[0][0])
    slots = range(k)
    # Sorting the slots of a subsequence by value gives the inverse of its
    # pattern, so each pattern is looked up by its inverse.
    group_of = {tuple(sorted(slots, key=p.__getitem__)): g
                for g, patterns in enumerate(groups) for p in patterns}
    tally: dict[tuple[int, ...] | None, int] = {}
    for perm in _permutations(range(1, n + 1)):
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
    return tally


def _iter_avoiders(n: int, pattern_set: PatternSet) -> Iterator[Permutation]:
    """Yield avoiders in lexicographic order."""
    if pattern_set.kind in ("tkm", "union"):
        rule = _family_rule(n, pattern_set.k, pattern_set.ms)
    else:
        rule = _generic_rule(tuple(p.values for p in pattern_set.patterns))
    for prefix in _walk(n, rule):
        yield Permutation(tuple(prefix))


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
                   exhaustive: bool = False,
                   force: bool = False) -> int:
    """|S_n(pattern_set)|, by the pruned prefix walk without materializing
    permutations; exhaustive switches to the unpruned scan oracle."""
    _check_n(n, force)
    if pattern_set.kind in ("tkm", "union") and not exhaustive:
        return _count_family(n, pattern_set.k, pattern_set.ms)
    patterns = tuple(p.values for p in pattern_set.patterns)
    if exhaustive:
        return _scan_count(n, (patterns,), 1).get((0,), 0)
    return _count_generic(n, patterns)


def _exactly_once_rule(n: int, k: int, m: int, tau: tuple[int, ...]):
    """Avoid T(k,m) minus tau and contain tau exactly once.

    An entry with s smaller and l larger later entries starts C(s,m-1) *
    C(l,k-m) occurrences of T(k,m), so every placement knows how many it
    adds, and a candidate that would bring the total to 2 is refused.  When
    the one occurrence starts, its other values are known: all, or none, of
    the smaller and of the larger values still unused.  The state is then
    the tuple of those values not yet placed, in the order tau places them;
    a candidate among them that is not the next one is refused, and the
    last entry needs the occurrence to have started.
    """
    starts = [[comb(r, m - 1) * comb(later - r, k - m) for r in range(later + 1)]
              for later in range(n)]

    def children(prefix, unused, state):
        later = len(unused) - 1
        row = starts[later]
        for r, v in enumerate(unused):
            if row[r]:
                if state is not None or row[r] > 1:
                    continue
                values = ((unused[:r] if m > 1 else []) + [v]
                          + (unused[r + 1:] if m < k else []))
                child = tuple(values[t - 1] for t in tau[1:])
            elif state is not None and v in state:
                if v != state[0]:
                    continue
                child = state[1:]
            else:
                child = state
            if later or child is not None:
                yield r, child

    return children


def _count_exactly_once_rec(n: int, k: int, m: int,
                            tau: tuple[int, ...]) -> int:
    """Count permutations avoiding T(k,m) minus tau while containing tau
    exactly once."""
    return sum(1 for _ in _walk(n, _exactly_once_rule(n, k, m, tau)))


def count_exactly_once(n: int, k: int, m: int, tau: Permutation, *,
                       force: bool = False) -> int:
    """|S_n(T(k,m); tau)|: permutations avoiding every pattern of T(k,m)
    except tau while containing tau exactly once."""
    _check_n(n, force)
    build_m(k, m, tau)  # validates k, m and tau
    return _count_exactly_once_rec(n, k, m, tau.values)


def enumerate_exactly_once(n: int, k: int, m: int, tau: Permutation, *,
                           force: bool = False) -> Iterator[Permutation]:
    """Stream S_n(T(k,m); tau) in lexicographic order, re-verifying each
    member through `contains_exactly_once`."""
    _check_n(n, force)
    avoid = build_m(k, m, tau)
    for prefix in _walk(n, _exactly_once_rule(n, k, m, tau.values)):
        p = Permutation(tuple(prefix))
        if not contains_exactly_once(p, tau, avoid):
            raise RuntimeError(
                f"enumerated {p} fails contains_exactly_once "
                f"for tau={tau}")
        yield p


def occurrence_histogram(n: int, tau: Permutation, *,
                         force: bool = False) -> dict[int, int]:
    """{r: permutations of S_n with exactly r occurrences of tau}, nonzero
    buckets only, by exhaustive unpruned scan (the oracle route)."""
    _check_n(n, force)
    tally = _scan_count(n, ((tau.values,),))
    return {vector[0]: c for vector, c in tally.items()}
