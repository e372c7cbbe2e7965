"""Enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route decides each entry when it is placed.  Arbitrary
  pattern lists, avoided or reached an exact number of times, are counted
  on West's generating tree of standardized prefixes, `_count_exactly`,
  which visits each good standardized prefix once, not once per value
  set, and checks a candidate by a capped pinned-pattern search per member
  over the occurrences that would END at it (appending a value can create
  no other occurrence); the verifier's noonan and bona oracles (exactly
  one 123, exactly one 132) count this way.  Everything else goes through
  one iterative prefix walker, `_walk`, which places actual values in
  lexicographic order: the listings, and the first-entry families T(k,m),
  their unions and the exactly-once classes, whose rules know every family
  occurrence an entry starts from its rank among the unused values (its
  inversion-table digit: the smaller entries still to follow).
* The oracle route is one naive scan, `_scan_count`: it walks every
  permutation of S_n and every k-subsequence, with no pruning and none of
  the occurrence machinery of `core`, so the two routes cross-validate
  each other.  The tests' avoider oracle, `occurrence_histogram` (a plain
  {occurrences: permutations} dict) and the verifier's
  exactly-one-123-and-one-132 oracle read it.  No verifier claim reads
  `occurrence_histogram`: it stays for library callers and for the
  benchmark's trace mode, which wraps it by name.

Every entry point takes the class's one `PatternSet`; the exactly-once ones
take an M(k,m;tau) set and read k, m and tau from it.  Nothing is cached
between calls.  The listings check their arguments when called, then stream:
each permutation is re-verified and yielded as the walk reaches it.  All
counts are exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations as _permutations
from math import comb, factorial
from typing import Iterator

from .core import Permutation, PinnedPattern
from .families import (PatternSet, _exactly_once_tau, avoids_all,
                       contains_exactly_once)

__all__ = [
    "DESK_SCALE_LIMIT",
    "enumerate_avoiders",
    "count_avoiders",
    "count_exactly_once",
    "enumerate_exactly_once",
    "occurrence_histogram",
]

DESK_SCALE_LIMIT = 12
# force stops here: the exactly-once rule builds an n-by-n table before it
# walks, about 0.8 s and 120 MB at n=2000 for k=9.
HARD_N_LIMIT = 2000
# `occurrences` needs force past this many k * C(n,k) search steps (pattern
# length k, host length n); at the bound that is up to about 10 s of CPU.
OCCURRENCE_WORK_LIMIT = 10**8


def _check_n(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError(f"n={n}; this module requires n >= 1")
    if n > HARD_N_LIMIT:
        raise ValueError(f"n={n} exceeds the hard limit {HARD_N_LIMIT}; "
                         "force does not lift it")
    if n > DESK_SCALE_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the desk-scale limit {DESK_SCALE_LIMIT}: the "
            f"search space grows like n! ({DESK_SCALE_LIMIT}! is already "
            f"{factorial(DESK_SCALE_LIMIT)}); pass force=True to override")


# ---------------------------------------------------------------------------
# The prefix walker, its rules and the generating tree
# ---------------------------------------------------------------------------
#
# A rule is children(prefix, unused, state): it yields (r, state') for each
# value unused[r] that may follow prefix, in increasing r, where unused is
# the sorted list of values not yet placed.  The candidate unused[r] will be
# followed by exactly r smaller entries and len(unused) - 1 - r larger ones
# (its inversion-table digit), so the family and exactly-once rules decide
# from r alone every occurrence the candidate starts, with no dead ends.
#
# `_count_family`, `_count_generic`, `_iter_avoiders` and
# `_count_exactly_once_rec` stay as thin entry points: the benchmark's trace
# mode (perfbench/child.py) times each search under its name.

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
    some m in ms, whatever order the later entries take.  With s and l both
    >= k-1 it starts one for every m, so only the other ranks are tested."""
    allowed = [[(r, None)
                for r in chain(range(min(k - 1, later + 1)),
                               range(max(k - 1, later - k + 2), later + 1))
                if all(r < m - 1 or later - r < k - m for m in ms)]
               for later in range(n)]
    return lambda prefix, unused, state: allowed[len(unused) - 1]


def _generic_rule(patterns: tuple[tuple[int, ...], ...]):
    """Avoid an arbitrary pattern list: a candidate is allowed when no
    occurrence of any member ends at it."""
    checks = [PinnedPattern(p).count_ending_at for p in patterns]

    def children(prefix, unused, state):
        for r, v in enumerate(unused):
            for ends_at in checks:
                if ends_at(prefix, v, 1):
                    break
            else:
                yield r, None

    return children


def _count_exactly(n: int, patterns: tuple[tuple[int, ...], ...],
                   target: int) -> int:
    """Count the permutations of S_n with exactly `target` occurrences of
    the patterns in all, on the generating tree.  A node is a standardized
    prefix, doubled so that a child's new entry is an odd value between two
    entries or past either end.  Each member adds its occurrences ending
    there, capped at one past what the target leaves; a leaf must reach
    the target."""
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


def _count_family(n: int, k: int, ms: tuple[int, ...]) -> int:
    """Count avoiders of the union of T(k,m) for m in ms."""
    return sum(1 for _ in _walk(n, _family_rule(n, k, ms)))


def _count_generic(n: int, patterns: tuple[tuple[int, ...], ...]) -> int:
    """Count avoiders of an arbitrary pattern list: no occurrence at all."""
    return _count_exactly(n, patterns, 0)


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
    if pattern_set.kind == "union":
        rule = _family_rule(n, pattern_set.k, pattern_set.ms)
    else:
        rule = _generic_rule(tuple(p.values for p in pattern_set.patterns))
    for prefix in _walk(n, rule):
        yield Permutation(tuple(prefix))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _guarded(members: Iterator[Permutation], check,
             pattern_set: PatternSet) -> Iterator[Permutation]:
    """Yield each member after re-verifying it as check(p, pattern_set), a
    guard against rule bugs."""
    for p in members:
        if not check(p, pattern_set):
            raise RuntimeError(f"enumerated {p} fails {check.__name__} "
                               f"for {pattern_set.label()}")
        yield p


def enumerate_avoiders(n: int, pattern_set: PatternSet, *,
                       force: bool = False) -> Iterator[Permutation]:
    """Stream every permutation of S_n avoiding all patterns in the set, in
    lexicographic order, each re-verified through `avoids_all`.  The
    arguments are checked at the call, before anything is iterated."""
    _check_n(n, force)
    return _guarded(_iter_avoiders(n, pattern_set), avoids_all, pattern_set)


def count_avoiders(n: int, pattern_set: PatternSet, *,
                   force: bool = False) -> int:
    """|S_n(pattern_set)|, by the pruned prefix walk or generating tree,
    without materializing permutations.  The tests check it against the
    unpruned scan, `_scan_count(n, (patterns,), 1).get((0,), 0)`."""
    _check_n(n, force)
    if pattern_set.kind == "union":
        return _count_family(n, pattern_set.k, pattern_set.ms)
    return _count_generic(n, tuple(p.values for p in pattern_set.patterns))


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


def count_exactly_once(n: int, pattern_set: PatternSet, *,
                       force: bool = False) -> int:
    """|S_n(T(k,m); tau)| for the set M(k,m;tau): permutations avoiding its
    members while containing tau exactly once."""
    _check_n(n, force)
    tau = _exactly_once_tau(pattern_set)
    return _count_exactly_once_rec(n, pattern_set.k, pattern_set.ms[0],
                                   tau.values)


def enumerate_exactly_once(n: int, pattern_set: PatternSet, *,
                           force: bool = False) -> Iterator[Permutation]:
    """Stream S_n(T(k,m); tau) for the set M(k,m;tau) in lexicographic
    order, each member re-verified through `contains_exactly_once`.  The
    arguments are checked at the call, before anything is iterated."""
    _check_n(n, force)
    tau = _exactly_once_tau(pattern_set)
    rule = _exactly_once_rule(n, pattern_set.k, pattern_set.ms[0], tau.values)
    members = (Permutation(tuple(prefix)) for prefix in _walk(n, rule))
    return _guarded(members, contains_exactly_once, pattern_set)


def occurrence_histogram(n: int, tau: Permutation, *,
                         force: bool = False) -> dict[int, int]:
    """{r: permutations of S_n with exactly r occurrences of tau}, nonzero
    buckets only, by exhaustive unpruned scan (the oracle route)."""
    _check_n(n, force)
    tally = _scan_count(n, ((tau.values,),))
    return {vector[0]: c for vector, c in tally.items()}
