"""Enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route decides each entry when it is placed.  In a
  first-entry union, an entry's rank among the unused values (its
  inversion-table digit) fixes every family occurrence it starts and is
  chosen on its own, so the union is the product of the rows of allowed
  ranks, `_rank_rows`, counted and listed as such.  Arbitrary pattern lists,
  avoided or reached an exact number of times, are counted on West's
  generating tree of standardized prefixes, `_count_exactly`, which visits
  each good standardized prefix once and checks a candidate by a capped
  pinned-pattern search per member over the occurrences that would END at
  it; the verifier's noonan and bona oracles count this way.  An
  exactly-once class is decided by rank too, with a state of pending ranks:
  it is counted by levels of those states, a `{state: ways}` map carried
  from the first entry to the last, and listed by `_walk`, one iterative
  prefix walker, over the same steps.  The ad hoc listings use `_walk` over
  actual values.
* The oracle route is one naive scan, `_scan_count`: it walks every
  permutation of S_n and every k-subsequence, with no pruning and none of
  the occurrence machinery of `core`, and looks each subsequence up by its
  values in a table of the value tuples that match a pattern, so the two
  routes cross-validate each other.  The tests' avoider oracle,
  `occurrence_histogram` (a plain {occurrences: permutations} dict) and
  the verifier's exactly-one-123-and-one-132 oracle read it.  No verifier
  claim reads `occurrence_histogram`: it stays for library callers and for
  the benchmark's trace mode, which wraps it by name.

Every entry point takes the class's one `PatternSet`; the exactly-once ones
take an M(k,m;tau) set and read k, m and tau from it.  Nothing here is
cached between calls: an exactly-once rule keeps its steps for one count or
listing, and a `PatternSet` keeps the prefix trie it builds.  The
listings check their arguments when called, then stream: each permutation
is re-verified and yielded as the search reaches it.  The re-check is
independent of the rank rows and the rules: it searches every pattern of
the set through `core`, in one walk per member over the set's prefix trie
(plus one capped count of tau for an exactly-once class).  All counts are
exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

from itertools import (chain, combinations, permutations as _permutations,
                       product)
from math import comb, factorial, prod
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
# force stops here.  A union counts in O(n·k·|ms|) and an exactly-once class
# by a few rank states per entry (0.3 s of CPU for M(9,1;123456789) at
# n=2000), but other work grows fast: the tree counts the class of one {21}
# in cubic time (62 s of CPU at n=2000), and the guard's trie walk does not
# finish within minutes on a near-identity member of Tkm(9,5) or M(9,5;tau),
# since every increasing prefix of their patterns matches it and no window
# prunes those prefixes.
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
# (its inversion-table digit), so the exactly-once rule decides from r alone
# every occurrence the candidate starts, with no dead ends.  That rule keeps
# its state in ranks too, so it is given as steps(later, state), the list of
# (r, state') for later = len(unused) - 1 entries still to come: `_walk`
# lists the class through it and `_count_exactly_once_rec` sums it level by
# level.
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


def _rank_rows(n: int, k: int, ms: tuple[int, ...],
               below: int) -> list[list[tuple[int, int]]]:
    """For each count `later` of entries still to come, the ranks r, in
    increasing order, at which an entry starts fewer than `below` (at most
    2) occurrences of the union of T(k,m) over ms, each with that number.

    An entry followed by r smaller and later-r larger entries starts
    C(r,m-1)·C(later-r,k-m) occurrences of T(k,m), whatever order those
    entries take.  Every rank from k to later-k starts at least two of each
    T(k,m), so only the ranks below k and above later-k are tested."""
    return [[(r, c) for r in chain(range(min(k, later + 1)),
                                   range(max(k, later - k + 1), later + 1))
             if (c := sum(comb(r, m - 1) * comb(later - r, k - m)
                          for m in ms)) < below]
            for later in range(n)]


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
    return prod(map(len, _rank_rows(n, k, ms, 1)))


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
    # Each k-set of values, placed in a pattern's order, is a value tuple
    # that standardizes to that pattern, so a subsequence is looked up as it
    # stands.
    group_of = {tuple(values[i - 1] for i in p): g
                for values in combinations(range(1, n + 1), k)
                for g, patterns in enumerate(groups) for p in patterns}
    tally: dict[tuple[int, ...] | None, int] = {}
    for perm in _permutations(range(1, n + 1)):
        counts = [0] * len(groups)
        vector: tuple[int, ...] | None = None
        for g in map(group_of.get, combinations(perm, k)):
            if g is not None:
                counts[g] += 1
                if counts[g] == cap:
                    break
        else:
            vector = tuple(counts)
        tally[vector] = tally.get(vector, 0) + 1
    return tally


def _iter_avoiders(n: int, pattern_set: PatternSet) -> Iterator[Permutation]:
    """Yield avoiders in lexicographic order.  A union's are its rank rows'
    product, first entry outermost; a rank indexes the values still unused."""
    if pattern_set.kind == "union":
        rows = _rank_rows(n, pattern_set.k, pattern_set.ms, 1)
        for ranks in product(*([r for r, _ in row] for row in reversed(rows))):
            unused = list(range(1, n + 1))
            yield Permutation(tuple(unused.pop(r) for r in ranks))
        return
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
    """|S_n(pattern_set)|, as the product of a union's rank rows or on the
    generating tree.  The tests check it against the unpruned scan,
    `_scan_count(n, (patterns,), 1).get((0,), 0)`."""
    _check_n(n, force)
    if pattern_set.kind == "union":
        return _count_family(n, pattern_set.k, pattern_set.ms)
    return _count_generic(n, tuple(p.values for p in pattern_set.patterns))


def _exactly_once_rule(n: int, k: int, m: int, tau: tuple[int, ...]):
    """Avoid T(k,m) minus tau and contain tau exactly once: only ranks that
    start at most one occurrence are tried, and one that starts one is
    refused once an occurrence has started.  Its other entries are then
    known: all, or none, of the smaller and of the larger values still
    unused.  The state is the tuple of their ranks among the unused values,
    in the order tau places them; placing the entry at rank r moves each
    pending rank above r down by one.  A candidate among them that is not
    the next one is refused, and the last entry needs the occurrence to have
    started.  A step depends only on the count of entries still to come and
    the state, so each is computed once per rule.
    """
    rows = _rank_rows(n, k, (m,), 2)
    memo: dict = {}

    def steps(later: int, state) -> list:
        key = (later, state)
        found = memo.get(key)
        if found is not None:
            return found
        found = []
        for r, starts in rows[later]:
            if state is None:
                if not starts:
                    if later:
                        found.append((r, None))
                    continue
                # the occurrence's entries are k consecutive ranks from lo
                lo = 0 if m > 1 else r
                pending = [lo + t - 1 for t in tau[1:]]
            elif starts or r in state[1:]:
                continue
            else:
                pending = state[1:] if r in state else state
            found.append((r, tuple(s - (s > r) for s in pending)))
        memo[key] = found
        return found

    return steps


def _count_exactly_once_rec(n: int, k: int, m: int,
                            tau: tuple[int, ...]) -> int:
    """Count permutations avoiding T(k,m) minus tau while containing tau
    exactly once, level by level: the number of prefixes reaching each rule
    state, from the first entry to the last."""
    steps = _exactly_once_rule(n, k, m, tau)
    level = {None: 1}
    for later in range(n - 1, -1, -1):
        below: dict = {}
        for state, ways in level.items():
            for _, child in steps(later, state):
                below[child] = below.get(child, 0) + ways
        level = below
    return sum(level.values())


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
    steps = _exactly_once_rule(n, pattern_set.k, pattern_set.ms[0],
                               tau.values)
    members = (Permutation(tuple(prefix)) for prefix in
               _walk(n, lambda prefix, unused, state:
                     steps(len(unused) - 1, state)))
    return _guarded(members, contains_exactly_once, pattern_set)


def occurrence_histogram(n: int, tau: Permutation, *,
                         force: bool = False) -> dict[int, int]:
    """{r: permutations of S_n with exactly r occurrences of tau}, nonzero
    buckets only, by exhaustive unpruned scan (the oracle route)."""
    _check_n(n, force)
    tally = _scan_count(n, ((tau.values,),))
    return {vector[0]: c for vector, c in tally.items()}
