"""Enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route decides each entry when it is placed.  In a
  first-entry union, an entry's rank among the unused values (its
  inversion-table digit) fixes every family occurrence it starts and is
  chosen on its own, so the union is the product of the rows of allowed
  ranks, `_rank_rows`, and counted as such.  An exactly-once class is
  decided by rank too, with a state of pending ranks, and so is an
  arbitrary pattern list, `_adhoc_rule`, with a state of live partial
  matches, each kept as the number of unused values below each point that
  bounds a gap its completions still need: prefixes that agree there have
  the same future.  Both are counted by `_levels`, a `{state: ways}` map
  carried from the first entry to the last, and every class is listed by
  one iterative prefix walker, `_walk`, under its rule.  The ad hoc rule
  also counts a pattern list reached an exact number of times, with the
  occurrences so far in its state: the verifier's noonan and bona oracles
  count exactly one 123 and one 132 this way.  The tests hold these counts
  to West's generating tree of standardized prefixes, which checks each
  candidate by a pinned-pattern search for the occurrences that END at it.
* The oracle route is one exhaustive scan, `_scan_count`: it walks the
  prefix tree of S_n and counts every k-subsequence, with none of the
  occurrence machinery of `core` and no rank rule, looking each one up by
  its values in a table of the value tuples that match a pattern, so the
  two routes cross-validate each other.  A subsequence is looked up once
  per prefix and shared by every permutation below it; the only pruning is
  by the cap: a prefix's whole subtree is tallied at once when its counts,
  with the occurrences its unused values are already known to complete,
  reach it.  The tests' avoider oracle,
  `occurrence_histogram` (a plain {occurrences: permutations} dict) and
  the verifier's exactly-one-123-and-one-132 oracle read it.  No verifier
  claim reads `occurrence_histogram`: it stays for library callers and for
  the benchmark's trace mode, which wraps it by name.

Every entry point takes the class's one `PatternSet`; the exactly-once ones
take an M(k,m;tau) set and read k, m and tau from it.  Nothing here is
cached between calls.  The listings check their arguments when called,
then stream: each permutation is re-verified and yielded as the search
reaches it.  The re-check is independent of the rank rows and the rules:
it searches every pattern of the set through `core`, in one walk per member
over the set's prefix trie.  For an exactly-once class that trie holds all
of T(k,m), tau included, and the walk stops at a second occurrence.  All
counts are exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations
from math import comb, factorial, prod
from typing import Iterator, NamedTuple

from .core import Permutation
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
# force stops here.  A union counts in O(n·k·|ms|), an exactly-once class
# by a few rank states per entry (0.3 s of CPU for M(9,1;123456789) at
# n=2000), and an ad hoc list by its rank states, one per level for {21}
# and {12}, whose runs of refused ranks are skipped whole (a few hundredths
# of a second at n=2000, counted or listed).  Other work grows fast: the
# states of {1324} about double with each n, {123} keeps one state per
# unused value, so its steps grow like n^3 (6-7 s at n=300).  The
# guard re-checks a near-identity member of Tkm(9,5) or M(9,5;tau) here in
# about 1.2 ms, once the trie of T(9,5) is built (about 0.13 s): the pass
# that counts each entry's later smaller values refuses, as it goes, every
# first entry without enough later values below and above it, and the walk
# from the rest finds an M member's one occurrence of tau.
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
# The prefix walker and its rules
# ---------------------------------------------------------------------------
#
# Every class is listed by `_walk` and counted by `_levels` under one rule,
# steps(later, state): the list of (r, state') for each rank r, in
# increasing order, at which the next entry may be the r-th smallest of the
# later + 1 values still unused, the first state being None.  That entry
# will be followed by exactly r smaller entries and later - r larger ones
# (its inversion-table digit).  A union's rule is its rank row, whose pairs
# (r, 0) carry no state; the exactly-once rule keeps the ranks of tau's
# pending entries, and the ad hoc rule the prefix's live partial matches
# (with its occurrences so far, when it counts an exact number of them).
# `_walk` places actual values, so it lists in lexicographic order; `_levels`
# only sums the number of prefixes reaching each state.
#
# Only a listing memoises its rule, by walking `cache(steps)`: `_walk` asks
# for the same (later, state) at each node whose prefix reaches that state.
# A count never does: `_levels` expands each state once per level, so a
# cache would never hit and would only hold every state it met.
#
# `_count_family`, `_iter_avoiders` and `_count_exactly_once_rec` stay as
# thin entry points, and `_count_generic` keeps its name: the benchmark's
# trace mode (perfbench/child.py) times each search under its name.

def _walk(n: int, steps) -> Iterator[Permutation]:
    """Yield every permutation of S_n whose entries the rule allows at each
    step, in lexicographic order.  The last entry is placed in its parent's
    loop, with no iterator or rank of its own."""
    prefix: list[int] = []
    ranks: list[int] = []
    unused = list(range(1, n + 1))
    if n == 1:
        for r, _ in steps(0, None):
            yield Permutation([unused[r]])
        return
    stack = [iter(steps(n - 1, None))]
    while stack:
        for r, state in stack[-1]:
            prefix.append(unused.pop(r))
            if len(unused) > 1:
                ranks.append(r)
                stack.append(iter(steps(len(unused) - 1, state)))
                break  # descend: the new top of the stack is iterated next
            for last, _ in steps(0, state):
                prefix.append(unused[last])
                yield Permutation(prefix)
                prefix.pop()
            unused.insert(r, prefix.pop())
        else:
            # the top node has no more children: undo the entry it added
            stack.pop()
            if ranks:
                unused.insert(ranks.pop(), prefix.pop())


def _levels(n: int, steps) -> int:
    """Count the permutations of S_n that the rule allows, level by level:
    the number of prefixes reaching each state, from the first entry to the
    last."""
    level = {None: 1}
    for later in range(n - 1, -1, -1):
        below: dict = {}
        for state, ways in level.items():
            for _, child in steps(later, state):
                below[child] = below.get(child, 0) + ways
        level = below
    return sum(level.values())


def _rank_rows(n: int, k: int, ms: tuple[int, ...],
               below: int) -> list[list[tuple[int, int]]]:
    """For each count `later` of entries still to come, the ranks r, in
    increasing order, at which an entry starts fewer than `below` (at most
    2) occurrences of the union of T(k,m) over ms, each with that number.

    An entry followed by r smaller and later-r larger entries starts
    C(r,m-1)·C(later-r,k-m) occurrences of T(k,m), whatever order those
    entries take.  Every rank from k to later-k starts at least two of each
    T(k,m), so only the ranks below k and above later-k are tested.  A
    rank's sum over ms stops as soon as it reaches `below`: no term is
    negative, so a sum that never reaches it is exact."""
    rows = []
    for later in range(n):
        row = []
        for r in chain(range(min(k, later + 1)),
                       range(max(k, later - k + 1), later + 1)):
            c = 0
            for m in ms:
                c += comb(r, m - 1) * comb(later - r, k - m)
                if c >= below:
                    break
            else:
                row.append((r, c))
        rows.append(row)
    return rows


def _count_family(n: int, k: int, ms: tuple[int, ...]) -> int:
    """Count avoiders of the union of T(k,m) for m in ms."""
    return prod(map(len, _rank_rows(n, k, ms, 1)))


# ---------------------------------------------------------------------------
# The rank rule of an ad hoc list
# ---------------------------------------------------------------------------
#
# A partial match is an occurrence of a proper pattern prefix (a node of the
# patterns' prefix trie) among the entries placed so far; what it needs of
# the future is that later entries fall into certain gaps between its
# matched values.  The ad hoc rule's state is the prefix's live partial
# matches, each stored as its node and a cut for each point that bounds a
# needed gap: the number of unused values below that point.  An entry of
# rank r lies in a needed gap when the gap's lower cut <= r < its upper
# cut, and each match with such a gap grows to the child node; then every
# cut above r drops by one.  The rule counts the permutations with exactly
# t occurrences of the patterns in all, t = 0 for avoidance; past t = 0 the
# state also carries the occurrences counted so far, 0..t, and a match
# repeats once for each partial occurrence it stands for, at most t+1-count
# times.  Four reductions keep the state small and canonical:
#   1. a match one entry short of a pattern is never stored: each unused
#      value in a gap it needs completes one occurrence when it is placed,
#      so those values are counted at once, and r is refused once the count
#      passes t;
#   2. a match is dropped when each completion needs more entries in some
#      gap than that gap holds unused values;
#   3. at one node, a match is dropped when each gap others need contains
#      its own and they number t+1-count in all: every completion of it
#      completes them, which passes t;
#   4. the count runs on whichever of the set's eight symmetric images
#      (`_images`) has the fewest two-sided points and needed gaps, read
#      from its needed gaps alone; only that image gets its tables.
# A rank meets the cuts only through order tests, equality tests and gap
# sizes compared with needs below k or with t, so in the run between two
# consecutive cuts every rank at least max(k, t+1) from both ends fares
# alike: the first of them is worked out and the rest copy its child state
# with their own rank in place of its.
# `_match_tables` builds each node's fields in the shape the step reads;
# `_adhoc_rule` only turns each node into a plain tuple, which the step
# indexes by node number and unpacks in plain loops.

def _standardize(values) -> tuple[int, ...]:
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def _gap(prefix, v: int) -> int:
    """The gap of `prefix`'s values that v falls in: how many lie below."""
    return sum(u < v for u in prefix)


class _Node(NamedTuple):
    """A node of the ad hoc rule's prefix trie: one distinct pattern prefix
    of length d < k, up to order.  A partial match at the node has matched
    d values.  Its points are those of its d+2 bounds (the bottom, the
    matched values in increasing order, the top) that bound a gap some
    completion still needs, and it is stored as (node, *point cuts), so a
    point is named by its position in that tuple.  At depth k-1, where a
    match is never stored, `grows` and `alive` are empty."""

    # for each needed gap a..b a new value can fill: (a, b, the number of
    # the child node it reaches, the child's points as the parent's, 0 for
    # the new value, and the child's needs if it is one entry short of a
    # pattern, else ())
    grows: tuple
    # for each completion, the (a, b, entries) of each needed gap it puts
    # entries in, the minimal completions only
    alive: tuple
    fixed: tuple  # the points that bound needed gaps from both sides,
    lows: tuple  # only from below,
    highs: tuple  # and only from above
    needs: tuple  # each needed gap's two points, in increasing order


def _prefix_gaps(patterns: tuple[tuple[int, ...], ...]) -> dict:
    """Each distinct pattern prefix of length d < k, up to order, with the
    patterns under it and its needed gaps: those their later entries use."""
    under: dict[tuple[int, ...], list] = {}
    for p in patterns:
        for d in range(len(p)):
            under.setdefault(_standardize(p[:d]), []).append(p)
    return {q: (ps, sorted({_gap(p[:len(q)], v)
                            for p in ps for v in p[len(q):]}))
            for q, ps in under.items()}


def _match_tables(patterns: tuple[tuple[int, ...], ...]) -> list[_Node]:
    """The nodes of the patterns' prefixes; node 0 is the empty prefix."""
    k = len(patterns[0])
    shape = _prefix_gaps(patterns)
    ids = {q: i for i, q in enumerate(shape)}
    # each point's position in a stored match: bound j is points[q][j]
    points = {q: {j: i + 1 for i, j in
                  enumerate(sorted({j + e for j in js for e in (0, 1)}))}
              for q, (_, js) in shape.items()}
    needs = {q: tuple((points[q][j], points[q][j + 1]) for j in js)
             for q, (_, js) in shape.items()}
    nodes = []
    for q, (ps, js) in shape.items():
        d, pts = len(q), points[q]
        lows = {a for a, _ in needs[q]}
        highs = {b for _, b in needs[q]}
        sides = (tuple(sorted(lows & highs)), tuple(lows - highs),
                 tuple(highs - lows), needs[q])
        if d == k - 1:
            nodes.append(_Node((), (), *sides))
            continue
        grows = {}
        for p in ps:
            j = _gap(p[:d], p[d])
            child = _standardize(p[:d + 1])
            # the child's bound a is the parent's a below the new value
            # and the parent's a-1 above it
            grows[j] = (pts[j], pts[j + 1], ids[child],
                        tuple(0 if a == j + 1 else pts[a - (a > j)]
                              for a in points[child]),
                        needs[child] if d + 2 == k else ())
        uses = {tuple(sum(_gap(p[:d], v) == j for v in p[d:]) for j in js)
                for p in ps}
        alive = tuple(tuple((*gap, e) for gap, e in zip(needs[q], u) if e)
                      for u in uses
                      if not any(o != u and all(map(int.__le__, o, u))
                                 for o in uses))
        nodes.append(_Node(tuple(map(grows.get, sorted(grows))), alive,
                           *sides))
    return nodes


def _images(patterns: tuple[tuple[int, ...], ...]) -> Iterator[tuple]:
    """The set under the eight symmetries of the square: each member
    inverted or not, reversed or not, complemented or not.  A permutation
    avoids the set exactly when its image avoids the image, so every image
    has as many avoiders of each length."""
    k = len(patterns[0])
    inverses = tuple(tuple(i + 1 for i in sorted(range(k), key=p.__getitem__))
                     for p in patterns)
    for base in (patterns, inverses):
        for step in (1, -1):
            for mirror in (0, k + 1):
                yield tuple(tuple(abs(mirror - v) for v in p[::step])
                            for p in base)


def _cost(patterns: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """How far a set's rule keeps prefixes apart: a two-sided point, between
    two needed gaps, lets no match cover another that differs there, and
    each needed gap keeps its points' cuts in the state."""
    gaps = [js for _, js in _prefix_gaps(patterns).values()]
    return sum(j - 1 in js for js in gaps for j in js), sum(map(len, gaps))


def _adhoc_rule(nodes: list[_Node], k: int, target: int = 0):
    """Contain the patterns of length k >= 2 whose prefix trie is `nodes`
    exactly `target` times in all.  The state is the prefix's live partial
    matches in increasing order.  Past target 0 a match repeats once for
    each partial occurrence it stands for, and the matches are paired with
    the occurrences counted so far, as (count, matches)."""
    # a run's middle ranks lie this far from both of its cuts, so that a gap
    # beside the new entry can hold every completion's entries and, when a
    # match one entry short needs it, more occurrences than the target
    margin = max(k, target + 1)
    tables = list(map(tuple, nodes))

    def child(count: int, matches: tuple, size: int,
              r: int) -> tuple | None:
        """The occurrences counted and the matches after an entry of rank r
        among `size` unused values, or None where the count passes the
        target."""
        grown = []
        for m in ((0, 0, size), *matches):  # the root matches always
            for a, b, kid, points, last in tables[m[0]][0]:
                if m[a] <= r < m[b]:
                    refs = (kid, *[m[p] - (m[p] > r) if p else r
                                   for p in points])
                    # each unused value in a gap the match one entry short
                    # needs completes one occurrence when it is placed
                    for i, j in last:
                        if refs[i] < refs[j]:
                            count += refs[j] - refs[i]
                            if count > target:
                                return None
                    if not last:
                        grown.append(refs)
        # keep the finishable matches, old and grown, and drop each one
        # that others at its node and two-sided cuts cover `cap` times in
        # all, where more occurrences would pass the target: every
        # completion of it completes them.  A lone match there is kept
        # untested.  Past target 0 a repeat stands for another occurrence.
        cap = target + 1 - count
        moved = [(m[0], *[c - (c > r) for c in m[1:]]) for m in matches]
        rivals: dict = {}
        for m in grown + moved if target else {*grown, *moved}:
            _, alive, fixed, _, _, _ = tables[m[0]]
            for use in alive:
                for a, b, need in use:
                    if m[b] - m[a] < need:
                        break
                else:
                    rivals.setdefault((m[0], *[m[i] for i in fixed]),
                                      []).append(m)
                    break
        kept = []
        for ms in rivals.values():
            if len(ms) == 1:
                kept += ms
                continue
            _, _, _, lows, highs, _ = tables[ms[0][0]]
            for m in ms:
                covered = 0
                for o in ms:
                    if o == m:
                        continue
                    for i in lows:
                        if o[i] > m[i]:
                            break
                    else:
                        for i in highs:
                            if m[i] > o[i]:
                                break
                        else:
                            covered += 1  # o covers m
                            if covered == cap:
                                break
                else:
                    kept.append(m)
        kept.sort()
        if target:  # past cap copies, one completion passes the target alike
            kept = [m for i, m in enumerate(kept)
                    if i < cap or kept[i - cap] != m]
        return count, tuple(kept)

    def steps(later: int, state) -> list:
        count, matches = (state or (0, ())) if target else (0, state or ())
        size = later + 1
        cuts = sorted({0, size, *[c for m in matches for c in m[1:]]})
        found = []
        for lo, hi in zip(cuts, cuts[1:]):
            middle = range(lo + margin, hi - margin)  # ranks that fare alike
            r = lo
            while r < hi:
                reached = child(count, matches, size, r)
                copies = middle[1:] if r in middle else ()
                # the last entry must leave exactly the target
                if reached is not None and (later or reached[0] == target):
                    total, grown = reached
                    for s in (r, *copies):
                        moved = grown if s == r else tuple(
                            [(m[0], *[s if c == r else c for c in m[1:]])
                             for m in grown])
                        found.append((s, (total, moved) if target else moved))
                r += 1 + len(copies)
        return found

    return steps


def _count_generic(n: int, patterns: tuple[tuple[int, ...], ...],
                   target: int = 0) -> int:
    """Count the permutations of S_n with exactly `target` occurrences of a
    list of distinct patterns in all (its avoiders at target 0), by
    `_levels` over the ad hoc rule of its cheapest symmetric image; an image
    that repeats an earlier one is not costed again, and only the cheapest
    gets its tables.  An empty list is avoided by all n! permutations."""
    if not patterns or n < len(patterns[0]):
        return 0 if target else factorial(n)  # no permutation contains one
    k = len(patterns[0])
    if k == 1:  # each entry is an occurrence of the one length-1 pattern
        return factorial(n) if target == n else 0
    image = min(dict.fromkeys(_images(patterns)), key=_cost)
    return _levels(n, _adhoc_rule(_match_tables(image), k, target))


def _scan_count(n: int, groups: tuple[tuple[tuple[int, ...], ...], ...],
                cap: int | None = None) -> dict[tuple[int, ...] | None, int]:
    """Oracle: for every permutation of S_n, count the k-subsequences
    matching each group of length-k patterns, and tally the count vectors.

    Groups must be disjoint.  A permutation in which some group reaches
    `cap` occurrences is tallied under None, so every vector in the tally is
    exact; a cap below 1 raises ValueError.

    The scan walks the prefix tree of S_n depth first.  Each prefix carries
    its counts and, for every value still unused, the counts of its
    (k-1)-subsequences that the value completes to a pattern: placing the
    value adds them.  The (k-1)-subsequences an entry u adds to the prefix
    are the prefix's (k-2)-subsequences followed by u, so each k-subsequence
    is looked up once, at the prefix that places its next-to-last entry,
    and shared by every permutation below it.

    Every unused value is placed in the end and adds at least its pending
    counts, so a prefix's counts plus all its pending counts are, group by
    group, a lower bound on the count vector of every permutation below it.
    A prefix's bound is tested once, as its last entry is placed: where it
    reaches `cap` in some group, every permutation below the prefix is
    tallied under None at once, and with at most one entry left to place
    the bound is the one permutation's own count vector.  No k-set is
    counted twice across the counts and the pending counts, as each
    pending k-set ends at its own unused value, so a group's bound stays at
    or below C(n,k).
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be a positive integer")
    k = len(groups[0][0])
    # A count vector is one integer, `width` bits per group.  Each field's
    # top bit stays clear, as no count, bound or cap reaches 2**(width-1), so
    # adding `lift`, 2**(width-1) - cap in each field, sets a top bit in
    # `tops` exactly where a group has reached the cap.
    width = max(comb(n, k), cap or 0).bit_length() + 1
    shifts = range(0, width * len(groups), width)
    lift = tops = 0
    if cap is not None:
        for s in shifts:
            lift += ((1 << (width - 1)) - cap) << s
            tops |= 1 << (s + width - 1)
    # ends[u][v] maps each (k-2)-tuple of values that, followed by u and v,
    # matches a pattern onto its group's field; k-sets of values placed in a
    # pattern's order are exactly the value tuples standardizing to it.  At
    # k = 1 each value alone is an occurrence, counted from the empty prefix.
    ends = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    start = dict.fromkeys(range(1, n + 1), 0)
    for values in combinations(range(1, n + 1), k):
        for s, patterns in zip(shifts, groups):
            for p in patterns:
                *head, v = (values[i - 1] for i in p)
                if head:
                    *rest, u = head
                    ends[u][v][tuple(rest)] = 1 << s
                else:
                    start[v] = 1 << s
    tally: dict[int | None, int] = {} if n else {0: 1}
    prefix: list[int] = []
    lead = max(k - 2, 0)  # a match's entries before its last two

    def extend(pending: dict[int, int], counts: int) -> None:
        later = len(pending) - 1  # entries after the one placed here
        for u, adds in pending.items():
            reached = counts + adds
            pairs = ends[u]
            after = {v: c + sum(filter(None, map(pairs[v].get,
                                                 combinations(prefix, lead))))
                     for v, c in pending.items() if v != u}
            bound = reached + sum(after.values())
            if (bound + lift) & tops:
                tally[None] = tally.get(None, 0) + factorial(later)
            elif later > 1:
                prefix.append(u)
                extend(after, reached)
                prefix.pop()
            else:  # at most one entry is left: the bound is the count vector
                tally[bound] = tally.get(bound, 0) + 1

    if n:
        extend(start, 0)
    mask = (1 << width) - 1
    return {c if c is None else tuple(c >> s & mask for s in shifts): ways
            for c, ways in tally.items()}


def _iter_avoiders(n: int, pattern_set: PatternSet) -> Iterator[Permutation]:
    """Yield avoiders in lexicographic order, by `_walk` over a union's rank
    rows (each allowed rank with state 0) or over the ad hoc rule of the set
    as given."""
    if pattern_set.kind == "union":
        rows = _rank_rows(n, pattern_set.k, pattern_set.ms, 1)
        yield from _walk(n, lambda later, state: rows[later])
    elif not pattern_set.patterns:  # an M set whose T(k,m) is tau alone
        yield from _walk(n, lambda later, state:
                         [(r, None) for r in range(later + 1)])
    elif pattern_set.k > 1:  # every permutation contains a length-1 pattern
        patterns = tuple(p.values for p in pattern_set.patterns)
        yield from _walk(n, cache(_adhoc_rule(_match_tables(patterns),
                                              pattern_set.k)))


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
    """|S_n(pattern_set)|, as the product of a union's rank rows or by
    levels of the ad hoc rule's partial-match states.  The tests check it
    against the exhaustive scan, `_scan_count(n, (patterns,), 1).get((0,),
    0)`, and the ad hoc count against the generating tree of the tests'
    conftest."""
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
    the next one is refused.

    The walk over these steps meets no dead end: every state it reaches
    leads to a member.  An entry starts C(r,m-1)·C(later-r,k-m) occurrences,
    so the occurrence starts at an entry with at least k-1 entries after
    it.  An entry that starts nothing therefore keeps the state None only
    if `later` >= k entries follow it, and is refused otherwise.  With that
    many, a member follows: non-starting entries (rank 0 if m > 1, rank
    `later` if m = 1) until k-1 entries remain after the next one, which
    starts one occurrence at rank m-1.  Once the occurrence has started,
    place its pending entries in tau's order, then the others: in
    increasing order if they are larger than its values (m = k), in
    decreasing order if smaller (m = 1); for 1 < m < k every later entry is
    the occurrence's.  A pending entry has fewer than k-1 entries of the
    occurrence after it and no other entry after it on the side it would
    need, and each of the others has none, so none of them starts an
    occurrence.
    """
    rows = _rank_rows(n, k, (m,), 2)

    def steps(later: int, state) -> list:
        found = []
        for r, starts in rows[later]:
            if state is None:
                if not starts:
                    if later >= k:
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
        return found

    return steps


def _count_exactly_once_rec(n: int, k: int, m: int,
                            tau: tuple[int, ...]) -> int:
    """Count permutations avoiding T(k,m) minus tau while containing tau
    exactly once, by `_levels` over the exactly-once rule."""
    return _levels(n, _exactly_once_rule(n, k, m, tau))


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
    order, each member re-verified through `contains_exactly_once`: one walk
    over the trie of T(k,m), built once per set.  The arguments are checked
    at the call, before anything is iterated."""
    _check_n(n, force)
    tau = _exactly_once_tau(pattern_set)
    steps = cache(_exactly_once_rule(n, pattern_set.k, pattern_set.ms[0],
                                     tau.values))
    return _guarded(_walk(n, steps), contains_exactly_once, pattern_set)


def occurrence_histogram(n: int, tau: Permutation) -> dict[int, int]:
    """{r: permutations of S_n with exactly r occurrences of tau}, nonzero
    buckets only, by the uncapped exhaustive scan (the oracle route)."""
    _check_n(n, False)
    tally = _scan_count(n, ((tau.values,),))
    return {vector[0]: c for vector, c in tally.items()}
