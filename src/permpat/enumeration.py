"""Enumeration and counting of pattern-restricted permutations.

Two independent computation routes live here on purpose:

* The optimized route decides each entry when it is placed.  In a
  first-entry union, an entry's rank among the unused values (its
  inversion-table digit) fixes every family occurrence it starts and is
  chosen on its own, so the union is the product of the rows of allowed
  ranks, `_rank_rows`, counted and listed as such.  The avoiders of an
  arbitrary pattern list are counted by levels of merged states,
  `_count_generic`: a prefix's future depends only on its live partial
  matches and on how many gaps of the prefix lie between the values they
  reference, so prefixes that agree there are counted once.  A pattern
  list reached an exact number of times is counted on West's generating
  tree of standardized prefixes, `_count_exactly`, which visits each good
  standardized prefix once and checks a candidate by a capped
  pinned-pattern search per member over the occurrences that would END at
  it; the verifier's noonan and bona oracles count this way, and the tests
  hold the merged count to it.  An exactly-once class is decided by rank
  too, with a state of pending ranks: it is counted by levels of those
  states, a `{state: ways}` map carried from the first entry to the last,
  and listed by `_walk`, one iterative prefix walker, over the same steps.
  The ad hoc listings use `_walk` over actual values.
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
listing, the merged count keeps its moves for one level, and a `PatternSet`
keeps the prefix trie it builds.  The
listings check their arguments when called, then stream: each permutation
is re-verified and yielded as the search reaches it.  The re-check is
independent of the rank rows and the rules: it searches every pattern of
the set through `core`, in one walk per member over the set's prefix trie
(plus one capped count of tau for an exactly-once class).  All counts are
exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import (accumulate, chain, combinations, compress,
                       permutations as _permutations, product)
from math import comb, factorial, prod
from typing import Iterator, NamedTuple

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
# force stops here.  A union counts in O(n·k·|ms|), an exactly-once class
# by a few rank states per entry (0.3 s of CPU for M(9,1;123456789) at
# n=2000), and an ad hoc list by merged states, one per level for {21}
# (0.05 s at n=2000), but other work grows fast: the merged states of
# {1324} grow about 3.4-fold per entry, and the guard's trie walk does not
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
# `_count_family`, `_iter_avoiders` and `_count_exactly_once_rec` stay as
# thin entry points, and `_count_generic` keeps its name: the benchmark's
# trace mode (perfbench/child.py) times each search under its name.

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


# ---------------------------------------------------------------------------
# The merged count of an ad hoc list's avoiders
# ---------------------------------------------------------------------------
#
# A prefix of length L is standardized, and the next entry goes into one of
# its L+1 gaps.  A partial match is an occurrence of a proper pattern prefix
# (a node of the patterns' prefix trie) among the prefix's entries; what it
# needs of the future is that later entries fall into certain gaps between
# its matched values.  The state of a prefix keeps
#   * its live partial matches, each as its node and the values bounding
#     the gaps its completions still need, and
#   * for each segment between consecutive referenced values, its weight:
#     the number of the prefix's gaps there that a new entry may still
#     enter.
# A new entry goes into the t-th of the w gaps of some segment s, counted
# from below, so it splits s into parts of weight t and w+1-t.  Each match
# whose needed gap contains s grows to the child node.  Five reductions
# keep the state small and canonical:
#   1. a match one entry short of a pattern forbids the gaps it needs, and
#      a forbidden segment is contracted, merging the values around it;
#   2. a match is dropped when each completion needs a gap with no open
#      segment left;
#   3. at one node, a match is dropped when each gap another needs contains
#      its own, since every completion of it completes the other;
#   4. a value no live match references is deleted, and the weights of its
#      two segments are summed;
#   5. the count runs on whichever of the set's eight symmetric images
#      (`_images`) has the fewest two-sided points and needed gaps.
# Everything but the weights, and so every reduction, is the same for all
# the states of one shape (matches and segment count), so `_moves` works
# each shape out once per level.  The states of length n-1 are not stored:
# one has as many children as its weights add up to, so each move into
# length n-1 adds that sum, for every way to split its segment, at once.

def _standardize(values) -> tuple[int, ...]:
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def _gap(prefix, v: int) -> int:
    """The gap of `prefix`'s values that v falls in: how many lie below."""
    return sum(u < v for u in prefix)


class _Node(NamedTuple):
    """A node of the merged count's prefix trie: one distinct pattern
    prefix of length d < k, up to order.  A partial match at the node has
    matched d values.  Its points are those of its d+2 bounds (the bottom,
    the matched values in increasing order, the top) that bound a gap some
    completion still needs, and it is stored as (node, *point values), so
    a point is named by its position in that tuple."""

    needs: tuple  # each needed gap's two points, in increasing order
    # for each needed gap, the child a new value in it reaches and the
    # child's points as the parent's, 0 for the new value; or None where
    # only later entries need the gap
    kids: tuple
    # the minimal sets of needed gaps, as indices into needs, that one
    # completion uses; None at depth k-1, whose needed gaps are forbidden
    # as soon as it is matched
    alive: tuple | None
    lows: tuple  # the points that bound needed gaps only from below,
    highs: tuple  # only from above,
    fixed: tuple  # and from both sides


def _match_tables(patterns: tuple[tuple[int, ...], ...]) -> list[_Node]:
    """The nodes of the patterns' prefixes; node 0 is the empty prefix."""
    k = len(patterns[0])
    under: dict[tuple[int, ...], list] = {}
    for p in patterns:
        for d in range(k):
            under.setdefault(_standardize(p[:d]), []).append(p)
    ids = {q: i for i, q in enumerate(under)}
    gaps = {q: sorted({_gap(p[:len(q)], v) for p in ps for v in p[len(q):]})
            for q, ps in under.items()}
    # each point's position in a stored match: bound j is points[q][j]
    points = {q: {j: i + 1 for i, j in
                  enumerate(sorted({j + e for j in js for e in (0, 1)}))}
              for q, js in gaps.items()}
    nodes = []
    for q, ps in under.items():
        d, js, pts = len(q), gaps[q], points[q]
        needs = tuple((pts[j], pts[j + 1]) for j in js)
        lows = {a for a, _ in needs}
        highs = {b for _, b in needs}
        sides = (tuple(lows - highs), tuple(highs - lows),
                 tuple(sorted(lows & highs)))
        if d == k - 1:
            nodes.append(_Node(needs, (), None, *sides))
            continue
        kids = {}
        for p in ps:
            j = _gap(p[:d], p[d])
            child = _standardize(p[:d + 1])
            # the child's bound a is the parent's a below the new value
            # and the parent's a-1 above it
            kids[j] = (ids[child], tuple(0 if a == j + 1 else pts[a - (a > j)]
                                         for a in points[child]))
        uses = {frozenset(js.index(_gap(p[:d], v)) for v in p[d:])
                for p in ps}
        alive = tuple(tuple(sorted(u)) for u in uses
                      if not any(o < u for o in uses))
        nodes.append(_Node(needs, tuple(map(kids.get, js)), alive, *sides))
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


def _cost(nodes: list[_Node]) -> tuple[int, int]:
    """How far a set's nodes keep prefixes apart: a two-sided point lets no
    match cover another that differs there, and each needed gap keeps its
    points' values referenced."""
    return (sum(len(node.fixed) for node in nodes),
            sum(len(node.needs) for node in nodes))


def _finishable(nodes: list[_Node], match: tuple) -> bool:
    """Whether some completion of the match needs no closed gap, one whose
    two points have no open segment between them."""
    node = nodes[match[0]]
    closed = [match[a] == match[b] for a, b in node.needs]
    return any(not any(closed[i] for i in use) for use in node.alive)


def _covers(node: _Node, o: tuple, m: tuple) -> bool:
    """Whether each gap that match o needs contains the same gap of m, a
    match at its node with the same two-sided points, so that every
    completion of m also completes o."""
    return (all(o[i] <= m[i] for i in node.lows)
            and all(m[i] <= o[i] for i in node.highs))


def _rival_key(nodes: list[_Node], match: tuple) -> tuple:
    """The node and the values of the two-sided points: only matches with
    the same key can cover each other."""
    return (match[0], *[match[i] for i in nodes[match[0]].fixed])


def _moves(nodes: list[_Node], matches: tuple, segments: int) -> list:
    """The children of every state with these matches and this many
    segments: for each segment s, (s, the child's matches, for each child
    segment the parent segments whose weights it sums, the child segments
    that take the lower and the upper part of s, or None where forbidden).
    A child with no open segment left is omitted.  Which parts survive does
    not depend on where in s the new value goes, since both parts start
    nonempty.

    A state's bounds are numbered 0, 2, 4, ..., so the new value in segment
    s is 2s+1 and a segment is named by its lower bound.  Each bound is then
    renumbered by the open segments below it, which contracts a forbidden
    segment and merges the two values around it."""
    top = 2 * segments
    # the kids that each match reaches from each segment
    reach: list[list] = [[] for _ in range(segments)]
    for match in ((0, 0, top), *matches):  # the root matches always
        node = nodes[match[0]]
        for (a, b), kid in zip(node.needs, node.kids):
            if kid is not None:
                for g in range(match[a] >> 1, match[b] >> 1):
                    reach[g].append((match, *kid))
    moves = []
    for s in range(segments):
        new = 2 * s + 1
        allowed = [True, False] * segments
        allowed[new] = True
        grown = set()
        for match, child, recipe in reach[s]:
            refs = (child, *[match[r] if r else new for r in recipe])
            if nodes[child].alive is not None:
                grown.add(refs)
                continue
            # one entry short: the gaps it needs are forbidden
            for a, b in nodes[child].needs:
                allowed[refs[a]:refs[b]] = [False] * (refs[b] - refs[a])
        opens = list(accumulate(allowed, initial=0))
        if not opens[-1]:
            continue
        old = [(m[0], *map(opens.__getitem__, m[1:])) for m in matches]
        grown = {(m[0], *map(opens.__getitem__, m[1:])) for m in grown}
        # When no gap closed, every match can still be finished, and no old
        # match covers another; otherwise all are checked again.
        settled = old
        if opens[-1] < segments + 1:
            settled = []
            grown = [m for m in grown.union(old) if _finishable(nodes, m)]
        # drop a match that another covers
        rivals: dict = {}
        for m in settled:
            rivals.setdefault(_rival_key(nodes, m), []).append(m)
        fresh: dict = {}
        for m in grown:
            fresh.setdefault(_rival_key(nodes, m), []).append(m)
        covered = set()
        kept = []
        for key, ms in fresh.items():
            node = nodes[key[0]]
            olds = rivals.get(key, [])
            ms = [m for m in ms if not any(o is not m and _covers(node, o, m)
                                           for o in chain(olds, ms))]
            covered.update(o for o in olds
                           if any(_covers(node, m, o) for m in ms))
            kept += ms
        kept += (m for m in settled if m not in covered)
        # delete the values no match references, merging their segments
        bounds = sorted({v for m in kept for v in m[1:]} | {0, opens[-1]})
        index = {v: 2 * i for i, v in enumerate(bounds)}
        child_matches = tuple(sorted((m[0], *map(index.__getitem__, m[1:]))
                                     for m in kept))
        opened = list(compress(range(top), allowed))
        groups = tuple(tuple(c >> 1 for c in opened[lo:hi]
                             if not new - 1 <= c <= new)
                       for lo, hi in zip(bounds, bounds[1:]))
        parts = [bisect(bounds, opens[c]) - 1 if allowed[c] else None
                 for c in (new - 1, new)]
        moves.append((s, child_matches, groups, *parts))
    return moves


def _count_generic(n: int, patterns: tuple[tuple[int, ...], ...]) -> int:
    """Count avoiders of an arbitrary pattern list, level by level: the
    number of prefixes reaching each merged state, from length 0 to n-2.
    A state is (weights, matches): the live partial matches, and for each
    segment between the values they reference, the number of gaps of the
    prefix that a new value may still enter there, never 0."""
    k = len(patterns[0])
    if n < k:  # every permutation avoids; this holds n=1, which no level adds
        return factorial(n)
    if k == 1:
        return 0
    nodes = min(map(_match_tables, _images(patterns)), key=_cost)
    level = {((1,), ()): 1}
    total = 0
    for length in range(1, n):
        shapes: dict = {}
        for (weights, matches), ways in level.items():
            shapes.setdefault((matches, len(weights)), []).append(
                (weights, ways))
        level = {}
        for shape, members in shapes.items():
            for s, child, groups, lower, upper in _moves(nodes, *shape):
                if length == n - 1:
                    # each of the w ways to split s keeps the grouped
                    # weights and adds the surviving parts, t and w+1-t
                    parts = (lower is not None) + (upper is not None)
                    for weights, ways in members:
                        w = weights[s]
                        kept = sum(weights[g] for group in groups
                                   for g in group)
                        total += ways * (w * kept + parts * w * (w + 1) // 2)
                    continue
                for weights, ways in members:
                    w = weights[s]
                    base = [sum(weights[g] for g in group) for group in groups]
                    if lower == upper:  # the parts merge back, or both go
                        if lower is not None:
                            base[lower] += w + 1
                        state = (tuple(base), child)
                        level[state] = level.get(state, 0) + ways * w
                        continue
                    for t in range(1, w + 1):  # the value enters gap t
                        split = base.copy()
                        if lower is not None:
                            split[lower] += t
                        if upper is not None:
                            split[upper] += w + 1 - t
                        state = (tuple(split), child)
                        level[state] = level.get(state, 0) + ways
    return total


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
    """|S_n(pattern_set)|, as the product of a union's rank rows or by
    levels of merged partial-match states.  The tests check it against the
    unpruned scan, `_scan_count(n, (patterns,), 1).get((0,), 0)`, and the
    merged count against the generating tree, `_count_exactly`."""
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

    @cache
    def steps(later: int, state) -> list:
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


def occurrence_histogram(n: int, tau: Permutation) -> dict[int, int]:
    """{r: permutations of S_n with exactly r occurrences of tau}, nonzero
    buckets only, by exhaustive unpruned scan (the oracle route)."""
    _check_n(n, False)
    tally = _scan_count(n, ((tau.values,),))
    return {vector[0]: c for vector, c in tally.items()}
