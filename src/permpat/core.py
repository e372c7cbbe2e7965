"""Core permutation values and pattern-occurrence search.

A permutation is a sequence of the integers 1..n in one-line notation and
doubles as a pattern.  An occurrence of a pattern inside a host permutation
is a strictly increasing tuple of positions whose values appear in the same
relative order as the pattern's entries.

Two iterative depth-first subsequence walks do all the searching.
`_occurrences` finds the occurrences of one pattern, and their positions,
for counting and listing.  It prunes twice: by remaining length (not enough
host positions left), and by a value window (the next matched host value
must fall strictly between the tightest already matched values below and
above the pattern entry being matched).  `PatternTrie.hits` counts the
occurrences of every pattern of a set at once, up to a cap, in one walk
over the trie of the set's pattern prefixes, so a prefix that several
patterns share is searched once; each leaf holds its pattern, so the walk
also says which patterns it met.  Besides the window, it looks ahead: a
host position is tried for a pattern entry only when enough later host
values lie below and above it for the entries that pattern still needs.
Those counts come from one backward pass over the host, which also tests
the first slot's look-ahead as it goes, so a host with no position that
can start an occurrence, such as every avoider of a T(k,m), is settled
without a walk.
"""

from __future__ import annotations

from bisect import bisect, insort
from functools import total_ordering
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Permutation",
    "count_occurrences",
    "iter_occurrences",
    "parse_permutation",
    "parse_compact",
]

_HUGE = 1 << 60


class _Value:
    """Value plumbing for the package's record classes, in place of a frozen
    dataclass: equality and a hash over the fields named in `_fields`, in
    order, a `Name(field=value, ...)` repr, pickling and copying through the
    constructor, and no assignment once `__init__` has set the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Permutation(_Value):
    """A permutation of {1,...,n} in one-line notation; immutable, hashable,
    ordered lexicographically by its value sequence."""

    __slots__ = _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(values)
        n = len(values)
        if n == 0:
            raise ValueError("a permutation must have at least one entry")
        seen = [False] * (n + 1)
        for v in values:
            if type(v) is not int:
                raise ValueError(f"entries must be plain integers, got {v!r}")
            if v < 1 or v > n:
                raise ValueError(f"entry {v} is outside 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate entry {v}")
            seen[v] = True
        # set here, not through _Value.__init__: a listing builds one
        # Permutation per member
        object.__setattr__(self, "values", values)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values < other.values

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return ",".join(map(str, self.values))

    def compact(self) -> str:
        """Digit-string form like "2143"; defined only for n <= 9."""
        if len(self.values) > 9:
            raise ValueError("compact form is only defined for n <= 9")
        return "".join(map(str, self.values))


def _is_ascii_digits(token: str) -> bool:
    """True when every character is one of 0-9 (str.isdigit() also takes
    other scripts' digits and superscripts)."""
    return all("0" <= ch <= "9" for ch in token)


def parse_permutation(text: str) -> Permutation:
    """Parse comma- or space-separated one-line notation, e.g. "2,1,3"."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    # int() also reads signs, underscores and non-ASCII digits
    if not all(_is_ascii_digits(tok) for tok in tokens):
        raise ValueError(f"not an integer sequence: {text!r}")
    return Permutation(int(tok) for tok in tokens)


def parse_compact(text: str) -> Permutation:
    """Parse digit-string notation like "2143" (entries 1..9 only)."""
    token = text.strip()
    if not token:
        raise ValueError("empty pattern token")
    if not _is_ascii_digits(token):
        raise ValueError(f"not a digit-string pattern: {text!r}")
    if "0" in token:
        raise ValueError(f"digit-string patterns use digits 1..9: {text!r}")
    return Permutation(int(ch) for ch in token)


def _window_refs(pattern: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each pattern slot j, the earlier slot holding the tightest lower
    (resp. upper) value bound, or -1 when unbounded on that side."""
    lower: list[int] = []
    upper: list[int] = []
    for j in range(len(pattern)):
        lo = -1
        hi = -1
        for i in range(j):
            if pattern[i] < pattern[j]:
                if lo < 0 or pattern[i] > pattern[lo]:
                    lo = i
            else:
                if hi < 0 or pattern[i] < pattern[hi]:
                    hi = i
        lower.append(lo)
        upper.append(hi)
    return tuple(lower), tuple(upper)


def _occurrences(host: Sequence[int], lower: Sequence[int], upper: Sequence[int],
                 chosen: list[int], first: int) -> Iterator[list[int]]:
    """The one occurrence walk: yield the 1-based host positions of each
    occurrence of pattern slots `first`.. (window refs `lower`/`upper` from
    `_window_refs`) in lexicographic order, given the values already matched
    in chosen[:first].  The yielded list is the walker's own and changes
    after the consumer resumes it; only its slots `first`.. are meaningful.

    Each slot below the last keeps one resumable scan over the host
    positions that leave room for the slots after it; the last slot is
    scanned in one loop that yields every match.
    """
    n = len(host)
    last = len(lower) - 1
    pos = [0] * (last + 1)
    scans: list = [None] * last
    if first < last:
        scans[first] = iter(range(n - last + first))
    j = first
    while j >= first:
        li = lower[j]
        ui = upper[j]
        lo = chosen[li] if li >= 0 else 0
        hi = chosen[ui] if ui >= 0 else _HUGE
        if j == last:
            for p in range(pos[j - 1] if j > first else 0, n):
                v = host[p]
                if lo < v < hi:
                    pos[j] = p + 1
                    yield pos
            j -= 1
            continue
        for p in scans[j]:
            v = host[p]
            if lo < v < hi:
                chosen[j] = v
                pos[j] = p + 1
                j += 1
                if j < last:
                    scans[j] = iter(range(p + 1, n - last + j))
                break
        else:
            j -= 1


def _count_up_to(walk: Iterator, cap: int | None) -> int:
    """The number of items of `walk`, stopping at `cap` when one is given."""
    if cap is not None and cap < 1:
        raise ValueError("cap must be a positive integer")
    count = 0
    for _ in walk:
        count += 1
        if count == cap:
            break
    return count


def count_occurrences(host: Permutation, pattern: Permutation,
                      cap: int | None = None) -> int:
    """Number of occurrences of `pattern` in `host`; with `cap`, counting
    stops early and the result is min(true count, cap)."""
    pv = pattern.values
    lower, upper = _window_refs(pv)
    walk = _occurrences(host.values, lower, upper, [0] * len(pv), 0)
    return _count_up_to(walk, cap)


def iter_occurrences(host: Permutation, pattern: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield 1-based occurrence index tuples in lexicographic order."""
    pv = pattern.values
    lower, upper = _window_refs(pv)
    return map(tuple, _occurrences(host.values, lower, upper, [0] * len(pv), 0))


# No code in the package uses it; the tests' generating tree does, and
# perfbench/child.py wraps core.PinnedPattern.count_ending_at by name.
class PinnedPattern:
    """Occurrence search for one pattern with the last slot pinned to a fixed
    host value sitting just past the end of a prefix.

    This is the incremental containment check used by prefix-extension
    backtracking: every occurrence created by appending a value must use the
    appended value as the pattern's final entry.
    """

    __slots__ = ("length", "lower", "upper")

    def __init__(self, pattern_values: Sequence[int]):
        pv = tuple(pattern_values)
        self.length = len(pv)
        # The pinned value is matched before the prefix slots, so the window
        # refs are those of the pattern rotated to put its last entry first.
        self.lower, self.upper = _window_refs(pv[-1:] + pv[:-1])

    def count_ending_at(self, prefix: Sequence[int], value: int, cap: int) -> int:
        """Occurrences, up to `cap` (at least 1), whose last entry is `value`
        appended after `prefix` (a sequence of distinct values)."""
        m = self.length
        # Slot 0 holds the pinned value; the walk overwrites slots 1.. before
        # any window ref reads them.  A length-1 pattern has one occurrence,
        # the pinned value alone.
        walk = (_occurrences(prefix, self.lower, self.upper, [value] * m, 1)
                if m > 1 else iter(((value,),)))
        return _count_up_to(walk, cap)


class PatternTrie:
    """Occurrence counting for a set of patterns of one length k, each a
    permutation of 1..k, walked over the trie of their prefixes.

    A node at depth j stands for one distinct prefix of j slots, up to
    order, and is a list of j+1 entries.  Entry g is None, or
    `(child, pairs)` when some pattern's next slot lies above exactly g of
    the prefix's values (its gap, which fixes the same window as that
    slot's window refs).  Patterns whose first j slots have the same
    relative order share their first j nodes, so a host value enters at
    most one entry, found by bisecting the values matched so far.  At the
    last slot each entry is a leaf for one pattern, and its child slot
    holds that pattern as a tuple.

    `pairs` is the look-ahead of Albert, Aldred, Atkinson & Holton
    ("Algorithms for pattern involvement in permutations", ISAAC 2001):
    for each pattern under the entry, how many of its later slots lie below
    and how many above the slot the entry matches, as `(below, above)`.
    Every such pattern has the same k-1-j later slots, so no pair needs
    less than another on both sides, and the distinct pairs are the
    minimal ones.  A host position can match the slot only if its later
    host values meet some pair.  At the last slot the only pair is
    (0, 0), stored as `()`.
    """

    __slots__ = ("length", "root")

    def __init__(self, patterns: Iterable[Sequence[int]]):
        self.root: list = [None]
        self.length = 0
        for pattern in patterns:
            pattern = tuple(pattern)
            self.length = len(pattern)
            last = self.length - 1
            node = self.root
            prefix: list[int] = []  # the values of pattern[:j], sorted
            for j, v in enumerate(pattern):
                gap = bisect(prefix, v)
                prefix.insert(gap, v)
                # of the v-1 smaller values, gap come before slot j
                below = v - 1 - gap
                pair = (below, last - j - below)
                entry = node[gap]
                if entry is None:
                    child = [None] * (j + 2) if j < last else pattern
                    node[gap] = (child, (pair,) if j < last else ())
                else:
                    child, pairs = entry
                    if pairs and pair not in pairs:
                        node[gap] = (child, pairs + (pair,))
                node = child

    def hits(self, host: Sequence[int], cap: int) -> list[tuple[int, ...]]:
        """The patterns of the first `cap` (at least 1) occurrences in
        `host` of any pattern of the set, one per occurrence, in the walk's
        order; fewer when the host has fewer.  So `not hits(host, 1)` says
        the host avoids the whole set.

        One backward pass over the host finds each position's count of
        later smaller host values (its Lehmer digit; the later larger ones
        are the rest) and, as it goes, tests the root entry's pairs there.
        The walk starts only from the positions that pass, in increasing
        order, and none passes in a host that avoids a T(k,m) or a union of
        them.  Below the root, like `_occurrences`, each depth keeps one
        resumable scan over the host positions that leave room for the
        slots after it, and a position enters an entry only when its counts
        meet one of the entry's pairs; at the last slot the scan goes on
        past a match to count the next."""
        n = len(host)
        last = self.length - 1
        root = self.root[0]
        if root is None or last >= n:  # an empty trie, or a host too short
            return []
        top, pairs = root
        if not last:  # k = 1: each host position is one occurrence
            return [top] * min(cap, n)
        smaller = [0] * n
        seen: list[int] = []
        starts: list[int] = []
        for p in range(n - 1, -1, -1):
            v = host[p]
            smaller[p] = below = bisect(seen, v)
            seen.insert(below, v)
            above = n - 1 - p - below
            for b, a in pairs:
                if below >= b and above >= a:
                    starts.append(p)
                    break
        if not starts:
            return []
        found: list[tuple[int, ...]] = []
        chosen = [0] * last
        nodes: list = [None] * (last + 1)
        scans: list = [None] * (last + 1)
        for start in reversed(starts):
            chosen[0] = v = host[start]
            matched = [v]  # the values of chosen[:j], sorted
            nodes[1] = top
            scans[1] = iter(range(start + 1, n - last + 1))
            j = 1
            while j:
                node = nodes[j]
                for p in scans[j]:
                    entry = node[bisect(matched, host[p])]
                    if entry is None:
                        continue
                    child, pairs = entry
                    if not pairs:  # a leaf: child is its pattern
                        found.append(child)
                        if len(found) == cap:
                            return found
                        continue
                    below = smaller[p]
                    above = n - 1 - p - below
                    for b, a in pairs:
                        if below >= b and above >= a:
                            break
                    else:
                        continue  # no pattern under the entry fits after p
                    break
                else:
                    j -= 1
                    matched.remove(chosen[j])
                    continue
                v = host[p]
                insort(matched, v)
                chosen[j] = v
                j += 1
                nodes[j] = child
                scans[j] = iter(range(p + 1, n - last + j))
        return found
