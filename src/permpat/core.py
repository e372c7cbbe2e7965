"""Core permutation values and pattern-occurrence search.

A permutation is a sequence of the integers 1..n in one-line notation and
doubles as a pattern.  An occurrence of a pattern inside a host permutation
is a strictly increasing tuple of positions whose values appear in the same
relative order as the pattern's entries.

Occurrence search is a depth-first subsequence walk with two prunings:
remaining-length (not enough host positions left), and a value window (the
next matched host value must fall strictly between the tightest already
matched values below and above the pattern entry being matched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Permutation",
    "OccurrenceList",
    "make_permutation",
    "flatten",
    "complement",
    "reverse",
    "count_occurrences",
    "find_occurrences",
    "iter_occurrences",
    "parse_permutation",
    "parse_compact",
]

_HUGE = 1 << 60


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {1,...,n} in one-line notation; immutable, hashable,
    ordered lexicographically by its value sequence."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = self.values
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

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, index: int) -> int:
        return self.values[index]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def compact(self) -> str:
        """Digit-string form like "2143"; defined only for n <= 9."""
        if len(self.values) > 9:
            raise ValueError("compact form is only defined for n <= 9")
        return "".join(str(v) for v in self.values)


@dataclass(frozen=True)
class OccurrenceList:
    """Occurrences of `pattern` in a host of length `host_length`: 1-based
    index tuples in lexicographic order.  `truncated` is set when a listing
    limit cut the enumeration short."""

    pattern: Permutation
    host_length: int
    positions: tuple[tuple[int, ...], ...]
    truncated: bool

    def __post_init__(self) -> None:
        m = len(self.pattern)
        for pos in self.positions:
            if len(pos) != m:
                raise ValueError("index tuple length must equal pattern length")
            if any(not 1 <= p <= self.host_length for p in pos):
                raise ValueError("index out of host range")
            if any(a >= b for a, b in zip(pos, pos[1:])):
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.positions)


def make_permutation(values: Iterable[int]) -> Permutation:
    """Validate and build a permutation from any iterable of values."""
    return Permutation(tuple(values))


def flatten(word: Iterable[int]) -> Permutation:
    """The unique permutation order-isomorphic to a distinct-entry word: the
    entry ranked r among the word's values becomes r.

    flatten((5, 2, 9)) == [2, 1, 3]; flattening a permutation returns it
    unchanged.
    """
    entries = tuple(word)
    if not entries:
        raise ValueError("cannot flatten an empty word")
    rank = {v: r for r, v in enumerate(sorted(entries), start=1)}
    if len(rank) != len(entries):
        raise ValueError("word entries must be distinct")
    return Permutation(tuple(rank[v] for v in entries))


def complement(p: Permutation) -> Permutation:
    """Replace each entry v by n+1-v, in place positionally."""
    n = len(p)
    return Permutation(tuple(n + 1 - v for v in p.values))


def reverse(p: Permutation) -> Permutation:
    """Reverse the positions, keeping the values."""
    return Permutation(tuple(p.values[::-1]))


def parse_permutation(text: str) -> Permutation:
    """Parse comma- or space-separated one-line notation, e.g. "2,1,3"."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"not an integer sequence: {text!r}") from None
    return make_permutation(values)


def parse_compact(text: str) -> Permutation:
    """Parse digit-string notation like "2143" (entries 1..9 only)."""
    token = text.strip()
    if not token:
        raise ValueError("empty pattern token")
    if not token.isdigit():
        raise ValueError(f"not a digit-string pattern: {text!r}")
    if "0" in token:
        raise ValueError(f"digit-string patterns use digits 1..9: {text!r}")
    return make_permutation(int(ch) for ch in token)


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


def _count_dfs(host: Sequence[int], lower: Sequence[int], upper: Sequence[int],
               chosen: list[int], first: int, cap: int | None) -> int:
    """The counting window DFS: occurrences in `host` of pattern slots
    `first`.. (window refs `lower`/`upper` from `_window_refs`), given the
    values already matched in chosen[:first].  With `cap`, counting stops
    early and the result is min(true count, cap)."""
    n = len(host)
    last = len(lower) - 1
    count = 0

    def walk(j: int, start: int) -> bool:
        nonlocal count
        li = lower[j]
        ui = upper[j]
        lo = chosen[li] if li >= 0 else 0
        hi = chosen[ui] if ui >= 0 else _HUGE
        for p in range(start, n - last + j):
            v = host[p]
            if lo < v < hi:
                if j == last:
                    count += 1
                    if count == cap:
                        return True
                else:
                    chosen[j] = v
                    if walk(j + 1, p + 1):
                        return True
        return False

    walk(first, 0)
    return count


def count_occurrences(host: Permutation, pattern: Permutation,
                      cap: int | None = None) -> int:
    """Number of occurrences of `pattern` in `host`; with `cap`, counting
    stops early and the result is min(true count, cap)."""
    if cap is not None and cap < 1:
        raise ValueError("cap must be a positive integer")
    pv = pattern.values
    lower, upper = _window_refs(pv)
    return _count_dfs(host.values, lower, upper, [0] * len(pv), 0, cap)


def iter_occurrences(host: Permutation, pattern: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield 1-based occurrence index tuples in lexicographic order."""
    hv = host.values
    pv = pattern.values
    m = len(pv)
    n = len(hv)
    if m > n:
        return
    lower, upper = _window_refs(pv)
    chosen_val = [0] * m
    chosen_pos = [0] * m
    last = m - 1

    def walk(j: int, start: int) -> Iterator[tuple[int, ...]]:
        li = lower[j]
        ui = upper[j]
        lo = chosen_val[li] if li >= 0 else 0
        hi = chosen_val[ui] if ui >= 0 else _HUGE
        for p in range(start, n - m + j + 1):
            v = hv[p]
            if lo < v < hi:
                chosen_val[j] = v
                chosen_pos[j] = p + 1
                if j == last:
                    yield tuple(chosen_pos)
                else:
                    yield from walk(j + 1, p + 1)

    yield from walk(0, 0)


def find_occurrences(host: Permutation, pattern: Permutation,
                     limit: int) -> OccurrenceList:
    """List up to `limit` occurrences in lexicographic index order;
    truncated=True exactly when more occurrences exist beyond the limit."""
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    positions: list[tuple[int, ...]] = []
    truncated = False
    for pos in iter_occurrences(host, pattern):
        if len(positions) == limit:
            truncated = True
            break
        positions.append(pos)
    return OccurrenceList(pattern=pattern, host_length=len(host),
                          positions=tuple(positions), truncated=truncated)


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
        """Occurrences, up to `cap`, whose last entry is `value` appended
        after `prefix` (a sequence of distinct values)."""
        m = self.length
        if m == 1:
            return 1
        # Slot 0 holds the pinned value; the walk overwrites slots 1.. before
        # any window ref reads them.
        return _count_dfs(prefix, self.lower, self.upper, [value] * m, 1, cap)
