"""Core permutation values and pattern-occurrence search.

A permutation is a sequence of the integers 1..n in one-line notation and
doubles as a pattern.  An occurrence of a pattern inside a host permutation
is a strictly increasing tuple of positions whose values appear in the same
relative order as the pattern's entries.

Occurrence search is one iterative depth-first subsequence walk,
`_occurrences`, shared by counting and listing.  It prunes twice: by
remaining length (not enough host positions left), and by a value window
(the next matched host value must fall strictly between the tightest
already matched values below and above the pattern entry being matched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Permutation",
    "complement",
    "reverse",
    "count_occurrences",
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

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def compact(self) -> str:
        """Digit-string form like "2143"; defined only for n <= 9."""
        if len(self.values) > 9:
            raise ValueError("compact form is only defined for n <= 9")
        return "".join(str(v) for v in self.values)


def complement(p: Permutation) -> Permutation:
    """Replace each entry v by n+1-v, in place positionally."""
    n = len(p)
    return Permutation(tuple(n + 1 - v for v in p.values))


def reverse(p: Permutation) -> Permutation:
    """Reverse the positions, keeping the values."""
    return Permutation(tuple(p.values[::-1]))


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
    return Permutation(tuple(int(tok) for tok in tokens))


def parse_compact(text: str) -> Permutation:
    """Parse digit-string notation like "2143" (entries 1..9 only)."""
    token = text.strip()
    if not token:
        raise ValueError("empty pattern token")
    if not _is_ascii_digits(token):
        raise ValueError(f"not a digit-string pattern: {text!r}")
    if "0" in token:
        raise ValueError(f"digit-string patterns use digits 1..9: {text!r}")
    return Permutation(tuple(int(ch) for ch in token))


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
