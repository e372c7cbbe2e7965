"""Pattern families built from a common length k.

The central family is T(k,m): every length-k pattern whose first entry is m,
of which there are (k-1)!.  A `PatternSet` is the one description of a
class: a union of T(k,m) over several m (T(k,m) itself is the one-entry
union), M(k,m;tau) = T(k,m) minus tau for "avoid the rest, contain tau
exactly once" counting, or an ad hoc list.  A family set is described by k,
its ms and tau alone and lists its patterns only when they are first read.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import permutations as _permutations
from typing import Iterable, Iterator

# unused here; perfbench/child.py wraps families.count_occurrences
from .core import (Permutation, PatternTrie, _Value, count_occurrences,
                   parse_compact)

__all__ = [
    "PatternSet",
    "build_tkm",
    "build_m",
    "build_union_tkm",
    "adhoc_set",
    "avoids_all",
    "contains_exactly_once",
    "parse_set_expression",
]


class PatternSet(_Value):
    """A finite set of patterns of one common length k, with provenance.

    A set with a `tau` is T(k,m) minus tau, with ms = (m,); one with only
    `ms` is the union of T(k,m) for the m in ms; one with neither is an ad
    hoc list, the only kind that stores its patterns, in `listed`.  `kind`
    names these "mkm", "union" and "adhoc".  `patterns` is the sorted
    member tuple, derived for a family set on first use.
    """

    # no __slots__: the cached properties below keep their values in the
    # instance __dict__
    _fields = ("k", "listed", "ms", "tau")
    k: int
    listed: tuple[Permutation, ...]
    ms: tuple[int, ...]
    tau: Permutation | None

    @property
    def kind(self) -> str:
        return "mkm" if self.tau is not None else "union" if self.ms else "adhoc"

    def __init__(self, k: int, listed: Iterable[Permutation] = (),
                 ms: Iterable[int] = (), tau: Permutation | None = None) -> None:
        pats, ms = tuple(listed), tuple(ms)
        super().__init__(k, pats, ms, tau)
        if self.kind == "adhoc":
            if not pats:
                raise ValueError("ad hoc pattern set must be nonempty")
            if any(len(p) != k for p in pats):
                raise ValueError("all patterns in a set must share one length k")
            if any(a >= b for a, b in zip(pats, pats[1:])):
                raise ValueError("patterns must be distinct and in sorted order")
            return
        if pats:
            raise ValueError("a family set lists no patterns: its k, ms and "
                             "tau describe them")
        if not 2 <= k <= 9:
            raise ValueError(f"k={k} outside 2..9 (patterns are digit strings)")
        if not ms or any(a >= b for a, b in zip((0, *ms), (*ms, k + 1))):
            raise ValueError(f"first entries {list(ms)} must be nonempty and "
                             f"strictly increasing within 1..{k}")
        if tau is not None:
            if len(ms) != 1:
                raise ValueError("an M-type set has exactly one m")
            if len(tau) != k or tau.values[0] != ms[0]:
                raise ValueError(f"tau must lie in T({k},{ms[0]})")

    @cached_property
    def patterns(self) -> tuple[Permutation, ...]:
        if self.kind == "adhoc":
            return self.listed
        return tuple(map(Permutation,
                         _family_patterns(self.k, self.ms, self.tau)))

    @cached_property
    def trie(self) -> PatternTrie:
        """The trie of the members' prefixes, built on first use; a family
        set's from value tuples, building no `Permutation`."""
        if self.kind == "adhoc":
            return PatternTrie(p.values for p in self.listed)
        return PatternTrie(_family_patterns(self.k, self.ms, self.tau))

    @cached_property
    def family_trie(self) -> PatternTrie:
        """The trie of all of T(k,m), tau included, built on first use: the
        exactly-once check of an M(k,m;tau) set walks it."""
        return PatternTrie(_family_patterns(self.k, self.ms))

    def label(self) -> str:
        """The set-expression form, e.g. "Tkm(3,1)" or "M(4,2;2143)".  An ad
        hoc member longer than 9 is written in one-line form, "(1,...,10)"."""
        if self.tau is not None:
            return f"M({self.k},{self.ms[0]};{self.tau.compact()})"
        if len(self.ms) == 1:
            return f"Tkm({self.k},{self.ms[0]})"
        if self.ms:
            return f"U({self.k};{','.join(str(m) for m in self.ms)})"
        return "{" + ",".join(p.compact() if len(p) <= 9 else f"({p})"
                              for p in self.patterns) + "}"


def _family_patterns(k: int, ms: Iterable[int], tau: Permutation | None = None
                     ) -> Iterator[tuple[int, ...]]:
    """The patterns of T(k,m) for each m in ms but tau, as value tuples: in
    increasing order when the ms increase."""
    skip = None if tau is None else tau.values
    for m in ms:
        rest = [v for v in range(1, k + 1) if v != m]
        yield from (p for tail in _permutations(rest)
                    if (p := (m, *tail)) != skip)


def build_tkm(k: int, m: int) -> PatternSet:
    """All (k-1)! patterns of length k starting with m: the one-entry union."""
    return PatternSet(k=k, ms=(m,))


def build_m(k: int, m: int, tau: Permutation) -> PatternSet:
    """T(k,m) with the designated pattern tau removed."""
    return PatternSet(k=k, ms=(m,), tau=tau)


def build_union_tkm(k: int, ms: Iterable[int]) -> PatternSet:
    """Union of the families T(k,m) for m in a strictly increasing list."""
    return PatternSet(k=k, ms=tuple(ms))


def adhoc_set(patterns: Iterable[Permutation]) -> PatternSet:
    """An explicit pattern set; all members must share one length."""
    pats = tuple(sorted(patterns))
    return PatternSet(k=len(pats[0]) if pats else 0, listed=pats)


def avoids_all(p: Permutation, pattern_set: PatternSet) -> bool:
    """True when `p` contains no occurrence of any pattern in the set: one
    walk over the set's prefix trie, with its look-ahead, checks every
    member at once.  The look-ahead of the first slot runs in the pass that
    counts each position's later smaller values, so an avoider of a T(k,m)
    or a union of them is cleared there, before any walk."""
    # a pattern longer than p cannot occur in it, and the trie is not built
    return len(p) < pattern_set.k or not pattern_set.trie.hits(p.values, 1)


def _exactly_once_tau(pattern_set: PatternSet) -> Permutation:
    """The tau of an M(k,m;tau) set; ValueError for any other set."""
    if pattern_set.tau is None:
        raise ValueError(f"{pattern_set.label()} is not an M(k,m;tau) set")
    return pattern_set.tau


def contains_exactly_once(p: Permutation, pattern_set: PatternSet) -> bool:
    """True when `p` is in the class of the M(k,m;tau) set: it avoids every
    member and contains tau exactly once.  That is, `p` holds exactly one
    occurrence of any pattern of T(k,m), and it is one of tau: one walk over
    the trie of T(k,m), which stops at a second occurrence."""
    tau = _exactly_once_tau(pattern_set)
    return pattern_set.family_trie.hits(p.values, 2) == [tau.values]


# re.ASCII: \d would otherwise match any Unicode digit, which int() reads
_TKM_RE = re.compile(r"^Tkm\((\d+),(\d+)\)$", re.ASCII)
_M_RE = re.compile(r"^M\((\d+),(\d+);(\d+)\)$", re.ASCII)
_U_RE = re.compile(r"^U\((\d+);(\d+(?:,\d+)*)\)$", re.ASCII)
_BRACE_RE = re.compile(r"^\{([^{}]*)\}$")


def parse_set_expression(text: str) -> PatternSet:
    """Parse the textual set syntax: "Tkm(4,2)", "M(4,2;2143)", "U(4;1,3)",
    or an explicit brace list "{123,132}"."""
    expr = re.sub(r"\s+", "", text)
    if not expr:
        raise ValueError("empty set expression")
    m = _TKM_RE.match(expr)
    if m:
        return build_tkm(int(m.group(1)), int(m.group(2)))
    m = _M_RE.match(expr)
    if m:
        return build_m(int(m.group(1)), int(m.group(2)), parse_compact(m.group(3)))
    m = _U_RE.match(expr)
    if m:
        ms = [int(tok) for tok in m.group(2).split(",")]
        return build_union_tkm(int(m.group(1)), ms)
    m = _BRACE_RE.match(expr)
    if m:
        body = m.group(1)
        if not body:
            raise ValueError("brace list must not be empty")
        return adhoc_set(parse_compact(tok) for tok in body.split(","))
    raise ValueError(
        f"cannot parse set expression {text!r}; expected Tkm(k,m), "
        "M(k,m;tau), U(k;m1,m2,...), or a brace list like {123,132}")
