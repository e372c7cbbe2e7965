"""Pattern families built from a common length k.

The central family is T(k,m): every length-k pattern whose first entry is m,
of which there are (k-1)!.  A `PatternSet` is the one description of a
class: a union of T(k,m) over several m (T(k,m) itself is the one-entry
union), M(k,m;tau) = T(k,m) minus tau for "avoid the rest, contain tau
exactly once" counting, or an ad hoc list.  Construction checks that its
patterns are exactly what its ms and tau say.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations as _permutations
from math import factorial
from typing import Iterable

from .core import Permutation, count_occurrences, parse_compact

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


@dataclass(frozen=True)
class PatternSet:
    """A finite set of patterns of one common length k, with provenance.

    A set with a `tau` is T(k,m) minus tau, with ms = (m,); one with only
    `ms` is the union of T(k,m) for the m in ms; one with neither is an ad
    hoc list.  `kind` names these "mkm", "union" and "adhoc".
    """

    k: int
    patterns: tuple[Permutation, ...]
    ms: tuple[int, ...] = ()
    tau: Permutation | None = None

    @property
    def kind(self) -> str:
        return "mkm" if self.tau is not None else "union" if self.ms else "adhoc"

    def __post_init__(self) -> None:
        pats = self.patterns
        if any(len(p) != self.k for p in pats):
            raise ValueError("all patterns in a set must share one length k")
        if any(a >= b for a, b in zip(pats, pats[1:])):
            raise ValueError("patterns must be distinct and in sorted order")
        if self.kind == "adhoc":
            return
        k, ms, tau = self.k, self.ms, self.tau
        removed = tau is not None
        _check_ms(k, ms)
        if tau is not None:
            if len(ms) != 1:
                raise ValueError("an M-type set has exactly one m")
            if len(tau) != k or tau.values[0] != ms[0]:
                raise ValueError(f"tau must lie in T({k},{ms[0]})")
            if tau in pats:
                raise ValueError("removed pattern must not be a member")
        # Exactly |ms|*(k-1)! distinct length-k patterns start with an m in
        # ms, so that many distinct members that all do (one fewer, and tau
        # not among them, for M) are the whole union (or T(k,m) minus tau).
        firsts = set(ms)
        if any(p.values[0] not in firsts for p in pats):
            raise ValueError("every pattern must start with an m in ms")
        if len(pats) != len(ms) * factorial(k - 1) - removed:
            raise ValueError("the set must hold every pattern of its families")

    def __len__(self) -> int:
        return len(self.patterns)

    def label(self) -> str:
        """The set-expression form, e.g. "Tkm(3,1)" or "M(4,2;2143)"."""
        if self.tau is not None:
            return f"M({self.k},{self.ms[0]};{self.tau.compact()})"
        if len(self.ms) == 1:
            return f"Tkm({self.k},{self.ms[0]})"
        if self.ms:
            return f"U({self.k};{','.join(str(m) for m in self.ms)})"
        return "{" + ",".join(p.compact() for p in self.patterns) + "}"


def _check_k(k: int) -> None:
    # the builders list all (k-1)! patterns up front, each a digit string
    if not 2 <= k <= 9:
        raise ValueError(f"k={k} outside 2..9 (patterns are digit strings)")


def _check_ms(k: int, ms: tuple[int, ...]) -> None:
    if not ms or any(a >= b for a, b in zip((0, *ms), (*ms, k + 1))):
        raise ValueError(f"first entries {list(ms)} must be nonempty and "
                         f"strictly increasing within 1..{k}")


def _family_patterns(k: int, m: int) -> list[Permutation]:
    rest = [v for v in range(1, k + 1) if v != m]
    return [Permutation((m, *tail)) for tail in _permutations(rest)]


def build_tkm(k: int, m: int) -> PatternSet:
    """All (k-1)! patterns of length k starting with m: the one-entry union."""
    return build_union_tkm(k, (m,))


def build_m(k: int, m: int, tau: Permutation) -> PatternSet:
    """T(k,m) with the designated pattern tau removed."""
    _check_k(k)
    _check_ms(k, (m,))
    pats = tuple(sorted(p for p in _family_patterns(k, m) if p != tau))
    return PatternSet(k=k, patterns=pats, ms=(m,), tau=tau)


def build_union_tkm(k: int, ms: Iterable[int]) -> PatternSet:
    """Union of the families T(k,m) for m in a strictly increasing list."""
    _check_k(k)
    ms = tuple(ms)
    _check_ms(k, ms)
    pats: list[Permutation] = []
    for m in ms:
        pats.extend(_family_patterns(k, m))
    return PatternSet(k=k, patterns=tuple(sorted(pats)), ms=ms)


def adhoc_set(patterns: Iterable[Permutation]) -> PatternSet:
    """An explicit pattern set; all members must share one length."""
    pats = tuple(sorted(patterns))
    if not pats:
        raise ValueError("ad hoc pattern set must be nonempty")
    return PatternSet(k=len(pats[0]), patterns=pats)


def avoids_all(p: Permutation, pattern_set: PatternSet) -> bool:
    """True when `p` contains no occurrence of any pattern in the set."""
    return all(count_occurrences(p, pat, cap=1) == 0 for pat in pattern_set.patterns)


def _exactly_once_tau(pattern_set: PatternSet) -> Permutation:
    """The tau of an M(k,m;tau) set; ValueError for any other set."""
    if pattern_set.tau is None:
        raise ValueError(f"{pattern_set.label()} is not an M(k,m;tau) set")
    return pattern_set.tau


def contains_exactly_once(p: Permutation, pattern_set: PatternSet) -> bool:
    """True when `p` is in the class of the M(k,m;tau) set: it avoids every
    member and contains tau exactly once."""
    tau = _exactly_once_tau(pattern_set)
    if not avoids_all(p, pattern_set):
        return False
    return count_occurrences(p, tau, cap=2) == 1


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
