"""Pattern families built from a common length k.

The central family is T(k,m): every length-k pattern whose first entry is m,
of which there are (k-1)!.  Deleting one designated pattern tau from T(k,m)
gives the M-type set used for "avoid the rest, contain tau exactly once"
counting, and unions of T(k,m) over several m cover the interval/union
counting results.
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

    kind is one of "tkm", "mkm", "union", "adhoc".  For "tkm" and "union",
    `ms` holds the first-entry values; for "mkm", `tau` is the removed
    pattern (and ms the single first-entry value both share).
    """

    k: int
    patterns: tuple[Permutation, ...]
    kind: str
    ms: tuple[int, ...] = ()
    tau: Permutation | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("tkm", "mkm", "union", "adhoc"):
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        for p in self.patterns:
            if len(p) != self.k:
                raise ValueError("all patterns in a set must have length k")
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("patterns must be pairwise distinct")
        if tuple(sorted(self.patterns)) != self.patterns:
            raise ValueError("patterns must be stored in sorted order")
        if self.kind == "tkm":
            (m,) = self.ms
            if len(self.patterns) != factorial(self.k - 1):
                raise ValueError("T(k,m) must contain exactly (k-1)! patterns")
            if any(p.values[0] != m for p in self.patterns):
                raise ValueError("T(k,m) patterns must all start with m")
        elif self.kind == "mkm":
            if self.tau is None:
                raise ValueError("M-type set needs its removed pattern")
            (m,) = self.ms
            if len(self.patterns) != factorial(self.k - 1) - 1:
                raise ValueError("M-type set must contain (k-1)!-1 patterns")
            if self.tau in self.patterns:
                raise ValueError("removed pattern must not be a member")
        elif self.kind == "union":
            if not self.ms or list(self.ms) != sorted(set(self.ms)):
                raise ValueError("union needs strictly increasing first entries")

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def label(self) -> str:
        """The set-expression form, e.g. "Tkm(3,1)" or "M(4,2;2143)"."""
        if self.kind == "tkm":
            return f"Tkm({self.k},{self.ms[0]})"
        if self.kind == "mkm":
            assert self.tau is not None
            return f"M({self.k},{self.ms[0]};{self.tau.compact()})"
        if self.kind == "union":
            return f"U({self.k};{','.join(str(m) for m in self.ms)})"
        return "{" + ",".join(p.compact() for p in self.patterns) + "}"


def _check_k(k: int) -> None:
    # the builders list all (k-1)! patterns up front, each a digit string
    if not 2 <= k <= 9:
        raise ValueError(f"k={k} outside 2..9 (patterns are digit strings)")


def _family_patterns(k: int, m: int) -> list[Permutation]:
    rest = [v for v in range(1, k + 1) if v != m]
    return [Permutation((m, *tail)) for tail in _permutations(rest)]


def build_tkm(k: int, m: int) -> PatternSet:
    """All (k-1)! patterns of length k starting with m."""
    _check_k(k)
    if not 1 <= m <= k:
        raise ValueError(f"m={m} outside 1..{k}")
    pats = tuple(sorted(_family_patterns(k, m)))
    return PatternSet(k=k, patterns=pats, kind="tkm", ms=(m,))


def build_m(k: int, m: int, tau: Permutation) -> PatternSet:
    """T(k,m) with the designated pattern tau removed."""
    _check_k(k)
    if not 1 <= m <= k:
        raise ValueError(f"m={m} outside 1..{k}")
    if len(tau) != k or tau.values[0] != m:
        raise ValueError(f"tau must lie in T({k},{m})")
    pats = tuple(sorted(p for p in _family_patterns(k, m) if p != tau))
    return PatternSet(k=k, patterns=pats, kind="mkm", ms=(m,), tau=tau)


def build_union_tkm(k: int, ms: Iterable[int]) -> PatternSet:
    """Union of the families T(k,m) for m in a strictly increasing list."""
    _check_k(k)
    ms = tuple(ms)
    if not ms:
        raise ValueError("union needs at least one first-entry value")
    if list(ms) != sorted(set(ms)):
        raise ValueError("first-entry values must be strictly increasing")
    if ms[0] < 1 or ms[-1] > k:
        raise ValueError(f"first-entry values outside 1..{k}")
    pats: list[Permutation] = []
    for m in ms:
        pats.extend(_family_patterns(k, m))
    return PatternSet(k=k, patterns=tuple(sorted(pats)), kind="union", ms=ms)


def adhoc_set(patterns: Iterable[Permutation]) -> PatternSet:
    """An explicit pattern set; all members must share one length."""
    pats = tuple(sorted(patterns))
    if not pats:
        raise ValueError("ad hoc pattern set must be nonempty")
    k = len(pats[0])
    if any(len(p) != k for p in pats):
        raise ValueError("mixed-length pattern sets are not supported")
    if len(set(pats)) != len(pats):
        raise ValueError("duplicate pattern in set")
    return PatternSet(k=k, patterns=pats, kind="adhoc")


def avoids_all(p: Permutation, pattern_set: PatternSet) -> bool:
    """True when `p` contains no occurrence of any pattern in the set."""
    return all(count_occurrences(p, pat, cap=1) == 0 for pat in pattern_set.patterns)


def contains_exactly_once(p: Permutation, tau: Permutation,
                          avoid: PatternSet) -> bool:
    """True when `p` avoids every pattern in `avoid` and contains `tau`
    exactly once.  `avoid` must be the M-type set belonging to tau, or an
    ad hoc set."""
    if avoid.kind == "mkm":
        if avoid.tau != tau:
            raise ValueError("avoid set was built for a different tau")
    elif avoid.kind != "adhoc":
        raise ValueError("avoid set must be M-type or ad hoc")
    if not avoids_all(p, avoid):
        return False
    return count_occurrences(p, tau, cap=2) == 1


_TKM_RE = re.compile(r"^Tkm\((\d+),(\d+)\)$")
_M_RE = re.compile(r"^M\((\d+),(\d+);(\d+)\)$")
_U_RE = re.compile(r"^U\((\d+);(\d+(?:,\d+)*)\)$")
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
