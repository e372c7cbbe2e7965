"""Workload pools, reference values and output checks for the benchmark.

Every reference value here comes from the benchmark's own arithmetic or from
published sequences, never from the package under test, so a bug in a
package route cannot also hide in the check.  The enumerate-stream digests
are the exception: they were recorded once from the package's output at the
commit that introduced this benchmark, and guard the exact listing on top of
the independent length, order and permutation checks.
"""

from __future__ import annotations

import hashlib
import random
from math import comb

# ---------------------------------------------------------------------------
# Reference counts
# ---------------------------------------------------------------------------

# OEIS sequences for the three Wilf classes of single length-4 patterns,
# indexed by n = 1..10.
OEIS = {
    "A005802": (1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590),
    "A022558": (1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662),
    "A061552": (1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950),
}
_WILF_REPRESENTATIVES = {
    "A005802": ("1234", "1243", "1432", "2143"),
    "A022558": ("1342", "2413"),
    "A061552": ("1324",),
}


def _symmetries(p: str) -> set[str]:
    """The orbit of a pattern under reverse, complement and inverse."""
    k = len(p)
    orbit = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        vals = [int(c) for c in q]
        inv = [0] * k
        for i, v in enumerate(vals):
            inv[v - 1] = i + 1
        for image in (vals[::-1], [k + 1 - v for v in vals], inv):
            s = "".join(map(str, image))
            if s not in orbit:
                orbit.add(s)
                frontier.append(s)
    return orbit


def wilf_classes() -> dict[str, list[str]]:
    """OEIS id -> sorted list of the length-4 patterns it counts."""
    return {
        seq: sorted(set().union(*(_symmetries(r) for r in reps)))
        for seq, reps in _WILF_REPRESENTATIVES.items()
    }


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def simion_schmidt_pair(pair: tuple[str, str], n: int) -> int:
    """|S_n(p, q)| for two distinct length-3 patterns (Simion and Schmidt,
    1985): zero from n=5 on for {123,321}, C(n,2)+1 for the four pairs
    below, and 2^(n-1) for the remaining ten."""
    key = frozenset(pair)
    if key == {"123", "321"}:
        raise ValueError("{123,321} is empty from n=5 on and is not pooled")
    if key in ({"132", "321"}, {"123", "231"}, {"123", "312"}, {"213", "321"}):
        return comb(n, 2) + 1
    return 2 ** (n - 1)


def lehmer_family_count(n: int, k: int, ms: tuple[int, ...]) -> int:
    """|S_n| avoiding the union of T(k,m) over ms, as a product over Lehmer
    code digits: an entry with L later entries, c of them smaller, starts an
    occurrence of some member of T(k,m) exactly when c >= m-1 and
    L-c >= k-m, and the digits are independent."""
    total = 1
    for later in range(n):
        total *= sum(1 for c in range(later + 1)
                     if not any(c >= m - 1 and later - c >= k - m for m in ms))
    return total


def exactly_once_count(n: int, k: int, m: int) -> int:
    """|S_n(T(k,m); tau)| from the paper's theorems 3 and 4."""
    if m in (1, k):
        return (n + 1 - k) * (k - 1) ** (n - k)
    return (k - 1) ** (n - k)


def expected_adhoc_count(patterns: tuple[str, ...], n: int) -> int:
    """Reference count for the ad hoc sets the count-adhoc pool holds."""
    if len(patterns) == 1 and len(patterns[0]) == 3:
        return catalan(n)
    if len(patterns) == 2 and all(len(p) == 3 for p in patterns):
        return simion_schmidt_pair(patterns, n)
    if len(patterns) == 1 and len(patterns[0]) == 4:
        for seq, members in wilf_classes().items():
            if patterns[0] in members:
                return OEIS[seq][n - 1]
    raise ValueError(f"no reference count for {patterns} at n={n}")


# ---------------------------------------------------------------------------
# Pools and seeded draws
# ---------------------------------------------------------------------------

# Each count-adhoc slot holds a pattern set and its complement (every value
# v replaced by n+1-v).  Complementing maps the walker's search onto the
# other member's step for step, so both members cost the same and the seed
# changes the inputs but not the work.  There is one length-4 slot per Wilf
# class; the length-3 pair {132,312} is its own complement.
ADHOC_SLOTS = [
    [(("1234",), 9), (("4321",), 9)],
    [(("1342",), 9), (("4213",), 9)],
    [(("1324",), 9), (("4231",), 9)],
    [(("132",), 10), (("312",), 10)],
    [(("132", "312"), 10)],
]


def draw_adhoc_queries(seed: int) -> list[tuple[tuple[str, ...], int]]:
    """One round of count-adhoc: one (patterns, n) query from each slot, in
    slot order; the seed picks the members."""
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in ADHOC_SLOTS]


# Each slot holds a set expression and its complement (every value v
# replaced by n+1-v).  Complementing maps the search tree of one onto the
# other, so both members of a slot cost the same, and the seed changes the
# listing but not the work.
ENUMERATE_POOL = {
    "family": [("Tkm(4,2)", 10), ("Tkm(4,3)", 10)],
    "union": [("U(4;1,2)", 11), ("U(4;3,4)", 11)],
    "adhoc": [("{1324}", 8), ("{4231}", 8)],
    "exactly_once": [("M(4,2;2143)", 11), ("M(4,3;3412)", 11)],
}


def draw_enumerate_queries(seed: int) -> list[tuple[str, int]]:
    """One round of enumerate-stream: one set expression from each pool
    slot; the seed picks the members."""
    rng = random.Random(seed)
    return [rng.choice(ENUMERATE_POOL[slot]) for slot in sorted(ENUMERATE_POOL)]


def expected_stream_length(expr: str, n: int) -> int:
    if expr.startswith("Tkm("):
        k, m = (int(t) for t in expr[4:-1].split(","))
        return lehmer_family_count(n, k, (m,))
    if expr.startswith("U("):
        k, ms = expr[2:-1].split(";")
        return lehmer_family_count(n, int(k), tuple(int(t) for t in ms.split(",")))
    if expr.startswith("M("):
        k, m = (int(t) for t in expr[2:-1].split(";")[0].split(","))
        return exactly_once_count(n, k, m)
    if expr.startswith("{"):
        return expected_adhoc_count(tuple(expr[1:-1].split(",")), n)
    raise ValueError(f"no reference length for {expr}")


# sha256 of the complete stdout of `permpat enumerate --set EXPR -n N`.
STREAM_DIGESTS: dict[tuple[str, int], str] = {
    ("{1324}", 8): "9a4db1076719999ced76666777134995251ab281811e27623aae7460555fad89",
    ("{4231}", 8): "34881b1422bb905cebc3c36b60227d3fbe939bc55103eb55f5b74060ddaccbfe",
    ("M(4,2;2143)", 11): "ab25e87105fb62012125d75d13853f1054e29c1357efb60137d4cfa47e249783",
    ("M(4,3;3412)", 11): "1e7e85b315d607f7491a7db71384129abb45fa1003895d2ca93d1526568b0687",
    ("Tkm(4,2)", 10): "00a31f05113d7b52923af8147c7a7b99ee383e87beb4cb9b0f3d200fb32243be",
    ("Tkm(4,3)", 10): "4838914a46f57ef68208cbd9b0a9299f0555f0f10b5043d34ca98082f4b7ae7c",
    ("U(4;1,2)", 11): "e933dc1fae86fdc6e850b0a6684844943fde4610d3b735da22a3e550872c3ee3",
    ("U(4;3,4)", 11): "18fcf73daacc6f0e9409f7813256d9137ba48979f70ecd29161a3377cd2fbbf5",
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns the problems it found; none is a pass.
# ---------------------------------------------------------------------------

def check_count(patterns: tuple[str, ...], n: int, value: int | None) -> list[str]:
    if value is None:
        return [f"no count printed for {patterns} n={n}"]
    want = expected_adhoc_count(patterns, n)
    if value != want:
        return [f"count for {patterns} n={n} is {value}, reference {want}"]
    return []


def check_stream(data: bytes, n: int, length: int, digest: str) -> list[str]:
    """Check an enumerate listing: `length` lines, each a permutation of
    1..n, strictly increasing in lexicographic order, with the given sha256
    over the whole output."""
    problems = []
    lines = data.split(b"\n")
    if lines[-1] != b"":
        problems.append("output does not end with a newline")
    lines = lines[:-1]
    if len(lines) != length:
        problems.append(f"{len(lines)} lines, expected {length}")
    identity = list(range(1, n + 1))
    previous: list[int] | None = None
    for number, line in enumerate(lines, 1):
        try:
            values = [int(tok) for tok in line.split(b",")]
        except ValueError:
            problems.append(f"line {number} is not a comma-separated list")
            break
        if sorted(values) != identity:
            problems.append(f"line {number} is not a permutation of 1..{n}")
            break
        if previous is not None and values <= previous:
            problems.append(f"line {number} does not follow line {number - 1} "
                            "in lexicographic order")
            break
        previous = values
    if hashlib.sha256(data).hexdigest() != digest:
        problems.append("sha256 of the listing differs from the recorded digest")
    return problems


VERIFY_RECORDS = 561
VERIFY_NON_ADVISORY = 480
ADVISORY_CLAIMS = frozenset({"corollary2_onset"})
# The one expected miss: an advisory probe finding, not a failure.
EXPECTED_MISS = ("corollary2_onset", {"k": 4, "ms": "1,4", "n": 5})


def check_verify_report(records: list[dict] | None) -> tuple[int, list[str]]:
    """Check a `verify --claims all --n-max 9` JSON report.  Returns the
    number of failed records and the problems found.  A record fails when
    its verdict differs from the expected one; all records fail when the
    report as a whole is unusable."""
    if records is None:
        return VERIFY_RECORDS, ["no report was written"]
    if len(records) != VERIFY_RECORDS:
        return VERIFY_RECORDS, [f"{len(records)} records, expected {VERIFY_RECORDS}"]
    non_advisory = [r for r in records if r["claim"] not in ADVISORY_CLAIMS]
    if len(non_advisory) != VERIFY_NON_ADVISORY:
        return VERIFY_RECORDS, [f"{len(non_advisory)} non-advisory records, "
                                f"expected {VERIFY_NON_ADVISORY}"]
    problems = []
    for r in records:
        expect_pass = (r["claim"], r["params"]) != EXPECTED_MISS
        agrees = r["oracle"] == r["formula"]
        if r["pass"] != agrees or r["pass"] != expect_pass:
            problems.append(f"{r['claim']} {r['params']}: pass={r['pass']} "
                            f"oracle={r['oracle']} formula={r['formula']}")
    return len(problems), problems
