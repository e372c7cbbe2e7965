"""Claim table and oracle-vs-formula verification harness.

Every claim pairs a closed-form evaluator with an independently computed
brute-force oracle; a claim instance passes only on exact integer equality.
Failures are first-class results: the harness records what it measured and
never assumes a published value is right.

Two claims are adjudications rather than plain checks:

* ``corollary_base_constant`` settles whether the interval-union count at
  n=k carries the factor (k+a-b-1) or (k+a-b+1): the record's formula side
  is the (k+a-b-1) value and the rival value rides along in the params.
* ``corollary2_onset`` probes where the general-union recurrence starts to
  hold below its stated n >= 2k+1 range.  It reports, it does not judge, so
  it is marked advisory and excluded from failure exit codes.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import combinations as _combinations
from itertools import permutations as _permutations
from math import factorial
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .core import Permutation, _Value, parse_compact
from .enumeration import (
    DESK_SCALE_LIMIT,
    _count_generic,
    _scan_count,
    count_avoiders,
    count_exactly_once,
    # No claim reads it; perfbench/child.py wraps verify.occurrence_histogram
    # by name, so --trace 1 fails with AttributeError without this import.
    occurrence_histogram,
)
from .families import adhoc_set, build_m, build_tkm, build_union_tkm
from .formulas import (
    bona,
    catalan,
    formula_corollary_interval,
    formula_theorem1,
    formula_theorem3,
    formula_theorem4,
    noonan,
    recurrence_coefficient,
    robertson_both,
    robertson_single,
)

__all__ = [
    "Claim",
    "VerificationRecord",
    "ADVISORY_CLAIMS",
    "builtin_claims",
    "verify_claim",
    "run_suite",
    "write_report",
    "failed_records",
]

# Grid ceilings: the family and exactly-once claims stop at n=9, and the
# claims on length-3 patterns (catalan, noonan, bona, the two robertson
# claims) at n=8, so the complete suite stays inside the desk-scale budget.
_ENUM_CAP = 9
_SCAN_CAP = 8


# The oracle routes, costliest first: at the grid's n the S_n scan
# outweighs a count by levels or is level with it, and both outweigh a
# product of rank rows.  In one process (2-core container, CPython 3.11,
# medians of 9) robertson_both's scans take 10-12 ms of CPU, the costliest
# levels claim, catalan, 11-12 ms, and the costliest rows claims 3-4 ms.
_ROUTES = ("scan", "levels", "rows")


class Claim(_Value):
    """A verifiable statement: `bindings` returns its parameter bindings up
    to the claim's own ceiling, computed only when called, and `run` maps
    one binding to (oracle value, formula value).

    `route` names how the oracle counts: "scan" by the exhaustive S_n scan,
    `_scan_count`; "levels" by `_levels` over a rank rule (an exactly-once
    class, or an ad hoc list avoided or contained an exact number of
    times); "rows" as a product of a union's `_rank_rows`.  `run_suite`
    starts the claims of the costliest route first."""

    __slots__ = _fields = ("claim_id", "summary", "bindings", "run",
                           "route", "advisory")
    claim_id: str
    summary: str
    bindings: Callable[[], list[dict]]
    run: Callable[[Mapping], tuple[int, int]]
    route: str
    advisory: bool

    def __init__(self, claim_id: str, summary: str,
                 bindings: Callable[[], list[dict]],
                 run: Callable[[Mapping], tuple[int, int]],
                 route: str, advisory: bool = False) -> None:
        super().__init__(claim_id, summary, bindings, run, route, advisory)


class VerificationRecord(_Value):
    """One claim instance: both computed values, exact-equality verdict, and
    wall-clock duration (the only nondeterministic field)."""

    __slots__ = _fields = ("claim", "params", "oracle", "formula", "passed",
                           "ms")
    claim: str
    params: tuple[tuple[str, int | str], ...]
    oracle: int
    formula: int
    passed: bool
    ms: int

    def __init__(self, claim: str, params: tuple[tuple[str, int | str], ...],
                 oracle: int, formula: int, passed: bool, ms: int) -> None:
        super().__init__(claim, params, oracle, formula, passed, ms)

    def params_dict(self) -> dict[str, int | str]:
        return dict(self.params)


def _count_both_exactly_one(n: int) -> int:
    """Direct filter oracle: permutations of S_n containing exactly one
    ascending triple (123) and exactly one 132, counted by the exhaustive
    scan, which shares no machinery with the rank rules."""
    return _scan_count(n, (((1, 2, 3),), ((1, 3, 2),)), 2).get((1, 1), 0)


# ---------------------------------------------------------------------------
# Claim runners: params dict -> (oracle value, formula value).  A claim row
# names its runner, never a formula: runners look formulas up in this module
# when they run, so the benchmark's trace mode (perfbench/child.py) sees them.
# ---------------------------------------------------------------------------

def _run_theorem1(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    return (count_avoiders(n, build_tkm(k, m)),
            formula_theorem1(n, k, m))


def _run_corollary_interval(p: Mapping) -> tuple[int, int]:
    n, k, a, b = p["n"], p["k"], p["a"], p["b"]
    oracle = count_avoiders(n, build_union_tkm(k, range(a, b + 1)))
    return oracle, formula_corollary_interval(n, k, a, b)


def _run_corollary2(p: Mapping) -> tuple[int, int]:
    n, k = p["n"], p["k"]
    ms = tuple(int(m) for m in p["ms"].split(","))
    union = build_union_tkm(k, ms)
    coeff = recurrence_coefficient(k, ms)
    return (count_avoiders(n, union),
            coeff * count_avoiders(n - 1, union))


def _run_theorem3(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    tau = parse_compact(p["tau"])
    return (count_exactly_once(n, build_m(k, m, tau)),
            formula_theorem3(n, k))


def _run_theorem4(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    tau = parse_compact(p["tau"])
    return (count_exactly_once(n, build_m(k, m, tau)),
            formula_theorem4(n, k, m))


def _run_catalan(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    tau = parse_compact(p["tau"])
    return (count_avoiders(n, adhoc_set([tau])),
            catalan(n))


def _run_noonan(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return _count_generic(n, ((1, 2, 3),), 1), noonan(n)


def _run_bona(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return _count_generic(n, ((1, 3, 2),), 1), bona(n)


def _run_robertson_single(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return (count_exactly_once(n, build_m(3, 1, Permutation((1, 3, 2)))),
            robertson_single(n))


def _run_robertson_both(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return _count_both_exactly_one(n), robertson_both(n)


# ---------------------------------------------------------------------------
# Binding lists, each up to its claim's own ceiling.
# ---------------------------------------------------------------------------

def _theorem1_bindings() -> list[dict]:
    return [{"k": k, "m": m, "n": n} for k in (3, 4, 5)
            for m in range(1, k + 1) for n in range(k, _ENUM_CAP + 1)]


def _interval_bindings() -> list[dict]:
    return [{"k": k, "a": a, "b": b, "n": n} for k in (3, 4)
            for a in range(1, k + 1) for b in range(a, k + 1)
            for n in range(k, _ENUM_CAP + 1)]


def _base_constant_bindings() -> list[dict]:
    return [{**p, "proof_base": (p["k"] + p["a"] - p["b"] + 1) * factorial(p["k"] - 1)}
            for p in _interval_bindings() if p["n"] == p["k"]]


def _union_bindings() -> list[dict]:
    return [{"k": k, "ms": ",".join(str(m) for m in ms), "n": n} for k in (3, 4)
            for size in range(1, k + 1)
            for ms in _combinations(range(1, k + 1), size)
            for n in range(k + 1, _ENUM_CAP + 1)]


def _corollary2_bindings() -> list[dict]:
    return [p for p in _union_bindings() if p["n"] > 2 * p["k"]]


def _onset_bindings() -> list[dict]:
    return [p for p in _union_bindings() if p["n"] <= 2 * p["k"]]


def _tau_bindings(ks_and_ms: tuple[tuple[int, int], ...]) -> list[dict]:
    return [{"k": k, "m": m, "tau": tau.compact(), "n": n} for k, m in ks_and_ms
            for tau in build_tkm(k, m).patterns for n in range(k, _ENUM_CAP + 1)]


def _catalan_bindings() -> list[dict]:
    taus = sorted(Permutation(p) for p in _permutations((1, 2, 3)))
    return [{"tau": tau.compact(), "n": n}
            for tau in taus for n in range(1, _SCAN_CAP + 1)]


def _n_from(first: int) -> list[dict]:
    return [{"n": n} for n in range(first, _SCAN_CAP + 1)]


_CLAIMS: dict[str, Claim] = {claim.claim_id: claim for claim in (
    Claim("theorem1",
          "|S_n(T(k,m))| = (k-2)!*(k-1)^(n+2-k), k in {3,4,5}, all m, n to 9",
          bindings=_theorem1_bindings, run=_run_theorem1, route="rows"),
    Claim("corollary_interval",
          "|S_n(T(k,a) u..u T(k,b))| = (k-1)!*(k+a-b-1)^(n+1-k), k in {3,4}, n to 9",
          bindings=_interval_bindings, run=_run_corollary_interval,
          route="rows"),
    Claim("corollary_base_constant",
          "base case n=k of the interval union: adjudicates (k+a-b-1) "
          "against the rival constant (k+a-b+1) carried in params",
          bindings=_base_constant_bindings, run=_run_corollary_interval,
          route="rows"),
    Claim("corollary2",
          "general union recurrence |S_n| = (k+i1-id-1)*|S_(n-1)| for "
          "n >= 2k+1, every nonempty index subset, k in {3,4}",
          bindings=_corollary2_bindings, run=_run_corollary2, route="rows"),
    Claim("corollary2_onset",
          "advisory probe: where the union recurrence first holds "
          "inside k+1..2k (reported, not judged)",
          bindings=_onset_bindings, run=_run_corollary2, route="rows",
          advisory=True),
    Claim("theorem3",
          "|S_n(T(k,1);tau)| = (n+1-k)*(k-1)^(n-k), every tau in T(k,1), "
          "k in {3,4}, n to 9",
          bindings=partial(_tau_bindings, ((3, 1), (4, 1))), run=_run_theorem3,
          route="levels"),
    Claim("theorem3_complement",
          "|S_n(T(k,k);tau)| = (n+1-k)*(k-1)^(n-k), every tau in T(k,k), "
          "k in {3,4}, n to 9",
          bindings=partial(_tau_bindings, ((3, 3), (4, 4))), run=_run_theorem3,
          route="levels"),
    Claim("theorem4",
          "|S_n(T(k,m);tau)| = (k-1)^(n-k) for 2 <= m <= k-1, every tau, "
          "k in {3,4}, n to 9",
          bindings=partial(_tau_bindings, ((3, 2), (4, 2), (4, 3))),
          run=_run_theorem4, route="levels"),
    Claim("catalan",
          "|S_n({tau})| equals the n-th Catalan number for every "
          "length-3 tau, n to 8",
          bindings=_catalan_bindings, run=_run_catalan, route="levels"),
    Claim("noonan",
          "permutations with exactly one 123, counted by levels of partial "
          "matches and occurrences so far, number (3/n)*C(2n,n+3), n to 8",
          bindings=partial(_n_from, 3), run=_run_noonan, route="levels"),
    Claim("bona",
          "permutations with exactly one 132, counted by levels of partial "
          "matches and occurrences so far, number C(2n-3,n-3), n to 8",
          bindings=partial(_n_from, 3), run=_run_bona, route="levels"),
    Claim("robertson_single",
          "|S_n(123;132)| = (n-2)*2^(n-3) via exactly-once counting, n to 8",
          bindings=partial(_n_from, 3), run=_run_robertson_single,
          route="levels"),
    Claim("robertson_both",
          "permutations with exactly one 123 and one 132 number "
          "(n-3)(n-4)*2^(n-5), direct filter oracle, n to 8",
          bindings=partial(_n_from, 5), run=_run_robertson_both, route="scan"),
)}

ADVISORY_CLAIMS = frozenset(name for name, claim in _CLAIMS.items()
                            if claim.advisory)

# The order claims run in: costliest route first, registry order within a
# route (the sort is stable).  A pool whose longest tasks start first
# leaves no worker running one of them alone after the rest are done.
_RUN_ORDER = sorted(_CLAIMS,
                    key=lambda name: _ROUTES.index(_CLAIMS[name].route))


def builtin_claims() -> list[Claim]:
    """The registered claims, in deterministic order."""
    return list(_CLAIMS.values())


def verify_claim(claim_id: str, params: Mapping[str, int | str]) -> VerificationRecord:
    """Run one claim instance: oracle and formula computed independently,
    exact-equality verdict recorded."""
    try:
        claim = _CLAIMS[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim {claim_id!r}; known: "
                         f"{sorted(_CLAIMS)}") from None
    start = time.perf_counter()
    oracle, formula = claim.run(params)
    ms = int((time.perf_counter() - start) * 1000)
    return VerificationRecord(
        claim=claim_id,
        params=tuple(sorted(params.items())),
        oracle=oracle,
        formula=formula,
        passed=(oracle == formula),
        ms=ms,
    )


def _run_claim(claim_id: str, n_max: int) -> list[VerificationRecord]:
    """The records of one claim's bindings with n <= n_max, in binding
    order: the unit of work one pool worker runs under parallel, where the
    claims of the costliest oracle route are handed out first."""
    return [verify_claim(claim_id, params)
            for params in _CLAIMS[claim_id].bindings() if params["n"] <= n_max]


def _resolve_selection(selection) -> list[str]:
    # a repeated id runs once
    names = list(dict.fromkeys([selection] if isinstance(selection, str)
                               else selection))
    if names == ["all"]:
        return list(_CLAIMS)
    unknown = [name for name in names if name not in _CLAIMS]
    if unknown:
        raise ValueError(f"unknown claim(s) {unknown}; known: "
                         f"{sorted(_CLAIMS)}")
    if not names:
        raise ValueError("empty claim selection")
    return names


def run_suite(selection="all", n_max: int = 9, *,
              parallel: bool = False) -> list[VerificationRecord]:
    """Verify every binding of the selected claims up to n_max.

    n_max runs 1..DESK_SCALE_LIMIT; no grid passes n=9.  The claims run
    costliest oracle route first (see `Claim`), serially or, under
    parallel, as one pool task each, so the slowest oracles start at once.
    Records come back sorted by claim id and then binding, so the output
    order never depends on execution order or on the parallel flag.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DESK_SCALE_LIMIT:
        raise ValueError(f"n_max must be <= {DESK_SCALE_LIMIT}; every "
                         f"claim's grid stops at n={_ENUM_CAP} or below")
    chosen = set(_resolve_selection(selection))
    names = [name for name in _RUN_ORDER if name in chosen]
    if parallel and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_run_claim, names, [n_max] * len(names)))
    else:
        results = [_run_claim(name, n_max) for name in names]
    return sorted((r for result in results for r in result),
                  key=lambda r: (r.claim, r.params))


def failed_records(records: Iterable[VerificationRecord]) -> list[VerificationRecord]:
    """The records that did not pass, leaving out advisory claims: they
    report findings rather than requirements."""
    return [r for r in records
            if not r.passed and r.claim not in ADVISORY_CLAIMS]


_COLUMNS = ("claim", "params", "oracle", "formula", "pass", "ms")


def _record_row(record: VerificationRecord) -> tuple:
    """A record's cells in `_COLUMNS` order, for both report formats."""
    return (record.claim, record.params_dict(), str(record.oracle),
            str(record.formula), record.passed, record.ms)


def write_report(records: Iterable[VerificationRecord], format: str,
                 destination: str | Path) -> None:
    """Persist records as JSON (array of objects) or CSV (header row,
    RFC-4180 quoting, other cells than strings as compact JSON); counts are
    serialized as decimal strings.

    The report is written to a temporary file beside the destination and
    then renamed onto it, so a failed write leaves any earlier report whole.
    """
    import csv
    import json

    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}; use json or csv")
    path = Path(destination)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # a plain open, so the new report gets the umask's mode
        with temp.open("w", encoding="utf-8", newline="") as fh:
            rows = map(_record_row, records)
            if format == "json":
                payload = [dict(zip(_COLUMNS, row)) for row in rows]
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            else:
                writer = csv.writer(fh)
                writer.writerow(_COLUMNS)
                for row in rows:
                    writer.writerow([
                        cell if isinstance(cell, str)
                        else json.dumps(cell, sort_keys=True,
                                        separators=(",", ":"))
                        for cell in row])
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
