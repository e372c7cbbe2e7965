"""Claim registry and oracle-vs-formula verification harness.

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

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations as _combinations, permutations as _permutations
from math import factorial
from pathlib import Path
from typing import Iterable, Mapping

from .core import Permutation, parse_compact
from .enumeration import (
    DESK_SCALE_LIMIT,
    _scan_count,
    count_avoiders,
    count_exactly_once,
    occurrence_histogram,
)
from .families import adhoc_set, build_tkm, build_union_tkm
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

# Grid ceilings: enumeration-backed claims stop at n=9, full-scan-backed
# claims at n=8, so the complete suite stays inside the desk-scale budget.
_ENUM_CAP = 9
_SCAN_CAP = 8

ADVISORY_CLAIMS = frozenset({"corollary2_onset"})


@dataclass(frozen=True)
class Claim:
    """A verifiable statement: which formula, which oracle, which grid."""

    claim_id: str
    summary: str
    advisory: bool = False


@dataclass(frozen=True)
class VerificationRecord:
    """One claim instance: both computed values, exact-equality verdict, and
    wall-clock duration (the only nondeterministic field)."""

    claim: str
    params: tuple[tuple[str, int | str], ...]
    oracle: int
    formula: int
    passed: bool
    ms: int

    def params_dict(self) -> dict[str, int | str]:
        return dict(self.params)


def _params(d: Mapping[str, int | str]) -> tuple[tuple[str, int | str], ...]:
    return tuple(sorted(d.items()))


def _ms_string(ms: tuple[int, ...]) -> str:
    return ",".join(str(m) for m in ms)


def _parse_ms(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _count_both_exactly_one(n: int) -> int:
    """Direct filter oracle: permutations of S_n containing exactly one
    ascending triple (123) and exactly one 132, counted by the naive scan
    with no shared pruning machinery."""
    return _scan_count(n, (((1, 2, 3),), ((1, 3, 2),)), 2).get((1, 1), 0)


# ---------------------------------------------------------------------------
# Claim runners: params dict -> (oracle value, formula value)
# ---------------------------------------------------------------------------

def _run_theorem1(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    return (count_avoiders(n, build_tkm(k, m)),
            formula_theorem1(n, k, m))


def _run_corollary_interval(p: Mapping) -> tuple[int, int]:
    n, k, a, b = p["n"], p["k"], p["a"], p["b"]
    oracle = count_avoiders(n, build_union_tkm(k, range(a, b + 1)))
    return oracle, formula_corollary_interval(n, k, a, b)


def _run_corollary_base_constant(p: Mapping) -> tuple[int, int]:
    k, a, b = p["k"], p["a"], p["b"]
    oracle = count_avoiders(k, build_union_tkm(k, range(a, b + 1)))
    return oracle, formula_corollary_interval(k, k, a, b)


def _run_corollary2(p: Mapping) -> tuple[int, int]:
    n, k = p["n"], p["k"]
    ms = _parse_ms(p["ms"])
    union = build_union_tkm(k, ms)
    coeff = recurrence_coefficient(k, ms)
    return (count_avoiders(n, union),
            coeff * count_avoiders(n - 1, union))


def _run_theorem3(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    tau = parse_compact(p["tau"])
    return (count_exactly_once(n, k, m, tau),
            formula_theorem3(n, k))


def _run_theorem4(p: Mapping) -> tuple[int, int]:
    n, k, m = p["n"], p["k"], p["m"]
    tau = parse_compact(p["tau"])
    return (count_exactly_once(n, k, m, tau),
            formula_theorem4(n, k, m))


def _run_catalan(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    tau = parse_compact(p["tau"])
    return (count_avoiders(n, adhoc_set([tau])),
            catalan(n))


def _run_noonan(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    hist = occurrence_histogram(n, Permutation((1, 2, 3)))
    return hist.counts.get(1, 0), noonan(n)


def _run_bona(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    hist = occurrence_histogram(n, Permutation((1, 3, 2)))
    return hist.counts.get(1, 0), bona(n)


def _run_robertson_single(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return (count_exactly_once(n, 3, 1, Permutation((1, 3, 2))),
            robertson_single(n))


def _run_robertson_both(p: Mapping) -> tuple[int, int]:
    n = p["n"]
    return _count_both_exactly_one(n), robertson_both(n)


# ---------------------------------------------------------------------------
# Binding grids, grouped so that one group shares cached counts when the
# suite fans groups out across worker processes.
# ---------------------------------------------------------------------------

def _nonempty_subsets(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(1, k + 1):
        out.extend(_combinations(range(1, k + 1), r))
    return out


def _groups_theorem1(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    return [
        [{"k": k, "m": m, "n": n} for n in range(k, cap + 1)]
        for k in (3, 4, 5)
        for m in range(1, k + 1)
    ]


def _groups_corollary_interval(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    return [
        [{"k": k, "a": a, "b": b, "n": n} for n in range(k, cap + 1)]
        for k in (3, 4)
        for a in range(1, k + 1)
        for b in range(a, k + 1)
    ]


def _groups_corollary_base_constant(n_max: int) -> list[list[dict]]:
    groups = []
    for k in (3, 4):
        if n_max < k:
            continue
        group = []
        for a in range(1, k + 1):
            for b in range(a, k + 1):
                group.append({
                    "k": k, "a": a, "b": b, "n": k,
                    "proof_base": (k + a - b + 1) * factorial(k - 1),
                })
        groups.append(group)
    return groups


def _groups_corollary2(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    groups = []
    for k in (3, 4):
        for ms in _nonempty_subsets(k):
            group = [{"k": k, "ms": _ms_string(ms), "n": n}
                     for n in range(2 * k + 1, cap + 1)]
            if group:
                groups.append(group)
    return groups


def _groups_corollary2_onset(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    groups = []
    for k in (3, 4):
        for ms in _nonempty_subsets(k):
            group = [{"k": k, "ms": _ms_string(ms), "n": n}
                     for n in range(k + 1, min(2 * k, cap) + 1)]
            if group:
                groups.append(group)
    return groups


def _groups_theorem3(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    return [
        [{"k": k, "m": 1, "tau": tau.compact(), "n": n}
         for n in range(k, cap + 1)]
        for k in (3, 4)
        for tau in build_tkm(k, 1).patterns
    ]


def _groups_theorem3_complement(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    return [
        [{"k": k, "m": k, "tau": tau.compact(), "n": n}
         for n in range(k, cap + 1)]
        for k in (3, 4)
        for tau in build_tkm(k, k).patterns
    ]


def _groups_theorem4(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _ENUM_CAP)
    return [
        [{"k": k, "m": m, "tau": tau.compact(), "n": n}
         for n in range(k, cap + 1)]
        for k in (3, 4)
        for m in range(2, k)
        for tau in build_tkm(k, m).patterns
    ]


def _groups_catalan(n_max: int) -> list[list[dict]]:
    cap = min(n_max, _SCAN_CAP)
    taus = [Permutation(p) for p in _permutations((1, 2, 3))]
    return [
        [{"tau": tau.compact(), "n": n} for n in range(1, cap + 1)]
        for tau in sorted(taus)
    ]


def _simple_range_groups(lo: int, n_max: int) -> list[list[dict]]:
    cap = min(n_max, _SCAN_CAP)
    group = [{"n": n} for n in range(lo, cap + 1)]
    return [group] if group else []


_CLAIM_DEFS: dict[str, dict] = {
    "theorem1": {
        "summary": "|S_n(T(k,m))| = (k-2)!*(k-1)^(n+2-k), k in {3,4,5}, all m, n to 9",
        "groups": _groups_theorem1,
        "run": _run_theorem1,
    },
    "corollary_interval": {
        "summary": "|S_n(T(k,a) u..u T(k,b))| = (k-1)!*(k+a-b-1)^(n+1-k), k in {3,4}, n to 9",
        "groups": _groups_corollary_interval,
        "run": _run_corollary_interval,
    },
    "corollary_base_constant": {
        "summary": "base case n=k of the interval union: adjudicates (k+a-b-1) "
                   "against the rival constant (k+a-b+1) carried in params",
        "groups": _groups_corollary_base_constant,
        "run": _run_corollary_base_constant,
    },
    "corollary2": {
        "summary": "general union recurrence |S_n| = (k+i1-id-1)*|S_(n-1)| for "
                   "n >= 2k+1, every nonempty index subset, k in {3,4}",
        "groups": _groups_corollary2,
        "run": _run_corollary2,
    },
    "corollary2_onset": {
        "summary": "advisory probe: where the union recurrence first holds "
                   "inside k+1..2k (reported, not judged)",
        "groups": _groups_corollary2_onset,
        "run": _run_corollary2,
        "advisory": True,
    },
    "theorem3": {
        "summary": "|S_n(T(k,1);tau)| = (n+1-k)*(k-1)^(n-k), every tau in T(k,1), "
                   "k in {3,4}, n to 9",
        "groups": _groups_theorem3,
        "run": _run_theorem3,
    },
    "theorem3_complement": {
        "summary": "|S_n(T(k,k);tau)| = (n+1-k)*(k-1)^(n-k), every tau in T(k,k), "
                   "k in {3,4}, n to 9",
        "groups": _groups_theorem3_complement,
        "run": _run_theorem3,
    },
    "theorem4": {
        "summary": "|S_n(T(k,m);tau)| = (k-1)^(n-k) for 2 <= m <= k-1, every tau, "
                   "k in {3,4}, n to 9",
        "groups": _groups_theorem4,
        "run": _run_theorem4,
    },
    "catalan": {
        "summary": "|S_n({tau})| equals the n-th Catalan number for every "
                   "length-3 tau, n to 8",
        "groups": _groups_catalan,
        "run": _run_catalan,
    },
    "noonan": {
        "summary": "exactly-one-123 bucket of the S_n occurrence histogram "
                   "equals (3/n)*C(2n,n+3), n to 8",
        "groups": lambda n_max: _simple_range_groups(3, n_max),
        "run": _run_noonan,
    },
    "bona": {
        "summary": "exactly-one-132 bucket of the S_n occurrence histogram "
                   "equals C(2n-3,n-3), n to 8",
        "groups": lambda n_max: _simple_range_groups(3, n_max),
        "run": _run_bona,
    },
    "robertson_single": {
        "summary": "|S_n(123;132)| = (n-2)*2^(n-3) via exactly-once counting, n to 8",
        "groups": lambda n_max: _simple_range_groups(3, n_max),
        "run": _run_robertson_single,
    },
    "robertson_both": {
        "summary": "permutations with exactly one 123 and one 132 number "
                   "(n-3)(n-4)*2^(n-5), direct filter oracle, n to 8",
        "groups": lambda n_max: _simple_range_groups(5, n_max),
        "run": _run_robertson_both,
    },
}


def builtin_claims() -> list[Claim]:
    """The registered claims, in deterministic order."""
    return [
        Claim(claim_id=name,
              summary=defn["summary"],
              advisory=bool(defn.get("advisory", False)))
        for name, defn in _CLAIM_DEFS.items()
    ]


def verify_claim(claim_id: str, params: Mapping[str, int | str]) -> VerificationRecord:
    """Run one claim instance: oracle and formula computed independently,
    exact-equality verdict recorded."""
    try:
        defn = _CLAIM_DEFS[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim {claim_id!r}; known: "
                         f"{sorted(_CLAIM_DEFS)}") from None
    start = time.perf_counter()
    oracle, formula = defn["run"](params)
    ms = int((time.perf_counter() - start) * 1000)
    return VerificationRecord(
        claim=claim_id,
        params=_params(params),
        oracle=oracle,
        formula=formula,
        passed=(oracle == formula),
        ms=ms,
    )


def _run_group(claim_id: str, group: list[dict]) -> list[VerificationRecord]:
    return [verify_claim(claim_id, params) for params in group]


def _resolve_selection(selection) -> list[str]:
    if isinstance(selection, str):
        names = [selection]
    else:
        names = list(selection)
    if names == ["all"]:
        return list(_CLAIM_DEFS)
    unknown = [name for name in names if name not in _CLAIM_DEFS]
    if unknown:
        raise ValueError(f"unknown claim(s) {unknown}; known: "
                         f"{sorted(_CLAIM_DEFS)}")
    if not names:
        raise ValueError("empty claim selection")
    return names


def run_suite(selection="all", n_max: int = 9, *, parallel: bool = False,
              force: bool = False) -> list[VerificationRecord]:
    """Verify every binding of the selected claims up to n_max.

    Records come back sorted by claim id and then binding, so the output
    order never depends on execution order or on the parallel flag.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DESK_SCALE_LIMIT and not force:
        raise ValueError(f"n_max > {DESK_SCALE_LIMIT} needs force=True "
                         "(factorial growth)")
    names = _resolve_selection(selection)
    tasks: list[tuple[str, list[dict]]] = []
    for name in names:
        for group in _CLAIM_DEFS[name]["groups"](n_max):
            if group:
                tasks.append((name, group))
    records: list[VerificationRecord] = []
    if parallel and len(tasks) > 1:
        with ProcessPoolExecutor() as pool:
            for result in pool.map(_run_group_star, tasks):
                records.extend(result)
    else:
        for claim_id, group in tasks:
            records.extend(_run_group(claim_id, group))
    records.sort(key=lambda r: (r.claim, r.params))
    return records


def _run_group_star(task: tuple[str, list[dict]]) -> list[VerificationRecord]:
    return _run_group(*task)


def failed_records(records: Iterable[VerificationRecord],
                   include_advisory: bool = False) -> list[VerificationRecord]:
    """The records that did not pass; advisory claims are excluded unless
    asked for, since they report findings rather than requirements."""
    return [r for r in records
            if not r.passed and (include_advisory or r.claim not in ADVISORY_CLAIMS)]


def _record_json_object(record: VerificationRecord) -> dict:
    return {
        "claim": record.claim,
        "params": record.params_dict(),
        "oracle": str(record.oracle),
        "formula": str(record.formula),
        "pass": record.passed,
        "ms": record.ms,
    }


def write_report(records: Iterable[VerificationRecord], format: str,
                 destination: str | Path) -> None:
    """Persist records as JSON (array of objects) or CSV (header row,
    RFC-4180 quoting); counts are serialized as decimal strings."""
    records = list(records)
    path = Path(destination)
    if format == "json":
        payload = [_record_json_object(r) for r in records]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    elif format == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["claim", "params", "oracle", "formula", "pass", "ms"])
            for r in records:
                writer.writerow([
                    r.claim,
                    json.dumps(r.params_dict(), sort_keys=True,
                               separators=(",", ":")),
                    str(r.oracle),
                    str(r.formula),
                    "true" if r.passed else "false",
                    str(r.ms),
                ])
    else:
        raise ValueError(f"unknown report format {format!r}; use json or csv")
