"""Acceptance suite: every stated criterion, checked at exact integer
equality (tolerance zero), one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
"""

import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from permpat.bijections import insert_bottom, prepend_insert, remove_bottom
from permpat.core import Permutation, parse_compact
from permpat.enumeration import (
    count_avoiders,
    enumerate_avoiders,
)
from permpat.families import (
    adhoc_set,
    build_m,
    build_tkm,
    build_union_tkm,
    contains_exactly_once,
)
from permpat.formulas import (
    bona,
    catalan,
    noonan,
    robertson_both,
)
from permpat.verify import failed_records, run_suite

from conftest import complement, scan_count_avoiders

N_ENUM = 9   # enumeration-backed grids run to n = 9
N_SCAN = 8   # exhaustive-scan-backed grids run to n = 8


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


@pytest.fixture(scope="module")
def records():
    return run_suite("all", N_ENUM, parallel=True)


def by_claim(records, claim):
    return [r for r in records if r.claim == claim]


def test_criterion_1_theorem1_grid(records):
    with criterion(1, "theorem1: (k-2)!*(k-1)^(n+2-k) for k in {3,4,5}, n to 9"):
        recs = by_claim(records, "theorem1")
        assert len(recs) == 21 + 24 + 25
        for r in recs:
            p = r.params_dict()
            n, k = p["n"], p["k"]
            assert r.passed, (p, r.oracle, r.formula)
            assert r.oracle == factorial(k - 2) * (k - 1) ** (n + 2 - k)
            # the rival exponent n+1-k never matches the oracle
            assert r.oracle != factorial(k - 2) * (k - 1) ** (n + 1 - k)
            if k == 3:
                assert r.oracle == 2 ** (n - 1)
            if k == 4 and p["m"] == 1:
                assert r.oracle == 2 * 3 ** (n - 2)
            if k == 5 and p["m"] == 2:
                assert r.oracle == 3 * 2 ** (2 * n - 5)


def test_criterion_2_interval_union_and_base_constant(records):
    with criterion(2, "interval unions: (k-1)!*(k+a-b-1)^(n+1-k), base n=k adjudicated"):
        recs = by_claim(records, "corollary_interval")
        assert len(recs) == 6 * 7 + 10 * 6
        for r in recs:
            p = r.params_dict()
            n, k, a, b = p["n"], p["k"], p["a"], p["b"]
            assert r.passed, (p, r.oracle, r.formula)
            assert r.oracle == factorial(k - 1) * (k + a - b - 1) ** (n + 1 - k)
        base = by_claim(records, "corollary_base_constant")
        assert len(base) == 16
        for r in base:
            p = r.params_dict()
            k, a, b = p["k"], p["a"], p["b"]
            stated = factorial(k - 1) * (k + a - b - 1)
            rival = p["proof_base"]
            assert rival == factorial(k - 1) * (k + a - b + 1)
            assert r.oracle == stated, (p, r.oracle)
            assert r.oracle != rival, (p, r.oracle)
        print("base case n=k: oracle matches the (k+a-b-1) constant and "
              "refutes the (k+a-b+1) variant on every (k,a,b)")


def test_criterion_3_general_recurrence_reported(records):
    with criterion(3, "general union recurrence at n >= 2k+1, reported per family"):
        recs = by_claim(records, "corollary2")
        # k=3: 7 subsets x n in {7,8,9}; k=4: 15 subsets x n=9
        assert len(recs) == 7 * 3 + 15 * 1
        families = {}
        for r in recs:
            p = r.params_dict()
            families.setdefault((p["k"], p["ms"]), []).append(r.passed)
        assert len(families) == 22
        for (k, ms), outcomes in sorted(families.items()):
            verdict = "holds" if all(outcomes) else "FAILS"
            print(f"  recurrence k={k} ms={ms}: {verdict} on n>={2 * k + 1}")


def test_criterion_4_theorem3_and_complement(records):
    with criterion(4, "exactly-once for T(k,1) and T(k,k): (n+1-k)*(k-1)^(n-k)"):
        direct = by_claim(records, "theorem3")
        comp = by_claim(records, "theorem3_complement")
        assert len(direct) == 2 * 7 + 6 * 6
        assert len(comp) == 2 * 7 + 6 * 6
        for r in direct + comp:
            p = r.params_dict()
            n, k = p["n"], p["k"]
            assert r.passed, (r.claim, p, r.oracle, r.formula)
            assert r.oracle == (n + 1 - k) * (k - 1) ** (n - k)
        # Robertson specialization at k=3: tau=132 inside T(3,1), and its
        # complement 312 inside T(3,3)
        assert complement(parse_compact("132")) == parse_compact("312")
        for r in direct:
            p = r.params_dict()
            if p["k"] == 3 and p["tau"] == "132":
                assert r.oracle == (p["n"] - 2) * 2 ** (p["n"] - 3)
        comp312 = [r for r in comp if r.params_dict()["tau"] == "312"]
        assert len(comp312) == 7
        for r in comp312:
            assert r.oracle == (r.params_dict()["n"] - 2) * 2 ** (r.params_dict()["n"] - 3)
        # same statement through the dedicated claim
        for r in by_claim(records, "robertson_single"):
            assert r.passed


def test_criterion_5_theorem4(records):
    with criterion(5, "exactly-once for 2 <= m <= k-1: (k-1)^(n-k)"):
        recs = by_claim(records, "theorem4")
        assert len(recs) == 2 * 7 + 12 * 6
        for r in recs:
            p = r.params_dict()
            n, k = p["n"], p["k"]
            assert r.passed, (p, r.oracle, r.formula)
            assert r.oracle == (k - 1) ** (n - k)
        for r in recs:
            p = r.params_dict()
            if p["k"] == 3 and p["tau"] in ("231", "213"):
                assert r.oracle == 2 ** (p["n"] - 3)


def test_criterion_6_intro_cross_checks(records):
    with criterion(6, "catalan/noonan/bona/robertson cross-checks for n <= 8"):
        cat = by_claim(records, "catalan")
        assert len(cat) == 6 * 8
        for r in cat:
            assert r.passed
            assert r.oracle == catalan(r.params_dict()["n"])
        for r in by_claim(records, "noonan"):
            assert r.passed
            assert r.oracle == noonan(r.params_dict()["n"])
        for r in by_claim(records, "bona"):
            assert r.passed
            assert r.oracle == bona(r.params_dict()["n"])
        both = by_claim(records, "robertson_both")
        assert [r.params_dict()["n"] for r in both] == [5, 6, 7, 8]
        for r in both:
            assert r.passed
            assert r.oracle == robertson_both(r.params_dict()["n"])
        # everything outside the advisory probe passed
        assert failed_records(records) == []


def _exactly_once_class(n, avoid, first_value=None):
    members = []
    for perm in permutations(range(1, n + 1)):
        if first_value is not None and perm[0] != first_value:
            continue
        p = Permutation(perm)
        if contains_exactly_once(p, avoid):
            members.append(p)
    return members


def test_criterion_7_bijection_properties():
    with criterion(7, "bijection round trips and closure/partition properties"):
        # exhaustive round trip for every beta in S_n, n <= 7, every valid h
        for n in range(1, 8):
            for perm in permutations(range(1, n + 1)):
                beta = Permutation(perm)
                for h in range(1, n + 2):
                    assert remove_bottom(insert_bottom(beta, h)) == (beta, h)

        # whole-family closure: the k-1 prepend maps carry G_n into G_(n+1)
        # and their images partition G_(n+1)
        for k in (3, 4):
            for m in range(1, k + 1):
                family = build_tkm(k, m)
                for n in range(k, 8):
                    g_n = list(enumerate_avoiders(n, family))
                    g_next = set(enumerate_avoiders(n + 1, family))
                    heights = (list(range(n + m - k + 2, n + 2))
                               + list(range(1, m)))
                    assert len(heights) == k - 1
                    images = [prepend_insert(sigma, h)
                              for sigma in g_n for h in heights]
                    assert len(images) == len(set(images))
                    assert set(images) <= g_next
                    assert len(images) == len(g_next)

        # exactly-once closure: insert_bottom with h in n-k+3..n+1 carries
        # A_n into A_(n+1); remove_bottom comes back, and the removed
        # position always satisfies h >= n-k+3
        for k in (3, 4):
            for tau in build_tkm(k, 1).patterns:
                avoid = build_m(k, 1, tau)
                a_sets = {
                    n: _exactly_once_class(n, avoid, first_value=n - k + 1)
                    for n in range(k, 9)
                }
                for n in range(k, 9):
                    assert len(a_sets[n]) == (k - 1) ** (n - k)
                for n in range(k, 8):
                    a_n, a_next = a_sets[n], set(a_sets[n + 1])
                    for beta in a_n:
                        for h in range(n - k + 3, n + 2):
                            assert insert_bottom(beta, h) in a_next
                    for alpha in a_next:
                        shorter, h = remove_bottom(alpha)
                        assert h >= n - k + 3
                        assert shorter in set(a_n)


def _avoider_bindings_upto(records, n_cap):
    """Distinct (pattern_set, n) pairs touched by the avoider-count claims."""
    seen = {}
    for r in records:
        p = r.params_dict()
        claim = r.claim
        pairs = []
        if claim == "theorem1":
            pairs = [(build_tkm(p["k"], p["m"]), p["n"])]
        elif claim in ("corollary_interval", "corollary_base_constant"):
            union = build_union_tkm(p["k"], range(p["a"], p["b"] + 1))
            pairs = [(union, p["n"])]
        elif claim in ("corollary2", "corollary2_onset"):
            ms = tuple(int(tok) for tok in p["ms"].split(","))
            union = build_union_tkm(p["k"], ms)
            pairs = [(union, p["n"]), (union, p["n"] - 1)]
        elif claim == "catalan":
            pairs = [(adhoc_set([parse_compact(p["tau"])]), p["n"])]
        for pattern_set, n in pairs:
            if 1 <= n <= n_cap:
                key = (pattern_set.k,
                       tuple(q.values for q in pattern_set.patterns), n)
                seen.setdefault(key, (pattern_set, n))
    return list(seen.values())


def test_criterion_8_oracle_independence(records):
    with criterion(8, "pruned vs exhaustive-scan, n <= 7"):
        bindings = _avoider_bindings_upto(records, 7)
        assert len(bindings) > 100
        for pattern_set, n in bindings:
            pruned = count_avoiders(n, pattern_set)
            assert pruned == scan_count_avoiders(n, pattern_set), \
                (pattern_set.label(), n)


def _run_cli_verify(out_path):
    # the child imports this checkout's package whether or not it is installed
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "permpat", "verify", "--claims", "all",
         "--n-max", "7", "--format", "json", "--out", str(out_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out_path.read_text()


def test_criterion_9_report_determinism(tmp_path):
    with criterion(9, "two full verify runs are byte-identical minus timing"):
        out = tmp_path / "report.json"
        stdout1, report1 = _run_cli_verify(out)
        stdout2, report2 = _run_cli_verify(out)
        assert stdout1 == stdout2
        strip_ms = lambda text: re.sub(r'"ms": \d+', '"ms": 0', text)
        assert strip_ms(report1) == strip_ms(report2)
        data = json.loads(report1)
        assert {entry["claim"] for entry in data} >= {
            "theorem1", "theorem3", "theorem4", "catalan"}
