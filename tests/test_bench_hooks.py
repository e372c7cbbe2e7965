"""The benchmark's trace mode wraps package functions by module attribute
name (see perfbench/child.py).  A traced run must still work, and the layers
it wraps must still be the ones that do the scanning and the walking."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, *argv):
    """Run perfbench/child.py --spans on argv; return the process and the
    per-span totals."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--spans", str(spans), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(spans.read_text())["totals"]


def test_traced_verify_runs_through_the_wrapped_scan(tmp_path):
    proc, totals = traced(tmp_path, "cli", "verify", "--claims",
                          "noonan,robertson_both", "--n-max", "5")
    assert proc.stdout.strip().endswith("4/4 pass")
    assert totals["enumeration.scan"][0] > 0
    assert totals["verify.claim.robertson_both"][0] == 1
    assert totals["formulas"][0] == 4  # one formula call per record


def test_traced_histogram_claims_walk_instead_of_scanning(tmp_path):
    proc, totals = traced(tmp_path, "cli", "verify", "--claims", "noonan,bona",
                          "--n-max", "6")
    assert proc.stdout.strip().endswith("8/8 pass")
    assert totals["verify.claim.noonan"][0] == 4
    assert totals["verify.claim.bona"][0] == 4
    assert "enumeration.scan" not in totals


@pytest.mark.parametrize("argv, output, calls", [
    (("cli", "count", "--set", "Tkm(4,2)", "-n", "6"), "162",
     {"enumeration.walk_family": 1}),
    # the merged count of an ad hoc set runs no pinned-pattern search
    (("count", "6:1324"), "6:1324 513",
     {"enumeration.walk_generic": 1, "core.pinned": None}),
    (("cli", "count", "--set", "M(4,2;2143)", "-n", "6"), "9",
     {"enumeration.walk_exactly_once": 1}),
], ids=["family", "generic", "exactly_once"])
def test_traced_count_runs_through_the_wrapped_walker(tmp_path, argv, output,
                                                      calls):
    proc, totals = traced(tmp_path, *argv)
    assert proc.stdout.strip() == output
    for span, count in calls.items():
        if count is None:
            assert span not in totals
        else:
            assert totals[span][0] == count


def test_traced_enumerate_guard_runs_through_the_wrapped_kernel(tmp_path):
    # one avoids_all per member, which walks the set's prefix trie and so
    # makes no per-pattern count
    proc, totals = traced(tmp_path, "cli", "enumerate", "--set", "Tkm(4,2)",
                          "-n", "6")
    assert len(proc.stdout.splitlines()) == 162
    assert totals["families.avoids_all"][0] == 162
    assert "core.count_occurrences" not in totals


def test_traced_exactly_once_guard_is_one_trie_walk_per_member(tmp_path):
    # each member is checked by one walk over the trie of T(4,2), tau
    # included, so no pattern is counted on its own
    proc, totals = traced(tmp_path, "cli", "enumerate", "--set", "M(4,2;2143)",
                          "-n", "6")
    assert len(proc.stdout.splitlines()) == 9
    assert totals["families.contains_exactly_once"][0] == 9
    assert "core.count_occurrences" not in totals


def test_traced_union_listing_is_timed_as_the_family_walk(tmp_path):
    # each step of the union's listing is a walk_family span, one per member
    # and one that ends it; the guard checks each member once
    proc, totals = traced(tmp_path, "cli", "enumerate", "--set", "U(4;1,2)",
                          "-n", "6")
    assert len(proc.stdout.splitlines()) == 48
    assert totals["enumeration.walk_family"][0] == 48 + 1
    assert totals["families.avoids_all"][0] == 48
