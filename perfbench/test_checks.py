"""Tests for the benchmark's own output checks.

Each bad output must be counted as a failed operation in the round, so that
it reaches fail_ratio; each good output must count as none.  The package
is never run here: a fake runner hands the rounds canned output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import json
import unittest
from itertools import permutations
from pathlib import Path
from unittest import mock

import checks
import run


class FakeRunner(run.Runner):
    """Returns canned stdout; writes a canned report where --out points."""

    def __init__(self, stdout: bytes = b"", report=None, code: int = 0):
        super().__init__()
        self.stdout = stdout
        self.report = report
        self.code = code

    def launch(self, argv, pin=True, rss_file=None):
        if self.report is not None and "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(self.report))
        return run.Proc(wall=1.0, cpu=1.0, rss_mb=1.0, first_s=0.5,
                        out=self.stdout, code=self.code)


def _count_output(seed: int, wrong: int | None = None) -> bytes:
    lines = []
    for i, (patterns, n) in enumerate(checks.draw_adhoc_queries(seed)):
        value = checks.expected_adhoc_count(patterns, n) + (1 if i == wrong else 0)
        lines.append(f"{n}:{','.join(patterns)} {value}\n")
    return "".join(lines).encode()


class CountAdhocChecks(unittest.TestCase):
    def test_correct_counts_pass(self):
        rnd = run.count_round(FakeRunner(_count_output(7)), 7, False)
        self.assertEqual((rnd.attempted, rnd.failed), (5, 0))

    def test_wrong_reference_count_fails(self):
        rnd = run.count_round(FakeRunner(_count_output(7, wrong=1)), 7, False)
        self.assertEqual(rnd.failed, 1)

    def test_missing_count_fails(self):
        output = b"".join(_count_output(7).splitlines(keepends=True)[:-1])
        rnd = run.count_round(FakeRunner(output, code=1), 7, False)
        self.assertEqual(rnd.failed, 1)

    def test_reference_values(self):
        self.assertEqual([checks.catalan(n) for n in range(1, 8)],
                         [1, 2, 5, 14, 42, 132, 429])
        classes = checks.wilf_classes()
        self.assertEqual(sorted(len(v) for v in classes.values()), [2, 10, 12])
        self.assertEqual(checks.simion_schmidt_pair(("123", "132"), 12), 2048)
        self.assertEqual(checks.simion_schmidt_pair(("132", "321"), 12), 67)


def _brute_family_stream(n: int, k: int, m: int) -> bytes:
    """Avoiders of T(k,m) by the plain definition, in lexicographic order."""
    def avoids(p):
        for i, v in enumerate(p):
            later = p[i + 1:]
            smaller = sum(1 for w in later if w < v)
            if smaller >= m - 1 and len(later) - smaller >= k - m:
                return False
        return True

    lines = [",".join(map(str, p)) for p in permutations(range(1, n + 1)) if avoids(p)]
    return "".join(line + "\n" for line in lines).encode()


class EnumerateStreamChecks(unittest.TestCase):
    QUERY = ("Tkm(3,1)", 6)

    def setUp(self):
        self.good = _brute_family_stream(6, 3, 1)
        digest = hashlib.sha256(self.good).hexdigest()
        for patch in (mock.patch.object(checks, "draw_enumerate_queries",
                                        lambda seed: [self.QUERY]),
                      mock.patch.dict(checks.STREAM_DIGESTS, {self.QUERY: digest})):
            patch.start()
            self.addCleanup(patch.stop)

    def _failed(self, stdout: bytes) -> int:
        return run.enumerate_round(FakeRunner(stdout), 0, False).failed

    def test_correct_stream_passes(self):
        self.assertEqual(checks.expected_stream_length(*self.QUERY), 32)
        self.assertEqual(self._failed(self.good), 0)

    def test_unsorted_stream_fails(self):
        lines = self.good.splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        self.assertEqual(self._failed(b"".join(lines)), 1)

    def test_truncated_stream_fails(self):
        lines = self.good.splitlines(keepends=True)
        self.assertEqual(self._failed(b"".join(lines[:-1])), 1)

    def test_non_permutation_line_fails(self):
        lines = self.good.splitlines(keepends=True)
        lines[-1] = b"6,5,4,3,2,2\n"
        bad = b"".join(lines)
        self.assertEqual(self._failed(bad), 1)
        problems = checks.check_stream(bad, 6, 32, checks.STREAM_DIGESTS[self.QUERY])
        self.assertIn("line 32 is not a permutation of 1..6", problems)


def _verify_report() -> list[dict]:
    records = []
    for i in range(checks.VERIFY_NON_ADVISORY):
        records.append({"claim": "theorem1", "params": {"i": i},
                        "oracle": "5", "formula": "5", "pass": True, "ms": 1})
    claim, params = checks.EXPECTED_MISS
    records.append({"claim": claim, "params": params, "oracle": "5",
                    "formula": "6", "pass": False, "ms": 1})
    for i in range(checks.VERIFY_RECORDS - len(records)):
        records.append({"claim": claim, "params": {"i": i}, "oracle": "5",
                        "formula": "5", "pass": True, "ms": 1})
    return records


class VerifyChecks(unittest.TestCase):
    def _round(self, report, code=0):
        return run.verify_round(FakeRunner(report=report, code=code), 0, False,
                                parallel=False)

    def test_expected_report_passes(self):
        rnd = self._round(_verify_report())
        self.assertEqual((rnd.attempted, rnd.failed), (561, 0))

    def test_failing_non_advisory_record_fails(self):
        report = _verify_report()
        report[10].update(formula="6", **{"pass": False})
        self.assertEqual(self._round(report, code=1).failed, 1)

    def test_onset_finding_change_fails(self):
        report = _verify_report()
        report[checks.VERIFY_NON_ADVISORY].update(formula="5", **{"pass": True})
        self.assertEqual(self._round(report).failed, 1)

    def test_missing_report_fails_every_record(self):
        self.assertEqual(self._round(None, code=1).failed, 561)

    def test_nonzero_exit_alone_fails(self):
        self.assertEqual(self._round(_verify_report(), code=1).failed, 1)


class Launch(unittest.TestCase):
    """The real runner on a tiny child: its output, exit code and timings
    reach the round, and times are scaled into reference seconds."""

    def test_output_exit_code_and_scale(self):
        run.TMP.mkdir(exist_ok=True)
        script = "import sys, time; print('a'); time.sleep(0.2); print('b'); sys.exit(3)"
        with mock.patch("sys.stderr"):
            proc = run.Runner().launch([run.PYTHON, "-c", script])
        self.assertEqual((proc.out, proc.code), (b"a\nb\n", 3))
        self.assertLess(proc.first_s, proc.wall)
        self.assertGreaterEqual(proc.wall, 0.2)
        self.assertGreater(proc.scale, 0)
        rnd = run.Round()
        rnd.add(proc)
        self.assertAlmostEqual(rnd.wall, proc.wall * proc.scale)
        self.assertEqual(rnd.measured_wall, proc.wall)


if __name__ == "__main__":
    unittest.main()
