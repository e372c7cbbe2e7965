import argparse
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import permpat
import permpat.cli as cli
import permpat.enumeration as enumeration
from permpat.cli import main
from permpat.families import parse_set_expression
from permpat.verify import VerificationRecord


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_tkm(self, capsys):
        code, out, _ = run(capsys, "count", "--set", "Tkm(3,1)", "-n", "5")
        assert code == 0
        assert out == "16\n"

    def test_m_expression_counts_exactly_once_class(self, capsys):
        code, out, _ = run(capsys, "count", "--set", "M(3,1;132)", "-n", "4")
        assert code == 0
        assert out == "4\n"

    def test_brace_list(self, capsys):
        code, out, _ = run(capsys, "count", "--set", "{12}", "-n", "4")
        assert code == 0
        assert out == "1\n"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--set", "nope", "-n", "4")
        assert code == 2
        assert "error" in err

    def test_guard_exits_2_and_mentions_cost(self, capsys):
        code, _, err = run(capsys, "count", "--set", "{12}", "-n", "14")
        assert code == 2
        assert "12!" in err or "factorial" in err

    def test_guard_override(self, capsys):
        code, out, _ = run(capsys, "count", "--set", "{12}", "-n", "13", "--force")
        assert code == 0
        assert out == "1\n"

    def test_family_past_nine_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "--set", "U(10;1,2)", "-n", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: k=10 outside 2..9")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("set_expr, message", [
        ("{\u0661\u0662}", "error: not a digit-string pattern: "),
        ("Tkm(\u0663,1)", "error: cannot parse set expression "),
        ("{1\u00b2}", "error: not a digit-string pattern: "),
    ], ids=["arabic-indic-brace", "arabic-indic-tkm", "superscript"])
    def test_non_ascii_digits_exit_2(self, capsys, set_expr, message):
        # int() and str.isdigit() read these as digits; the grammar does not
        code, out, err = run(capsys, "count", "--set", set_expr, "-n", "3")
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["count", "--set", "{12}", "-n", "\u0661\u0662"],
        ["enumerate", "--set", "{12}", "-n", "3", "--limit", "\u0661"],
        ["verify", "--claims", "catalan", "--n-max", "\u0663"],
        ["map", "prepend", "--beta", "1", "--h", "\u0661"],
    ], ids=["n", "limit", "n-max", "h"])
    def test_non_ascii_integer_option_exits_2(self, capsys, argv):
        # int() reads these as 12, 1, 3 and 1
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "invalid integer" in err

    def test_family_at_nine_counts(self, capsys):
        # every permutation of S_9 starting with 9 is itself in T(9,9)
        code, out, _ = run(capsys, "count", "--set", "Tkm(9,9)", "-n", "9")
        assert code == 0
        assert out == "322560\n"


class TestForcedN:
    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("set_expr", ["{132}", "Tkm(4,2)", "M(4,2;2143)"])
    @pytest.mark.parametrize("n", [str(enumeration.HARD_N_LIMIT + 1),
                                   "4611686018427387904", "99999999999999999999"])
    def test_past_the_hard_limit_exits_2(self, capsys, command, set_expr, n):
        # --force lifts the desk-scale guard but not the hard limit, which is
        # checked before any rule builds its tables
        code, out, err = run(capsys, command, "--set", set_expr, "-n", n,
                             "--force")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: n={n} exceeds the hard limit ")
        assert len(err.splitlines()) == 1

    def test_only_count_and_enumerate_take_force(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "13", "--force")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --force" in err
        code, out, err = run(capsys, "verify", "--n-max", "13")
        assert (code, out) == (2, "")
        assert err.startswith("error: n_max must be <= 12")
        assert run(capsys, "count", "--set", "{12}", "-n", "13",
                   "--force") == (0, "1\n", "")
        assert run(capsys, "enumerate", "--set", "{12}", "-n", "13",
                   "--force") == (0, ",".join(map(str, range(13, 0, -1))) + "\n", "")


class TestEnumerate:
    def test_t31(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--set", "Tkm(3,1)", "-n", "3")
        assert code == 0
        assert out == "2,1,3\n2,3,1\n3,1,2\n3,2,1\n"

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--set", "Tkm(3,1)", "-n", "3",
                           "--limit", "2")
        assert code == 0
        assert out == "2,1,3\n2,3,1\n"

    def test_single_pattern(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--set", "{12}", "-n", "3")
        assert code == 0
        assert out == "3,2,1\n"

    def test_m_expression_enumerates_exactly_once_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--set", "M(3,1;132)", "-n", "3")
        assert code == 0
        assert out == "1,3,2\n"

    def test_limit_stops_a_walk_of_1200_entries(self, capsys):
        # The walker is iterative and the limit stops it after one item, so
        # the dead-end tree behind the identity is never searched.
        code, out, err = run(capsys, "enumerate", "--set", "{21}", "-n", "1200",
                             "--force", "--limit", "1")
        assert code == 0
        assert err == ""
        assert out == ",".join(str(v) for v in range(1, 1201)) + "\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exits_2(self, capsys, limit):
        code, out, err = run(capsys, "enumerate", "--set", "{12}", "-n", "3",
                             "--limit", limit)
        assert code == 2
        assert out == ""
        assert "limit must be a positive integer" in err


class TestInternalErrors:
    def test_guard_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration, "avoids_all", lambda p, s: False)
        code, out, err = run(capsys, "enumerate", "--set", "Tkm(3,1)", "-n", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RuntimeError: enumerated 2,1,3")

    def test_inexact_division_exits_3(self, capsys, monkeypatch):
        def inexact(*args, **kwargs):
            raise ArithmeticError("inexact division 7/2")

        monkeypatch.setattr(cli, "count_avoiders", inexact)
        code, _, err = run(capsys, "count", "--set", "{12}", "-n", "4")
        assert code == 3
        assert err == "internal error: ArithmeticError: inexact division 7/2\n"


class TestOccurrences:
    def test_count_then_tuples(self, capsys):
        code, out, _ = run(capsys, "occurrences", "--host", "1,3,2,4",
                           "--pattern", "1,2,3")
        assert code == 0
        assert out == "2\n(1,2,4)\n(1,3,4)\n"

    def test_no_occurrences(self, capsys):
        code, out, _ = run(capsys, "occurrences", "--host", "2,1",
                           "--pattern", "1,2")
        assert code == 0
        assert out == "0\n"

    def test_whole_host(self, capsys):
        code, out, _ = run(capsys, "occurrences", "--host", "1,3,2",
                           "--pattern", "1,3,2")
        assert code == 0
        assert out == "1\n(1,2,3)\n"

    def test_pattern_of_1200_entries(self, capsys):
        # deeper than the interpreter's default recursion limit
        identity = ",".join(str(v) for v in range(1, 1201))
        code, out, _ = run(capsys, "occurrences", "--host", identity,
                           "--pattern", identity)
        assert code == 0
        assert out == f"1\n({identity})\n"

    def test_limit_lists_the_first_tuples(self, capsys):
        code, out, _ = run(capsys, "occurrences", "--host", "1,3,2,4",
                           "--pattern", "1,2,3", "--limit", "1")
        assert code == 0
        assert out == "2\n(1,2,4)\n"

    def test_bad_permutation_exits_2(self, capsys):
        code, _, err = run(capsys, "occurrences", "--host", "1,1",
                           "--pattern", "1,2")
        assert code == 2
        assert "error" in err

    def test_limit_below_one_exits_2_before_printing(self, capsys):
        code, out, err = run(capsys, "occurrences", "--host", "1,2",
                             "--pattern", "1,2", "--limit", "0")
        assert code == 2
        assert out == ""
        assert err == "error: limit must be a positive integer\n"

    def test_non_ascii_host_exits_2(self, capsys):
        code, out, err = run(capsys, "occurrences", "--host", "\u0661",
                             "--pattern", "1")
        assert code == 2
        assert out == ""
        assert err == "error: not an integer sequence: '\u0661'\n"

    def test_work_guard_exits_2_before_printing(self, capsys):
        # 15 * C(30,15) steps at most: past the limit, although a
        # decreasing host holds no increasing pattern
        host = ",".join(str(v) for v in range(30, 0, -1))
        pattern = ",".join(str(v) for v in range(1, 16))
        steps = 15 * math.comb(30, 15)
        assert steps > enumeration.OCCURRENCE_WORK_LIMIT
        code, out, err = run(capsys, "occurrences", "--host", host,
                             "--pattern", pattern)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a length-15 pattern in a length-30 "
                              f"host may take {steps} search steps")
        assert len(err.splitlines()) == 1
        assert run(capsys, "occurrences", "--host", host, "--pattern",
                   pattern, "--force") == (0, "0\n", "")

    def test_work_guard_passes_at_the_limit(self, capsys, monkeypatch):
        # 3 * C(4,3) = 12 steps: refused only past the limit
        monkeypatch.setattr(cli, "OCCURRENCE_WORK_LIMIT", 12)
        assert run(capsys, "occurrences", "--host", "1,3,2,4", "--pattern",
                   "1,2,3")[0] == 0
        monkeypatch.setattr(cli, "OCCURRENCE_WORK_LIMIT", 11)
        assert run(capsys, "occurrences", "--host", "1,3,2,4", "--pattern",
                   "1,2,3")[0] == 2


class TestMap:
    def test_prepend(self, capsys):
        code, out, _ = run(capsys, "map", "prepend", "--beta", "1,2", "--h", "2")
        assert code == 0
        assert out == "2,1,3\n"

    def test_insertbottom(self, capsys):
        code, out, _ = run(capsys, "map", "insertbottom", "--beta", "2,1,3",
                           "--h", "2")
        assert code == 0
        assert out == "3,1,2,4\n"

    def test_removebottom(self, capsys):
        code, out, _ = run(capsys, "map", "removebottom", "--alpha", "3,1,2,4")
        assert code == 0
        assert out == "2,1,3 (h=2)\n"

    def test_removebottom_without_alpha_exits_2(self, capsys):
        code, out, err = run(capsys, "map", "removebottom")
        assert (code, out) == (2, "")
        assert err == "error: map removebottom needs --alpha\n"

    def test_h_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "map", "prepend", "--beta", "1,2", "--h", "9")
        assert code == 2
        assert "error" in err

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run(capsys, "map", "prepend", "--h", "1")
        assert code == 2


class TestVerify:
    def test_single_claim_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "theorem1",
                           "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].endswith("pass")
        total = int(lines[-1].split("/")[1].split()[0])
        passed = int(lines[-1].split("/")[0])
        assert passed == total

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claims", "bogus")
        assert code == 2
        assert "unknown claim" in err

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--claims", "catalan",
                           "--n-max", "5", "--format", "json",
                           "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert all(entry["claim"] == "catalan" for entry in data)
        assert str(out_path) in out

    def test_unwritable_report_path_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--claims", "theorem1",
                             "--n-max", "4", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write the report: ")
        assert len(err.splitlines()) == 1

    def test_failing_record_exits_1(self, capsys, monkeypatch):
        fake = VerificationRecord(claim="theorem1", params=(("n", 5),),
                                  oracle=1, formula=2, passed=False, ms=0)

        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: [fake])
        code, out, _ = run(capsys, "verify", "--claims", "theorem1")
        assert code == 1
        assert "FAIL theorem1" in out
        assert "oracle=1" in out and "formula=2" in out

    def test_stdout_has_no_timing_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--claims", "theorem1",
                           "--n-max", "5")
        assert code == 0
        assert "ms" not in out

    def test_deterministic_stdout(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--claims", "all", "--n-max", "4")
        code2, out2, _ = run(capsys, "verify", "--claims", "all", "--n-max", "4")
        assert (code1, out1) == (code2, out2)

    def test_repeated_claim_runs_once(self, capsys, tmp_path):
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        code, out, _ = run(capsys, "verify", "--claims", "catalan,catalan",
                           "--n-max", "3", "--out", str(twice))
        assert code == 0
        assert out.splitlines()[0] == "18/18 pass"
        assert run(capsys, "verify", "--claims", "catalan", "--n-max", "3",
                   "--out", str(once))[0] == 0
        strip_ms = lambda path: re.sub(r'"ms": \d+', '"ms": 0', path.read_text())
        assert strip_ms(twice) == strip_ms(once)


class _ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _child_env():
    """The environment for a `python -m permpat` child run on this tree."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestLargeListing:
    def test_an_m_listing_at_2000_prints_its_first_member(self):
        # the whole re-check of a 2000-entry member runs in the child, so a
        # guard that has regressed ends this test, not the run
        done = subprocess.run(
            [sys.executable, "-m", "permpat", "enumerate", "--set",
             "M(9,5;512346789)", "-n", "2000", "--force", "--limit", "1"],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        values = list(range(1, 2001))
        values[1991:1996] = [1996, 1992, 1993, 1994, 1995]
        assert done.stdout == ",".join(map(str, values)) + "\n"


class _Recorder(io.StringIO):
    """A stdout that keeps each write call and what had been written at
    each flush."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.flushed = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)

    def flush(self):
        self.flushed.append(self.getvalue())


def _listing(expr, n):
    """The members the CLI lists for `enumerate --set expr -n n`, from the
    library."""
    pattern_set = parse_set_expression(expr)
    if pattern_set.kind == "mkm":
        return enumeration.enumerate_exactly_once(n, pattern_set)
    return enumeration.enumerate_avoiders(n, pattern_set)


class TestListingWriter:
    """`enumerate` and `occurrences` write their lines in blocks: the first
    line at once, then blocks of at least io.DEFAULT_BUFFER_SIZE characters,
    each in one write call, with the bytes print would give."""

    @pytest.mark.parametrize("expr, n", [("Tkm(4,2)", 8), ("U(4;1,2)", 8),
                                         ("{1324}", 7), ("M(4,2;2143)", 9)])
    def test_the_output_is_the_listing(self, capsys, expr, n):
        code, out, err = run(capsys, "enumerate", "--set", expr, "-n", str(n))
        assert (code, err) == (0, "")
        assert out == "".join(f"{p}\n" for p in _listing(expr, n))

    def test_a_listing_is_written_in_blocks(self, monkeypatch):
        # print makes two write calls per line: 26,244 here
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["enumerate", "--set", "Tkm(4,2)", "-n", "10"]) == 0
        size = len(out.getvalue())
        assert size == 275562
        assert len(out.writes) <= -(-size // io.DEFAULT_BUFFER_SIZE) + 2
        assert all(len(text) >= io.DEFAULT_BUFFER_SIZE
                   for text in out.writes[1:-1])

    def test_the_first_line_is_flushed_before_the_second_member(
            self, monkeypatch):
        out = _Recorder()
        handed = []
        listing = cli.enumerate_avoiders

        def watched(*args, **kwargs):
            members = listing(*args, **kwargs)
            yield next(members)
            handed.append(out.flushed[-1] if out.flushed else "")
            yield from members

        monkeypatch.setattr(cli, "enumerate_avoiders", watched)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["enumerate", "--set", "Tkm(4,2)", "-n", "10"]) == 0
        assert handed == ["1,2,3,4,5,6,7,8,9,10\n"]

    @pytest.mark.parametrize("listed", [0, 1, 2, 1000])
    def test_a_failed_guard_reports_after_the_lines_before_it(
            self, monkeypatch, listed):
        # stdout and stderr share one stream, so the order shows
        members = [f"{p}\n" for p in islice(_listing("Tkm(4,2)", 10),
                                            listed + 1)]
        passed = 0

        def avoids_all(p, pattern_set):
            nonlocal passed
            passed += 1
            return passed <= listed

        monkeypatch.setattr(enumeration, "avoids_all", avoids_all)
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", out)
        assert main(["enumerate", "--set", "Tkm(4,2)", "-n", "10"]) == 3
        head = "".join(members[:listed])
        assert out.getvalue() == (
            head + f"internal error: RuntimeError: enumerated "
            f"{members[-1][:-1]} fails avoids_all for Tkm(4,2)\n")

    def test_an_unbuffered_child_writes_blocks(self):
        # the reader takes whatever each write left in the pipe, so one or
        # two write syscalls per line would reach it in thousands of reads
        env = dict(_child_env(), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "permpat", "enumerate", "--set",
             "Tkm(4,2)", "-n", "10"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc:
            chunks = list(iter(lambda: os.read(proc.stdout.fileno(), 1 << 16),
                               b""))
            assert proc.wait(timeout=60) == 0
        expected = "".join(f"{p}\n" for p in _listing("Tkm(4,2)", 10))
        assert b"".join(chunks) == expected.encode()
        assert len(chunks) <= 50


class TestClosedPipe:
    def test_enumerate_into_closed_pipe_exits_0_quietly(self):
        # the listing is far larger than a pipe buffer, so the child is
        # still writing when the reader closes the pipe
        with subprocess.Popen(
                [sys.executable, "-m", "permpat", "enumerate", "--set",
                 "Tkm(4,2)", "-n", "10"],
                env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"1,2,3,4,5,6,7,8,9,10\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_failed_verify_into_closed_pipe_still_exits_1(
            self, capsys, monkeypatch, tmp_path):
        fake = VerificationRecord(claim="theorem1", params=(("n", 5),),
                                  oracle=1, formula=2, passed=False, ms=0)
        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: [fake])
        with _ClosedPipe(open(tmp_path / "stdout", "wb")) as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["verify", "--claims", "theorem1"]) == 1
        assert capsys.readouterr().err == ""


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Tkm(k,m)" in out

    def test_option_surface(self):
        # Pins every subcommand's options: a new flag shows up here as a
        # test diff, and each one needs a caller.
        parser = cli._build_parser()
        (commands,) = [action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        surface = {name: [s for action in sub._actions
                          for s in action.option_strings or [action.dest]]
                   for name, sub in commands.items()}
        assert surface == {
            "count": ["-h", "--help", "--set", "-n", "--force"],
            "enumerate": ["-h", "--help", "--set", "-n", "--limit", "--force"],
            "occurrences": ["-h", "--help", "--host", "--pattern", "--limit",
                            "--force"],
            "verify": ["-h", "--help", "--claims", "--n-max", "--format",
                       "--out", "--parallel"],
            "map": ["-h", "--help", "which", "--beta", "--alpha", "--h"],
        }

    def test_package_surface(self):
        # Pins the public names of `import permpat` the same way: an API
        # change shows up here as a test diff.
        names = sorted(name for name in dir(permpat) if not name.startswith("_")
                       and not inspect.ismodule(getattr(permpat, name)))
        assert names == [
            "ADVISORY_CLAIMS", "Claim", "DESK_SCALE_LIMIT", "PatternSet",
            "Permutation", "VerificationRecord", "adhoc_set", "avoids_all",
            "bona", "build_m", "build_tkm", "build_union_tkm",
            "builtin_claims", "catalan", "contains_exactly_once",
            "count_avoiders", "count_exactly_once", "count_occurrences",
            "enumerate_avoiders", "enumerate_exactly_once", "failed_records",
            "formula_corollary_interval", "formula_theorem1",
            "formula_theorem3", "formula_theorem4", "insert_bottom",
            "iter_occurrences", "noonan", "occurrence_histogram",
            "parse_compact", "parse_permutation", "parse_set_expression",
            "prepend_insert", "recurrence_coefficient", "remove_bottom",
            "robertson_both", "robertson_single", "run_suite",
            "verify_claim", "write_report",
        ]

    def test_subcommand_help_documents_grammar(self, capsys):
        assert main(["count", "--help"]) == 0
        out = capsys.readouterr().out
        assert "M(k,m;tau)" in out
        assert "{123,132}" in out

    def test_count_help_says_the_guard_bounds_n_not_work(self, capsys):
        assert main(["count", "--help"]) == 0
        out = capsys.readouterr().out
        assert "guard bounds n, not work" in out
        assert '"{123456789}" at n = 12' in out
