import csv
import json
import os
import re
import subprocess
import sys
import time

import pytest

import permpat.enumeration as enumeration
import permpat.verify as verify
from permpat.cli import main
from permpat.verify import (
    ADVISORY_CLAIMS,
    VerificationRecord,
    builtin_claims,
    failed_records,
    run_suite,
    verify_claim,
    write_report,
)

from conftest import child_env

# costliest oracle route first: the scan, the level counts, the products
# of rank rows; registry order within a route
RUN_ORDER = ["robertson_both", "theorem3", "theorem3_complement", "theorem4",
             "catalan", "noonan", "bona", "robertson_single", "theorem1",
             "corollary_interval", "corollary_base_constant", "corollary2",
             "corollary2_onset"]


class TestRegistry:
    def test_has_all_required_claim_families(self):
        ids = {c.claim_id for c in builtin_claims()}
        assert {"theorem1", "corollary_interval", "corollary2", "theorem3",
                "theorem3_complement", "theorem4", "catalan", "noonan",
                "bona", "robertson_single", "robertson_both"} <= ids
        assert len(ids) >= 6

    def test_ids_unique(self):
        ids = [c.claim_id for c in builtin_claims()]
        assert len(ids) == len(set(ids))

    def test_onset_probe_is_advisory(self):
        by_id = {c.claim_id: c for c in builtin_claims()}
        assert by_id["corollary2_onset"].advisory
        assert not by_id["theorem1"].advisory


    @pytest.mark.parametrize("n_max, sizes", [
        (3, [3, 6, 6, 0, 0, 2, 2, 2, 18, 1, 1, 1, 0]),
        (4, [10, 22, 16, 0, 7, 10, 10, 16, 24, 2, 2, 2, 0]),
        (9, [70, 102, 16, 36, 81, 50, 50, 86, 48, 6, 6, 6, 4]),
    ])
    def test_bindings_per_claim(self, n_max, sizes):
        claims = builtin_claims()
        assert [c.claim_id for c in claims] == [
            "theorem1", "corollary_interval", "corollary_base_constant",
            "corollary2", "corollary2_onset", "theorem3",
            "theorem3_complement", "theorem4", "catalan", "noonan", "bona",
            "robertson_single", "robertson_both"]
        assert [sum(p["n"] <= n_max for p in c.bindings())
                for c in claims] == sizes

    def test_each_claim_is_one_task_costliest_route_first(self, monkeypatch):
        # run_suite hands each selected claim to _run_claim once: one claim
        # taken from the pipe under parallel, and a selection of one claim
        # forks no worker.
        calls = []
        monkeypatch.setattr(verify, "_run_claim", lambda claim_id, n_max:
                            calls.append((claim_id, n_max)) or [])
        run_suite("all", 4)
        assert calls == [(name, 4) for name in RUN_ORDER]
        calls.clear()
        run_suite(["theorem1", "catalan", "robertson_both", "theorem1"], 4)
        assert calls == [("robertson_both", 4), ("catalan", 4),
                         ("theorem1", 4)]

        def no_fork():
            raise AssertionError("a worker was forked for one claim")

        monkeypatch.setattr(os, "fork", no_fork)
        calls.clear()
        run_suite("theorem1", 9, parallel=True)
        assert calls == [("theorem1", 9)]

    def test_pool_gets_the_costliest_routes_first(self, monkeypatch):
        # with one CPU no worker is forked, and this process takes every
        # claim from the pipe in the order the pipe hands them out
        calls = []
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(verify, "_run_claim", lambda claim_id, n_max:
                            calls.append(claim_id) or [])
        run_suite("all", 9, parallel=True)
        assert calls == RUN_ORDER

    def test_registry_fits_one_byte_per_claim(self):
        # _fan_out hands each claim out as one byte of its _RUN_ORDER index
        assert len(builtin_claims()) < 256

    @pytest.mark.parametrize("claim", builtin_claims(),
                             ids=lambda claim: claim.claim_id)
    def test_route_names_the_oracle_that_counts(self, claim, monkeypatch):
        # Each counting route is spied on where its callers look it up.
        # The first binding at n >= 3 is taken: below the patterns' length
        # catalan's count is n! and no route runs.
        fired = []

        def spy(module, name, route):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                fired.append(route)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(verify, "_scan_count", "scan")
        spy(enumeration, "_levels", "levels")
        spy(enumeration, "_count_family", "rows")
        params = next(p for p in claim.bindings() if p["n"] >= 3)
        verify_claim(claim.claim_id, params)
        assert fired and set(fired) == {claim.route}

    def test_import_loads_no_process_pool(self):
        # only run_suite(parallel=True) with several claims needs the pool
        code = ("import sys, permpat; print(sorted({'concurrent.futures.process',"
                " 'multiprocessing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_parallel_verify_loads_no_process_pool(self):
        # the workers are forked and read their claims from a pipe
        code = ("import sys; from permpat.cli import main; "
                "main(['verify', '--claims', 'theorem1,catalan', '--n-max', '5',"
                " '--parallel']); print(sorted({'concurrent.futures',"
                " 'multiprocessing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.endswith("pass\n[]\n")

    def test_advisory_set_matches_the_claims(self):
        assert ADVISORY_CLAIMS == {c.claim_id for c in builtin_claims()
                                   if c.advisory}


class TestVerifyClaim:
    def test_theorem1_binding(self):
        rec = verify_claim("theorem1", {"n": 6, "k": 4, "m": 1})
        assert rec.oracle == 162
        assert rec.formula == 162
        assert rec.passed

    def test_theorem3_binding(self):
        rec = verify_claim("theorem3", {"n": 5, "k": 3, "m": 1, "tau": "123"})
        assert rec.oracle == 12
        assert rec.formula == 12
        assert rec.passed

    def test_theorem4_binding(self):
        rec = verify_claim("theorem4", {"n": 4, "k": 3, "m": 2, "tau": "213"})
        assert rec.oracle == 2
        assert rec.formula == 2
        assert rec.passed

    def test_robertson_both_binding(self):
        rec = verify_claim("robertson_both", {"n": 6})
        assert rec.formula == 12
        assert rec.oracle == 12

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            verify_claim("bogus", {"n": 4})

    def test_out_of_domain_binding(self):
        with pytest.raises(ValueError):
            verify_claim("theorem1", {"n": 3, "k": 4, "m": 1})

    def test_reproducible_minus_timing(self):
        a = verify_claim("theorem1", {"n": 5, "k": 3, "m": 2})
        b = verify_claim("theorem1", {"n": 5, "k": 3, "m": 2})
        assert (a.claim, a.params, a.oracle, a.formula, a.passed) == \
               (b.claim, b.params, b.oracle, b.formula, b.passed)


class TestRunSuite:
    def test_selection_filtering(self):
        records = run_suite("theorem1", 5)
        assert records
        assert all(r.claim == "theorem1" for r in records)

    def test_list_selection(self):
        records = run_suite(["catalan", "theorem1"], 4)
        assert {r.claim for r in records} == {"catalan", "theorem1"}

    def test_unknown_selection(self):
        with pytest.raises(ValueError):
            run_suite("nope", 5)

    @pytest.mark.parametrize("selection", [["all", "theorem1"],
                                           ["theorem1", "all", "all"]])
    def test_all_mixed_with_claim_ids_is_refused(self, selection):
        # it once read as an unknown claim 'all', next to a list of the
        # known ids that does not name it
        with pytest.raises(ValueError, match="'all' stands alone"):
            run_suite(selection, 5)

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            run_suite([], 5)

    def test_n_max_guard(self):
        with pytest.raises(ValueError):
            run_suite("theorem1", 13)
        with pytest.raises(ValueError):
            run_suite("theorem1", 0)

    @pytest.mark.parametrize("claim", [c.claim_id for c in builtin_claims()])
    def test_n_max_past_nine_adds_no_binding(self, claim, monkeypatch):
        # Every grid stops at n=9 or below, so the largest n_max allowed runs
        # the bindings of n_max=9.  The stub record skips only the counting.
        monkeypatch.setattr(verify, "verify_claim", lambda claim_id, params:
                            VerificationRecord(claim_id, tuple(sorted(params.items())),
                                               0, 0, True, 0))
        assert run_suite(claim, 12) == run_suite(claim, 9)

    def test_records_sorted_deterministically(self):
        records = run_suite(["theorem1", "catalan"], 6)
        keys = [(r.claim, r.params) for r in records]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self, tmp_path, capsys):
        # the full grid through the command line: the same report bytes,
        # once each record's timing is zeroed
        reports = []
        for extra in ([], ["--parallel"]):
            path = tmp_path / f"report{len(reports)}.json"
            assert main(["verify", "--claims", "all", "--n-max", "9",
                         "--out", str(path), *extra]) == 0
            assert "560/561 pass" in capsys.readouterr().out
            reports.append(re.sub(rb'"ms": \d+', b'"ms": 0',
                                  path.read_bytes()))
        assert reports[0] == reports[1]

    def test_theorem1_oracle_independent_of_m(self):
        records = run_suite("theorem1", 6)
        by_nk = {}
        for r in records:
            p = r.params_dict()
            by_nk.setdefault((p["n"], p["k"]), set()).add(r.oracle)
        assert all(len(oracles) == 1 for oracles in by_nk.values())

    def test_theorem3_oracle_independent_of_tau(self):
        records = run_suite(["theorem3", "theorem3_complement"], 6)
        by_nkm = {}
        for r in records:
            p = r.params_dict()
            by_nkm.setdefault((r.claim, p["n"], p["k"], p["m"]), set()).add(r.oracle)
        assert all(len(oracles) == 1 for oracles in by_nkm.values())

    def test_advisory_failures_are_separated(self):
        records = run_suite("corollary2_onset", 6)
        hard = failed_records(records)
        assert hard == []
        # the k=4 ms=1,4 probe genuinely fails at n=5; it must stay
        # visible in the records themselves
        assert any(not r.passed and r.params_dict().get("ms") == "1,4"
                   and r.params_dict()["n"] == 5 for r in records)



def wait_for(path):
    """Wait until `path` exists, or 30 s have passed."""
    deadline = time.monotonic() + 30
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
class TestForkedWorkers:
    """run_suite(parallel=True) with one forked worker beside this process.
    The side whose claims fail takes its first claim while the other side
    waits for that, so the fault is hit whatever the scheduling."""

    @pytest.fixture
    def fail_in(self, monkeypatch, tmp_path):
        def install(side, fault):
            parent = os.getpid()
            taken = tmp_path / "taken"

            def run_claim(claim_id, n_max):
                if (os.getpid() == parent) != (side == "parent"):
                    wait_for(taken)
                    return []
                taken.touch()
                return fault(claim_id)

            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            monkeypatch.setattr(verify, "_run_claim", run_claim)

        return install

    @staticmethod
    def raise_in_worker(claim_id):
        raise ZeroDivisionError(f"{claim_id} in a worker")

    def test_worker_error_is_a_runtime_error(self, fail_in):
        fail_in("worker", self.raise_in_worker)
        with pytest.raises(RuntimeError,
                           match=r"ZeroDivisionError: \w+ in a worker"):
            run_suite("all", 9, parallel=True)
        assert_no_child_left()

    def test_worker_exit_status_is_a_runtime_error(self, fail_in):
        fail_in("worker", lambda claim_id: os._exit(7))
        with pytest.raises(RuntimeError, match="exited with status 7"):
            run_suite("all", 9, parallel=True)
        assert_no_child_left()

    def test_worker_error_exits_3(self, fail_in, capsys):
        fail_in("worker", self.raise_in_worker)
        assert main(["verify", "--parallel"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"internal error: RuntimeError: verify worker "
                            r"failed: ZeroDivisionError: \w+ in a worker\n",
                            err)
        assert_no_child_left()

    def test_error_in_own_share_propagates_once_workers_end(self, fail_in):
        class OwnShareError(Exception):
            pass

        def raise_here(claim_id):
            raise OwnShareError(claim_id)

        fail_in("parent", raise_here)
        with pytest.raises(OwnShareError):
            run_suite("all", 9, parallel=True)
        assert_no_child_left()


def test_parallel_without_fork_runs_every_claim_here(monkeypatch):
    serial = run_suite("all", 7)
    monkeypatch.delattr(os, "fork", raising=False)
    records = run_suite("all", 7, parallel=True)
    assert [r._key()[:-1] for r in records] == [r._key()[:-1] for r in serial]

class TestWriteReport:
    def _one_record(self):
        return verify_claim("theorem1", {"n": 5, "k": 3, "m": 1})

    def test_json_single_record(self, tmp_path):
        path = tmp_path / "r.json"
        write_report([self._one_record()], "json", path)
        data = json.loads(path.read_text())
        assert len(data) == 1
        entry = data[0]
        assert entry["claim"] == "theorem1"
        assert entry["oracle"] == "16"
        assert entry["formula"] == "16"
        assert entry["pass"] is True
        assert entry["params"] == {"n": 5, "k": 3, "m": 1}
        assert isinstance(entry["ms"], int)

    def test_json_empty(self, tmp_path):
        path = tmp_path / "r.json"
        write_report([], "json", path)
        assert json.loads(path.read_text()) == []

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([self._one_record()], "csv", path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["claim", "params", "oracle", "formula", "pass", "ms"]
        assert rows[1][0] == "theorem1"
        assert rows[1][2] == "16"
        assert rows[1][4] == "true"
        assert json.loads(rows[1][1]) == {"n": 5, "k": 3, "m": 1}

    def test_csv_empty_is_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([], "csv", path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["claim", "params", "oracle", "formula", "pass", "ms"]]

    def test_failed_write_leaves_the_old_report(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        write_report([self._one_record()], "csv", path)
        before = path.read_bytes()
        real_writer = csv.writer

        class FailsOnSecondRow:
            def __init__(self, fh):
                self.inner = real_writer(fh)
                self.rows = 0

            def writerow(self, row):
                if self.rows == 1:
                    raise OSError("disk full")
                self.rows += 1
                self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsOnSecondRow)
        with pytest.raises(OSError, match="disk full"):
            write_report([self._one_record()] * 3, "csv", path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["r.csv"]

    def test_new_report_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            write_report([], "json", path)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([], "xml", tmp_path / "r.xml")

    def test_counts_serialized_as_decimal_strings(self, tmp_path):
        rec = VerificationRecord(claim="demo", params=(("n", 6),),
                                 oracle=162, formula=162, passed=True, ms=1)
        path = tmp_path / "r.json"
        write_report([rec], "json", path)
        raw = path.read_text()
        assert '"162"' in raw
