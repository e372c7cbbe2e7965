import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permpat.verify as verify
from permpat.verify import (
    ADVISORY_CLAIMS,
    VerificationRecord,
    builtin_claims,
    failed_records,
    run_suite,
    verify_claim,
    write_report,
)


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

    def test_each_claim_is_one_task_in_registry_order(self, monkeypatch):
        # run_suite hands each selected claim to _run_claim once: one worker
        # task under parallel, and a selection of one claim starts no pool.
        calls = []
        monkeypatch.setattr(verify, "_run_claim", lambda claim_id, n_max:
                            calls.append((claim_id, n_max)) or [])
        run_suite("all", 4)
        assert calls == [(c.claim_id, 4) for c in builtin_claims()]

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one claim")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        calls.clear()
        run_suite("theorem1", 9, parallel=True)
        assert calls == [("theorem1", 9)]

    def test_import_loads_no_process_pool(self):
        # only run_suite(parallel=True) with several claims needs the pool
        code = ("import sys, permpat; print(sorted({'concurrent.futures.process',"
                " 'multiprocessing'} & set(sys.modules)))")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

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

    def test_parallel_matches_serial(self):
        serial = run_suite("all", 5)
        parallel = run_suite("all", 5, parallel=True)
        strip = lambda rs: [(r.claim, r.params, r.oracle, r.formula, r.passed)
                            for r in rs]
        assert strip(serial) == strip(parallel)

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
