import csv
import json

import pytest

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
        assert [sum(map(len, c.grid(n_max))) for c in claims] == sizes

    def test_groups_are_nonempty_and_within_n_max(self):
        for claim in builtin_claims():
            for group in claim.grid(4):
                assert group
                assert all(1 <= p["n"] <= 4 for p in group)

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
        # the k=4 ms=1,4 probe genuinely fails at n=5; it must be visible
        # when advisory findings are included
        soft = failed_records(records, include_advisory=True)
        assert any(r.params_dict().get("ms") == "1,4" and r.params_dict()["n"] == 5
                   for r in soft)


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
