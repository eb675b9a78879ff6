import json
import time

import pytest

from distmon import census, table
from distmon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def example_file(tmp_path, example_monoid):
    path = tmp_path / "example.json"
    table.dump(example_monoid, path)
    return str(path)


class TestVerify:
    def test_monoid_ok(self, capsys, example_file):
        code, out, _ = run(capsys, "verify", example_file, "--expect-monoid")
        assert code == 0
        report = json.loads(out)
        assert report["is_monoid"] is True

    def test_nonassociative_magma_fails_monoid_expectation(self, capsys, tmp_path):
        t = table.from_upper_triangle(3, (2, 2, 3, 3, 3, 3))
        path = tmp_path / "bad.json"
        table.dump(t, path)
        code, out, _ = run(capsys, "verify", str(path), "--expect-monoid")
        assert code == 1
        report = json.loads(out)
        assert report["is_magma"] is True and report["is_monoid"] is False
        assert report["violations"][0]["axiom"] == "associativity"
        assert len(report["violations"][0]["witness"]) == 3

    def test_truncated_file(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"n": 2, "table": [[0')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err

    def test_out_of_range_cell(self, capsys, tmp_path):
        path = tmp_path / "range.json"
        path.write_text('{"n": 1, "table": [[0, 1], [1, 2]]}')
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/x.json")
        assert code == 2


class TestAnalyze:
    def test_example(self, capsys, example_file):
        code, out, _ = run(capsys, "analyze", example_file)
        assert code == 0
        d = json.loads(out)
        assert d["arch"] == 3
        assert d["class_sizes"] == [2, 3]
        assert d["ap_longest"] == 2

    def test_max_monoid(self, capsys, tmp_path):
        path = tmp_path / "max4.json"
        table.dump(table.max_monoid(4), path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        d = json.loads(out)
        assert d["arch"] == 1
        assert d["class_sizes"] == [1, 1, 1, 1]

    def test_capped(self, capsys, tmp_path):
        path = tmp_path / "cap5.json"
        table.dump(table.capped_naturals(5), path)
        code, out, _ = run(capsys, "analyze", str(path))
        d = json.loads(out)
        assert d["arch"] == 5 and d["class_sizes"] == [5] and d["ap_longest"] == 5

    def test_rejects_non_monoid(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        table.dump(table.from_upper_triangle(3, (2, 2, 3, 3, 3, 3)), path)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert err


class TestCensus:
    def test_n4_json(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4")
        assert code == 0
        d = json.loads(out)
        assert d["monoid_count"] == "22"
        assert d["by_arch"] == {"1": "1", "2": "14", "3": "6", "4": "1"}

    def test_magmas_count_only(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--magmas", "--count-only")
        assert code == 0
        assert out.strip() == "7"

    def test_arch_count_only(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--arch", "4", "--count-only")
        assert code == 0
        assert out.strip() == "8"

    def test_jobs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "census", "--n", "5")
        _, out4, _ = run(capsys, "census", "--n", "5", "--jobs", "4")
        assert out1 == out4

    def test_emit_round_trip(self, capsys, tmp_path):
        from distmon.census import SearchConfig, enumerate_tables

        outdir = tmp_path / "emitted"
        code, _, _ = run(capsys, "census", "--n", "3", "--emit", str(outdir))
        assert code == 0
        files = sorted(outdir.iterdir())
        expected = enumerate_tables(SearchConfig(n=3, emit=True)).emitted
        assert len(files) == len(expected) == 6
        for path, t in zip(files, expected):
            assert table.load(path) == t

    def test_bad_emit_path_fails_before_the_census(self, capsys, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("the census ran before --emit made its directory")

        monkeypatch.setattr(census, "stream_tables", refuse)
        monkeypatch.setattr(census, "enumerate_tables", refuse)
        path = tmp_path / "a-file"
        path.write_text("")
        code, out, err = run(capsys, "census", "--n", "3", "--emit", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 17] File exists") and err.count("\n") == 1

    def test_guard_precedes_the_emit_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("DISTMON_SCALE_OVERRIDE", raising=False)
        code, _, err = run(capsys, "census", "--n", "9", "--emit", str(tmp_path / "out"))
        assert code == 2 and "guard" in err
        assert list(tmp_path.iterdir()) == []

    def test_emit_holds_few_tables(self, capsys, tmp_path, monkeypatch, live_tables):
        # files are written as the magma walk reaches them; holding every
        # table would keep all 7436 magmas on 6 elements alive at once
        real = table.dump
        samples = []
        calls = 0

        def sampling(t, path):
            nonlocal calls
            calls += 1
            if calls % 1500 == 0:
                samples.append(live_tables())
            real(t, path)

        monkeypatch.setattr(table, "dump", sampling)
        outdir = tmp_path / "m6"
        code, _, _ = run(capsys, "census", "--n", "6", "--magmas", "--emit", str(outdir))
        assert code == 0
        assert calls == len(list(outdir.iterdir())) == 7436
        assert len(samples) == 4 and max(samples) <= 3

    def test_scale_guard_exit(self, capsys):
        code, _, err = run(capsys, "census", "--n", "9")
        assert code == 2
        assert "guard" in err

    def test_scale_override_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTMON_SCALE_OVERRIDE", "1")
        code, out, _ = run(capsys, "census", "--n", "8", "--magmas", "--count-only")
        assert code == 0
        assert out.strip() == "10850216"

    def test_dm_table_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--n", "3", "--dm-table")
        assert code == 0
        assert out.splitlines()[0] == "n,k,count"
        assert out == "n,k,count\n1,1,1\n2,1,1\n2,2,1\n3,1,1\n3,2,4\n3,3,1\n"
        path = tmp_path / "rows.csv"
        code, to_file, _ = run(capsys, "census", "--n", "3", "--dm-table", "--csv", str(path))
        assert code == 0 and to_file == ""
        assert path.read_text() == out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n", "4", "--dm-table", "--emit", "DIR", "--magmas"],
            ["--n", "4", "--dm-table", "--emit", "DIR"],
            ["--n", "4", "--dm-table", "--magmas"],
            ["--n", "3", "--dm-table", "--count-only", "--arch", "2"],
            ["--n", "3", "--dm-table", "--arch", "2"],
            ["--n", "3", "--dm-table", "--count-only"],
            ["--n", "3", "--csv", "FILE"],
            ["--n", "3", "--emit", "DIR", "--csv", "FILE"],
            ["--n", "3", "--dm-table", "--csv", ""],
        ],
    )
    def test_ignored_flag_exits_2(self, capsys, tmp_path, flags):
        # a flag the chosen mode would not use is refused, not dropped
        paths = {"DIR": str(tmp_path / "out"), "FILE": str(tmp_path / "rows.csv")}
        code, out, err = run(capsys, "census", *(paths.get(f, f) for f in flags))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_dm_table_n_below_1_exits_2(self, capsys, n):
        code, out, err = run(capsys, "census", "--dm-table", "--n", n)
        assert (code, out, err) == (2, "", "error: census requires n >= 1\n")
        assert census.dm_table(0) == []


class TestFormula:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["formula", "dm2", "--n", "4"], "14"),
            (["formula", "bell", "--n", "5"], "52"),
            (["formula", "stirling2", "--n", "4", "--k", "2"], "7"),
            (["formula", "near-top", "--n", "9", "--k", "2"], "137"),
            (["formula", "lower-bound", "--n", "10", "--k", "2"], "28"),
            (["formula", "a-chains", "--n", "3", "--k", "2"], "9"),
        ],
    )
    def test_values(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_out_of_domain(self, capsys):
        code, _, err = run(capsys, "formula", "near-top", "--n", "5", "--k", "2")
        assert code == 2
        assert "no closed form" in err

    def test_missing_k(self, capsys):
        code, _, _ = run(capsys, "formula", "stirling2", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["formula", "dm2", "--n", "100000"],
            ["formula", "bell", "--n", "1001"],
            ["formula", "stirling2", "--n", "100000", "--k", "3"],
            ["formula", "lower-bound", "--n", "2000000", "--k", "1000000"],
            ["formula", "a-chains", "--n", "100000000", "--k", "2"],
            ["formula", "a-chains", "--n", "1000", "--k", "9" * 4000],
        ],
    )
    def test_scale_guard(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "guard" in err and "Traceback" not in err

    def test_a_chains_digit_limit(self, capsys, monkeypatch):
        # 10^4299 has 4300 digits and prints; 10^4300 would not
        monkeypatch.setenv("DISTMON_SCALE_OVERRIDE", "1")
        code, out, _ = run(capsys, "formula", "a-chains", "--n", "4300", "--k", "9")
        assert code == 0 and out.strip() == "1" + "0" * 4299
        code, out, err = run(capsys, "formula", "a-chains", "--n", "4301", "--k", "9")
        assert code == 2 and out == "" and "guard" in err


class TestBuild:
    def test_sup_writes_example(self, capsys, tmp_path, example_monoid):
        out = tmp_path / "t.json"
        code, _, _ = run(capsys, "build", "sup", "--values", "1,2,5,6,7", "--out", str(out))
        assert code == 0
        assert table.load(out) == example_monoid

    def test_sup_warns_on_non_monoid(self, capsys):
        code, out, err = run(capsys, "build", "sup", "--values", "2,7/2,6")
        assert code == 0
        assert "not associative" in err
        assert json.loads(out)["n"] == 3

    @pytest.mark.parametrize("values", ["1,1e10000000", "1E-4301,1"])
    def test_sup_rejects_huge_exponent(self, capsys, values):
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "sup", "--values", values)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "exponent" in err and "Traceback" not in err

    def test_sup_parses_decimal_forms(self, capsys):
        code, out, _ = run(capsys, "build", "sup", "--values", "2.5,7/2,1e2,1e4300")
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_counterexample(self, capsys, tmp_path):
        out = tmp_path / "cx.json"
        code, _, _ = run(capsys, "build", "counterexample", "--m", "4", "--out", str(out))
        assert code == 0
        assert table.load(out).n == 11

    def test_complexity2_from_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"composition": [1, 3], "chains": {"2": [[3]]}}')
        code, out, _ = run(capsys, "build", "complexity2", "--spec", str(spec))
        assert code == 0
        t = table.from_json_dict(json.loads(out))
        assert t.is_monoid

    @pytest.mark.parametrize(
        "text",
        [
            "[1]",  # not an object
            "{}",  # no composition
            '{"composition": "13"}',  # composition not a list
            '{"composition": [1, 0]}',  # non-positive part
            '{"composition": [1, 2.5]}',  # non-integer part
            '{"composition": [1, true]}',  # boolean part
            '{"composition": [1, 3]}',  # chains entry "2" missing
            '{"composition": [1, 3], "chains": [[[3]]]}',  # chains not an object
            '{"composition": [1, 3], "chains": {"2": [3]}}',  # entry not a list of lists
            '{"composition": [1, 3], "chains": {"2": [["3"]]}}',  # non-integer member
            '{"composition": [1, 3], "chains": {"2": [[3]], "3": [[1]]}}',  # extra entry
        ],
    )
    def test_complexity2_malformed_spec(self, capsys, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, out, err = run(capsys, "build", "complexity2", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_lower_bound_family_dir(self, capsys, tmp_path):
        outdir = tmp_path / "family"
        code, _, _ = run(
            capsys, "build", "lower-bound", "--n", "5", "--k", "1", "--out", str(outdir)
        )
        assert code == 0
        files = sorted(outdir.iterdir())
        assert len(files) == 3
        for path in files:
            assert table.load(path).is_monoid

    def test_lower_bound_single_member(self, capsys):
        code, out, _ = run(
            capsys, "build", "lower-bound", "--n", "6", "--k", "2", "--indices", "1,3"
        )
        assert code == 0
        assert json.loads(out)["n"] == 6

    def test_missing_required_arg(self, capsys):
        code, _, _ = run(capsys, "build", "sup")
        assert code == 2

    def test_counterexample_guard_says_how_to_lift_it(self, capsys, monkeypatch):
        monkeypatch.delenv("DISTMON_SCALE_OVERRIDE", raising=False)
        code, out, err = run(capsys, "build", "counterexample", "--m", "7")
        assert (code, out) == (2, "")
        assert err == (
            "error: counterexample step=7 exceeds the desk-scale guard (6); "
            "set DISTMON_SCALE_OVERRIDE=1 to lift it\n"
        )


class TestAudit:
    def test_small_audit_passes(self, capsys):
        code, out, _ = run(capsys, "audit", "--n-max", "3")
        assert code == 0
        report = json.loads(out)
        assert report["overall_pass"] is True
        by_name = {}
        for rec in report["checks"]:
            by_name.setdefault(rec["check"], []).append(rec)
        rec_a = [r for r in by_name["dm2-census-vs-formula"] if r["parameters"]["n"] == 3]
        assert rec_a[0]["expected"] == "4" and rec_a[0]["actual"] == "4"

    def test_audit_n5_record_count(self, capsys):
        code, out, _ = run(capsys, "audit", "--n-max", "5")
        assert code == 0
        report = json.loads(out)
        assert len(report["checks"]) >= 8
        assert report["overall_pass"] is True

    def test_timings_on_stderr_only(self, capsys):
        _, plain_out, plain_err = run(capsys, "audit", "--n-max", "3")
        code, out, err = run(capsys, "audit", "--n-max", "3", "--timings")
        assert code == 0 and out == plain_out and plain_err == ""
        timings = json.loads(err)
        assert timings["census_s"] > 0
        checks = json.loads(out)["checks"]
        assert [(t["check"], t["parameters"]) for t in timings["checks"]] == [
            (c["check"], c["parameters"]) for c in checks
        ]
        assert all(t["elapsed_s"] >= 0 for t in timings["checks"])

    def test_failed_audit_exits_1_with_record(self, capsys, monkeypatch):
        from distmon import audit as audit_module
        from distmon.audit import AuditReport, CheckRecord

        broken = AuditReport(
            (CheckRecord("magma-count-vs-robbins", {"n": 3}, "7", "8", False),)
        )
        monkeypatch.setattr(audit_module, "run_audit", lambda **kw: broken)
        code, out, err = run(capsys, "audit", "--n-max", "3")
        assert code == 1
        assert json.loads(out)["overall_pass"] is False
        assert "magma-count-vs-robbins" in err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
