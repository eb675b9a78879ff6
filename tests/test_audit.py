import time
from collections import Counter
from dataclasses import replace

import pytest

from distmon import audit
from distmon.audit import run_audit
from distmon.errors import SCALE_OVERRIDE_ENV, ScaleGuardError


class TestRunAudit:
    def test_passes_and_is_deterministic(self):
        a = run_audit(4)
        b = run_audit(4)
        assert a == b
        assert a.overall
        assert a.failures == ()

    def test_expected_check_families_present(self):
        names = {r.name for r in run_audit(5).records}
        assert {
            "dm2-census-vs-formula",
            "dm2-formula-vs-bell",
            "near-top-1-vs-census",
            "magma-count-vs-robbins",
            "arch-dp-vs-naive",
            "long-progression-guarantee",
            "complexity2-bijection",
            "lower-bound-sandwich",
            "class-splitting-agreement",
        } <= names

    def test_no_deep_record_without_flag(self):
        assert not any(r.name.startswith("deep-") for r in run_audit(3).records)

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            run_audit(0)

    def test_scale_guard_precedes_every_census(self, monkeypatch):
        def refuse(config):
            raise AssertionError("the audit ran a census before its scale guard")

        monkeypatch.delenv(SCALE_OVERRIDE_ENV, raising=False)
        monkeypatch.setattr(audit, "enumerate_tables", refuse)
        monkeypatch.setattr(audit, "stream_tables", refuse)
        with pytest.raises(ScaleGuardError, match="monoid census n=10"):
            run_audit(10)

    def test_deep_census_runs_within_the_guard(self, monkeypatch):
        # check (i), the n = 9 census, needs no DISTMON_SCALE_OVERRIDE
        monkeypatch.delenv(SCALE_OVERRIDE_ENV, raising=False)
        deep = [r for r in run_audit(1, deep=True, jobs=2).records if r.name.startswith("deep-")]
        assert [(r.name, r.parameters, r.passed) for r in deep] == [
            ("deep-near-top-2-vs-census", {"n": 9, "k": 2}, True)
        ]


class TestFaultInjection:
    def test_corrupted_by_arch_is_caught(self):
        def corrupt(res, tables):
            by_arch = dict(res.by_arch)
            if res.n == 3 and 2 in by_arch:
                by_arch[2] += 1
            return replace(res, by_arch=by_arch, monoid_count=sum(by_arch.values())), tables

        report = run_audit(3, census_hook=corrupt)
        assert not report.overall
        failing = {r.name for r in report.failures}
        assert "dm2-census-vs-formula" in failing

    def test_corrupted_magma_count_is_caught(self):
        def corrupt(res, tables):
            if res.magma_count is None:
                return res, tables
            return replace(res, magma_count=res.magma_count + 1), tables

        report = run_audit(2, census_hook=corrupt)
        assert not report.overall
        assert any(r.name == "magma-count-vs-robbins" for r in report.failures)

    def test_corrupted_emitted_arch_is_caught(self):
        def corrupt(res, tables):
            if res.n != 4:
                return res, tables
            pairs = list(tables)
            archs = [arch for _, arch in pairs]
            archs[archs.index(2)] = 3
            return res, ((t, arch) for (t, _), arch in zip(pairs, archs))

        report = run_audit(4, census_hook=corrupt)
        failing = {(r.name, r.parameters.get("n")) for r in report.failures}
        assert failing == {("arch-dp-vs-naive", 4), ("complexity2-bijection", 4)}

    def test_json_shape(self):
        obj = run_audit(2).to_json_dict()
        assert obj["overall_pass"] is True
        record = obj["checks"][0]
        assert set(record) == {"check", "parameters", "expected", "actual", "pass"}


class TestArchReuse:
    def test_strata_come_from_the_census(self, monkeypatch):
        # only check (d) computes arch, once per monoid on n <= 5 elements
        calls = Counter()
        real = audit.arch_complexity

        def counting(t):
            calls[t.n] += 1
            return real(t)

        monkeypatch.setattr(audit, "arch_complexity", counting)
        assert run_audit(7).overall
        assert calls == {1: 1, 2: 2, 3: 6, 4: 22, 5: 94}
        assert sum(calls.values()) == 125


class TestTimings:
    def test_times_are_recorded_but_not_compared(self):
        report = run_audit(4)
        assert report.census_s > 0
        assert all(r.elapsed_s >= 0 for r in report.records)
        assert sum(r.elapsed_s for r in report.records) > 0
        stopped = replace(
            report,
            records=tuple(replace(r, elapsed_s=0.0) for r in report.records),
            census_s=0.0,
        )
        assert stopped == report
        assert stopped.to_json_dict() == report.to_json_dict()

    def test_every_splitting_record_has_its_own_time(self):
        splitting = [
            r for r in run_audit(6).records if r.name == "class-splitting-agreement"
        ]
        assert [r.parameters["n"] for r in splitting] == [1, 2, 3, 4, 5, 6]
        assert all(r.elapsed_s > 0 for r in splitting if r.parameters["n"] >= 2)

    def test_per_table_time_goes_to_its_own_check(self, monkeypatch):
        # checks run interleaved, table by table; each record still carries
        # only the seconds of its own check
        real = audit.decompose

        def slow(t):
            if t.n == 4:
                time.sleep(0.02)  # 22 monoids: 0.44 s in all
            return real(t)

        monkeypatch.setattr(audit, "decompose", slow)
        report = run_audit(5)
        slowed = [
            r for r in report.records
            if (r.name, r.parameters["n"]) == ("class-splitting-agreement", 4)
        ]
        assert slowed[0].elapsed_s >= 0.44
        assert all(r.elapsed_s < 0.2 for r in report.records if r is not slowed[0])
        assert report.census_s < 0.2


class TestMemory:
    def test_audit_holds_few_tables(self, monkeypatch, live_tables):
        # each census is one streamed pass; holding every emitted monoid
        # would keep the 2,386 tables on 7 elements alive at once
        real = audit.decompose
        calls = Counter()
        samples = []

        def sampling(t):
            calls[t.n] += 1
            if t.n == 7 and calls[7] % 500 == 0:
                samples.append(live_tables())
            return real(t)

        monkeypatch.setattr(audit, "decompose", sampling)
        assert run_audit(7).overall
        assert len(samples) == 4
        assert max(samples) <= 3
