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
        with pytest.raises(ScaleGuardError, match="monoid census n=9"):
            run_audit(9)


class TestFaultInjection:
    def test_corrupted_by_arch_is_caught(self):
        def corrupt(res):
            by_arch = dict(res.by_arch)
            if res.n == 3 and 2 in by_arch:
                by_arch[2] += 1
            return replace(res, by_arch=by_arch, monoid_count=sum(by_arch.values()))

        report = run_audit(3, census_hook=corrupt)
        assert not report.overall
        failing = {r.name for r in report.failures}
        assert "dm2-census-vs-formula" in failing

    def test_corrupted_magma_count_is_caught(self):
        def corrupt(res):
            if res.magma_count is None:
                return res
            return replace(res, magma_count=res.magma_count + 1)

        report = run_audit(2, census_hook=corrupt)
        assert not report.overall
        assert any(r.name == "magma-count-vs-robbins" for r in report.failures)

    def test_corrupted_emitted_arch_is_caught(self):
        def corrupt(res):
            if res.n != 4:
                return res
            archs = list(res.emitted_arch)
            archs[archs.index(2)] = 3
            return replace(res, emitted_arch=tuple(archs))

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
