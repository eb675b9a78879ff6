import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from distmon import analysis, builders, census
from distmon.analysis import ap_profile, arch_complexity, decompose
from distmon.audit import run_audit
from distmon.builders import (
    Complexity2Spec,
    build_complexity2,
    counterexample_family,
    counterexample_values,
    enumerate_complexity2,
    lower_bound_family,
    sup_monoid,
)
from distmon.errors import SCALE_OVERRIDE_ENV, ScaleGuardError, scale_override_active
from distmon.formulas import dm_n_2
from distmon.table import capped_naturals, validate


class TestSupMonoid:
    def test_example_values(self, example_monoid):
        t, is_monoid = sup_monoid([1, 2, 5, 6, 7])
        assert is_monoid
        assert t == example_monoid
        assert arch_complexity(t) == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_consecutive_integers_give_capped(self, n):
        t, is_monoid = sup_monoid(range(1, n + 1))
        assert is_monoid
        assert t == capped_naturals(n)
        assert arch_complexity(t) == n

    def test_sparse_pair(self):
        t, is_monoid = sup_monoid([1, 3])
        assert t.oplus(1, 1) == 1
        assert t.oplus(1, 2) == 2
        assert t.oplus(2, 2) == 2
        assert is_monoid
        assert arch_complexity(t) == 1

    def test_not_always_associative(self):
        t, is_monoid = sup_monoid([2, Fraction(7, 2), 6])
        assert t.is_magma
        assert not is_monoid

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            sup_monoid([1, 1])
        with pytest.raises(ValueError):
            sup_monoid([3, 2])
        with pytest.raises(ValueError):
            sup_monoid([0, 1])

    def test_rational_values(self):
        t, is_monoid = sup_monoid([Fraction(1, 2), Fraction(3, 2), 2])
        assert t.is_magma
        assert t.oplus(1, 1) == 1  # 1/2 + 1/2 = 1 < 3/2


class TestComplexity2Spec:
    def test_rejects_all_singletons(self):
        with pytest.raises(ValueError):
            Complexity2Spec((1, 1), (((1,),),))

    def test_rejects_wrong_chain_length(self):
        with pytest.raises(ValueError):
            Complexity2Spec((1, 1, 2), ((), ((1, 2), (2,))))

    def test_rejects_non_nested_chain(self):
        with pytest.raises(ValueError):
            Complexity2Spec((1, 1, 2), (((1,),), ((2,), (1, 2))))

    def test_rejects_missing_class_max(self):
        with pytest.raises(ValueError):
            Complexity2Spec((1, 3), (((1, 2),),))

    def test_json_round_trip(self):
        spec = Complexity2Spec((1, 3), (((3,),),))
        obj = spec.to_json_dict()
        assert obj == {"composition": [1, 3], "chains": {"2": [[3]]}}
        assert Complexity2Spec.from_json_dict(obj) == spec


class TestBuildComplexity2:
    def test_single_class(self):
        for n in range(2, 7):
            t = build_complexity2(Complexity2Spec((n,), ()))
            assert validate(t).is_monoid
            assert arch_complexity(t) == 2
            for s in range(1, n + 1):
                for u in range(s, n + 1):
                    assert t.oplus(s, u) == n

    def test_composition_1_3_with_top_only_chain(self):
        t = build_complexity2(Complexity2Spec((1, 3), (((3,),),)))
        assert arch_complexity(t) == 2
        # class 2 internal sums all reach its maximum (global rank 4)
        for s in range(2, 5):
            for u in range(2, 5):
                assert t.oplus(s, u) == 4
        # cross sums ceil to the only fixed point, the class max
        for s in range(2, 5):
            assert t.oplus(1, s) == 4

    def test_characterizing_laws_elementwise(self):
        spec = Complexity2Spec((2, 2, 3), (((1, 2),), ((1, 3), (3,))))
        t = build_complexity2(spec)
        dec = decompose(t)
        assert dec.sizes == (2, 2, 3)
        bounds = dec.boundaries
        # within-class sums hit the class maximum
        for lo, hi in bounds:
            for a in range(lo, hi + 1):
                for b in range(lo, hi + 1):
                    assert t.oplus(a, b) == hi
        # cross sums ignore the left argument's rank within its class
        for ci in range(len(bounds)):
            for cj in range(ci + 1, len(bounds)):
                li, hi_i = bounds[ci]
                lj, hj = bounds[cj]
                for s in range(lj, hj + 1):
                    vals = {t.oplus(u, s) for u in range(li, hi_i + 1)}
                    assert len(vals) == 1
                    target = vals.pop()
                    assert lj <= target <= hj and target >= s
                    # ceiling absorption: everything at or below class ci's max
                    # fixes the target
                    for r in range(1, hi_i + 1):
                        assert t.oplus(r, target) == target

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_wrong_arch_raises_even_under_python_O(self, flags):
        script = (
            "from distmon import builders\n"
            "builders.arch_complexity = lambda t: 3\n"
            "spec = builders.Complexity2Spec((2,), ())\n"
            "try:\n"
            "    print(builders.build_complexity2(spec).n)\n"
            "except AssertionError as exc:\n"
            "    print('AssertionError:', exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "AssertionError: complexity-2 construction must have arch 2\n"
        )


class TestEnumerateComplexity2:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 14)])
    def test_counts(self, n, count):
        tables = enumerate_complexity2(n)
        assert len(tables) == count == dm_n_2(n)
        assert len(set(tables)) == len(tables)

    def test_all_validate_with_arch2(self):
        for t in enumerate_complexity2(5):
            assert validate(t).is_monoid
            assert arch_complexity(t) == 2

    def test_matches_census_stratum(self, census_cache):
        for n in range(2, 6):
            built = set(enumerate_complexity2(n))
            stratum = {
                t for t in census_cache(n).emitted if arch_complexity(t) == 2
            }
            assert built == stratum

    def test_scale_guard(self):
        with pytest.raises(ScaleGuardError):
            enumerate_complexity2(11)


class TestLowerBoundFamily:
    def test_5_1(self):
        members = lower_bound_family(5, 1)
        assert len(members) == 3
        assert all(arch_complexity(t) == 4 for t in members)
        assert len(set(members)) == 3

    @pytest.mark.parametrize("k", range(1, 4))
    def test_boundary_single_member(self, k):
        members = lower_bound_family(k + 2, k)
        assert len(members) == 1

    def test_explicit_indices(self):
        members = lower_bound_family(6, 2, (1, 3))
        assert len(members) == 1
        assert arch_complexity(members[0]) == 4

    def test_counts_and_distinctness(self):
        from math import comb

        for n in range(4, 9):
            for k in (1, 2):
                if n < k + 2:
                    continue
                members = lower_bound_family(n, k)
                assert len(members) == comb(n - 2, k)
                assert len(set(members)) == len(members)
                assert all(arch_complexity(t) == n - k for t in members)

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_family(3, 2)
        with pytest.raises(ValueError):
            lower_bound_family(6, 2, (0, 3))
        with pytest.raises(ValueError):
            lower_bound_family(6, 2, (3, 1))


class TestCounterexampleFamily:
    def test_m2_is_capped(self):
        assert counterexample_family(2) == capped_naturals(2)

    def test_m3_is_the_example(self, example_monoid):
        assert counterexample_family(3) == example_monoid

    def test_m4_values(self):
        assert counterexample_values(4) == [1, 2, 5, 6, 7, 15, 16, 17, 20, 21, 22]

    @pytest.mark.parametrize("m", range(2, 6))
    def test_sizes_arch_and_ap(self, m):
        t = counterexample_family(m)
        assert t.n == {2: 2, 3: 5, 4: 11, 5: 23}[m]
        assert validate(t).is_monoid
        assert arch_complexity(t) == m
        assert ap_profile(t).longest == 2

    def test_domain_and_guard(self):
        with pytest.raises(ValueError):
            counterexample_family(1)
        with pytest.raises(ScaleGuardError):
            counterexample_family(7)


def _audit_guarded_first(n_max):
    """run_audit(n_max).overall, failing if a census runs while the
    environment variable is unset: the audit's guard must refuse first."""

    def hook(result, tables):
        if not scale_override_active():
            raise AssertionError("the audit ran a census before its guard")
        return result, tables

    return run_audit(n_max, census_hook=hook).overall


# each guard is read when its entry point is called, and only the
# environment variable lifts it
@pytest.mark.parametrize(
    "module,guard,call,expected",
    [
        (analysis, "NAIVE_ORACLE_LIMIT",
         lambda: analysis.arch_complexity_naive(capped_naturals(3)), 3),
        (builders, "ENUMERATE_C2_GUARD",
         lambda: len(builders.enumerate_complexity2(3)), 4),
        (builders, "COUNTEREXAMPLE_GUARD",
         lambda: builders.counterexample_family(3).n, 5),
        (census, "MONOID_GUARD",
         lambda: census.enumerate_tables(census.SearchConfig(n=3)).monoid_count, 6),
        (census, "MONOID_GUARD", lambda: census.dm_table(3)[2], [1, 4, 1]),
        (census, "MONOID_GUARD", lambda: _audit_guarded_first(3), True),
        (census, "MAGMA_GUARD",
         lambda: len(census.enumerate_tables(
             census.SearchConfig(n=3, want_magmas=True, emit=True)).emitted), 7),
    ],
    ids=["naive-oracle", "complexity2", "counterexample",
         "census", "dm-table", "audit", "magma-emission"],
)
def test_guard_read_at_call_time(monkeypatch, module, guard, call, expected):
    monkeypatch.setattr(module, guard, 2)
    monkeypatch.delenv(SCALE_OVERRIDE_ENV, raising=False)
    with pytest.raises(ScaleGuardError, match=r"=3 exceeds the desk-scale guard \(2\)"):
        call()
    monkeypatch.setenv(SCALE_OVERRIDE_ENV, "1")
    assert call() == expected
