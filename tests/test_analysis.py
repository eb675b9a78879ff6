import os
import subprocess
import sys
from pathlib import Path

import pytest

from distmon.analysis import (
    analysis_json,
    ap_profile,
    arch_complexity,
    arch_complexity_naive,
    chains_absorb,
    class_submonoid,
    decompose,
    idempotents,
)
from distmon.builders import counterexample_family
from distmon.errors import SCALE_OVERRIDE_ENV, NotAssociativeError, ScaleGuardError
from distmon.table import capped_naturals, fold_oplus, from_upper_triangle, max_monoid

NONASSOC_3 = from_upper_triangle(3, (2, 2, 3, 3, 3, 3))


class TestArchComplexity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_max_monoid(self, n):
        assert arch_complexity(max_monoid(n)) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_capped_naturals(self, n):
        assert arch_complexity(capped_naturals(n)) == n

    def test_example(self, example_monoid):
        assert arch_complexity(example_monoid) == 3

    def test_rejects_nonassociative(self):
        with pytest.raises(NotAssociativeError):
            arch_complexity(NONASSOC_3)

    def test_undefined_for_empty_monoid(self):
        from distmon.table import from_entries

        trivial = from_entries(0, [[0]])
        assert trivial.is_monoid
        with pytest.raises(ValueError):
            arch_complexity(trivial)
        with pytest.raises(ValueError):
            arch_complexity_naive(trivial)

    def test_naive_matches(self, example_monoid):
        assert arch_complexity_naive(max_monoid(3)) == 1
        assert arch_complexity_naive(capped_naturals(4)) == 4
        assert arch_complexity_naive(example_monoid) == 3

    def test_naive_scale_guard(self, monkeypatch):
        monkeypatch.delenv(SCALE_OVERRIDE_ENV, raising=False)
        with pytest.raises(ScaleGuardError):
            arch_complexity_naive(max_monoid(7))
        monkeypatch.setenv(SCALE_OVERRIDE_ENV, "1")
        assert arch_complexity_naive(max_monoid(7)) == 1

    def test_absorption_monotone_in_chain_length(self, census_cache):
        # absorption at m must persist at m+1; checked on every small monoid
        for n in range(1, 5):
            for t in census_cache(n).emitted:
                flags = [chains_absorb(t, m) for m in range(1, n + 2)]
                assert flags == sorted(flags)
                assert flags[-1]


class TestIdempotents:
    def test_example(self, example_monoid):
        assert idempotents(example_monoid) == {2, 5}

    def test_max_monoid(self):
        assert idempotents(max_monoid(4)) == {1, 2, 3, 4}

    def test_capped(self):
        assert idempotents(capped_naturals(5)) == {5}

    def test_valid_on_magmas(self):
        assert idempotents(NONASSOC_3) == {3}


class TestDecompose:
    def test_example(self, example_monoid):
        dec = decompose(example_monoid)
        assert dec.sizes == (2, 3)
        assert dec.boundaries == ((1, 2), (3, 5))

    def test_max_monoid(self):
        assert decompose(max_monoid(4)).sizes == (1, 1, 1, 1)

    def test_capped(self):
        assert decompose(capped_naturals(5)).sizes == (5,)

    def test_class_count_equals_idempotents(self, census_cache):
        for n in range(1, 6):
            for t in census_cache(n).emitted:
                assert decompose(t).class_count == len(idempotents(t))

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_wrong_split_raises_even_under_python_O(self, flags):
        # audit check (h) counts this AssertionError, so -O must keep it
        script = (
            "from distmon import analysis\n"
            "from distmon.table import capped_naturals\n"
            "analysis.idempotents = lambda t: frozenset({2, 4})\n"
            "try:\n"
            "    print(analysis.decompose(capped_naturals(4)).sizes)\n"
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
            "AssertionError: multiple-stabilization and idempotent splits differ\n"
        )


class TestClassSubmonoid:
    def test_example_class1_is_capped(self, example_monoid):
        assert class_submonoid(example_monoid, 1) == capped_naturals(2)

    def test_example_class2(self, example_monoid):
        sub = class_submonoid(example_monoid, 2)
        assert sub.n == 3
        assert sub.oplus(1, 1) == 3
        assert arch_complexity(sub) == 2

    def test_single_class_is_identity(self):
        t = capped_naturals(4)
        assert class_submonoid(t, 1) == t

    def test_out_of_range(self, example_monoid):
        with pytest.raises(IndexError):
            class_submonoid(example_monoid, 3)

    def test_classes_are_archimedean(self, census_cache):
        for t in census_cache(4).emitted:
            for c in range(1, decompose(t).class_count + 1):
                assert decompose(class_submonoid(t, c)).class_count == 1


class TestApProfile:
    def test_capped(self):
        assert ap_profile(capped_naturals(5)).longest == 5

    def test_example(self, example_monoid):
        prof = ap_profile(example_monoid)
        assert prof.longest == 2
        assert prof.per_element == (2, 1, 2, 2, 1)

    def test_counterexample_member(self):
        t = counterexample_family(4)
        assert ap_profile(t).longest == 2
        assert arch_complexity(t) == 4

    def test_bounds(self, census_cache):
        for t in census_cache(4).emitted:
            prof = ap_profile(t)
            assert all(c >= 1 for c in prof.per_element)
            assert prof.longest <= t.n


class TestStructuralInvariants:
    def test_arch_one_iff_max_monoid(self, census_cache):
        for n in range(1, 6):
            hits = [t for t in census_cache(n).emitted if arch_complexity(t) == 1]
            assert hits == [max_monoid(n)]

    def test_arch_n_iff_capped(self, census_cache):
        for n in range(1, 6):
            hits = [t for t in census_cache(n).emitted if arch_complexity(t) == n]
            assert hits == [capped_naturals(n)]

    def test_class_arch_equals_class_ap_longest(self, census_cache):
        # single-class monoids: complexity == longest internal progression
        for n in range(1, 7):
            for t in census_cache(n).emitted:
                for c in range(1, decompose(t).class_count + 1):
                    sub = class_submonoid(t, c)
                    assert arch_complexity(sub) == ap_profile(sub).longest

    def test_arch_is_not_class_max_regression(self, example_monoid):
        # complexity 3 despite both classes having complexity 2
        subs = [class_submonoid(example_monoid, c) for c in (1, 2)]
        assert [arch_complexity(s) for s in subs] == [2, 2]
        assert arch_complexity(example_monoid) == 3

    def test_ap_witness_refinement(self, census_cache):
        # complexity n-1 with n > 4: some class-minimal element reaches the
        # class maximum in exactly n-1 distinct multiples
        for n in (5, 6):
            for t in census_cache(n).emitted:
                if arch_complexity(t) != n - 1:
                    continue
                dec = decompose(t)
                witnesses = []
                for lo, hi in dec.boundaries:
                    if ap_profile(t).per_element[lo - 1] >= n - 1:
                        witnesses.append((lo, hi))
                assert witnesses
                lo, hi = witnesses[0]
                assert t.multiple(lo, n - 1) == hi


class TestMultiplesOracle:
    def test_census_monoids_against_fold(self, census_cache):
        # multiple, ap_profile and decompose share one walk; the oracle is a
        # plain left fold of m copies
        for n in range(1, 6):
            for t in census_cache(n).emitted:
                folds = {
                    i: [fold_oplus(t, [i] * m) for m in range(1, n + 3)] for i in range(n + 1)
                }
                for i, by_m in folds.items():
                    assert [t.multiple(i, m) for m in range(1, n + 3)] == by_m
                assert ap_profile(t).per_element == tuple(
                    len(set(folds[i])) for i in range(1, n + 1)
                )
                for lo, hi in decompose(t).boundaries:
                    assert hi == folds[lo][-1]


class TestAnalysisJson:
    def test_field_names(self, example_monoid):
        d = analysis_json(example_monoid)
        assert set(d) == {
            "n", "arch", "class_sizes", "idempotents", "ap_longest", "ap_per_element",
        }
        assert d["arch"] == 3
        assert d["class_sizes"] == [2, 3]

    def test_capped(self):
        d = analysis_json(capped_naturals(5))
        assert d["arch"] == 5
        assert d["class_sizes"] == [5]
        assert d["ap_longest"] == 5
