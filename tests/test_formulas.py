import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from distmon import formulas
from distmon.cli import main
from distmon.formulas import (
    CeilingMap,
    _count_chains_explicit,
    bell,
    ceiling_map_from_fixed_points,
    compositions,
    count_A_chains,
    dm_n_2,
    dm_near_top,
    enumerate_A,
    lower_bound,
    stirling2,
)


def partitions_brute(n):
    """All set partitions of {1..n}, built by inserting elements one at a time."""
    parts = [[]]
    for x in range(1, n + 1):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append(p[:i] + [p[i] + [x]] + p[i + 1 :])
            grown.append(p + [[x]])
        parts = grown
    return parts


def dm_n_2_by_compositions(n):
    """The complexity-2 sum taken literally, one composition at a time."""
    total = 0
    for parts in compositions(n):
        if len(parts) <= n - 1:
            total += math.prod(j ** (size - 1) for j, size in enumerate(parts, start=1))
    return total


class TestCompositions:
    def test_colex_order(self):
        comps = list(compositions(3))
        assert comps == [(1, 1, 1), (2, 1), (1, 2), (3,)]
        rev = [tuple(reversed(c)) for c in comps]
        assert rev == sorted(rev)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_count(self, n):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)


class TestDmN2:
    def test_values(self):
        assert dm_n_2(2) == 1
        assert dm_n_2(3) == 4
        assert dm_n_2(4) == 14

    def test_n3_by_hand(self):
        # (3) -> 1, (1,2) -> 2, (2,1) -> 1
        assert dm_n_2(3) == 1 + 2 + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            dm_n_2(1)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_bell_identity(self, n):
        assert dm_n_2(n) == bell(n) - 1

    @pytest.mark.parametrize("n", range(2, 16))
    def test_dp_equals_composition_sum(self, n):
        assert dm_n_2(n) == dm_n_2_by_compositions(n)

    def test_cli_n40_is_fast(self, capsys):
        t0 = time.perf_counter()
        assert main(["formula", "dm2", "--n", "40"]) == 0
        elapsed = time.perf_counter() - t0
        assert capsys.readouterr().out.strip() == str(bell(40) - 1)
        assert elapsed < 1.0


class TestBell:
    def test_values(self):
        assert bell(0) == 1
        assert bell(3) == 5
        assert bell(5) == 52

    @pytest.mark.parametrize("n", range(0, 9))
    def test_against_brute_force(self, n):
        assert bell(n) == len(partitions_brute(n))

    @pytest.mark.parametrize("n", range(0, 21))
    def test_stirling_sum(self, n):
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))

    def test_exponential_growth_witnesses(self):
        # B_n - 1 eventually dominates b^n; exact integer spot checks
        for b, n in [(2, 8), (3, 12), (4, 16), (5, 25)]:
            assert bell(n) - 1 > b**n


class TestStirling2:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_diagonal(self, n):
        assert stirling2(n, n) == 1

    def test_s42(self):
        assert stirling2(4, 2) == 7

    def test_zero_blocks(self):
        assert stirling2(5, 0) == 0
        assert stirling2(0, 0) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_brute_force(self, n):
        for k in range(n + 1):
            expected = sum(1 for p in partitions_brute(n) if len(p) == k)
            assert stirling2(n, k) == expected


class TestNearTop:
    def test_values(self):
        assert dm_near_top(6, 1) == 10
        assert dm_near_top(9, 2) == 137
        assert dm_near_top(5, 0) == 1

    def test_divisibility_corrections(self):
        assert dm_near_top(9, 2) == 2 * 81 - 18 - 8 + 1 + 0
        assert dm_near_top(11, 2) == 2 * 121 - 22 - 8 + 0 + 1

    @pytest.mark.parametrize("n,k", [(2, 1), (8, 2), (5, 3), (0, 0)])
    def test_out_of_domain(self, n, k):
        with pytest.raises(ValueError):
            dm_near_top(n, k)


class TestLowerBound:
    def test_values(self):
        assert lower_bound(5, 1) == 3
        assert lower_bound(10, 2) == 28

    @pytest.mark.parametrize("k", range(1, 6))
    def test_boundary(self, k):
        assert lower_bound(k + 2, k) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound(5, 0)
        with pytest.raises(ValueError):
            lower_bound(4, 3)


class TestCeilingMaps:
    def test_identity_map(self):
        maps = enumerate_A(1)
        assert len(maps) == 1
        assert maps[0].targets == (1,)

    def test_n3_listing(self):
        sets = [sorted(m.fixed_points) for m in enumerate_A(3)]
        assert sets == [[3], [1, 3], [2, 3], [1, 2, 3]]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count(self, n):
        maps = enumerate_A(n)
        assert len(maps) == 2 ** (n - 1)
        assert len(set(maps)) == len(maps)

    def test_membership_invariant_enforced(self):
        with pytest.raises(ValueError):
            CeilingMap(3, (2, 2, 2))  # a_3 < 3
        with pytest.raises(ValueError):
            CeilingMap(3, (2, 3, 3))  # block of a_1 not constant
        CeilingMap(3, (2, 2, 3))

    def test_fixed_point_round_trip(self):
        for m in enumerate_A(6):
            assert ceiling_map_from_fixed_points(6, m.fixed_points) == m


class TestChainCounts:
    def test_k1_matches_A(self):
        for n in range(1, 11):
            assert count_A_chains(n, 1) == 2 ** (n - 1)

    def test_n3_k2(self):
        assert count_A_chains(3, 2) == 9

    def test_single_point(self):
        for k in range(1, 6):
            assert count_A_chains(1, k) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_explicit_enumeration_full_grid(self, n, k):
        assert _count_chains_explicit(n, k) == (k + 1) ** (n - 1)

    def test_forced_check_path(self, monkeypatch):
        # (4, 3) has 64 chains, so the self-check enumerates them; past
        # 300,000 chains, as at (20, 1), it does not
        monkeypatch.setattr(formulas, "_count_chains_explicit", lambda n, k: 0)
        with pytest.raises(AssertionError, match=r"\(n=4, k=3\): 0 != 64"):
            count_A_chains(4, 3)
        assert count_A_chains(20, 1) == 2**19


class TestExactness:
    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_dm2_is_integer_and_positive(self, n):
        v = dm_n_2(n)
        assert isinstance(v, int) and v >= 1

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_bell_recomputation(self, n):
        # independent recomputation through the Stirling recurrence
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))

    def test_binomial_consistency(self):
        for n in range(3, 15):
            for k in range(1, n - 1):
                assert lower_bound(n, k) == math.comb(n - 2, k)
