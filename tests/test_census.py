import functools
import gc
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from itertools import product, zip_longest
from pathlib import Path

import pytest

from distmon.analysis import arch_complexity
from distmon import census
from distmon.audit import run_audit
from distmon.census import (
    _ROOT,
    SearchConfig,
    _cells,
    _grow,
    _magma_walk,
    _rows,
    count_magmas,
    dm_table,
    dm_table_csv,
    enumerate_tables,
    partition_work,
    stream_tables,
)
from distmon.cli import main
from distmon.errors import ScaleGuardError
from distmon.formulas import bell, dm_n_2, dm_near_top, lower_bound
from distmon.robbins import ROBBINS_NUMBERS, robbins_number
from distmon.table import AdditionTable
from walk_oracle import _monoid_subtree, _walk

MAGMA_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}
MONOID_BY_ARCH = {
    1: {1: 1},
    2: {1: 1, 2: 1},
    3: {1: 1, 2: 4, 3: 1},
    4: {1: 1, 2: 14, 3: 6, 4: 1},
    5: {1: 1, 2: 51, 3: 33, 4: 8, 5: 1},
}


class TestEnumerate:
    def test_magma_counts(self, census_cache):
        for n, expected in MAGMA_COUNTS.items():
            assert census_cache(n, want_magmas=True).magma_count == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_monoid_by_arch(self, census_cache, n):
        result = census_cache(n)
        assert result.by_arch == MONOID_BY_ARCH[n]
        assert result.monoid_count == sum(MONOID_BY_ARCH[n].values())
        assert result.magma_count is None

    def test_n3_counts(self, census_cache):
        magmas = census_cache(3, want_magmas=True)
        assert magmas.magma_count == 7
        assert magmas.monoid_count == 6

    def test_by_arch_extremes(self, census_cache):
        for n in range(1, 7):
            by_arch = census_cache(n).by_arch
            assert by_arch[1] == 1
            assert by_arch[n] == 1

    def test_emitted_are_valid_and_bucketed(self, census_cache):
        result = census_cache(4)
        assert len(result.emitted) == 22
        for t in result.emitted:
            assert t.validate().is_monoid
        recomputed = {}
        for t in result.emitted:
            a = arch_complexity(t)
            recomputed[a] = recomputed.get(a, 0) + 1
        assert recomputed == result.by_arch

    def test_emitted_magmas_pass_validate(self, census_cache):
        result = census_cache(4, want_magmas=True)
        assert len(result.emitted) == 42
        assert all(t.is_magma for t in result.emitted)

    def test_visit_order_is_lex_on_triangles(self, census_cache):
        triangles = [t.upper_triangle() for t in census_cache(4, want_magmas=True).emitted]
        assert triangles == sorted(triangles)
        assert len(set(triangles)) == len(triangles)

    def test_pruned_search_equals_filtered_magma_walk(self, census_cache):
        # the incremental associativity pruning must reproduce, in order,
        # exactly the magmas that pass a full post-hoc validation
        for n in range(1, 6):
            magmas = census_cache(n, want_magmas=True).emitted
            filtered = [t for t in magmas if t.validate().is_monoid]
            assert list(census_cache(n).emitted) == filtered

    def test_arch_filter_restricts_emission(self):
        result = enumerate_tables(SearchConfig(n=4, arch_filter=2, emit=True))
        assert len(result.emitted) == 14
        assert all(arch_complexity(t) == 2 for t in result.emitted)
        # counts still describe the full census
        assert result.monoid_count == 22

    def test_scale_guards(self, monkeypatch):
        monkeypatch.delenv("DISTMON_SCALE_OVERRIDE", raising=False)
        with pytest.raises(ScaleGuardError):
            enumerate_tables(SearchConfig(n=10))
        with pytest.raises(ScaleGuardError):
            enumerate_tables(SearchConfig(n=8, want_magmas=True, emit=True))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=0)
        with pytest.raises(ValueError):
            SearchConfig(n=3, arch_filter=4)
        with pytest.raises(ValueError):
            SearchConfig(n=3, want_magmas=True, arch_filter=2)


class TestCountMagmas:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_dp_equals_emitted_walk(self, census_cache, n):
        result = census_cache(n, want_magmas=True)
        assert count_magmas(n) == result.magma_count == len(result.emitted)

    def test_dp_equals_walk_n7(self):
        # compared as a stream, not emitted: 218348 tables would hold
        # hundreds of MB
        assert count_magmas(7) == _walks_agree(7) == 218348

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dp_equals_product_formula(self, n):
        assert count_magmas(n) == robbins_number(n) == ROBBINS_NUMBERS[n]

    def test_domain(self):
        with pytest.raises(ValueError):
            count_magmas(0)

    def test_cli_json_independent_of_partitioning(self, capsys):
        outputs = []
        for argv in (
            ["--jobs", "1"],
            ["--jobs", "2", "--prefix-depth", "0"],
            ["--jobs", "2", "--prefix-depth", "3"],
        ):
            assert main(["census", "--n", "6", "--magmas", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert json.loads(outputs[0])["magma_count"] == "7436"
        assert outputs == [outputs[0]] * len(outputs)


def _ncells(n):
    return n * (n + 1) // 2


def _magma_tables(n, prefix=()):
    """Every magma extending `prefix`, in the unchecked walk's order."""
    return [AdditionTable(n, _rows(T, n)) for T in _walk(n, prefix, _ncells(n), False)]


def _walks_agree(n):
    """Assert that the row generator yields the oracle's unchecked walk,
    table for table and in order, and return how many tables both yield."""
    count = 0
    full = _ncells(n)
    for ours, oracle in zip_longest(_magma_walk(n, full), _walk(n, (), full, False)):
        assert ours == oracle
        count += 1
    return count


def _arch(T, n):
    return arch_complexity(AdditionTable(n, _rows(T, n)))


def _prefixes_by_filter(n, depth):
    """Every value tuple for the first `depth` cells that meets the magma
    bounds, by filtering all of {1..n}^depth."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)][:depth]
    out = []
    for vals in product(range(1, n + 1), repeat=depth):
        square = {(0, j): j for j in range(n + 1)}
        square.update({(j, 0): j for j in range(n + 1)})
        ok = True
        for (i, j), v in zip(cells, vals):
            if v < max(j, square.get((i, j - 1), 0), square.get((i - 1, j), 0)):
                ok = False
                break
            square[i, j] = square[j, i] = v
        if ok:
            out.append(vals)
    return out


def _records(run, m):
    """A run of monoid records on m elements cut into its records, each
    (m+1)^2 table bytes and then the arch byte."""
    size = (m + 1) ** 2 + 1
    assert len(run) % size == 0
    return [run[i : i + size] for i in range(0, len(run), size)]


def _at_depth(depth, fn):
    return fn() if depth == 0 else _at_depth(depth - 1, fn)


class TestWalk:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_leaf_arch_equals_arch_complexity(self, n):
        # every checked-walk leaf is a monoid, and arch_complexity gives it
        # the arch the truncation census gives the same table
        kept = list(census._truncation_counts(n, 1, floor=n)[1][n])
        leaves = [bytes(T) for T in _walk(n, (), _ncells(n), True)]
        assert leaves == [R[:-1] for R in kept]
        checked = 0
        for R in kept:
            t = AdditionTable(n, _rows(R, n))
            assert t.is_monoid
            assert arch_complexity(t) == R[-1]
            checked += 1
        assert checked == len(leaves) == [1, 2, 6, 22, 94, 451, 2386][n - 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_magma_leaves_equal_dp(self, n):
        assert sum(1 for _ in _walk(n, (), _ncells(n), False)) == count_magmas(n)
        assert _walks_agree(n) == count_magmas(n)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("depth", range(1, 5))
    def test_partition_work_equals_filter(self, n, depth):
        depth = min(depth, _ncells(n))
        expected = _prefixes_by_filter(n, depth)
        assert partition_work(n, depth) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partition_work_equals_oracle_prefixes(self, n):
        for depth in range(1, _ncells(n) + 1):
            offsets = [i * (n + 1) + j for i, j in _cells(n)[:depth]]
            expected = [tuple(T[o] for o in offsets) for T in _walk(n, (), depth, False)]
            assert partition_work(n, depth) == expected

    @pytest.mark.parametrize("emit", [False, True])
    def test_independent_of_caller_depth(self, emit):
        config = SearchConfig(n=5, want_magmas=True, emit=emit)
        shallow = enumerate_tables(config)
        deep = _at_depth(300, lambda: enumerate_tables(config))
        assert deep == shallow
        assert deep.magma_count == 429 and deep.by_arch == MONOID_BY_ARCH[5]

    def test_prefix_subtrees_equal_filtered_magmas(self):
        # some of these prefixes already break associativity (dead subtrees)
        for prefix in partition_work(4, 3):
            walked = sum(1 for _ in _walk(4, prefix, _ncells(4), True))
            magmas = [t for t in _magma_tables(4, prefix) if t.is_monoid]
            assert walked == len(magmas)

    def test_rejects_out_of_bounds_prefix(self):
        with pytest.raises(ValueError):
            list(_walk(3, (2, 1), _ncells(3), True))
        with pytest.raises(ValueError):
            list(_walk(3, (4,), _ncells(3), False))


# README "Recorded results", monoids by complexity k = 1..n
RECORDED_ROWS = {
    6: [1, 202, 183, 54, 10, 1],
    7: [1, 876, 1060, 359, 77, 12, 1],
    8: [1, 4139, 6495, 2462, 558, 105, 14, 1],
    9: [1, 21146, 42489, 17737, 4052, 838, 137, 16, 1],
    10: [1, 115974, 300348, 136040, 30186, 6560, 1189, 172, 18, 1],
    11: [1, 678569, 2342426, 1128129, 233232, 51899, 9933, 1606, 213, 20, 1],
}
RECORDED_TOTALS = {6: 451, 7: 2386, 8: 13775, 9: 86417, 10: 590489, 11: 4446029}
# sha256 of the n = 9 stream's records, each table's bytes and then its arch
# byte, in stream order; the walk oracle gives the same
N9_SHA256 = "3356408e9c5223e4ff41e65c3d70aa6762ba3e404c53a7c5c5cc29bda9b73e7c"


@pytest.mark.parametrize("n", range(6, 12))
def test_recorded_row_meets_known_columns(n):
    # constants only: the n = 10 and n = 11 rows take 5 s and 42 s to census
    # on 2 jobs
    row = RECORDED_ROWS[n]
    assert len(row) == n
    assert row[0] == row[n - 1] == 1
    assert row[1] == dm_n_2(n) == bell(n) - 1
    assert row[n - 2] == 2 * n - 2
    if n >= 9:
        assert row[n - 3] == dm_near_top(n, 2)
    for k in range(1, 4):
        assert lower_bound(n, k) <= row[n - k - 1]
    assert sum(row) == RECORDED_TOTALS[n]


def _truncate(rows, m):
    """The truncation of a monoid on m elements: 0..m-1, sums capped at m-1."""
    return tuple(tuple(min(v, m - 1) for v in row[:m]) for row in rows[:m])


class TestTruncation:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_by_arch_equals_walk(self, n):
        if n == 8:  # the one n = 8 walk, shared with TestEmission
            walked = Counter(arch for arch, _ in _walk_monoids(8))
        else:
            walked = _monoid_subtree(n)
        assert enumerate_tables(SearchConfig(n=n)).by_arch == dict(sorted(walked.items()))

    def test_n9_on_two_jobs_equals_recorded_row(self):
        result = enumerate_tables(SearchConfig(n=9, job_count=2))
        assert [result.by_arch.get(k, 0) for k in range(1, 10)] == RECORDED_ROWS[9]
        assert result.monoid_count == 86417

    @staticmethod
    def _children(P, m, p):
        """(rows, arch) of the children the truncation census grows from the
        table P of complexity p, in byte order."""
        run = _grow((m, (m - 1, P + bytes((p,))), m))[1][m]
        return [(_rows(R, m), R[-1]) for R in _records(run, m)]

    # every parent up to m = 8, so each rule of the row DFS (row keys, the
    # empty prefix) and the saturated suffix's untested completion meet the
    # walker on every parent
    @pytest.mark.parametrize("m", range(2, 9))
    def test_children_are_the_walk_monoids_truncating_to_parent(self, m):
        by_parent = {}
        for _, T in _walk_monoids(m):
            rows = _rows(T, m)
            by_parent.setdefault(_truncate(rows, m), []).append(rows)
        for p, T in _walk_monoids(m - 1):
            kids = [rows for rows, _ in self._children(T, m, p)]
            assert len(set(kids)) == len(kids)
            assert kids == sorted(by_parent.pop(_rows(T, m - 1), []))
        assert not by_parent  # every monoid on m elements has a parent

    @pytest.mark.parametrize("m", range(2, 9))
    def test_leaf_rule_equals_arch_complexity(self, m):
        seen = 0
        for p, T in _walk_monoids(m - 1):
            for rows, arch in self._children(T, m, p):
                assert arch == arch_complexity(AdditionTable(m, rows))
                seen += 1
        assert seen == [1, 2, 6, 22, 94, 451, 2386, 13775][m - 1]

    @pytest.mark.parametrize("want_magmas", [False, True])
    def test_independent_of_jobs_and_caller_stack(self, want_magmas):
        base = enumerate_tables(SearchConfig(n=7, want_magmas=want_magmas))
        assert base.by_arch == dict(enumerate(RECORDED_ROWS[7], start=1))
        for jobs in (1, 2):
            config = SearchConfig(n=7, want_magmas=want_magmas, job_count=jobs)
            assert enumerate_tables(config) == base
            assert _at_depth(300, lambda: enumerate_tables(config)) == base

    def test_masks_hold_cells_at_upper_triangle_bits(self):
        # a cell (s, y) with y < s is read as X[y][s], never below the diagonal
        for m in range(2, 12):
            bit, span, tail = census._level_bits(m)
            assert all(bit[x][y] == bit[y][x] for x in range(m) for y in range(m))
            lower = sum(1 << (s * m + y) for s in range(m) for y in range(s))
            assert not any(mask & lower for row in span for mask in row)
            assert not any(mask & lower for mask in tail)


def _flat(t):
    return bytes(v for row in t.entries for v in row)


@functools.lru_cache(maxsize=None)
def _walk_monoids(n):
    """(arch, table bytes) of every monoid on n elements, in the checked
    walk's order; each n is walked once per session (n = 8 takes about 2 s)."""
    return tuple((_arch(T, n), bytes(T)) for T in _walk(n, (), _ncells(n), True))


class TestEmission:
    """Emitted monoids come from the truncation census; the walker is the
    oracle for their tables, their order and their arch filter."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tables_and_order_equal_walk(self, n, jobs):
        walked = _walk_monoids(n)
        for arch_filter in [None, *range(1, n + 1)]:
            config = SearchConfig(n=n, emit=True, arch_filter=arch_filter, job_count=jobs)
            expected = [(arch, T) for arch, T in walked if arch_filter in (None, arch)]
            pairs = list(stream_tables(config)[1])
            assert [(arch, _flat(t)) for t, arch in pairs] == expected

    def test_n8_sequence_equals_walk(self):
        # n = 8 is FORK_N, so job_count = 2 runs the tasks in a real pool
        for jobs in (1, 2):
            pairs = stream_tables(SearchConfig(n=8, emit=True, job_count=jobs))[1]
            assert [(arch, _flat(t)) for t, arch in pairs] == list(_walk_monoids(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_magma_emission_unchanged(self, n):
        by_arch = dict(sorted(_monoid_subtree(n).items()))
        magmas = _magma_tables(n)
        for jobs in (1, 2):
            config = SearchConfig(n=n, want_magmas=True, emit=True, job_count=jobs)
            result = enumerate_tables(config)
            assert result.by_arch == by_arch
            assert result.emitted == tuple(magmas)

    @pytest.mark.parametrize("want_magmas", [False, True])
    def test_no_arch_without_emission(self, want_magmas):
        config = SearchConfig(n=4, want_magmas=want_magmas)
        assert enumerate_tables(config).emitted is None
        result, tables = stream_tables(config)
        assert result.emitted is None
        assert list(tables) == []


class TestStream:
    """stream_tables() is the one census path; enumerate_tables() collects it."""

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(n=6, emit=True),
            SearchConfig(n=6, emit=True, arch_filter=3),
            SearchConfig(n=8, emit=True, job_count=2),
            SearchConfig(n=4, want_magmas=True, emit=True),
            SearchConfig(n=5, want_magmas=True),
            SearchConfig(n=5),
        ],
    )
    def test_stream_equals_enumerate_tables(self, config):
        result, tables = stream_tables(config)
        assert result.emitted is None
        pairs = list(tables)
        full = enumerate_tables(config)
        assert result == replace(full, emitted=None)
        if not config.emit:
            assert pairs == [] and full.emitted is None
            return
        assert tuple(t for t, _ in pairs) == full.emitted
        archs = [arch for _, arch in pairs]
        if config.want_magmas:
            assert set(archs) == {None}
        else:
            expected = [
                arch
                for arch, _ in _walk_monoids(config.n)
                if config.arch_filter in (None, arch)
            ]
            assert archs == expected


def _deleted_temp_files():
    """The descriptors of this process open on deleted files in the temp
    directory, as {fd: target}; Linux only (/proc/self/fd)."""
    found = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(tempfile.gettempdir()) and target.endswith(" (deleted)"):
            found[fd] = target
    return found


# drains the n = 9 stream on two jobs and prints its table count and the
# rise of this process's own peak RSS over the census, in kB.  The peak is
# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child of
# the test process would start at the test process's own peak
_PARENT_PEAK_SCRIPT = """
from distmon.census import SearchConfig, stream_tables
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak_kb()
count = sum(1 for _ in stream_tables(SearchConfig(n=9, emit=True, job_count=2))[1])
print(count, peak_kb() - before)
"""


class TestMergedRuns:
    """Each task's monoids are a sorted run in one temporary file, and the
    stream merges the runs; the oracle is the whole level grown in one
    process and sorted in memory."""

    @pytest.mark.parametrize("n, jobs", [(8, 1), (8, 2), (9, 2)])
    def test_stream_equals_level_sorted_in_memory(self, n, jobs):
        streamed = list(census._truncation_counts(n, jobs, floor=n)[1][n])
        assert streamed == sorted(_records(_grow((n, _ROOT, n))[1][n], n))
        if n == 9:
            # the in-memory oracle is the same _grow, so pin the tables too
            assert hashlib.sha256(b"".join(streamed)).hexdigest() == N9_SHA256

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_stream_closes_its_file(self):
        before = _deleted_temp_files()
        stream = census._truncation_counts(8, 2, floor=8)[1][8]
        next(stream)
        assert len(_deleted_temp_files().keys() - before.keys()) == 1
        del stream
        gc.collect()
        assert _deleted_temp_files() == before
        assert len(list(census._truncation_counts(7, 1, floor=7)[1][7])) == 2386
        assert _deleted_temp_files() == before

    def test_counting_census_opens_no_file(self, monkeypatch):
        def refuse():
            raise AssertionError("a counting census opened a temporary file")

        kept_levels, runs = [], []

        def record(task):
            counts, level_runs = _grow(task)
            if task[1] is _ROOT:
                # the parent grows levels 2..5 and keeps level 5, its tasks' roots
                kept_levels.append([m for m, run in enumerate(level_runs) if run])
            else:
                runs.append(b"".join(level_runs))
            return counts, level_runs

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        monkeypatch.setattr(census, "_grow", record)
        assert enumerate_tables(SearchConfig(n=8)).monoid_count == 13775
        assert dm_table(8)[7] == RECORDED_ROWS[8]
        assert kept_levels == [[5], [5]]
        assert len(runs) == 2 * 94 and set(runs) == {b""}

    def test_temp_file_fails_before_anything_grows(self, monkeypatch, capsys, tmp_path):
        def refuse(task):
            raise AssertionError("a census was grown before its temporary file opened")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        monkeypatch.setattr(census, "_grow", refuse)
        assert main(["census", "--n", "8", "--emit", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="needs VmHWM")
    def test_parent_peak_stays_flat_at_n9(self):
        # the parent's peak rises 4.9-5.3 MiB, about 1 MiB of it the
        # multiprocessing and tempfile modules, which the census imports
        # when it forks and keeps; before the merge, when it held and sorted
        # the whole level, 20.4-20.6 MiB (2 cores, Python 3.11)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _PARENT_PEAK_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src), DISTMON_SCALE_OVERRIDE="1"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        count, rise_kb = map(int, proc.stdout.split())
        assert count == 86417
        assert rise_kb < 10 * 1024


class TestAuditCensus:
    """The audit reads every level from one truncation census that keeps
    each level in its own temporary file; the oracle is stream_tables of
    each level on its own."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_levels_equal_stream_tables(self, jobs):
        levels = census._stream_levels(8, jobs)
        assert len(levels) == 8
        for n, (result, stream) in enumerate(levels, start=1):
            expected, tables = stream_tables(SearchConfig(n=n, emit=True, job_count=jobs))
            assert result == expected
            assert list(stream) == list(tables)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_audit_grows_one_census(self, monkeypatch, jobs):
        calls = Counter()
        truncation_counts = census._truncation_counts

        def counting_census(*args, **kwargs):
            calls["census"] += 1
            return truncation_counts(*args, **kwargs)

        def counting_grow(task):
            calls["from root" if task[1] is _ROOT else "tasks"] += 1
            return _grow(task)

        class InProcessPool:
            # a real pool pickles the function it maps, and counting_grow is
            # local: this one runs the tasks here
            def __init__(self, processes):
                calls["pool"] += 1

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(census, "_truncation_counts", counting_census)
        monkeypatch.setattr(census, "_grow", counting_grow)
        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        assert run_audit(8, jobs=jobs).overall
        # one task per monoid on 5 elements, in a pool on 2 jobs
        expected = {"census": 1, "from root": 1, "tasks": 94}
        assert calls == (expected if jobs == 1 else {**expected, "pool": 1})

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_audit_closes_every_file(self):
        before = _deleted_temp_files()
        opened = []

        def drained(result, tables):
            if result.n == 1:
                opened.append(len(_deleted_temp_files().keys() - before.keys()))
            return result, tables

        assert run_audit(8, jobs=2, census_hook=drained).overall
        assert opened == [8]  # one file per level
        assert _deleted_temp_files() == before

        def dropped(result, tables):
            # level 4 is read for one table and dropped
            if result.n == 4:
                next(tables)
                return result, iter(())
            return result, tables

        assert not run_audit(8, census_hook=dropped).overall
        assert _deleted_temp_files() == before

        def interrupted(result, tables):
            if result.n != 3:
                return result, tables

            def broken():
                yield next(tables)
                raise RuntimeError("interrupted")

            return result, broken()

        with pytest.raises(RuntimeError, match="interrupted"):
            run_audit(8, jobs=2, census_hook=interrupted)
        gc.collect()
        assert _deleted_temp_files() == before


class TestPartitioning:
    def test_prefixes_n3_depth1(self):
        assert partition_work(3, 1) == [(1,), (2,), (3,)]

    def test_prefixes_n1(self):
        assert partition_work(1, 1) == [(1,)]

    def test_requires_depth(self):
        for n in (1, 3, 4):
            for depth in (0, _ncells(n) + 1):
                with pytest.raises(ValueError, match=f"depth in 1..{_ncells(n)}"):
                    partition_work(n, depth)

    def test_summed_counts_equal_sequential(self, census_cache):
        sequential = census_cache(4)
        merged = Counter()
        for prefix in partition_work(4, 2):
            merged.update(_arch(T, 4) for T in _walk(4, prefix, _ncells(4), True))
        assert dict(merged) == sequential.by_arch
        assert sum(merged.values()) == sequential.monoid_count == 22

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_partition_invariance(self, n, depth):
        # the checked walks below partition_work's prefixes, taken in order,
        # are the census's monoids in the census's order (depth 0: one walk)
        depth = min(depth, _ncells(n))
        prefixes = partition_work(n, depth) if depth else [()]
        parts = [
            (_arch(T, n), bytes(T))
            for prefix in prefixes
            for T in _walk(n, prefix, _ncells(n), True)
        ]
        result = enumerate_tables(SearchConfig(n=n, emit=True))
        assert [T for _, T in parts] == [_flat(t) for t in result.emitted]
        assert dict(Counter(arch for arch, _ in parts)) == result.by_arch

    def test_jobs_do_not_change_results(self):
        seq = enumerate_tables(SearchConfig(n=5, emit=True))
        par = enumerate_tables(SearchConfig(n=5, emit=True, job_count=4))
        assert seq == par

    def test_magma_census_partitioned(self):
        seq = enumerate_tables(SearchConfig(n=4, want_magmas=True, emit=True))
        par = enumerate_tables(SearchConfig(n=4, want_magmas=True, emit=True, job_count=2))
        assert seq == par

    def test_pool_is_bounded_by_tasks_and_cores(self, monkeypatch):
        # a recording fake: a real pool of job_count workers is never started
        sizes, chunks, firsts = [], [], []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                chunks.append(chunksize)
                firsts.append(tasks[0][1][1])
                return map(fn, tasks)

        n = census.FORK_N
        # the census imports Pool from multiprocessing only when it forks
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        sequential = enumerate_tables(SearchConfig(n=n))
        assert sizes == []  # one job runs its tasks in this process
        # the monoids on n - 3 elements are the tasks, 94 of them, taken in
        # CHUNKS_PER_WORKER = 16 chunks per worker; with an unknown core
        # count they run in this process too
        tasks = len(_walk_monoids(n - 3))
        assert (tasks, census.CHUNKS_PER_WORKER) == (94, 16)
        for cores, workers, chunk in (
            (2, [2], [3]),
            (3, [3], [2]),
            (10**6, [tasks], [1]),
            (None, [], []),
        ):
            sizes.clear()
            chunks.clear()
            monkeypatch.setattr(census.os, "cpu_count", lambda: cores)
            pooled = enumerate_tables(SearchConfig(n=n, job_count=10**6))
            assert (sizes, chunks) == (workers, chunk)
            assert pooled == sequential
        # the root with the most cells at its top element goes first, the
        # first in byte order among ties, as its record: table, then arch
        top = n - 3
        roots = [T + bytes((arch,)) for arch, T in _walk_monoids(top)]
        assert set(firsts) == {max(roots, key=lambda R: R.count(top, 0, -1))}

    def test_magma_emission_starts_no_pool(self, monkeypatch):
        # below FORK_N the truncation census starts no pool either
        def refuse(*args, **kwargs):
            raise AssertionError("magma emission started a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        result = enumerate_tables(SearchConfig(n=4, want_magmas=True, emit=True, job_count=2))
        assert list(result.emitted) == _magma_tables(4)
        assert len(result.emitted) == 42


class TestSandwich:
    def test_lower_bound_holds_in_census(self, census_cache):
        for n in (5, 6):
            by_arch = census_cache(n).by_arch
            for k in range(1, min(3, n - 2) + 1):
                assert by_arch.get(n - k, 0) >= lower_bound(n, k)

    def test_dm2_stratum(self, census_cache):
        for n in range(2, 7):
            assert census_cache(n).by_arch[2] == dm_n_2(n)

    def test_formulas_over_full_census_range(self):
        # complexity-2 and complexity-(n-1) strata at the guard boundary
        from distmon.formulas import dm_near_top

        for n in (7, 8):
            by_arch = enumerate_tables(SearchConfig(n=n, job_count=2)).by_arch
            assert by_arch[2] == dm_n_2(n)
            assert by_arch[n - 1] == dm_near_top(n, 1) == 2 * n - 2


class TestDmTable:
    def test_small(self):
        assert dm_table(2) == [[1], [1, 1]]

    @pytest.mark.parametrize("job_count", [1, 2])
    def test_csv_equals_recorded_rows(self, job_count):
        rows = {n: [MONOID_BY_ARCH[n][k] for k in range(1, n + 1)] for n in range(1, 6)}
        rows.update((n, RECORDED_ROWS[n]) for n in (6, 7, 8))
        expected = "n,k,count\n" + "".join(
            f"{n},{k},{count}\n"
            for n in range(1, 9)
            for k, count in enumerate(rows[n], start=1)
        )
        assert dm_table_csv(dm_table(8, job_count=job_count)) == expected

    def test_one_census_for_every_row(self, monkeypatch):
        def refuse(config):
            raise AssertionError("dm_table ran a census per row")

        monkeypatch.setattr(census, "enumerate_tables", refuse)
        assert dm_table(5)[4] == [1, 51, 33, 8, 1]

    def test_scale_guard(self, monkeypatch):
        monkeypatch.delenv("DISTMON_SCALE_OVERRIDE", raising=False)
        with pytest.raises(ScaleGuardError):
            dm_table(10)

    def test_row5(self):
        rows = dm_table(5)
        assert rows[4][3] == 8  # complexity 4 at n = 5: 2n - 2
        assert rows[4][1] == 51  # complexity 2 at n = 5: B_5 - 1

    def test_csv(self):
        text = dm_table_csv(dm_table(2))
        assert text.splitlines()[0] == "n,k,count"
        assert text == "n,k,count\n1,1,1\n2,1,1\n2,2,1\n"


class TestJobCount:
    """job_count < 1 is refused by the census itself, before anything is
    grown, on every path that reaches it."""

    @pytest.fixture(autouse=True)
    def no_growing(self, monkeypatch):
        def refuse(task):
            raise AssertionError("a census was grown before job_count was checked")

        monkeypatch.setattr(census, "_grow", refuse)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_library_refuses(self, jobs):
        for call in (
            lambda: enumerate_tables(SearchConfig(n=7, job_count=jobs)),
            lambda: enumerate_tables(SearchConfig(n=3, want_magmas=True, emit=True, job_count=jobs)),
            lambda: dm_table(0, job_count=jobs),
            lambda: dm_table(4, job_count=jobs),
            lambda: dm_table(7, job_count=jobs),
            lambda: run_audit(n_max=6, jobs=jobs),
        ):
            with pytest.raises(ValueError, match="job_count must be >= 1"):
                call()

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--n", "4", "--dm-table", "--jobs", "0"],
            ["census", "--n", "7", "--jobs", "0"],
            ["audit", "--n-max", "6", "--jobs", "0"],
            ["audit", "--n-max", "2", "--jobs", "-5"],
            ["census", "--n", "7", "--emit", "DIR", "--jobs", "0"],
        ],
    )
    def test_cli_exits_2(self, capsys, tmp_path, argv):
        emit = tmp_path / "emitted"
        assert main([str(emit) if arg == "DIR" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: job_count must be >= 1\n"
        assert not emit.exists()


class TestResultJson:
    def test_counts_as_decimal_strings(self, census_cache):
        obj = census_cache(3, want_magmas=True).to_json_dict()
        assert obj["magma_count"] == "7"
        assert obj["monoid_count"] == "6"
        assert obj["by_arch"] == {"1": "1", "2": "4", "3": "1"}

    def test_monoid_census_has_null_magma_count(self, census_cache):
        assert census_cache(3).to_json_dict()["magma_count"] is None
