import io
import json

import pytest
from hypothesis import given, strategies as st

from distmon.errors import NotAssociativeError, TableFormatError
from distmon.table import (
    AdditionTable,
    ValidationReport,
    Violation,
    _scan,
    _screen,
    _validate,
    capped_naturals,
    dump,
    from_entries,
    from_upper_triangle,
    load,
    loads,
    max_monoid,
    validate,
)

EXAMPLE_TRIANGLE = (2, 2, 4, 5, 5, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5)  # values 1,2,5,6,7
NONASSOC_3 = from_upper_triangle(3, (2, 2, 3, 3, 3, 3))


def example_table():
    return from_upper_triangle(5, EXAMPLE_TRIANGLE)


class TestFromEntries:
    def test_smallest_monoid(self):
        t = from_entries(1, [[0, 1], [1, 1]])
        assert t.n == 1
        assert t.is_monoid

    def test_cell_out_of_range(self):
        with pytest.raises(TableFormatError):
            from_entries(1, [[0, 1], [1, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(TableFormatError):
            from_entries(2, [[0, 1], [1, 1]])
        with pytest.raises(TableFormatError):
            from_entries(1, [[0, 1], [1, 1, 1]])

    def test_verbatim_no_normalization(self):
        # axiom violations are accepted here and only flagged by validate
        t = from_entries(1, [[0, 0], [0, 0]])
        assert t.entries == ((0, 0), (0, 0))
        assert not t.is_magma

    def test_example_table_accepted(self):
        t = example_table()
        assert t.n == 5
        assert t.oplus(1, 1) == 2


class TestValidate:
    def test_max_table_is_monoid(self):
        report = validate(max_monoid(4))
        assert report.is_magma and report.is_monoid
        assert report.violations == ()

    def test_example_is_monoid(self):
        assert validate(example_table()).is_monoid

    def test_example_cells(self):
        t = example_table()
        expected = {
            (1, 1): 2, (1, 2): 2, (2, 2): 2, (1, 3): 4, (1, 4): 5,
            (1, 5): 5, (2, 3): 5, (2, 4): 5, (2, 5): 5, (3, 3): 5,
            (3, 4): 5, (3, 5): 5, (4, 4): 5, (4, 5): 5, (5, 5): 5,
        }
        for (i, j), v in expected.items():
            assert t.oplus(i, j) == v
            assert t.oplus(j, i) == v

    def test_unique_nonassociative_3_magma(self, census_cache):
        result = census_cache(3, want_magmas=True)
        bad = [t for t in result.emitted if not t.is_monoid]
        assert len(bad) == 1
        assert bad[0] == NONASSOC_3
        report = bad[0].validate()
        assert report.is_magma and not report.is_monoid
        assert report.violations[0].axiom == "associativity"
        assert len(report.violations[0].witness) == 3

    def test_reports_all_violations_with_cap(self):
        t = from_entries(2, [[0, 1, 2], [1, 0, 0], [2, 0, 0]])
        assert len(t.validate().violations) > 1
        assert len(t.validate(max_violations=1).violations) == 1
        with pytest.raises(ValueError):
            t.validate(max_violations=0)

    def test_axiom_witnesses(self):
        broken_identity = from_entries(1, [[0, 0], [1, 1]])
        assert broken_identity.validate().violations[0].axiom == "identity"
        asym = from_entries(2, [[0, 1, 2], [1, 1, 2], [2, 1, 2]])
        axioms = {v.axiom for v in asym.validate().violations}
        assert "symmetry" in axioms or "monotonicity" in axioms

    def test_idempotent_and_pure(self):
        t = example_table()
        assert t.validate() == t.validate()


class TestOplus:
    def test_max_table(self):
        assert max_monoid(4).oplus(2, 3) == 3

    def test_identity_row(self):
        t = example_table()
        for k in range(t.n + 1):
            assert t.oplus(0, k) == k

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            max_monoid(2).oplus(0, 3)


class TestMultiple:
    def test_capped_naturals(self):
        assert capped_naturals(5).multiple(1, 3) == 3

    def test_example(self):
        assert example_table().multiple(3, 2) == 5

    def test_single(self):
        t = example_table()
        for i in range(t.n + 1):
            assert t.multiple(i, 1) == i

    def test_nondecreasing_and_stable(self):
        t = example_table()
        for i in range(1, t.n + 1):
            vals = [t.multiple(i, m) for m in range(1, t.n + 3)]
            assert vals == sorted(vals)
            assert vals[t.n - 1] == vals[t.n] == vals[t.n + 1]

    def test_rejects_nonassociative(self):
        with pytest.raises(NotAssociativeError):
            NONASSOC_3.multiple(1, 2)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = example_table()
        path = tmp_path / "t.json"
        dump(t, path)
        assert load(path) == t

    def test_dump_bytes_equal_json_dump(self, census_cache, tmp_path):
        path = tmp_path / "t.json"
        for n in range(1, 6):
            for t in census_cache(n).emitted:
                dump(t, path)
                text = io.StringIO()
                json.dump(t.to_json_dict(), text)
                assert path.read_bytes() == (text.getvalue() + "\n").encode("utf-8")

    def test_loads_rejects_ragged(self):
        with pytest.raises(TableFormatError):
            loads('{"n": 1, "table": [[0, 1], [1]]}')

    def test_loads_rejects_out_of_range(self):
        with pytest.raises(TableFormatError):
            loads('{"n": 1, "table": [[0, 1], [1, 2]]}')

    def test_loads_rejects_missing_keys(self):
        with pytest.raises(TableFormatError):
            loads('{"n": 1}')

    def test_format_shape(self):
        obj = json.loads(example_table().dumps())
        assert set(obj) == {"n", "table"}
        assert len(obj["table"]) == obj["n"] + 1


@st.composite
def random_magmas(draw, max_n=5):
    """Magmas generated cell by cell within the positivity/monotonicity bounds."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        rows[0][j] = j
        rows[j][0] = j
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            lo = max(j, rows[i][j - 1], rows[i - 1][j])
            v = draw(st.integers(min_value=lo, max_value=n))
            rows[i][j] = v
            rows[j][i] = v
    return from_entries(n, rows)


@st.composite
def random_tables(draw):
    """Arbitrary tables with n <= 4, optionally with the identity row and
    column or symmetry imposed so that later axioms get scanned too."""
    n = draw(st.integers(min_value=0, max_value=4))
    rows = [[draw(st.integers(0, n)) for _ in range(n + 1)] for _ in range(n + 1)]
    if draw(st.booleans()):
        for j in range(n + 1):
            rows[0][j] = rows[j][0] = j
    if draw(st.booleans()):
        for i in range(n + 1):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return from_entries(n, rows)


class TestProperties:
    @given(random_magmas())
    def test_generated_tables_are_magmas(self, t):
        assert t.is_magma

    @given(random_magmas())
    def test_upper_triangle_round_trip(self, t):
        assert from_upper_triangle(t.n, t.upper_triangle()) == t

    @given(random_magmas())
    def test_json_round_trip(self, t):
        assert loads(t.dumps()) == t

    @given(st.one_of(random_tables(), random_magmas(max_n=4)))
    def test_cap_truncates_the_full_scan(self, t):
        full = t.validate(1000).violations
        for cap in range(1, 7):
            report = t.validate(cap)
            assert report.violations == full[:cap]
            assert report.is_monoid == (not report.violations)
            assert report.is_magma == (
                not report.violations or report.violations[0].axiom == "associativity"
            )


EXAMPLE_NONASSOC_5 = [
    [0, 1, 2, 3, 4, 5],
    [1, 4, 4, 4, 4, 5],
    [2, 4, 4, 4, 4, 5],
    [3, 4, 4, 4, 5, 5],
    [4, 4, 4, 5, 5, 5],
    [5, 5, 5, 5, 5, 5],
]
POSITIVITY_3 = [[0, 1, 2, 3], [1, 0, 1, 3], [2, 1, 2, 3], [3, 3, 3, 3]]


VIOLATION_PINS = [
    pytest.param(
        [[1, 1, 2], [1, 1, 2], [2, 2, 2]], 32,
        [("identity", (0, 0)), ("identity", (0, 0))],
        id="identity",
    ),
    pytest.param(
        [[0, 0, 0, 0], [1, 1, 2, 3], [0, 2, 2, 3], [3, 3, 3, 3]], 3,
        [("identity", (0, 1)), ("identity", (0, 2)), ("identity", (2, 0))],
        id="identity-cap",
    ),
    pytest.param(
        [[0, 1, 2, 3], [1, 2, 2, 3], [2, 3, 2, 3], [3, 2, 3, 3]], 32,
        [
            ("symmetry", (1, 2)), ("symmetry", (1, 3)), ("positivity", (3, 1)),
            ("monotonicity", (2, 2)), ("monotonicity", (3, 1)),
            ("monotonicity", (3, 1)),
        ],
        id="symmetry",
    ),
    pytest.param(
        [[0, 1, 2, 3, 4]] + [[i] * 5 for i in range(1, 5)], 4,
        [
            ("symmetry", (1, 2)), ("symmetry", (1, 3)),
            ("symmetry", (1, 4)), ("symmetry", (2, 3)),
        ],
        id="symmetry-cap",
    ),
    pytest.param(
        [[0, 1, 2, 3], [1, 1, 1, 3], [2, 2, 2, 3], [3, 3, 3, 3]], 32,
        [("symmetry", (1, 2)), ("positivity", (1, 2)), ("monotonicity", (1, 2))],
        id="positivity-asymmetric",
    ),
    pytest.param(
        POSITIVITY_3, 32,
        [
            ("positivity", (1, 1)), ("positivity", (1, 2)),
            ("monotonicity", (1, 1)), ("monotonicity", (1, 2)),
            ("monotonicity", (1, 1)), ("monotonicity", (2, 1)),
        ],
        id="positivity",
    ),
    pytest.param(POSITIVITY_3, 1, [("positivity", (1, 1))], id="positivity-cap"),
    pytest.param(
        POSITIVITY_3, 4,
        [
            ("positivity", (1, 1)), ("positivity", (1, 2)),
            ("monotonicity", (1, 1)), ("monotonicity", (1, 2)),
        ],
        id="monotonicity-cap",
    ),
    pytest.param(
        [[0, 1, 2, 3], [1, 3, 2, 3], [2, 2, 3, 3], [3, 3, 3, 3]], 32,
        [("monotonicity", (1, 2)), ("monotonicity", (2, 1))],
        id="monotonicity",
    ),
    pytest.param(
        [list(row) for row in NONASSOC_3.entries], 32,
        [("associativity", (1, 1, 2))],
        id="associativity",
    ),
    pytest.param(
        EXAMPLE_NONASSOC_5, 3,
        [
            ("associativity", (1, 1, 3)), ("associativity", (1, 1, 4)),
            ("associativity", (1, 2, 3)),
        ],
        id="associativity-cap",
    ),
]


class TestViolationPins:
    """Exact violations, in order and with witnesses, of malformed tables."""

    @pytest.mark.parametrize("rows,cap,expected", VIOLATION_PINS)
    def test_violations(self, rows, cap, expected):
        report = from_entries(len(rows) - 1, rows).validate(cap)
        assert [(v.axiom, v.witness) for v in report.violations] == expected
        assert report.is_magma == (expected[0][0] == "associativity")
        assert not report.is_monoid


CAPS = (1, 2, 32, 1000)


def _outcome(check, t, cap):
    """The report of check(t, cap), or the type of what it raised."""
    try:
        return check(t, cap)
    except Exception as exc:  # the generators may raise on malformed cells
        return type(exc)


def _assert_screen_agrees(t):
    for cap in CAPS:
        assert _outcome(_validate, t, cap) == _outcome(_scan, t, cap)


def _one_cell_changes(t, symmetric):
    """Tables that differ from t in one cell (i, j), 1 <= i <= j.  Symmetric
    changes mirror the value into (j, i) and keep rows and columns sorted,
    so they break associativity only or give another monoid; the others
    put any value in 0..n + 1 off the diagonal, breaking symmetry."""
    n, e = t.n, t.entries
    for i in range(1, n + 1):
        for j in range(i + (not symmetric), n + 1):
            if symmetric:
                lo = max(j, e[i][j - 1], e[i - 1][j])
                hi = min(e[i][j + 1] if j < n else n, e[i + 1][j] if i < n else n)
            else:
                lo, hi = 0, n + 1
            for v in range(lo, hi + 1):
                if v == e[i][j]:
                    continue
                rows = [list(row) for row in e]
                rows[i][j] = v
                if symmetric:
                    rows[j][i] = v
                yield AdditionTable(n, tuple(map(tuple, rows)))


class TestScreen:
    """The whole-table screen gives exactly the generator-only report."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_census_monoids(self, census_cache, n):
        for t in census_cache(n).emitted:
            assert _screen(t.entries, n)
            _assert_screen_agrees(t)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_emitted_magmas(self, census_cache, n):
        for t in census_cache(n, want_magmas=True).emitted:
            assert _screen(t.entries, n) == _scan(t, 1).is_monoid
            _assert_screen_agrees(t)

    @given(st.one_of(random_tables(), random_magmas(max_n=6)))
    def test_random_tables(self, t):
        _assert_screen_agrees(t)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_sorted_one_cell_changes_of_census_monoids(self, census_cache, n):
        kinds = {True: 0, False: 0}  # another monoid / associativity broken
        for t in census_cache(n).emitted:
            for changed in _one_cell_changes(t, symmetric=True):
                kinds[_screen(changed.entries, n)] += 1
                _assert_screen_agrees(changed)
        assert kinds[True] > 0 and kinds[False] > 0

    @pytest.mark.parametrize("n", range(1, 5))
    def test_asymmetric_one_cell_changes_of_census_monoids(self, census_cache, n):
        for t in census_cache(n).emitted:
            for changed in _one_cell_changes(t, symmetric=False):
                assert not _screen(changed.entries, n)
                _assert_screen_agrees(changed)

    @pytest.mark.parametrize("rows,cap,expected", VIOLATION_PINS)
    def test_violation_pins(self, rows, cap, expected):
        t = from_entries(len(rows) - 1, rows)
        assert not _screen(t.entries, t.n)
        _assert_screen_agrees(t)

    def test_list_rows_are_not_screened(self, census_cache):
        for t in census_cache(4, want_magmas=True).emitted:
            listed = AdditionTable(t.n, tuple(list(row) for row in t.entries))
            assert not _screen(listed.entries, t.n)
            _assert_screen_agrees(listed)
            assert _validate(listed, 32) == _validate(t, 32)

    def test_n0(self):
        t = from_entries(0, [[0]])
        assert _screen(t.entries, 0)
        _assert_screen_agrees(t)
        assert t.is_monoid

    @pytest.mark.parametrize(
        "t",
        [
            AdditionTable(1, ((0, 1), (1, 2))),
            AdditionTable(2, ((0, 1, 2), (1, 2, 2), (2, 2, 3))),
            AdditionTable(1, ((0, 1), (1, 1.0))),
            AdditionTable(1, ((0, 1), (1, "1"))),
            AdditionTable(1, ((0, 1), (1, 256))),
            AdditionTable(1, [(0, 1), (1, 1)]),
            AdditionTable(1, ((0, 1), (1, 1), (2, 2))),
            AdditionTable(-1, ()),
            # associative and commutative, but not ordered: rows unsorted
            AdditionTable(1, ((0, 1), (1, 0))),
            AdditionTable(2, ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
        ],
        ids=[
            "above-n", "above-n-corner", "float", "str", "256", "list",
            "extra-row", "negative-n", "cyclic-2", "cyclic-3",
        ],
    )
    def test_malformed_tables_are_not_screened(self, t):
        assert not _screen(t.entries, t.n)
        _assert_screen_agrees(t)

    @pytest.mark.parametrize(
        "t,cell",
        [
            (AdditionTable(1, ((0, 1), (1, 2))), (1, 1)),
            (AdditionTable(2, ((0, 1, 2), (1, 2, 2), (2, 2, 3))), (2, 2)),
        ],
        ids=["above-n", "above-n-corner"],
    )
    def test_cell_above_n_is_a_range_violation(self, t, cell):
        # built without from_entries, so no range check ran on input
        report = t.validate()
        assert report == ValidationReport(False, False, (Violation("range", cell),))
        assert not t.is_monoid

    def test_n_above_255_is_not_screened(self):
        # only the generators judge it (a full scan visits 2.8M triples)
        assert not _screen(max_monoid(256).entries, 256)

