"""Addition tables for finite distance magmas and monoids.

A structure on elements 0 = e0 < e1 < ... < en is stored as the full
(n+1) x (n+1) table of element indices: cell (i, j) holds the index of
ei (+) ej.  Identifying elements with their ranks makes table equality a
complete isomorphism invariant, so no separate isomorphism testing exists
anywhere in this package.

Axioms checked by `validate`:
  identity      cell (0, j) = j and (i, 0) = i
  symmetry      cell (i, j) = cell (j, i)
  positivity    cell (i, j) >= max(i, j)
  range         cell (i, j) <= n (from_entries checks it on input; a
                table built directly may break it)
  monotonicity  cell values nondecreasing along rows and columns
  associativity ((ei+ej)+ek) independent of bracketing -- this one
                separates magmas from monoids and is reported, not required.

Validation runs in two stages.  A whole-table screen (`_screen`) tests
identity, symmetry, sorted rows and, with one `bytes.translate` per row
and one comparison, associativity; those imply positivity and column
monotonicity, so a table that passes violates nothing and gets one shared
clean report.  Every other table is scanned cell by cell by the violation
generators, which alone produce witnesses, in a fixed order and up to the
cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import NotAssociativeError, TableFormatError

DEFAULT_VIOLATION_CAP = 32


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    is_magma: bool
    is_monoid: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "is_magma": self.is_magma,
            "is_monoid": self.is_monoid,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)} for v in self.violations
            ],
        }


@dataclass(frozen=True)
class AdditionTable:
    """Immutable addition table over ranks 0..n; safe to share between workers."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def oplus(self, i: int, j: int) -> int:
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError(f"element index out of range: ({i}, {j}) with n={self.n}")
        return self.entries[i][j]

    def multiple(self, i: int, m: int) -> int:
        """Index of the m-fold sum ei + ... + ei, m >= 1.

        Requires associativity (otherwise the fold depends on bracketing);
        stabilizes for m >= n.
        """
        if not self.is_monoid:
            raise NotAssociativeError("multiple() requires an associative table")
        if not 0 <= i <= self.n:
            raise IndexError(f"element index out of range: {i}")
        if m < 1:
            raise ValueError("m must be >= 1")
        seq = _multiples(self, i)
        return seq[min(m, len(seq)) - 1]

    @cached_property
    def _default_report(self) -> ValidationReport:
        return _validate(self, DEFAULT_VIOLATION_CAP)

    def validate(self, max_violations: int = DEFAULT_VIOLATION_CAP) -> ValidationReport:
        if max_violations == DEFAULT_VIOLATION_CAP:
            return self._default_report
        return _validate(self, max_violations)

    @property
    def is_magma(self) -> bool:
        return self._default_report.is_magma

    @property
    def is_monoid(self) -> bool:
        return self._default_report.is_monoid

    def upper_triangle(self) -> tuple[int, ...]:
        """Cells (1,1),(1,2),...,(1,n),(2,2),...,(n,n) in row-major order."""
        return tuple(
            self.entries[i][j]
            for i in range(1, self.n + 1)
            for j in range(i, self.n + 1)
        )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "table": [list(row) for row in self.entries]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def from_entries(n: int, entries: Sequence[Sequence[int]]) -> AdditionTable:
    """Build a table verbatim, checking only shape and cell range.

    Axiom violations are not rejected here; use validate() for that.
    """
    if n < 0:
        raise TableFormatError(f"n must be nonnegative, got {n}")
    if len(entries) != n + 1:
        raise TableFormatError(f"expected {n + 1} rows, got {len(entries)}")
    rows = []
    for i, row in enumerate(entries):
        if len(row) != n + 1:
            raise TableFormatError(f"row {i} has {len(row)} cells, expected {n + 1}")
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, int):
                raise TableFormatError(f"cell ({i},{j}) is not an integer: {cell!r}")
            if not 0 <= cell <= n:
                raise TableFormatError(f"cell ({i},{j}) out of range: {cell}")
        rows.append(tuple(row))
    return AdditionTable(n, tuple(rows))


def from_upper_triangle(n: int, cells: Sequence[int]) -> AdditionTable:
    """Inverse of AdditionTable.upper_triangle(); identity row/column implied."""
    expected = n * (n + 1) // 2
    if len(cells) != expected:
        raise TableFormatError(f"expected {expected} triangle cells, got {len(cells)}")
    square = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        square[0][j] = j
        square[j][0] = j
    it = iter(cells)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = next(it)
            square[i][j] = v
            square[j][i] = v
    return from_entries(n, square)


def _magma_violations(e: Sequence[Sequence[int]], n: int) -> Iterator[Violation]:
    """Identity, symmetry, positivity and range, then monotonicity
    violations.  A table with a cell above n is no magma, so the
    associativity scan, which looks rows up by cell value, never sees it."""
    for j in range(n + 1):
        if e[0][j] != j:
            yield Violation("identity", (0, j))
        if e[j][0] != j:
            yield Violation("identity", (j, 0))
    symmetric = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if e[i][j] != e[j][i]:
                symmetric = False
                yield Violation("symmetry", (i, j))
    for i in range(1, n + 1):
        for j in range(i, n + 1) if symmetric else range(1, n + 1):
            if e[i][j] < max(i, j):
                yield Violation("positivity", (i, j))
            elif e[i][j] > n:
                yield Violation("range", (i, j))
    # adjacent comparisons suffice; witness = the cell that dropped
    for i in range(n + 1):
        for j in range(n + 1):
            if j < n and e[i][j + 1] < e[i][j]:
                yield Violation("monotonicity", (i, j + 1))
            if i < n and e[i + 1][j] < e[i][j]:
                yield Violation("monotonicity", (i + 1, j))


def _associativity_violations(e: Sequence[Sequence[int]], n: int) -> Iterator[Violation]:
    # symmetry holds, so the three bracketings of {i,j,k} cover all
    # ordered instances; i <= j <= k shrinks the triple space 6-fold
    for i in range(1, n + 1):
        row_i = e[i]
        for j in range(i, n + 1):
            ij = row_i[j]
            row_j = e[j]
            for k in range(j, n + 1):
                p1 = e[ij][k]
                if p1 != e[row_i[k]][j] or p1 != e[row_j[k]][i]:
                    yield Violation("associativity", (i, j, k))


def _screen(e: Sequence[Sequence[int]], n: int) -> bool:
    """True only when the table violates no axiom; the C-speed front of
    `_validate`.

    Identity, symmetry and nondecreasing rows are tested outright, and they
    imply the other magma axioms: column 0 is 0..n by symmetry, so
    e[i][j] >= e[i][0] = i and e[i][j] = e[j][i] >= j (positivity), and
    e[i][j] = e[j][i] <= e[j][i+1] = e[i+1][j] (columns nondecrease).
    Associativity: for each i the table mapped through row i,
    i + (j + k), must equal the rows e[e[i][j]], (i + j) + k, laid end to
    end; both sides are laid end to end for i = 1..n and compared once.
    For i <= j <= k the rows of i alone give (i+j)+k = i+(j+k) = (j+k)+i
    and (i+k)+j = i+(k+j), all three bracketings.

    False means "not vouched for", not "invalid": n > 255 (no byte holds
    it), rows that are not tuples, cells that are not ints, and a cell
    above n (every cell of rows 1..n is looked up as a row index, which
    raises IndexError) all go to the violation generators, which alone
    produce witnesses.
    """
    try:
        if e[0] != tuple(range(n + 1)) or tuple(zip(*e)) != e:
            return False
        if list(map(sorted, e)) != list(map(list, e)):
            return False
        rows = [bytes(row) for row in e]
        flat = b"".join(rows)
        pad = bytes(255 - n)
        return b"".join([flat.translate(row + pad) for row in rows[1:]]) == b"".join(
            map(rows.__getitem__, flat[n + 1 :])
        )
    except (IndexError, TypeError, ValueError):
        return False


_CLEAN = ValidationReport(is_magma=True, is_monoid=True, violations=())


def _scan(t: AdditionTable, cap: int) -> ValidationReport:
    """Up to `cap` violations from the generators alone; the screen's oracle."""
    violations = tuple(islice(_magma_violations(t.entries, t.n), cap))
    is_magma = not violations
    if is_magma:
        # associativity is scanned only on magmas, so is_monoid is "no violations"
        violations = tuple(islice(_associativity_violations(t.entries, t.n), cap))
    return ValidationReport(is_magma=is_magma, is_monoid=not violations, violations=violations)


def _validate(t: AdditionTable, cap: int) -> ValidationReport:
    """The screen vouches for a clean table in one C-speed pass; any other
    table gets the generators' report, witnesses, order and cap unchanged."""
    if cap < 1:
        raise ValueError("max_violations must be >= 1")
    if _screen(t.entries, t.n):
        return _CLEAN
    return _scan(t, cap)


def validate(t: AdditionTable, max_violations: int = DEFAULT_VIOLATION_CAP) -> ValidationReport:
    return t.validate(max_violations)


def _multiples(t: AdditionTable, i: int) -> list[int]:
    """Distinct multiples i, 2i, 3i, ... of element i, ending at the stable one.

    Callers check associativity, which makes these the m-fold sums;
    positivity makes the walk stop within n steps.
    """
    e = t.entries
    seq = [i]
    nxt = e[i][i]
    while nxt != seq[-1]:
        seq.append(nxt)
        nxt = e[nxt][i]
    return seq


def fold_oplus(t: AdditionTable, indices: Iterable[int]) -> int:
    """Left fold of (+) over element indices; empty fold is 0 (the identity)."""
    return reduce(lambda a, b: t.entries[a][b], indices, 0)


def max_monoid(n: int) -> AdditionTable:
    """ei + ej = max(ei, ej); the unique monoid of Archimedean complexity 1."""
    return from_entries(
        n, [[max(i, j) for j in range(n + 1)] for i in range(n + 1)]
    )


def capped_naturals(n: int) -> AdditionTable:
    """{0..n} with i + j capped at n; the unique monoid of complexity n."""
    return from_entries(
        n, [[min(i + j, n) for j in range(n + 1)] for i in range(n + 1)]
    )


# --- monoid file format ----------------------------------------------------
# A single JSON object {"n": <int>, "table": [[...], ...]} holding the full
# (n+1) x (n+1) integer table, row-major.  Shared by every part of the tool.


def from_json_dict(obj: object) -> AdditionTable:
    if not isinstance(obj, dict):
        raise TableFormatError("expected a JSON object with keys 'n' and 'table'")
    if "n" not in obj or "table" not in obj:
        raise TableFormatError("missing required key 'n' or 'table'")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise TableFormatError(f"'n' must be an integer, got {n!r}")
    table = obj["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise TableFormatError("'table' must be a list of rows")
    return from_entries(n, table)


def loads(text: str) -> AdditionTable:
    return from_json_dict(json.loads(text))


def load(path) -> AdditionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def dump(t: AdditionTable, path) -> None:
    # one C-encoded string: json.dump's chunked encoder runs in pure Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(t.dumps() + "\n")
