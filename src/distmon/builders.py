"""Constructors for the explicit monoid families.

All real-valued constructions run on exact rationals (fractions.Fraction):
the floor comparisons the cross-checks rely on fall exactly on integer
boundaries, which is where floating point would betray us.

Each constructor checks what it builds and raises AssertionError on a
mismatch.  The checks are explicit raises, not asserts, so they survive
python -O.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Sequence

from .analysis import arch_complexity
from .errors import TableFormatError, check_scale
from .formulas import ceil_in, compositions, dm_n_2
from .table import AdditionTable, from_entries, validate

ENUMERATE_C2_GUARD = 10
COUNTEREXAMPLE_GUARD = 6


def sup_monoid(values: Sequence[Fraction | int]) -> tuple[AdditionTable, bool]:
    """Table for sup-addition a + b = largest carrier value <= a + b.

    `values` are the nonzero elements, strictly increasing and positive;
    0 is implicit.  Sup-addition is always a distance magma (monotone,
    commutative, positive) but not always associative, so the monoid flag
    is computed by full validation, never assumed.
    """
    vals = [Fraction(v) for v in values]
    n = len(vals)
    if n < 1:
        raise ValueError("need at least one nonzero value")
    if vals[0] <= 0 or any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be strictly increasing and positive")
    carrier = [Fraction(0)] + vals
    entries = [
        [bisect_right(carrier, carrier[i] + carrier[j]) - 1 for j in range(n + 1)]
        for i in range(n + 1)
    ]
    t = from_entries(n, entries)
    return t, validate(t).is_monoid


@dataclass(frozen=True)
class Complexity2Spec:
    """Recipe for a complexity-2 monoid.

    composition: Archimedean class sizes (n1, ..., nk), positive, summing
    to n, with k <= n-1 (so some class has >= 2 elements; the all-singleton
    composition would build the complexity-1 max monoid and is rejected).

    chains[j-2], for class j in 2..k: fixed-point sets (F_{1,j}, ...,
    F_{j-1,j}), each a sorted tuple within [nj] containing nj, nested
    F_{1,j} >= F_{2,j} >= ... -- F_{i,j} governs what elements of classes
    <= i do to class j, and the nesting is exactly table monotonicity.
    """

    composition: tuple[int, ...]
    chains: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        comp = self.composition
        k = len(comp)
        if k < 1 or any(p < 1 for p in comp):
            raise ValueError("composition must consist of positive parts")
        n = sum(comp)
        if k > n - 1:
            raise ValueError(
                f"composition with {k} parts of total {n} is rejected: "
                "every class a singleton means complexity 1, not 2"
            )
        if len(self.chains) != k - 1:
            raise ValueError(f"expected chain data for classes 2..{k}")
        for j in range(2, k + 1):
            family = self.chains[j - 2]
            nj = comp[j - 1]
            if len(family) != j - 1:
                raise ValueError(f"class {j} needs {j - 1} fixed-point sets")
            for f in family:
                if not f or list(f) != sorted(set(f)):
                    raise ValueError("fixed-point sets must be sorted and duplicate-free")
                if f[-1] != nj or f[0] < 1:
                    raise ValueError(
                        f"fixed-point sets for class {j} must sit inside [1..{nj}] "
                        f"and contain {nj}"
                    )
            for a, b in zip(family, family[1:]):
                if not set(a) >= set(b):
                    raise ValueError("fixed-point sets must be nested, largest first")

    @property
    def n(self) -> int:
        return sum(self.composition)

    def to_json_dict(self) -> dict:
        return {
            "composition": list(self.composition),
            "chains": {
                str(j): [list(f) for f in self.chains[j - 2]]
                for j in range(2, len(self.composition) + 1)
            },
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "Complexity2Spec":
        """Spec from its JSON object; TableFormatError on a schema mismatch.

        "chains" may be omitted only when there is a single class.
        """
        if not isinstance(obj, dict):
            raise TableFormatError("complexity-2 spec must be a JSON object")
        comp = obj.get("composition")
        if not isinstance(comp, list) or not all(type(p) is int and p >= 1 for p in comp):
            raise TableFormatError('"composition" must be a list of positive integers')
        raw = obj.get("chains", {})
        keys = [str(j) for j in range(2, len(comp) + 1)]
        if not isinstance(raw, dict) or set(raw) != set(keys):
            raise TableFormatError(
                f'"chains" must be an object with exactly the keys {keys}'
            )
        for key in keys:
            family = raw[key]
            if not isinstance(family, list) or not all(
                isinstance(f, list) and all(type(x) is int for x in f) for f in family
            ):
                raise TableFormatError(
                    f'"chains" entry {key!r} must be a list of lists of integers'
                )
        return cls(tuple(comp), tuple(tuple(tuple(f) for f in raw[k]) for k in keys))

    @classmethod
    def from_json(cls, text: str) -> "Complexity2Spec":
        return cls.from_json_dict(json.loads(text))


def build_complexity2(spec: Complexity2Spec) -> AdditionTable:
    """Table from a Complexity2Spec.

    Within a class, any two elements add to the class maximum; an element of
    class i added to element s of a later class j lands at the F_{i,j}
    ceiling of s.  The result is checked to be a monoid of complexity 2.
    """
    comp = spec.composition
    n = spec.n
    offsets = [0]
    for p in comp:
        offsets.append(offsets[-1] + p)

    def g(j: int, s: int) -> int:
        """Global rank of element s of class j (both 1-based)."""
        return offsets[j - 1] + s

    entries = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(n + 1):
        entries[0][x] = x
        entries[x][0] = x
    k = len(comp)
    for j in range(1, k + 1):
        top = g(j, comp[j - 1])
        for s in range(1, comp[j - 1] + 1):
            for t_ in range(1, comp[j - 1] + 1):
                entries[g(j, s)][g(j, t_)] = top
    for j in range(2, k + 1):
        for i in range(1, j):
            fixed = frozenset(spec.chains[j - 2][i - 1])
            for s in range(1, comp[j - 1] + 1):
                target = g(j, ceil_in(fixed, s))
                for u in range(1, comp[i - 1] + 1):
                    entries[g(i, u)][g(j, s)] = target
                    entries[g(j, s)][g(i, u)] = target

    t = from_entries(n, entries)
    if not validate(t).is_monoid:
        raise AssertionError("complexity-2 construction must be associative")
    if arch_complexity(t) != 2:
        raise AssertionError("complexity-2 construction must have arch 2")
    return t


def _chain_options(j: int, nj: int) -> list[tuple[tuple[int, ...], ...]]:
    """All nested families (F_{1,j} >= ... >= F_{j-1,j}) inside [nj], nj forced.

    Each element of [nj - 1] picks how many of the j-1 sets contain it
    (membership is downward-closed in i), so there are j^(nj-1) families.
    """
    out = []
    for levels in product(range(j), repeat=nj - 1):
        family = tuple(
            tuple(
                sorted({s + 1 for s, lvl in enumerate(levels) if lvl >= i} | {nj})
            )
            for i in range(1, j)
        )
        out.append(family)
    return out


def enumerate_complexity2(n: int) -> list[AdditionTable]:
    """Every complexity-2 monoid on n nonzero elements, pairwise distinct.

    Iterates compositions (colex) and, per later class, its nested
    fixed-point families; the count equals dm_n_2(n).
    """
    if n < 2:
        raise ValueError("complexity 2 requires n >= 2")
    check_scale("enumerate_complexity2 n", n, ENUMERATE_C2_GUARD)
    specs: list[Complexity2Spec] = []
    for comp in compositions(n):
        k = len(comp)
        if k > n - 1:
            continue
        per_class = [_chain_options(j, comp[j - 1]) for j in range(2, k + 1)]
        for chains in product(*per_class):
            specs.append(Complexity2Spec(comp, chains))
    if len(set(specs)) != len(specs):
        raise AssertionError("specs must be pairwise distinct")
    tables = [build_complexity2(s) for s in specs]
    if len(set(tables)) != len(tables):
        raise AssertionError("spec-to-table map must be injective")
    if len(tables) != dm_n_2(n):
        raise AssertionError("table count must equal dm_n_2(n)")
    return tables


def lower_bound_family(
    n: int, k: int, indices: Sequence[int] | None = None
) -> list[AdditionTable]:
    """Monoids of complexity n - k built by sup-addition over
    {1, ..., n-k} u {i_j + n^-(k+1-j)}.

    With `indices` (nondecreasing, from [n-k-1]) builds that one member;
    otherwise all C(n-2, k) members in lexicographic index order.  Each
    table is cross-checked against the floor shortcut
    a + b = min(floor(a + b), n - k) on nonzero values.
    """
    if k < 1 or n < k + 2:
        raise ValueError(f"family requires k >= 1 and n >= k + 2, got ({n}, {k})")
    if indices is None:
        tuples = list(combinations_with_replacement(range(1, n - k), k))
    else:
        idx = tuple(indices)
        if len(idx) != k or any(not 1 <= v <= n - k - 1 for v in idx):
            raise ValueError(f"indices must be a k-tuple from [1..{n - k - 1}]")
        if any(a > b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be nondecreasing")
        tuples = [idx]

    members = []
    for idx in tuples:
        irrationals = [
            idx[j - 1] + Fraction(1, n ** (k + 1 - j)) for j in range(1, k + 1)
        ]
        values = sorted([Fraction(v) for v in range(1, n - k + 1)] + irrationals)
        t, is_monoid = sup_monoid(values)
        if not is_monoid:
            raise AssertionError("sup-addition over this carrier must be associative")
        cap = n - k
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                want = min(int(values[a - 1] + values[b - 1]), cap)
                got = values[t.entries[a][b] - 1]
                if got != want:
                    raise AssertionError("floor shortcut disagrees with sup-addition")
        if arch_complexity(t) != n - k:
            raise AssertionError("family member must have complexity n - k")
        members.append(t)
    if len(set(members)) != len(members):
        raise AssertionError("family members must be distinct tables")
    return members


def counterexample_values(m: int) -> list[int]:
    """Carrier showing complexity can exceed every internal progression.

    Start from {1, 2}; each step appends 2*top + 1 + r for r in the current
    carrier including 0.  Step m has complexity m yet no element has more
    than two distinct multiples."""
    if m < 2:
        raise ValueError("m must be >= 2")
    values = [1, 2]
    for _ in range(m - 2):
        base = 2 * values[-1] + 1
        values = values + [base] + [base + r for r in values]
    return values


def counterexample_family(m: int) -> AdditionTable:
    """Sup-addition monoid over counterexample_values(m); carrier sizes
    2, 5, 11, 23, 47 for m = 2..6.  Associativity of every intermediate
    step is verified in full rather than taken on faith."""
    if m < 2:
        raise ValueError("m must be >= 2")
    check_scale("counterexample step", m, COUNTEREXAMPLE_GUARD)
    table = None
    for step in range(2, m + 1):
        table, is_monoid = sup_monoid(counterexample_values(step))
        if not is_monoid:
            raise AssertionError(f"step {step} of the construction must be associative")
    return table
