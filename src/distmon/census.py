"""Exhaustive census of distance monoids, and exact magma counts by a
row-transfer DP.

Monoids are counted and emitted by growing each one from its truncation.
Magma tables are emitted one row at a time.

Truncation.  Let M be a distance monoid on 0..m and q = m - 1.  Its
truncation P is 0..q with x +' y = min(x + y, q).  The cap min(x, q) is
a homomorphism from M onto P: m + y = m for y >= 1 by positivity, so both
sides cap to q whenever an argument is m.  P is therefore associative,
and it keeps the identity, symmetry, monotonicity and positivity: it is a
distance monoid on q elements, and every M has exactly one parent P.

Children.  A table on m elements truncates to P exactly when its cells
with P[x][y] < q keep that value, its cells with P[x][y] = q hold q or m,
and row and column m hold m.  Write X[x][y] for "x + y = m".  The table
is monotone iff X is a symmetric up-set inside {P = q}, so row r = 1..q
takes one decision, the column u_r >= r where its m-cells start, with
u_r <= max(u_{r-1}, r).  It is associative iff, for every a <= b <= c,
the bracketings (a+b)+c, (a+c)+b and (b+c)+a agree.  All three cap to
the same P-sum, and a P-sum below q is exact, so only triples with P-sum
q are checked, each bracketing being q or m.  (a+b)+c is m iff
X[P[a][b]][c] when P[a][b] < q; when P[a][b] = q, a + b is q or m and
(a+b)+c is m iff X[a][b] or X[q][c], which is X[q][c] because X is an
up-set and c >= a.  Each equation is checked at the last row it involves,
so every child of P is produced once and nothing else is.

Row key.  (a+b)+c is the cell {P[a][b], c} in both cases.  Its row k =
min(P[a][b], c) is >= b, since P[a][b] >= b and c >= b, and the other
bracketings lie in row b ((a+c)+b, and (b+c)+a when P[b][c] = q, which is
X[b][c] or X[q][a]) or in row a ((b+c)+a otherwise).  So k is the
equation's row, and its first side, cell (k, y1) with y1 = max(P[a][b],
c), is an m-cell iff u_k <= y1.  Each equation is filed under k as it is
built.

Triples with P[a][b] = q.  Every c >= b then has P-sum q, and the
equations say X[c][q] = X[b][q] (b < c) and X[c][q] = X[b][c] or X[a][q]
(a < b).  In an up-set every right side implies X[c][q], so only "X[c][q]
implies the right side" is a constraint.  P[a][b] = q iff a >= g[b],
where g[b] is the first column in which row b of P reaches q, and X[a][q]
grows with a, so a = g[b] implies every other a.  P is monotone, so g
never grows with the row: with b0 the least b with g[b] <= b, g[b] <= b
iff b >= b0, and every b with P[a][b] = q for some a <= b is >= b0.
"X[c][q] implies X[b0][q]" for every c > b0 then gives "X[c][q] implies
X[b][q]" for b0 < b < c.  So these triples need b = b0 alone for the
first kind of equation and a = g[b] alone for the second.  Every cell
named here lies in rows <= c, the row of these equations, so the
equations left reject the same rows as the whole set.

Empty prefix.  While rows 1..r hold no m-cell, both sides of every
equation of row r are 0, so the row is not tested.

Saturated suffix.  Once u_r <= r + 1, u_s lies in [max(g[s], s), s] for
s = r + 1, so u_s = s, and the same holds for every later row: rows s..q
are forced to u_x = x.  P allows that, since g[s] <= g[r] <= u_r <= s,
and g[x] <= g[s] <= s <= x for the later rows.  That completion M is a
child, so rows s..q are not tested.  Row r is tested, since its mask
holds cell (r, u_r), and so were the rows before it that needed a test,
so M keeps the equations of rows <= r, whose cells lie in rows <= r.
Every cell {x, y} with x >= r and y >= s is an m-cell of M (u_r <= s,
and u_x = x for x >= s), so P[x][y] = q there, and the first side of
every equation of a row k >= s is an m-cell.  Such an equation holds iff
its other side holds an m-cell:
* X[c][q] = X[b0][q], c > b0: if b0 >= r, cell {b0, q} is an m-cell; if
  b0 < r, the same equation at c = r is one of row r, and X[r][q] holds.
* X[c][q] = X[b][c] or X[g[b]][q], c >= b: if b >= r, cell {b, c} is an
  m-cell; if b < r, the same equation at c = r holds, and X[b][r] implies
  X[b][c].
* a triple a <= b <= c with P[a][b] < q: k >= s gives P[a][b] >= s and
  c >= s.  If b >= r, (a+c)+b is cell {P[a][c], b} with P[a][c] >= c,
  and (b+c)+a holds cell {b, c}, since P[b][c] = q: both are m-cells.  If
  b < r, P[a][b] >= s >= g[r] gives P[r][P[a][b]] = q, so (a, b, r) is a
  triple with P-sum q in row r, whose first side, cell (r, P[a][b]), is
  an m-cell.  Row r holds, so (a+r)+b = (b+r)+a = m in M, and M is
  monotone and c >= r, so (a+c)+b = (b+c)+a = m.

Complexity.  arch is the least k such that every r >= 1 absorbs reach(r,
k), the sums of k elements >= r (analysis.arch_complexity).  reach(r,
k+1) lies in reach(r, k) (add the last two summands first), and the cap
maps reach_M(r, k) onto reach_P(r, k).  Let p = arch(P).
* arch(M) >= p: absorption in M caps to absorption in P.
* arch(M) <= p + 1, and only s = q can fail to be absorbed at level p:
  take r <= q and s < m in reach_M(r, p).  If s < q then r + s caps to
  r +' s = s < q, so r + s = s.  So at level p + 1 take s = q = x + y
  with x >= r and y in reach_M(r, p): if y < q then r + y = y and r + q
  = x + (r + y) = q; if y = q then r + q <= x + q = q.
* So arch(M) = p + 1 iff r + q = m for some r with q in reach_M(r, p).
  The r with r + q = m are those >= tau, the least such r, and reach
  shrinks as r grows, so the test is q in reach_M(tau, p): q = s + y with
  s in reach_M(tau, p - 1) (reach(., 0) = {0}) and y >= tau.  s = q is
  impossible, since q + y = m, so s < q lies in reach_P(tau, p - 1), and
  s + y = q says P[s][y] = q with X[s][y] = 0.  Those cells (s, y) form
  one mask per tau, computed once per parent, and a leaf tests it against
  its own m-cells.  Every mask holds a cell at its upper-triangle bit
  (_level_bits), so a cell (s, y) with y < s is tested as X[y][s] =
  X[s][y].  A leaf reads tau as the row of its mask's lowest bit: an
  m-cell (x, y), x <= y, is bit x*m + y with x >= tau, and (tau, u_tau) is
  one.  No bit means no m-cell, and arch p.
The levels m = 1..n are grown depth-first from an explicit stack of
records.  A monoid is one record from its growth to its stream: its flat
table's bytes and then its arch byte.  From n = FORK_N on, each monoid on
n - 3 elements roots one task.  The tasks go largest first, ranked by the
cells that hold the root's top element, where its children's m-cells can
go, so the run ends on small tasks.  With job_count > 1 they run in a
process pool that takes them CHUNKS_PER_WORKER chunks per worker, not one
message each, and they merge in task order either way.

Emitted monoids are the level-n tables sorted by their bytes.  That is
lexicographic order on the upper-triangle cells in row-major order, the
order in which the row generator below emits magmas: in the flat
row-major table every entry below the diagonal mirrors an earlier upper
cell, so the first byte where two tables differ is their first differing
upper cell.  The order is global, so it does not depend on job_count.
The sort is external, and a census may keep every level from a floor up
(the audit keeps them all, stream_tables() only level n).  Each task
sorts the records of its own monoids of each kept level and returns them
as one run per level; the levels the parent grows itself go in as one run
each, and the parent cuts its tasks' roots from its own run of their
level.  The parent appends each run to its level's temporary file as it
arrives.  The table part has a fixed length, so the records' byte order
is the tables' order, and each level's stream merges its runs from its
file, reading a share of MERGE_BUFFER bytes from each at a time.  So no
process holds a whole level: a task holds its own monoids, the parent one
pool chunk of runs while they arrive and one block per run while they
merge, and stream_tables() builds each emitted table, monoid or magma,
when its caller reaches it, a monoid's table and arch from its record.

The row generator.  Row i of a magma table at columns i..n is
nondecreasing, bounded above by n and below, cell by cell, by row i-1 at
the same columns (T[i][i] >= T[i][i-1] = T[i-1][i], and row 0 is 0..n).
That row profile is all later rows depend on, so _magma_walk() fills the
table one row at a time, each row drawn from the nondecreasing tuples
above its profile in lexicographic order, memoised per profile.  Its
stack holds one iterator per row instead of recursing, so its cost does
not depend on how deep the caller's Python stack is.  It emits magma
tables, and when it stops mid-row it yields the prefixes partition_work()
returns.

Magmas are counted without visiting their leaves: count_magmas() carries
a count per row profile from row to row.  The generator runs only to emit
magma tables and to partition; the tests hold both it and the DP to an
independent cell-by-cell walker.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import combinations_with_replacement
from typing import BinaryIO, Iterable, Iterator

from .errors import check_scale
from .table import AdditionTable

# set by measured cost on 2 shared cores (CLI, medians of 3): the n = 9
# census takes 1.9-2.6 s on one job and 1.3-1.5 s on two, n = 10 5.0 s on
# two; magma emission writes 218,348 tables at n = 7, 10,850,216 at 8
MONOID_GUARD = 9
MAGMA_GUARD = 7
# the least n whose census forks: below it 2 workers cost more than they
# save (median ms on 2 cores, 1 job vs 2: n = 7 82 vs 129, n = 8 557 vs 403)
FORK_N = 8
# the pool takes its tasks in this many chunks per worker.  The parent's CPU,
# one task per message against chunks (3 runs, 2 cores, imports included):
# n = 9 (451 tasks) 0.29-0.40 s vs 0.14-0.22 s, n = 10 (2,386) 1.2-1.4 s vs
# 0.21-0.25 s.  The largest tasks go first, so the last chunks are short
CHUNKS_PER_WORKER = 16
# the bytes that one round of reads takes from the emitted monoids' sorted
# runs, shared between the runs, one record per run at least
MERGE_BUFFER = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """One census: n nonzero elements; want_magmas, count magmas too and
    emit magmas, not monoids; arch_filter, emit only monoids of that
    complexity; emit, stream the tables; job_count (>= 1), the monoid pool's
    size."""

    n: int
    want_magmas: bool = False
    arch_filter: int | None = None
    emit: bool = False
    job_count: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("census requires n >= 1")
        if self.arch_filter is not None:
            if self.want_magmas:
                raise ValueError("arch_filter applies to monoid censuses only")
            if not 1 <= self.arch_filter <= self.n:
                raise ValueError(f"arch_filter must be in 1..{self.n}")
        if self.job_count < 1:
            raise ValueError("job_count must be >= 1")

    def check_scale(self) -> None:
        """The one place that decides a census's guard: MONOID_GUARD, and
        MAGMA_GUARD for magma emission alone (magma counts are a DP)."""
        check_scale("monoid census n", self.n, MONOID_GUARD)
        if self.want_magmas and self.emit:
            check_scale("magma census n", self.n, MAGMA_GUARD)


@dataclass(frozen=True)
class CensusResult:
    """Counts of one census, and the tables it emitted, if any (None from
    stream_tables(), which streams them instead, each with its arch)."""

    n: int
    magma_count: int | None
    monoid_count: int
    by_arch: dict[int, int]
    emitted: tuple[AdditionTable, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "magma_count": None if self.magma_count is None else str(self.magma_count),
            "monoid_count": str(self.monoid_count),
            "by_arch": {str(k): str(v) for k, v in sorted(self.by_arch.items())},
        }


def _cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def _fresh_table(n: int) -> list[int]:
    """Flat (n+1)^2 table with identity row/column set and -1 elsewhere."""
    N1 = n + 1
    T = [-1] * (N1 * N1)
    for j in range(N1):
        T[j] = j
        T[j * N1] = j
    return T


def count_magmas(n: int) -> int:
    """Number of distance magmas on n nonzero elements, exactly.

    Row i of a magma table is monotone, bounded below cell by cell by row
    i-1 (so T[i][j] >= T[0][j] = j), and starts at T[i][i] >= T[i][i-1]
    = T[i-1][i].  So the layer after row i-1 maps each profile
    (T[i-1][i], ..., T[i-1][n]) to the number of partial tables that end
    in it, and that profile is all rows i..n depend on.  Row i is built
    one cell at a time: at column position c, key[:c] already holds row
    i's cells and key[c:] still holds row i-1's, so cell c ranges over
    [max(key[c-1], key[c]), n] (just [key[0], n] for the diagonal).
    """
    if n < 1:
        raise ValueError("count_magmas requires n >= 1")
    layer = {tuple(range(1, n + 1)): 1}  # row 0 is the identity row
    for i in range(1, n + 1):
        for c in range(n - i + 1):
            nxt: dict[tuple[int, ...], int] = {}
            for key, count in layer.items():
                lo = key[c]
                if c and key[c - 1] > lo:
                    lo = key[c - 1]
                head = key[:c]
                tail = key[c + 1 :]
                for val in range(lo, n + 1):
                    k2 = head + (val,) + tail
                    nxt[k2] = nxt.get(k2, 0) + count
            layer = nxt
        # row i's diagonal cell constrains no later row
        merged: dict[tuple[int, ...], int] = {}
        for key, count in layer.items():
            merged[key[1:]] = merged.get(key[1:], 0) + count
        layer = merged
    return layer[()]


def _magma_walk(n: int, stop: int) -> Iterator[list[int]]:
    """Yield every magma table cut to its first `stop` upper-triangle cells
    (row-major), in lexicographic order, each distinct cut once.

    Each yield is the generator's own flat (n+1)^2 table, with -1 in the
    cells past the cut, so read it before resuming.
    """
    N1 = n + 1
    # lens[r - 1]: how many of row r's width cells (columns r..n) are filled
    lens = []
    for width in range(n, 0, -1):
        if stop > 0:
            lens.append(min(stop, width))
            stop -= width
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def choices(above: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # the nondecreasing rows that lie on or above `above`, cell by cell
        rows = memo.get(above)
        if rows is None:
            rows = memo[above] = [
                row
                for row in combinations_with_replacement(range(above[0], N1), len(above))
                if all(map(int.__ge__, row, above))
            ]
        return iter(rows)

    T = _fresh_table(n)
    stack = [choices(tuple(range(1, N1))[: lens[0]])]
    while stack:
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            continue
        r = len(stack)
        o = r * N1 + r
        T[o : o + len(row)] = row
        T[o : o + len(row) * N1 : N1] = row
        if r < len(lens):
            stack.append(choices(row[1 : 1 + lens[r]]))
        else:
            yield T


@cache
def _row_slices(n: int) -> tuple[slice, ...]:
    N1 = n + 1
    return tuple(slice(r * N1, r * N1 + N1) for r in range(N1))


def _rows(T: list[int] | bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a flat (n+1)^2 table, a list or bytes, as int tuples."""
    return tuple(map(tuple, map(T.__getitem__, _row_slices(n))))


def partition_work(n: int, depth: int) -> list[tuple[int, ...]]:
    """All bound-valid assignments of the first `depth` upper-triangle
    cells (row-major) of a magma table on n elements, 1 <= depth <=
    n(n+1)/2.

    Each prefix roots an independent subtree of the magma walk; the
    subtrees in prefix (= lexicographic = sequential visit) order cover
    the whole walk exactly once.  No census splits on them.
    """
    cells = _cells(n)
    if not 1 <= depth <= len(cells):
        raise ValueError(f"partition_work requires depth in 1..{len(cells)}")
    offsets = [i * (n + 1) + j for i, j in cells[:depth]]
    return [tuple(T[o] for o in offsets) for T in _magma_walk(n, depth)]


@cache
def _level_bits(m: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Bit masks shared by every parent with m - 1 elements: bit[x][y] is
    the bit of cell {x, y} (x, y < m), at position min * m + max, so the
    cells of row x are the bits x*m .. x*m + m - 1; span[s][t] covers cells
    (s, y) for y = t..m-1 (span[s][m] = 0); tail[s] covers the cells (x, y)
    with s <= x <= y (tail[m] = 0).  bit is symmetric, so no mask sets a
    bit below the diagonal: a cell (s, y) with y < s is bit y*m + s.  Built
    once per process and level; callers only read them."""
    bit = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(x, m):
            bit[x][y] = bit[y][x] = 1 << (x * m + y)
    span = [[0] * (m + 1) for _ in range(m)]
    for s in range(m):
        for t in range(m - 1, -1, -1):
            span[s][t] = span[s][t + 1] | bit[s][t]
    tail = [0] * (m + 1)
    for s in range(m - 1, -1, -1):
        tail[s] = tail[s + 1] | span[s][s]
    return bit, span, tail


def _grow(task: tuple) -> tuple[list[dict[int, int]], list[bytes]]:
    """Grow one task (n, root, floor), root a (level, record) pair with
    level <= n: counts[m][arch] for the descendants of root on m elements,
    and runs[m], the descendants on m >= floor elements as one run of their
    records in byte order (m <= n; root itself is neither counted nor kept).

    A monoid on q elements is one record: its flat (q+1) x (q+1) table,
    row-major, as bytes, and then its arch byte.  The stack and the kept
    levels hold the same records.  Each popped parent P of complexity p =
    P[-1] on q = m - 1 elements has its children on m elements found by a
    DFS over rows; all of it runs inline in this one frame, so the cost
    does not depend on the caller's stack depth.

    Per parent, the equations are filed by row key as they are built,
    without those that others imply when P[a][b] = q, and row r tests only
    its own: the first side, cell (r, y1), is an m-cell iff t <= y1 (t
    being the column where row r's m-cells start), the other is tested
    against the m-cells so far.  A row with no m-cells so far is not
    tested (empty prefix).  After u[r] <= r + 1, rows r + 1..q are forced
    to u[x] = x, and that completion is a child without a test (saturated
    suffix).  A child's tau, its first row with an m-cell, is the row of
    its mask's lowest bit.  The module docstring proves each rule.
    """
    n, root, floor = task
    counts: list[dict[int, int]] = [{} for _ in range(n + 1)]
    kept: list[list[bytes]] = [[] for _ in range(n + 1)]
    stack = [root] if root[0] < n else []
    while stack:
        level, record = stack.pop()
        # indexed as a list: CPython specialises list indexing, not bytes
        P = list(record)
        p = P[-1]
        m = level + 1
        q = level
        bit, span, tail = _level_bits(m)
        tally = counts[m]
        # g[d]: the first column where row d of P reaches q; b0: the first
        # row d with g[d] <= d
        g = [q] * m
        for d in range(1, m):
            g[d] = P.index(q, d * m + 1, d * m + m) - d * m
        b0 = 1
        while g[b0] > b0:
            b0 += 1
        # the equations bool(X & e1) == bool(X & side) between bracketings
        # of the triples a <= b <= c with P-sum q, a bracketing equal to
        # another by commutativity skipped: eqs[k] holds (y1, side) for e1
        # = cell (k, y1), k <= y1.  First the triples with P[a][b] < q,
        # that is b < g[a]; (x+y)+z with P[x][y] = q is m iff X[x][y] or
        # X[q][z], which is X[q][z] when z >= min(x, y)
        eqs: list[list[tuple[int, int]]] = []
        for _ in range(m):
            eqs.append([])
        bq = bit[q]
        for a in range(1, m):
            Pa = P[a * m : a * m + m]
            for b in range(a, g[a]):
                ab = Pa[b]
                e1s = bit[ab]
                c0 = g[ab]
                for c in range(b if b > c0 else c0, m):
                    e1 = e1s[c]
                    if c < ab:
                        eq = eqs[c]
                        y1 = ab
                    else:
                        eq = eqs[ab]
                        y1 = c
                    if b < c:
                        e2 = bit[Pa[c]][b]
                        if e1 != e2:
                            eq.append((y1, e2))
                    if a < b:
                        bc = P[b * m + c]
                        # never e1 = {P[a][b], c}: two cells, or a cell
                        # holding a, and a < b <= P[a][b], c
                        eq.append((y1, bit[bc][a] if bc < q else bit[b][c] | bq[a]))
        # then those with P[a][b] = q: X[c][q] = X[b0][q] for c > b0, and
        # X[c][q] = X[b][c] or X[g[b]][q] for b >= b0, c >= b
        for c in range(b0 + 1, m):
            eqs[c].append((q, bq[b0]))
        for b in range(b0, m):
            a = g[b]
            if a < b:
                for c in range(b, m):
                    eqs[c].append((q, bit[b][c] | bq[a]))
        # per row r: threshold u[r] in [max(g[r], r), u[r - 1]] (m: no
        # m-cells) and the m-cells of rows 1..r as X[r]; free[tau] is
        # computed on first use
        free = [-1] * m
        u = [m] * m
        X = [0] * m
        r = 1
        t = g[1]
        while r:
            if t > u[r - 1]:
                r -= 1
                t = u[r] + 1
                continue
            mask = X[r - 1] | span[r][t]
            for y1, side in eqs[r] if mask else ():
                if (t > y1) != (not mask & side):
                    break
            else:
                u[r] = t
                if r < q:
                    s = r + 1
                    if t > s:
                        X[r] = mask
                        r = s
                        t = g[s] if g[s] > s else s
                        continue
                    # rows s..q are saturated: u[x] = x there, and that
                    # completion is a child (saturated suffix)
                    u[s:] = range(s, m)
                    mask |= tail[s]
                # a child: its complexity is p + 1 iff some cell (s, y) with
                # s < q in reach_P(tau, p - 1), y >= tau and P[s][y] = q is
                # not an m-cell; reach_P(tau, 0) = {0} and g[0] = q, so p = 1
                # tests the cell (0, q), never an m-cell
                arch = p
                if mask:
                    tau = ((mask & -mask).bit_length() - 1) // m
                    cells = free[tau]
                    if cells < 0:
                        reach = {0}
                        for _ in range(p - 1):
                            acc = set()
                            for x in reach:
                                acc.update(P[x * m + tau : x * m + m])
                            if acc == reach:
                                break
                            reach = acc
                        cells = 0
                        for x in reach:
                            if x < q:
                                cells |= span[x][g[x] if g[x] > tau else tau]
                        free[tau] = cells
                    if cells & ~mask:
                        arch = p + 1
                tally[arch] = tally.get(arch, 0) + 1
                if m < n or m >= floor:
                    N1 = m + 1
                    T = [m] * (N1 * N1 + 1)
                    for x in range(m):
                        T[x * N1 : x * N1 + m] = P[x * m : x * m + m]
                    for x in range(1, m):
                        for y in range(u[x], m):
                            T[x * N1 + y] = T[y * N1 + x] = m
                    T[-1] = arch
                    child = bytes(T)
                    if m < n:
                        stack.append((m, child))
                    if m >= floor:
                        kept[m].append(child)
            t += 1
    return counts, [b"".join(sorted(level)) for level in kept]


# the one monoid on one element, 1 + 1 = 1, as (level, record)
_ROOT = (1, bytes([0, 1, 1, 1, 1]))


def _merge_runs(runs_file: BinaryIO, runs: list[tuple[int, int]], size: int) -> Iterator[bytes]:
    """The records of size bytes in the sorted runs runs_file[start:end],
    merged into one sorted stream.  Closes runs_file when drained or
    dropped, read or not."""
    import heapq

    block = max(1, MERGE_BUFFER // (size * len(runs))) * size

    def records(start: int, end: int) -> Iterator[bytes]:
        # the runs share one file, so every read seeks first
        while start < end:
            runs_file.seek(start)
            data = runs_file.read(min(block, end - start))
            start += block
            for i in range(0, len(data), size):
                yield data[i : i + size]

    def merged() -> Iterator[bytes]:
        with runs_file:
            yield  # started here, inside the with, so closing it closes the file
            yield from heapq.merge(*(records(start, end) for start, end in runs))

    stream = merged()
    next(stream)
    return stream


def _truncation_counts(
    n: int, job_count: int, floor: int | None = None
) -> tuple[list[dict[int, int]], dict[int, Iterator[bytes]]]:
    """counts[m][arch] for the monoids on m = 1..n elements (n >= 1), and
    for each level m = floor..n an iterator of the records of the monoids
    on m elements, (m + 1)^2 table bytes and then the arch byte, in byte
    order (none without a floor).

    Each kept level has its own temporary file, opened before anything
    grows.  Each task returns its monoids of a level as one sorted run of
    records, and the levels grown here go in as one run each.  The runs are
    appended to their level's file, and its iterator merges them from it as
    it is read, so no process holds a whole level.  The table part has a
    fixed length, so the records' byte order is the tables' order."""
    floor = n + 1 if floor is None else floor
    # tempfile only to keep and multiprocessing only to fork: a spawned
    # pool worker imports this module, and needs neither
    files: dict[int, BinaryIO] = {}
    runs: dict[int, list[tuple[int, int]]] = {}
    if floor <= n:
        import tempfile

    def append(m: int, run: bytes) -> None:
        if run:
            start = files[m].tell()
            files[m].write(run)
            runs[m].append((start, start + len(run)))

    try:
        for m in range(floor, n + 1):
            files[m] = tempfile.TemporaryFile()
            runs[m] = []
        split = n - 3 if n >= FORK_N else 1
        # levels 2..split are counted here, the levels above by one task per
        # root, in a pool when min(job_count, tasks, cores) > 1
        counts, level_runs = _grow((split, _ROOT, min(floor, split)))
        counts[1][1] = 1
        level_runs[1] = _ROOT[1]
        for m in range(floor, split + 1):
            append(m, level_runs[m])
        counts += [{} for _ in range(n - split)]
        run, size = level_runs[split], (split + 1) ** 2 + 1
        roots = [run[i : i + size] for i in range(0, len(run), size)]
        # largest first: a root's cells holding its top element are where its
        # children's m-cells can go, so the run ends on small tasks
        roots.sort(key=lambda root: -root.count(split, 0, -1))
        tasks = [(n, (split, root), floor) for root in roots]
        workers = min(job_count, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            from multiprocessing import Pool
        with Pool(processes=workers) if workers > 1 else nullcontext() as pool:
            chunk = -(-len(tasks) // (CHUNKS_PER_WORKER * workers))
            mapper = map if pool is None else partial(pool.imap, chunksize=chunk)
            for part, level_runs in mapper(_grow, tasks):
                for tally, part_tally in zip(counts, part):
                    for arch, count in part_tally.items():
                        tally[arch] = tally.get(arch, 0) + count
                for m in files:
                    append(m, level_runs[m])
    except BaseException:
        for runs_file in files.values():
            runs_file.close()
        raise
    return counts, {
        m: _merge_runs(runs_file, runs[m], (m + 1) ** 2 + 1) for m, runs_file in files.items()
    }


def _level(
    n: int,
    counts: list[dict[int, int]],
    records: Iterable[bytes],
    magma_count: int | None = None,
) -> tuple[CensusResult, Iterator[tuple[AdditionTable, int | None]]]:
    """The result of a census of level n, from its counts, and its stream of
    (table, arch) pairs, each built from its record when it is reached."""
    by_arch = dict(sorted(counts[n].items()))
    result = CensusResult(
        n=n,
        magma_count=magma_count,
        monoid_count=sum(by_arch.values()),
        by_arch=by_arch,
        emitted=None,
    )
    return result, ((AdditionTable(n, _rows(R, n)), R[-1]) for R in records)


def stream_tables(
    config: SearchConfig,
) -> tuple[CensusResult, Iterator[tuple[AdditionTable, int | None]]]:
    """Run the census described by `config`, and stream what it emits.

    Returns the census's counts, with emitted None, and an iterator of
    (table, arch) pairs in the order enumerate_tables() puts in emitted;
    arch is None for magmas, and the iterator is empty unless config.emit.
    Each table is built only when the iterator reaches it, so a caller
    that reads the stream table by table holds one at a time.  Emitted
    monoids are merged from a tempfile.TemporaryFile (under TMPDIR) of one
    (n + 1)^2 + 1 byte record per monoid on n elements, its table and then
    its arch, which arch_filter reads.  It is opened before the
    census grows anything, and it closes when the iterator is drained or
    dropped.

    Monoid statistics (monoid_count, by_arch) always come from the
    truncation census, whose pool job_count sizes.  magma_count is
    computed only when want_magmas is set, by count_magmas() in this
    process.  Emission streams monoids from the same truncation census,
    restricted by arch_filter when given, with the complexity of each,
    or, when want_magmas, magmas from one sequential row-by-row walk.
    Results are independent of job_count.
    """
    n = config.n
    config.check_scale()
    emit_monoids = config.emit and not config.want_magmas
    counts, levels = _truncation_counts(n, config.job_count, floor=n if emit_monoids else None)
    records = levels.get(n, ())
    if config.arch_filter is not None:
        records = (R for R in records if R[-1] == config.arch_filter)
    result, tables = _level(n, counts, records, count_magmas(n) if config.want_magmas else None)
    if config.emit and config.want_magmas:
        tables = ((AdditionTable(n, _rows(T, n)), None) for T in _magma_walk(n, n * (n + 1) // 2))
    return result, tables


def _stream_levels(
    n_max: int, job_count: int
) -> list[tuple[CensusResult, Iterator[tuple[AdditionTable, int]]]]:
    """For n = 1..n_max, what stream_tables(SearchConfig(n, emit=True,
    job_count=job_count)) returns, all read from one truncation census up
    to n_max.  Each level's stream has its own temporary file, and closes
    it when drained or dropped."""
    SearchConfig(n=n_max, emit=True, job_count=job_count).check_scale()
    counts, levels = _truncation_counts(n_max, job_count, floor=1)
    return [_level(n, counts, levels[n]) for n in range(1, n_max + 1)]


def enumerate_tables(config: SearchConfig) -> CensusResult:
    """Run the census described by `config`, holding every emitted table.

    The same census as stream_tables(), with its stream's tables collected
    into emitted; stream_tables() is the one that pairs each with its arch.
    """
    result, tables = stream_tables(config)
    if config.emit:
        result = replace(result, emitted=tuple(t for t, _ in tables))
    return result


def dm_table(n_max: int, job_count: int = 1) -> list[list[int]]:
    """Rows n = 1..n_max of monoid counts by complexity k = 1..n, all read
    from one truncation census up to n_max."""
    # SearchConfig refuses job_count < 1, for n_max < 1 too
    SearchConfig(n=max(n_max, 1), job_count=job_count).check_scale()
    if n_max < 1:
        return []
    counts = _truncation_counts(n_max, job_count)[0]
    return [[counts[n].get(k, 0) for k in range(1, n + 1)] for n in range(1, n_max + 1)]


def dm_table_csv(rows: list[list[int]]) -> str:
    lines = ["n,k,count"]
    for n, row in enumerate(rows, start=1):
        for k, count in enumerate(row, start=1):
            lines.append(f"{n},{k},{count}")
    return "\n".join(lines) + "\n"
