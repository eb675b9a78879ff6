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
up-set and c >= a.  These equations between bits are built once per
parent as bitmask tests and each is checked at the last row it involves,
so every child of P is produced once and nothing else is.

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
  its own m-cells.
The levels m = 1..n are grown depth-first from an explicit stack.  From
n = FORK_N on, each monoid on n - 3 elements roots one task; with
job_count > 1 the tasks run in a process pool, and they merge in task
order either way.

Emitted monoids are the level-n tables sorted by their bytes.  That is
lexicographic order on the upper-triangle cells in row-major order, the
order in which the row generator below emits magmas: in the flat
row-major table every entry below the diagonal mirrors an earlier upper
cell, so the first byte where two tables differ is their first differing
upper cell.  The order is global, so it does not depend on job_count.
Only the (bytes, arch) pairs are held: stream_tables() builds each
emitted table, monoid or magma, when its caller reaches it.

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
from multiprocessing import Pool
from typing import Iterator

from .errors import check_scale
from .table import AdditionTable

MONOID_GUARD = 8
MAGMA_GUARD = 7
# the least n whose census forks: below it 2 workers cost more than they
# save (median ms on 2 cores, 1 job vs 2: n = 7 82 vs 129, n = 8 557 vs 403)
FORK_N = 8


@dataclass(frozen=True)
class SearchConfig:
    n: int
    want_magmas: bool = False
    arch_filter: int | None = None
    emit: bool = False
    job_count: int = 1
    prefix_depth: int = 0
    scale_override: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("census requires n >= 1")
        ncells = self.n * (self.n + 1) // 2
        if not 0 <= self.prefix_depth <= ncells:
            raise ValueError(f"prefix_depth must be in 0..{ncells}")
        if self.arch_filter is not None:
            if self.want_magmas:
                raise ValueError("arch_filter applies to monoid censuses only")
            if not 1 <= self.arch_filter <= self.n:
                raise ValueError(f"arch_filter must be in 1..{self.n}")

    def check_scale(self) -> None:
        """Raise ScaleGuardError if this census is past a desk-scale guard."""
        check_scale("monoid census n", self.n, MONOID_GUARD, self.scale_override)
        if self.want_magmas:
            check_scale("magma census n", self.n, MAGMA_GUARD, self.scale_override)


@dataclass(frozen=True)
class CensusResult:
    """Counts of one census, and the tables it emitted, if any (None from
    stream_tables(), which streams them instead).

    emitted_arch runs parallel to emitted: emitted_arch[i] is the
    Archimedean complexity of emitted[i], read from the truncation census
    that grew it.  It is set for monoid emission only (None for magma
    emission and when nothing is emitted) and stays out of to_json_dict().
    """

    n: int
    magma_count: int | None
    monoid_count: int
    by_arch: dict[int, int]
    emitted: tuple[AdditionTable, ...] | None
    emitted_arch: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.emitted_arch is not None and (
            self.emitted is None or len(self.emitted_arch) != len(self.emitted)
        ):
            raise ValueError("emitted_arch must run parallel to emitted")

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


def _rows(T: list[int], n: int) -> tuple[tuple[int, ...], ...]:
    N1 = n + 1
    return tuple(tuple(T[r * N1 : r * N1 + N1]) for r in range(N1))


def partition_work(config: SearchConfig) -> list[tuple[int, ...]]:
    """All bound-valid assignments of the first prefix_depth cells.

    Each prefix roots an independent subtree of the magma walk; the
    subtrees in prefix (= lexicographic = sequential visit) order cover
    the whole walk exactly once.  No census splits on them.
    """
    if config.prefix_depth < 1:
        raise ValueError("partition_work requires prefix_depth >= 1")
    n = config.n
    offsets = [i * (n + 1) + j for i, j in _cells(n)[: config.prefix_depth]]
    return [tuple(T[o] for o in offsets) for T in _magma_walk(n, config.prefix_depth)]


@cache
def _level_bits(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bit masks shared by every parent with m - 1 elements: bit[x][y] is
    the bit of cell {x, y} (x, y < m), and span[s][t] covers cells (s, y)
    for y = t..m-1 (span[s][m] = 0).  Built once per process and level;
    callers only read them."""
    bit = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(x, m):
            bit[x][y] = bit[y][x] = 1 << (x * m + y)
    span = [[0] * (m + 1) for _ in range(m)]
    for s in range(m):
        for t in range(m - 1, -1, -1):
            span[s][t] = span[s][t + 1] | bit[s][t]
    return bit, span


def _grow(task: tuple) -> tuple[list[dict[int, int]], list[tuple[bytes, int]]]:
    """Grow one task (n, root, keep), root a (level, table, arch) triple
    with level <= n: counts[m][arch] for the descendants of root on m
    elements, and with `keep` the monoids on n elements under it (root
    itself when level = n) as (table, arch) pairs in visit order.

    Tables are flat: a monoid on q elements is (q+1) x (q+1), row-major.  Each
    popped parent P of complexity p on q = m - 1 elements has its children
    on m elements found by a DFS over rows; all of it runs inline in this
    one frame, so the cost does not depend on the caller's stack depth.
    """
    n, root, keep = task
    counts: list[dict[int, int]] = [{} for _ in range(n + 1)]
    if root[0] == n:
        return counts, [(bytes(root[1]), root[2])] if keep else []
    kept = []
    stack = [root]
    while stack:
        level, P, p = stack.pop()
        m = level + 1
        q = level
        bit, span = _level_bits(m)
        tally = counts[m]
        # g[d]: the first column where row d of P reaches q
        g = [q] * m
        for d in range(1, m):
            c = 1
            while P[d * m + c] != q:
                c += 1
            g[d] = c
        # equations bool(X & Ma) == bool(X & Mb) between bracketings of the
        # triples a <= b <= c with P-sum q, keyed by the last row they
        # involve (a bracketing equal to another by commutativity is
        # skipped).  (x+y)+z with P[x][y] = q is m iff X[x][y] or X[q][z],
        # which is X[q][z] when z >= min(x, y)
        pairs = set()
        bq = bit[q]
        for a in range(1, m):
            for b in range(a, m):
                ab = P[a * m + b]
                e1s = bit[ab] if ab < q else bq
                c0 = g[ab]
                for c in range(b if b > c0 else c0, m):
                    e1 = e1s[c]
                    if b < c:
                        ac = P[a * m + c]
                        e2 = bit[ac][b] if ac < q else bq[b]
                        if e1 != e2:
                            pairs.add((e1, e2) if e1 < e2 else (e2, e1))
                    if a < b:
                        bc = P[b * m + c]
                        e3 = bit[bc][a] if bc < q else bit[b][c] | bq[a]
                        if e1 != e3:
                            pairs.add((e1, e3) if e1 < e3 else (e3, e1))
        # (a loop, not a comprehension: that would be a call per parent)
        eqs: list[list[tuple[int, int]]] = []
        for _ in range(m):
            eqs.append([])
        for pair in pairs:
            eqs[((pair[0] | pair[1]).bit_length() - 1) // m].append(pair)
        # per row r: threshold u[r] in [max(g[r], r), top[r]] (m: no
        # m-cells), the m-cells of rows 1..r as X[r], and tau[r], the first
        # row so far with r + q = m; free[tau] is computed on first use
        free = [-1] * m
        u = [m] * m
        X = [0] * m
        tau = [0] * m
        top = [m] * m
        r = 1
        t = g[1]
        while r:
            if t > top[r]:
                r -= 1
                t = u[r] + 1
                continue
            mask = X[r - 1] | span[r][t]
            for Ma, Mb in eqs[r]:
                if (not mask & Ma) != (not mask & Mb):
                    break
            else:
                u[r] = t
                tr = tau[r - 1] or (r if t < m else 0)
                if r < q:
                    X[r] = mask
                    tau[r] = tr
                    r += 1
                    top[r] = t if t > r else r
                    t = g[r] if g[r] > r else r
                    continue
                # a child: its complexity is p + 1 iff some cell (s, y) with
                # s < q in reach_P(tau, p - 1), y >= tau and P[s][y] = q is
                # not an m-cell; for p = 1 the cell (0, q), never an m-cell,
                # stands for s = 0
                arch = p
                if tr:
                    cells = free[tr]
                    if cells < 0:
                        if p == 1:
                            cells = span[0][q]
                        else:
                            reach = ((1 << m) - 1) >> tr << tr
                            for _ in range(p - 2):
                                acc = 0
                                rest = reach
                                while rest:
                                    low = rest & -rest
                                    row = (low.bit_length() - 1) * m
                                    for w in range(tr, m):
                                        acc |= 1 << P[row + w]
                                    rest ^= low
                                if acc == reach:
                                    break
                                reach = acc
                            cells = 0
                            for s in range(1, q):
                                if reach >> s & 1:
                                    cells |= span[s][g[s] if g[s] > tr else tr]
                        free[tr] = cells
                    if cells & ~mask:
                        arch = p + 1
                tally[arch] = tally.get(arch, 0) + 1
                if m < n or keep:
                    N1 = m + 1
                    T = [m] * (N1 * N1)
                    for x in range(m):
                        T[x * N1 : x * N1 + m] = P[x * m : x * m + m]
                    for x in range(1, m):
                        for y in range(u[x], m):
                            T[x * N1 + y] = T[y * N1 + x] = m
                    if m < n:
                        stack.append((m, T, arch))
                    else:
                        kept.append((bytes(T), arch))
            t += 1
    return counts, kept


# the one monoid on one element, 1 + 1 = 1, as (level, table, arch)
_ROOT = (1, [0, 1, 1, 1], 1)


def _truncation_counts(
    n: int, job_count: int, keep: bool = False
) -> tuple[list[dict[int, int]], list[tuple[bytes, int]]]:
    """counts[m][arch] for the monoids on m = 1..n elements (n >= 1), and
    with `keep` the monoids on n elements as (table, arch) pairs in the
    order of their table bytes."""
    if job_count < 1:
        raise ValueError("job_count must be >= 1")
    split = n - 3 if n >= FORK_N else 1
    # levels 2..split are counted here, the levels above by one task per
    # root, in a pool when min(job_count, tasks, cores) > 1
    counts, roots = _grow((split, _ROOT, True))
    counts[1][1] = 1
    counts += [{} for _ in range(n - split)]
    tasks = [(n, (split, T, arch), keep) for T, arch in roots]
    kept = []
    workers = min(job_count, len(tasks), os.cpu_count() or 1)
    with Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else partial(pool.imap, chunksize=1)
        for part, part_kept in mapper(_grow, tasks):
            for tally, part_tally in zip(counts, part):
                for arch, count in part_tally.items():
                    tally[arch] = tally.get(arch, 0) + count
            kept += part_kept
    kept.sort()
    return counts, kept


def stream_tables(
    config: SearchConfig,
) -> tuple[CensusResult, Iterator[tuple[AdditionTable, int | None]]]:
    """Run the census described by `config`, and stream what it emits.

    Returns the census's counts, with emitted None, and an iterator of
    (table, arch) pairs in the order enumerate_tables() puts in emitted;
    arch is None for magmas, and the iterator is empty unless config.emit.
    Each table is built only when the iterator reaches it, so a caller
    that reads the stream table by table holds one at a time.

    Monoid statistics (monoid_count, by_arch) always come from the
    truncation census, whose pool job_count sizes.  magma_count is
    computed only when want_magmas is set, by count_magmas() in this
    process.  Emission streams monoids from the same truncation census,
    restricted by arch_filter when given, with the complexity of each,
    or, when want_magmas, magmas from one sequential row-by-row walk.
    prefix_depth is validated but splits nothing.  Results are
    independent of job_count and prefix_depth.
    """
    n = config.n
    config.check_scale()
    emit_monoids = config.emit and not config.want_magmas
    counts, kept = _truncation_counts(n, config.job_count, keep=emit_monoids)
    if emit_monoids:
        if config.arch_filter is not None:
            kept = [pair for pair in kept if pair[1] == config.arch_filter]
        tables = ((AdditionTable(n, _rows(T, n)), arch) for T, arch in kept)
    elif config.emit:
        tables = (
            (AdditionTable(n, _rows(T, n)), None) for T in _magma_walk(n, n * (n + 1) // 2)
        )
    else:
        tables = iter(())

    by_arch = dict(sorted(counts[n].items()))
    result = CensusResult(
        n=n,
        magma_count=count_magmas(n) if config.want_magmas else None,
        monoid_count=sum(by_arch.values()),
        by_arch=by_arch,
        emitted=None,
    )
    return result, tables


def enumerate_tables(config: SearchConfig) -> CensusResult:
    """Run the census described by `config`, holding every emitted table.

    The same census as stream_tables(), with its stream collected into
    emitted and, for monoids, the complexity of each into emitted_arch
    (None for magma emission and when nothing is emitted).
    """
    result, tables = stream_tables(config)
    if not config.emit:
        return result
    pairs = tuple(tables)
    return replace(
        result,
        emitted=tuple(t for t, _ in pairs),
        emitted_arch=None if config.want_magmas else tuple(arch for _, arch in pairs),
    )


def dm_table(n_max: int, job_count: int = 1) -> list[list[int]]:
    """Rows n = 1..n_max of monoid counts by complexity k = 1..n, all read
    from one truncation census up to n_max."""
    if n_max < 1:
        return []
    check_scale("monoid census n", n_max, MONOID_GUARD)
    counts = _truncation_counts(n_max, job_count)[0]
    return [[counts[n].get(k, 0) for k in range(1, n + 1)] for n in range(1, n_max + 1)]


def dm_table_csv(rows: list[list[int]]) -> str:
    lines = ["n,k,count"]
    for n, row in enumerate(rows, start=1):
        for k, count in enumerate(row, start=1):
            lines.append(f"{n},{k},{count}")
    return "\n".join(lines) + "\n"
