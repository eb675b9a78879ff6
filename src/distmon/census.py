"""Exhaustive census of distance monoids by pruned backtracking, and exact
magma counts by a row-transfer DP.

Tables are generated by filling the upper-triangle cells (1,1), (1,2), ...,
(1,n), (2,2), ..., (n,n) in row-major order.  Cell (i, j) ranges over
[max(j, left neighbor, upper neighbor), n], which builds positivity and
monotonicity (and, with the mirrored write, symmetry) into the tree itself:
the magma tree has exactly one leaf per magma.

One walker, _walk(), visits that tree.  It keeps its own stack (one level
per cell) instead of recursing, so its cost does not depend on how deep
the caller's Python stack is, and it runs every check inline from
offsets precomputed per cell.  Two switches select what it does:

* `stop`: the number of cells to fill.  A full walk yields every table;
  a walk that stops at depth d yields the prefixes partition_work() hands
  to pool workers.
* `check`: prune by associativity.  When cell (b, c) is fixed, every
  triple (a, b, c) with a <= b has all three of its inner cells
  determined, so its three bracketings are evaluated immediately; a
  bracketing whose outer lookup lands on a still-open cell parks the
  triple on that cell, to be re-examined the moment the cell is assigned.
  A subtree is abandoned at the first determined disagreement, which is
  what makes the search feasible at n = 8..9.  A full checked walk also
  gives each leaf its Archimedean complexity: when the last cell (r, n) of
  row r is placed, row r's absorption masks are computed once
  (analysis._row_masks), so a leaf runs only the threshold loop.

Magmas are counted without visiting their leaves: the number of ways to
complete rows i..n depends only on row i-1's cells at columns i..n, so
count_magmas() carries a count per such row profile from row to row.  The
unchecked full walk runs only to emit magma tables, and serves as the
DP's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Iterator

from .analysis import _arch_threshold, _row_masks
from .errors import check_scale
from .table import AdditionTable

MONOID_GUARD = 8
MAGMA_GUARD = 7


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
        if self.job_count < 1:
            raise ValueError("job_count must be >= 1")
        ncells = self.n * (self.n + 1) // 2
        if not 0 <= self.prefix_depth <= ncells:
            raise ValueError(f"prefix_depth must be in 0..{ncells}")
        if self.arch_filter is not None:
            if self.want_magmas:
                raise ValueError("arch_filter applies to monoid censuses only")
            if not 1 <= self.arch_filter <= self.n:
                raise ValueError(f"arch_filter must be in 1..{self.n}")


@dataclass(frozen=True)
class CensusResult:
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


def _walk(
    n: int, prefix: tuple[int, ...], stop: int, check: bool
) -> Iterator[tuple[int, list[int]]]:
    """Walk the table tree below `prefix` and yield at every node `stop`
    cells deep, in visit (= lexicographic) order.

    Each yield is (arch, T): T is the walker's own flat (n+1)^2 table, so
    read it before resuming; arch is the node's Archimedean complexity
    when `check` is set and `stop` covers every cell, else 0.  With
    `check`, subtrees that break associativity are cut off.
    """
    N1 = n + 1
    cells = _cells(n)
    ncells = len(cells)
    plen = len(prefix)
    T = _fresh_table(n)
    # per cell (i, j): its offset and its mirror's, the offsets of its left
    # and upper neighbours, and the range [j, top] its value may take
    # (top is the prefix value on prefix cells)
    cell_off = [i * N1 + j for i, j in cells]
    mirror_off = [j * N1 + i for i, j in cells]
    left_off = [i * N1 + j - 1 for i, j in cells]
    up_off = [(i - 1) * N1 + j for i, j in cells]
    floor = [j for _, j in cells]
    top = [prefix[k] if k < plen else n for k in range(ncells)]
    # the row a cell completes, when the walk needs leaf arch
    want_arch = check and stop == ncells
    row_done = [i if want_arch and j == n else 0 for i, j in cells]
    # pending[c]: the triples to check when cell c is placed.  Each cell's
    # list starts with the triples (a, i, j), a = 1..i, that it completes,
    # as (ab, ac, bc, c, b, a) offsets; a triple whose outer lookup hits an
    # open cell is parked on that cell's list and on the trail.  Both
    # halves of a cell share one list.
    pending: list[list[tuple[int, ...]]] = [[] for _ in range(N1 * N1)]
    for i, j in cells:
        pending[i * N1 + j] = pending[j * N1 + i] = [
            (a * N1 + i, a * N1 + j, i * N1 + j, j, i, a) for a in range(1, i + 1)
        ]
    trail: list[list[tuple[int, ...]]] = []
    marks = [0] * ncells
    # TN[c] = T[c] * N1, the offset of row T[c], for every placed cell c
    # of the upper triangle (a triple's inner cells all lie there)
    TN = [x * N1 for x in T]
    bad, row_img = [0] * N1, [[0] * (n + 2) for _ in range(N1)]
    bad[0], row_img[0] = _row_masks(T[:N1], n)

    k = -1
    while True:
        # descend: the next cell starts at its magma lower bound
        k += 1
        marks[k] = len(trail)
        v = floor[k]
        x = T[left_off[k]]
        if x > v:
            v = x
        x = T[up_off[k]]
        if x > v:
            v = x
        if k < plen:
            if not v <= prefix[k] <= n:
                i, j = cells[k]
                raise ValueError(f"prefix cell ({i},{j})={prefix[k]} violates magma bounds")
            v = prefix[k]
        ci, cj, hi, mark = cell_off[k], mirror_off[k], top[k], marks[k]
        while True:
            if v > hi:
                # level k is exhausted: reopen its cell, resume the level above
                T[ci] = T[cj] = -1
                if k == 0:
                    return
                k -= 1
                ci, cj, hi, mark = cell_off[k], mirror_off[k], top[k], marks[k]
                v = T[ci] + 1
                continue
            if len(trail) > mark:
                # unpark what was parked since this level was entered
                for parked in trail[mark:]:
                    parked.pop()
                del trail[mark:]
            T[ci] = T[cj] = v
            v += 1
            if check:
                TN[ci] = T[ci] * N1
                # the loop breaks at a determined disagreement, so tri is
                # None after it only if every triple passed
                for tri in pending[ci]:
                    ab, ac, bc, c, b, a = tri
                    o1 = TN[ab] + c
                    o2 = TN[ac] + b
                    o3 = TN[bc] + a
                    p1 = T[o1]
                    p2 = T[o2]
                    p3 = T[o3]
                    if p1 == p2 == p3 and p1 >= 0:
                        continue
                    if p1 >= 0:
                        if p2 >= 0:
                            if p1 != p2 or p3 >= 0:
                                break
                            parked = pending[o3]
                        else:
                            if p3 >= 0 and p1 != p3:
                                break
                            parked = pending[o2]
                    else:
                        if p2 >= 0 and p3 >= 0 and p2 != p3:
                            break
                        parked = pending[o1]
                    parked.append(tri)
                    trail.append(parked)
                else:
                    tri = None
                if tri is not None:
                    continue
                r = row_done[k]
                if r:
                    bad[r], row_img[r] = _row_masks(T[r * N1 : r * N1 + N1], n)
            if k + 1 < stop:
                break
            yield (_arch_threshold(bad, row_img, n) if want_arch else 0), T


def _rows(T: list[int], n: int) -> tuple[tuple[int, ...], ...]:
    N1 = n + 1
    return tuple(tuple(T[r * N1 : r * N1 + N1]) for r in range(N1))


def _monoid_subtree(
    n: int,
    prefix: tuple[int, ...],
    emit: bool,
    arch_filter: int | None,
) -> tuple[dict[int, int], list[AdditionTable]]:
    """Count (and optionally collect) all monoids extending `prefix`.

    Returns ({arch: count}, emitted tables in visit order).
    """
    by_arch: dict[int, int] = {}
    emitted: list[AdditionTable] = []
    for arch, T in _walk(n, prefix, n * (n + 1) // 2, True):
        by_arch[arch] = by_arch.get(arch, 0) + 1
        if emit and (arch_filter is None or arch == arch_filter):
            emitted.append(AdditionTable(n, _rows(T, n)))
    return by_arch, emitted


def _magma_subtree(
    n: int, prefix: tuple[int, ...], emit: bool
) -> tuple[int, list[AdditionTable]]:
    """Count (and optionally collect) all magmas extending `prefix`."""
    count = 0
    emitted: list[AdditionTable] = []
    for _, T in _walk(n, prefix, n * (n + 1) // 2, False):
        count += 1
        if emit:
            emitted.append(AdditionTable(n, _rows(T, n)))
    return count, emitted


def partition_work(config: SearchConfig) -> list[tuple[int, ...]]:
    """All bound-valid assignments of the first prefix_depth cells.

    Each prefix roots an independent subtree; subtree results merged in
    prefix (= lexicographic = sequential visit) order reproduce the
    unpartitioned census exactly.
    """
    if config.prefix_depth < 1:
        raise ValueError("partition_work requires prefix_depth >= 1")
    n = config.n
    offsets = [i * (n + 1) + j for i, j in _cells(n)[: config.prefix_depth]]
    return [
        tuple(T[o] for o in offsets)
        for _, T in _walk(n, (), config.prefix_depth, False)
    ]


def _run_prefix(args: tuple) -> tuple[dict[int, int], list[AdditionTable]]:
    """Worker entry point: the monoid pass for one prefix, plus the magma
    walk when magma tables are to be emitted."""
    n, prefix, want_magmas, arch_filter, emit = args
    by_arch, emitted = _monoid_subtree(n, prefix, emit and not want_magmas, arch_filter)
    if want_magmas and emit:
        emitted = _magma_subtree(n, prefix, True)[1]
    return by_arch, emitted


def enumerate_tables(config: SearchConfig) -> CensusResult:
    """Run the census described by `config`.

    Monoid statistics (monoid_count, by_arch) are always computed via the
    pruned search.  magma_count is computed only when want_magmas is set,
    by count_magmas() in this process.  Emission collects magmas when
    want_magmas (by walking every magma), else monoids, restricted by
    arch_filter when given.  Results are independent of job_count and
    prefix_depth.
    """
    n = config.n
    check_scale("monoid census n", n, MONOID_GUARD, config.scale_override)
    if config.want_magmas:
        check_scale("magma census n", n, MAGMA_GUARD, config.scale_override)

    depth = config.prefix_depth
    if depth == 0 and config.job_count > 1:
        depth = min(2, n * (n + 1) // 2)
    if depth == 0:
        prefixes = [()]
    else:
        prefixes = partition_work(replace(config, prefix_depth=depth))

    tasks = [
        (n, p, config.want_magmas, config.arch_filter, config.emit) for p in prefixes
    ]
    if config.job_count == 1 or len(tasks) == 1:
        parts = [_run_prefix(t) for t in tasks]
    else:
        with Pool(processes=config.job_count) as pool:
            parts = pool.map(_run_prefix, tasks)

    by_arch: dict[int, int] = {}
    emitted: list[AdditionTable] = []
    for part_arch, part_emitted in parts:
        for k, v in part_arch.items():
            by_arch[k] = by_arch.get(k, 0) + v
        emitted.extend(part_emitted)

    by_arch = dict(sorted(by_arch.items()))
    return CensusResult(
        n=n,
        magma_count=count_magmas(n) if config.want_magmas else None,
        monoid_count=sum(by_arch.values()),
        by_arch=by_arch,
        emitted=tuple(emitted) if config.emit else None,
    )


def dm_table(
    n_max: int, scale_override: bool = False, job_count: int = 1
) -> list[list[int]]:
    """Rows n = 1..n_max of monoid counts by complexity k = 1..n."""
    rows = []
    for n in range(1, n_max + 1):
        result = enumerate_tables(
            SearchConfig(n=n, job_count=job_count, scale_override=scale_override)
        )
        rows.append([result.by_arch.get(k, 0) for k in range(1, n + 1)])
    return rows


def dm_table_csv(rows: list[list[int]]) -> str:
    lines = ["n,k,count"]
    for n, row in enumerate(rows, start=1):
        for k, count in enumerate(row, start=1):
            lines.append(f"{n},{k},{count}")
    return "\n".join(lines) + "\n"
