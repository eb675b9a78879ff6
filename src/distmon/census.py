"""Exhaustive census of distance monoids by pruned backtracking, and exact
magma counts by a row-transfer DP.

Tables are generated by filling the upper-triangle cells (1,1), (1,2), ...,
(1,n), (2,2), ..., (n,n) in row-major order.  Cell (i, j) ranges over
[max(j, left neighbor, upper neighbor), n], which builds positivity and
monotonicity (and, with the mirrored write, symmetry) into the tree itself:
the magma tree has exactly one leaf per magma.

Magmas are counted without visiting those leaves: the number of ways to
complete rows i..n depends only on row i-1's cells at columns i..n, so
count_magmas() carries a count per such row profile from row to row.  The
leaf walk (_magma_subtree) runs only to emit magma tables, and serves as
the DP's test oracle.

For monoids, associativity is checked incrementally.  When cell (b, c) is
fixed, every triple (a, b, c) with a <= b has all three of its inner cells
determined, so its three bracketings are evaluated immediately; any
bracketing whose outer lookup lands on a still-open cell parks the triple
on that cell and is re-examined the moment the cell is assigned.  A subtree
is abandoned at the first determined disagreement, which is what makes the
search feasible at n = 8..9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from multiprocessing import Pool

from .analysis import _arch_from_rows
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


def _lower_bound(T: list[int], N1: int, i: int, j: int) -> int:
    lo = j
    left = T[i * N1 + j - 1]
    if left > lo:
        lo = left
    up = T[(i - 1) * N1 + j]
    if up > lo:
        lo = up
    return lo


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


def _monoid_subtree(
    n: int,
    prefix: tuple[int, ...],
    emit: bool,
    arch_filter: int | None,
) -> tuple[dict[int, int], list[AdditionTable]]:
    """Count (and optionally collect) all monoids extending `prefix`.

    Returns ({arch: count}, emitted tables in visit order).
    """
    N1 = n + 1
    T = _fresh_table(n)
    cells = _cells(n)
    ncells = len(cells)
    pending: list[list[tuple[int, int, int]]] = [[] for _ in range(N1 * N1)]
    trail: list[int] = []
    by_arch: dict[int, int] = {}
    emitted: list[AdditionTable] = []

    def check_triple(a: int, b: int, c: int) -> bool:
        """a <= b <= c with all inner cells fixed; False on a proven violation.

        If some bracketing's outer lookup is still open, park the triple on
        one open cell; re-checking on that cell's assignment chases the
        remaining lookups, so the triple is fully verified by leaf time.
        """
        x1 = T[a * N1 + b]
        x2 = T[a * N1 + c]
        x3 = T[b * N1 + c]
        p1 = T[x1 * N1 + c]
        p2 = T[x2 * N1 + b]
        p3 = T[x3 * N1 + a]
        if p1 >= 0:
            if p2 >= 0:
                if p1 != p2:
                    return False
                if p3 >= 0:
                    return p1 == p3
                cid = x3 * N1 + a
            else:
                if p3 >= 0 and p1 != p3:
                    return False
                cid = x2 * N1 + b
        else:
            if p2 >= 0 and p3 >= 0 and p2 != p3:
                return False
            cid = x1 * N1 + c
        pending[cid].append((a, b, c))
        trail.append(cid)
        return True

    def assign(k: int, val: int) -> bool:
        """Place cells[k] = val; run all checks now determined."""
        i, j = cells[k]
        ci = i * N1 + j
        cj = j * N1 + i
        T[ci] = val
        T[cj] = val
        for a in range(1, i + 1):
            if not check_triple(a, i, j):
                return False
        for tri in pending[ci]:
            if not check_triple(*tri):
                return False
        if ci != cj:
            for tri in pending[cj]:
                if not check_triple(*tri):
                    return False
        return True

    def unassign(k: int, mark: int) -> None:
        i, j = cells[k]
        while len(trail) > mark:
            pending[trail.pop()].pop()
        T[i * N1 + j] = -1
        T[j * N1 + i] = -1

    def leaf() -> None:
        rows = tuple(tuple(T[r * N1 : (r + 1) * N1]) for r in range(N1))
        arch = _arch_from_rows(rows, n)
        by_arch[arch] = by_arch.get(arch, 0) + 1
        if emit and (arch_filter is None or arch == arch_filter):
            emitted.append(AdditionTable(n, rows))

    def rec(k: int) -> None:
        if k == ncells:
            leaf()
            return
        i, j = cells[k]
        for val in range(_lower_bound(T, N1, i, j), N1):
            mark = len(trail)
            if assign(k, val):
                rec(k + 1)
            unassign(k, mark)

    # replay the prefix through the same machinery; a dead prefix means the
    # subtree holds no monoids at all
    for k, val in enumerate(prefix):
        i, j = cells[k]
        if val < _lower_bound(T, N1, i, j) or val > n:
            raise ValueError(f"prefix cell ({i},{j})={val} violates magma bounds")
        if not assign(k, val):
            return {}, []
    rec(len(prefix))
    return by_arch, emitted


def _magma_subtree(
    n: int, prefix: tuple[int, ...], emit: bool
) -> tuple[int, list[AdditionTable]]:
    """Count (and optionally collect) all magmas extending `prefix`."""
    N1 = n + 1
    T = _fresh_table(n)
    cells = _cells(n)
    ncells = len(cells)
    emitted: list[AdditionTable] = []
    count = 0

    for k, val in enumerate(prefix):
        i, j = cells[k]
        if val < _lower_bound(T, N1, i, j) or val > n:
            raise ValueError(f"prefix cell ({i},{j})={val} violates magma bounds")
        T[i * N1 + j] = val
        T[j * N1 + i] = val

    def rec(k: int) -> None:
        nonlocal count
        if k == ncells:
            count += 1
            if emit:
                rows = tuple(tuple(T[r * N1 : (r + 1) * N1]) for r in range(N1))
                emitted.append(AdditionTable(n, rows))
            return
        i, j = cells[k]
        ci = i * N1 + j
        cj = j * N1 + i
        for val in range(_lower_bound(T, N1, i, j), N1):
            T[ci] = val
            T[cj] = val
            rec(k + 1)
        T[ci] = -1
        T[cj] = -1

    rec(len(prefix))
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
    N1 = n + 1
    T = _fresh_table(n)
    cells = _cells(n)
    depth = config.prefix_depth
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(k: int) -> None:
        if k == depth:
            out.append(tuple(stack))
            return
        i, j = cells[k]
        ci = i * N1 + j
        cj = j * N1 + i
        for val in range(_lower_bound(T, N1, i, j), N1):
            T[ci] = val
            T[cj] = val
            stack.append(val)
            rec(k + 1)
            stack.pop()
        T[ci] = -1
        T[cj] = -1

    rec(0)
    return out


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
