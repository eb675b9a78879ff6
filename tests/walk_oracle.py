"""The cell-by-cell table walker: the tests' reference for the census.

It is the reference in two ways.  Its checked mode, which prunes by
associativity, yields exactly the monoids, in the order of their table
bytes; with arch_complexity on each leaf it is the oracle for the
truncation census (census._grow): its counts by complexity, its emitted
tables, their order and its arch filter.  Its unchecked mode yields every
magma, cut to any number of cells; it is the oracle for the row generator
(census._magma_walk) behind magma emission and partition_work, and for
count_magmas.  It finds the tables by a different algorithm from both, so
agreement means something.

No product path runs it, so it lives beside the tests rather than in
src/: a plain module that pytest imports but does not collect.

The walker.  Magma tables come from filling the upper-triangle cells
(1,1), (1,2), ..., (1,n), (2,2), ..., (n,n) in row-major order.  Cell (i,
j) ranges over [max(j, left neighbor, upper neighbor), n], which builds
positivity and monotonicity (and, with the mirrored write, symmetry)
into the tree itself: the magma tree has exactly one leaf per magma.

_walk() visits that tree.  It keeps its own stack (one level per cell)
instead of recursing, so its cost does not depend on how deep the
caller's Python stack is, and it runs every check inline from offsets
precomputed per cell.  Two switches select what it does:

* `stop`: the number of cells to fill.  A full walk yields every table;
  a walk that stops at depth d yields every bound-valid assignment of the
  first d cells.
* `check`: prune by associativity.  When cell (b, c) is fixed, every
  triple (a, b, c) with a <= b has all three of its inner cells
  determined, so its three bracketings are evaluated immediately; a
  bracketing whose outer lookup lands on a still-open cell parks the
  triple on that cell, to be re-examined the moment the cell is assigned.
  A subtree is abandoned at the first determined disagreement, so a full
  checked walk yields exactly the monoids.
"""

from __future__ import annotations

from typing import Iterator

from distmon.analysis import arch_complexity
from distmon.census import _cells, _fresh_table, _rows
from distmon.table import AdditionTable


def _walk(
    n: int, prefix: tuple[int, ...], stop: int, check: bool
) -> Iterator[list[int]]:
    """Walk the table tree below `prefix` and yield at every node `stop`
    cells deep, in visit (= lexicographic) order.

    Each yield is the walker's own flat (n+1)^2 table, so read it before
    resuming.  With `check`, subtrees that break associativity are cut off.
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
            if k + 1 < stop:
                break
            yield T


def _monoid_subtree(n: int) -> dict[int, int]:
    """{arch: count} over the monoids on n elements, by the checked walk
    and arch_complexity: the truncation census's test oracle."""
    by_arch: dict[int, int] = {}
    for T in _walk(n, (), n * (n + 1) // 2, True):
        arch = arch_complexity(AdditionTable(n, _rows(T, n)))
        by_arch[arch] = by_arch.get(arch, 0) + 1
    return by_arch
