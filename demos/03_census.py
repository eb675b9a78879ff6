"""Exhaustive census: every magma/monoid of a given size, counted exactly.

Monoids, counted or emitted, grow from their truncations (the monoid one
element smaller, with sums capped at its top), deciding only where the new
top appears.  Emitted magmas come from a walk that fills the table one
row at a time; positivity and monotonicity are built into each row's
range.
"""

import time

from distmon import SearchConfig, dm_table, dm_table_csv, enumerate_tables, partition_work

print("== magmas vs monoids ==")
for n in range(1, 6):
    r = enumerate_tables(SearchConfig(n=n, want_magmas=True))
    print(f"n={n}: {r.magma_count:>4} magmas, {r.monoid_count:>3} monoids")

print()
print("== monoids by Archimedean complexity ==")
print(dm_table_csv(dm_table(6)), end="")

print()
print("== work splitting is exact, not approximate ==")
prefixes = partition_work(5, 2)
print(f"{len(prefixes)} walk subtrees at depth 2, by their first two cells:")
print("  " + " ".join(",".join(map(str, p)) for p in prefixes))
# the monoid census grows its n - 3 level in a pool of job_count workers
sequential = enumerate_tables(SearchConfig(n=6, emit=True))
pooled = enumerate_tables(SearchConfig(n=6, emit=True, job_count=2))
print(f"n=6 monoid census, job_count 1 == 2: {pooled == sequential}")

print()
print("== timing the monoid count ==")
for n in (6, 7):
    t0 = time.time()
    r = enumerate_tables(SearchConfig(n=n))
    print(f"n={n}: {r.monoid_count} monoids, by_arch={r.by_arch}  "
          f"[{time.time() - t0:.2f}s]")
