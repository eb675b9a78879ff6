import gc

import pytest

from distmon.builders import sup_monoid
from distmon.census import SearchConfig, enumerate_tables
from distmon.table import AdditionTable


@pytest.fixture(scope="session")
def example_monoid():
    """The two-class, complexity-3 sup-addition monoid on values 1,2,5,6,7."""
    t, is_monoid = sup_monoid([1, 2, 5, 6, 7])
    assert is_monoid
    return t


@pytest.fixture(scope="session")
def census_cache():
    """Monoid censuses with emission, computed once per session."""
    cache = {}

    def get(n: int, want_magmas: bool = False):
        key = (n, want_magmas)
        if key not in cache:
            cache[key] = enumerate_tables(
                SearchConfig(n=n, want_magmas=want_magmas, emit=True)
            )
        return cache[key]

    return get


@pytest.fixture()
def live_tables():
    """A function counting the AdditionTables alive that were not alive
    when the test began (those are held here, so no new table reuses an id)."""
    held = {id(o): o for o in gc.get_objects() if isinstance(o, AdditionTable)}

    def count() -> int:
        gc.collect()
        return sum(
            1 for o in gc.get_objects() if isinstance(o, AdditionTable) and id(o) not in held
        )

    return count
