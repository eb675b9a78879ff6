"""Finite distance monoids: tables, census, analysis, formulas, builders.

A distance magma is a finite totally ordered set with 0 and a commutative,
monotone, positive addition with identity 0; a distance monoid is an
associative one.  This package represents them as rank-indexed addition
tables and provides exhaustive enumeration, Archimedean-structure analysis,
exact counting formulas, and the explicit constructions that realize them.
"""

from importlib import import_module

# each public name and the submodule that defines it, in __all__'s order.
# A name is imported on first access (PEP 562), so a process loads only
# the submodules it uses: `import distmon.census` loads census, table and
# errors, never the audit, builders, analysis, formulas or robbins
_EXPORTS = {
    "AdditionTable": "table",
    "ApProfile": "analysis",
    "ArchDecomposition": "analysis",
    "AuditReport": "audit",
    "BigCount": "formulas",
    "CeilingMap": "formulas",
    "CensusResult": "census",
    "CheckRecord": "audit",
    "Complexity2Spec": "builders",
    "NotAssociativeError": "errors",
    "ROBBINS_NUMBERS": "robbins",
    "ScaleGuardError": "errors",
    "SearchConfig": "census",
    "TableFormatError": "errors",
    "ValidationReport": "table",
    "Violation": "table",
    "analysis_json": "analysis",
    "ap_profile": "analysis",
    "arch_complexity": "analysis",
    "arch_complexity_naive": "analysis",
    "bell": "formulas",
    "build_complexity2": "builders",
    "capped_naturals": "table",
    "ceiling_map_from_fixed_points": "formulas",
    "chains_absorb": "analysis",
    "class_submonoid": "analysis",
    "compositions": "formulas",
    "count_A_chains": "formulas",
    "counterexample_family": "builders",
    "counterexample_values": "builders",
    "decompose": "analysis",
    "dm_n_2": "formulas",
    "dm_near_top": "formulas",
    "dm_table": "census",
    "dm_table_csv": "census",
    "enumerate_A": "formulas",
    "enumerate_complexity2": "builders",
    "enumerate_tables": "census",
    "from_entries": "table",
    "from_upper_triangle": "table",
    "idempotents": "analysis",
    "lower_bound": "formulas",
    "lower_bound_family": "builders",
    "max_monoid": "table",
    "partition_work": "census",
    "robbins_number": "robbins",
    "run_audit": "audit",
    "stirling2": "formulas",
    "stream_tables": "census",
    "sup_monoid": "builders",
    "validate": "table",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS.values():
        # a submodule, bound here by its import
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
