"""Finite distance monoids: tables, census, analysis, formulas, builders.

A distance magma is a finite totally ordered set with 0 and a commutative,
monotone, positive addition with identity 0; a distance monoid is an
associative one.  This package represents them as rank-indexed addition
tables and provides exhaustive enumeration, Archimedean-structure analysis,
exact counting formulas, and the explicit constructions that realize them.
"""

from .analysis import (
    ApProfile,
    ArchDecomposition,
    analysis_json,
    ap_profile,
    arch_complexity,
    arch_complexity_naive,
    chains_absorb,
    class_submonoid,
    decompose,
    idempotents,
)
from .audit import AuditReport, CheckRecord, run_audit
from .builders import (
    Complexity2Spec,
    build_complexity2,
    counterexample_family,
    counterexample_values,
    enumerate_complexity2,
    lower_bound_family,
    sup_monoid,
)
from .census import (
    CensusResult,
    SearchConfig,
    dm_table,
    dm_table_csv,
    enumerate_tables,
    partition_work,
    stream_tables,
)
from .errors import NotAssociativeError, ScaleGuardError, TableFormatError
from .formulas import (
    BigCount,
    CeilingMap,
    bell,
    ceiling_map_from_fixed_points,
    compositions,
    count_A_chains,
    dm_n_2,
    dm_near_top,
    enumerate_A,
    lower_bound,
    stirling2,
)
from .robbins import ROBBINS_NUMBERS, robbins_number
from .table import (
    AdditionTable,
    ValidationReport,
    Violation,
    capped_naturals,
    from_entries,
    from_upper_triangle,
    max_monoid,
    validate,
)

__all__ = [
    "AdditionTable",
    "ApProfile",
    "ArchDecomposition",
    "AuditReport",
    "BigCount",
    "CeilingMap",
    "CensusResult",
    "CheckRecord",
    "Complexity2Spec",
    "NotAssociativeError",
    "ROBBINS_NUMBERS",
    "ScaleGuardError",
    "SearchConfig",
    "TableFormatError",
    "ValidationReport",
    "Violation",
    "analysis_json",
    "ap_profile",
    "arch_complexity",
    "arch_complexity_naive",
    "bell",
    "build_complexity2",
    "capped_naturals",
    "ceiling_map_from_fixed_points",
    "chains_absorb",
    "class_submonoid",
    "compositions",
    "count_A_chains",
    "counterexample_family",
    "counterexample_values",
    "decompose",
    "dm_n_2",
    "dm_near_top",
    "dm_table",
    "dm_table_csv",
    "enumerate_A",
    "enumerate_complexity2",
    "enumerate_tables",
    "from_entries",
    "from_upper_triangle",
    "idempotents",
    "lower_bound",
    "lower_bound_family",
    "max_monoid",
    "partition_work",
    "robbins_number",
    "run_audit",
    "stirling2",
    "stream_tables",
    "sup_monoid",
    "validate",
]
