"""Command-line interface.

Exit status contract: 0 = success, 1 = mathematical/validation failure
(axioms violated, analysis refused, audit mismatch), 2 = usage or parse
failure (bad arguments, malformed files, desk-scale guard).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

# each command imports the rest of distmon when it runs; census is needed
# here for the parser's help, and table comes with it
from . import census, table
from .errors import NotAssociativeError, ScaleGuardError, check_scale

if TYPE_CHECKING:
    from fractions import Fraction

USAGE_ERROR = 2
MATH_ERROR = 1

# Python's own int-digit limit.  It bounds the |exponent| a --values token
# may carry (Fraction("1e<x>") builds 10^x in full) and the digits of a
# formula value.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)$", re.IGNORECASE)


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_verify(args) -> int:
    t = table.load(args.path)
    report = t.validate()
    _print_json(report.to_json_dict())
    ok = report.is_magma and (report.is_monoid or not args.expect_monoid)
    return 0 if ok else MATH_ERROR


def _cmd_analyze(args) -> int:
    from . import analysis

    t = table.load(args.path)
    if not t.is_monoid:
        print("input table is not associative; analysis requires a monoid", file=sys.stderr)
        return MATH_ERROR
    _print_json(analysis.analysis_json(t))
    return 0


def _cmd_census(args) -> int:
    if args.dm_table:
        if args.emit is not None or args.magmas or args.arch is not None or args.count_only:
            raise ValueError("--dm-table takes none of --emit, --magmas, --arch, --count-only")
    elif args.csv is not None:
        raise ValueError("--csv requires --dm-table")
    if args.n < 1:
        raise ValueError("census requires n >= 1")
    # validated for every census, though none splits on it
    ncells = args.n * (args.n + 1) // 2
    if not 0 <= args.prefix_depth <= ncells:
        raise ValueError(f"prefix_depth must be in 0..{ncells}")
    if args.dm_table:
        rows = census.dm_table(args.n, job_count=args.jobs)
        text = census.dm_table_csv(rows)
        if args.csv is not None:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0
    config = census.SearchConfig(
        n=args.n,
        want_magmas=args.magmas,
        arch_filter=args.arch,
        emit=args.emit is not None,
        job_count=args.jobs,
    )
    if args.emit is not None:
        # the guard, then a path that cannot be a directory, fail before
        # the census runs
        config.check_scale()
        os.makedirs(args.emit, exist_ok=True)
    result, tables = census.stream_tables(config)
    stem = "magma" if args.magmas else "monoid"
    for idx, (t, _) in enumerate(tables):
        table.dump(t, os.path.join(args.emit, f"{stem}_{idx:06d}.json"))
    if args.count_only:
        if args.arch is not None:
            print(result.by_arch.get(args.arch, 0))
        elif args.magmas:
            print(result.magma_count)
        else:
            print(result.monoid_count)
    else:
        _print_json(result.to_json_dict())
    return 0


def _cmd_formula(args) -> int:
    from . import formulas

    kind = args.formula
    if kind not in ("dm2", "bell") and args.k is None:
        raise ValueError(f"formula {kind} requires --k")
    check_scale(f"formula {kind} n", args.n, formulas.FORMULA_GUARD)
    if kind == "dm2":
        value = formulas.dm_n_2(args.n)
    elif kind == "bell":
        value = formulas.bell(args.n)
    elif kind == "stirling2":
        value = formulas.stirling2(args.n, args.k)
    elif kind == "near-top":
        value = formulas.dm_near_top(args.n, args.k)
    elif kind == "lower-bound":
        value = formulas.lower_bound(args.n, args.k)
    else:  # a-chains
        # (k+1)^(n-1) could not be printed past Python's int-digit limit,
        # so refuse before building it
        digits = (args.n - 1) * math.log10(args.k + 1) if args.n > 1 and args.k > 0 else 0
        if digits >= _MAX_DIGITS:
            raise ScaleGuardError(
                f"formula a-chains: (k+1)^(n-1) has more than {_MAX_DIGITS} digits "
                "(the integer-printing guard)"
            )
        value = formulas.count_A_chains(args.n, args.k)
    print(value)
    return 0


def _parse_values(text: str) -> list[Fraction]:
    from fractions import Fraction

    tokens = [part.strip() for part in text.split(",") if part.strip()]
    for token in tokens:
        exponent = _EXPONENT.search(token)
        if exponent and abs(int(exponent[1])) > _MAX_DIGITS:
            raise ValueError(
                f"--values: {token!r} has an exponent beyond +-{_MAX_DIGITS}"
            )
    try:
        return [Fraction(token) for token in tokens]
    except ZeroDivisionError as exc:
        raise ValueError(f"--values: {exc}") from None


def _write_or_print(t: table.AdditionTable, out: str | None) -> None:
    if out is None:
        _print_json(t.to_json_dict())
    else:
        table.dump(t, out)


def _cmd_build(args) -> int:
    from . import builders

    family = args.family
    required = {
        "sup": ("values",),
        "complexity2": ("spec",),
        "lower-bound": ("n", "k"),
        "counterexample": ("m",),
    }
    for name in required[family]:
        if getattr(args, name) is None:
            raise ValueError(f"build {family} requires --{name}")
    if family == "sup":
        t, is_monoid = builders.sup_monoid(_parse_values(args.values))
        if not is_monoid:
            print("warning: sup-addition over these values is not associative", file=sys.stderr)
        _write_or_print(t, args.out)
        return 0
    if family == "complexity2":
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = builders.Complexity2Spec.from_json_dict(json.load(fh))
        _write_or_print(builders.build_complexity2(spec), args.out)
        return 0
    if family == "counterexample":
        _write_or_print(builders.counterexample_family(args.m), args.out)
        return 0
    # lower-bound
    indices = _parse_indices(args.indices) if args.indices else None
    members = builders.lower_bound_family(args.n, args.k, indices)
    if len(members) == 1:
        _write_or_print(members[0], args.out)
        return 0
    if args.out is None:
        raise ValueError("--out DIR is required when building the whole family")
    os.makedirs(args.out, exist_ok=True)
    for idx, t in enumerate(members):
        table.dump(t, os.path.join(args.out, f"member_{idx:04d}.json"))
    print(f"wrote {len(members)} monoids to {args.out}")
    return 0


def _parse_indices(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_audit(args) -> int:
    from . import audit

    report = audit.run_audit(n_max=args.n_max, deep=args.deep, jobs=args.jobs)
    _print_json(report.to_json_dict())
    if args.timings:
        print(json.dumps(report.timings_json_dict()), file=sys.stderr)
    for rec in report.records:
        if rec.name.startswith("deep-"):
            status = "PASS" if rec.passed else "FAIL"
            print(
                f"DEEP CHECK {status}: {rec.name} {rec.parameters} "
                f"expected={rec.expected} actual={rec.actual}",
                file=sys.stderr,
            )
    if not report.overall:
        for rec in report.failures:
            print(
                f"FAILED: {rec.name} {rec.parameters} "
                f"expected={rec.expected} actual={rec.actual}",
                file=sys.stderr,
            )
        return MATH_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmon",
        description="Census, analysis, counting formulas, and constructions "
        "for finite distance monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of a table file")
    p.add_argument("path")
    p.add_argument("--expect-monoid", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="Archimedean analysis of a monoid file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("census", help="enumerate all magmas/monoids of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--magmas", action="store_true", help="also count every magma")
    p.add_argument("--arch", type=int, default=None, help="restrict emission/count to one complexity")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="DIR", default=None, help="write every table as a JSON file")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the monoid census; it forks only from "
        f"n = {census.FORK_N}, capped at its task count and the CPU count",
    )
    p.add_argument(
        "--prefix-depth",
        type=int,
        default=0,
        help="accepted and validated (0..n(n+1)/2) for every census, "
        "--dm-table too; no census splits on it",
    )
    p.add_argument("--dm-table", action="store_true", help="emit CSV of counts by (n, complexity) for 1..n")
    p.add_argument("--csv", metavar="FILE", default=None, help="with --dm-table, write CSV here")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("formula", help="evaluate a counting formula exactly")
    p.add_argument(
        "formula",
        choices=["dm2", "bell", "stirling2", "near-top", "lower-bound", "a-chains"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("build", help="construct a monoid family member")
    p.add_argument(
        "family", choices=["sup", "complexity2", "lower-bound", "counterexample"]
    )
    p.add_argument("--values", help="sup: comma-separated increasing rationals")
    p.add_argument("--spec", help="complexity2: path to a spec JSON file")
    p.add_argument("--n", type=int, help="lower-bound: table size")
    p.add_argument("--k", type=int, help="lower-bound: complexity defect")
    p.add_argument("--indices", help="lower-bound: one member's index tuple")
    p.add_argument("--m", type=int, help="counterexample: construction steps")
    p.add_argument("--out", help="output file (or directory for a family)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("audit", help="cross-check census against every formula")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--deep", action="store_true", help="include the n=9 long check")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the monoid censuses; each forks only "
        f"from n = {census.FORK_N}, capped at its task count and the CPU count",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="print the census time and each check's elapsed seconds as JSON on stderr",
    )
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ValueError covers TableFormatError, ScaleGuardError, and JSON parse
        # errors; only non-associativity counts as a mathematical failure
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERROR if isinstance(exc, NotAssociativeError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
