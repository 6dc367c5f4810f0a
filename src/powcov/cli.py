"""Command-line front end.

Subcommands: sigma (covering number of one group), lattice (subgroup
statistics), construct (export a Cayley file), verify (run claim suites),
sweep (batch report over a catalog).

Exit codes: 0 = success / all checks passed; 1 = a domain finding (no cover
exists for a single query, a theorem check failed, or a conjecture
counterexample was found); 2 = usage or data error, including a range that
holds nothing to check, an option that no named suite reads, a catalog that
repeats an id, a catalog entry that verify cannot build (the other
entries' checks still print, and stderr names the entry once), and a sigma
answer, witness or INF, that fails its re-check (no sigma line is printed).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cache import LatticeCache, default_cache_dir, memo_lattice
from .catalog import builtin_catalog, load_catalog_file, select_entries
from .cover import FamilySelector, sigma_of, verify_infeasible, verify_witness
from .fileio import save_cayley_file
from .groups import FiniteGroup, build_group
from .lattice import FLAGS
from .verify import SUITE_NAMES, SUITES, format_report, run_suite

__all__ = ["main"]


def _print_members(g: FiniteGroup, bits: int) -> str:
    return "{" + ", ".join(g.name_of(i) for i in range(g.order) if bits >> i & 1) + "}"


def _run_cache(args) -> LatticeCache:
    """The command's one lattice cache: memory only under --no-cache."""
    return LatticeCache(None if args.no_cache else default_cache_dir())


def cmd_sigma(args) -> int:
    g = build_group(args.descriptor)
    family = FamilySelector.from_name(args.family)
    cache = _run_cache(args)
    res = sigma_of(g, family, cache)
    if res.infeasible:
        if res.route == "search" and not verify_infeasible(g, family, memo_lattice(g, cache)):
            fault = f"the {family.value} answer INF fails its re-check (try --no-cache)"
            raise ValueError(f"{args.descriptor}: {fault}")
        if res.route == "cyclic":
            print(f"{family.sigma_label} = INF (cyclic group has no proper-subgroup cover)")
        else:
            print(f"{family.sigma_label} = INF (no cover by this family exists)")
        return 1
    if not verify_witness(g, family, res.witness):
        fault = f"the {family.value} witness fails its re-check (try --no-cache)"
        raise ValueError(f"{args.descriptor}: {fault}")
    print(f"{family.sigma_label} = {res.size}")
    print("witness:")
    for w in res.witness:
        print(f"  order {w.bit_count():>3}: {_print_members(g, w)}")
    return 0


def cmd_lattice(args) -> int:
    g = build_group(args.descriptor)
    lat = memo_lattice(g, cache=_run_cache(args))
    print(f"{args.descriptor}: order {g.order}, {len(lat)} subgroups")
    print(f"  proper: {sum(s.is_proper for s in lat.subgroups)}")
    for flag in FLAGS:
        values = [getattr(s, "is_" + flag) for s in lat.subgroups]
        print(f"  {flag.replace('_', ' ')}: {'n/a' if None in values else sum(values)}")
        if flag == "normal":  # the report keeps the maximal count in its place
            print(f"  maximal: {len(lat.maximal())}")
    tags = lat.tags()
    print("  tags: " + ", ".join(f"{tag} x{tags.count(tag)}" for tag in sorted(set(tags))))
    return 0


def cmd_construct(args) -> int:
    g = build_group(args.descriptor)
    save_cayley_file(g, args.out)
    print(f"wrote {args.descriptor} (order {g.order}) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = SUITE_NAMES if "all" in args.suite else tuple(dict.fromkeys(args.suite))
    for option in ("max_n", "max_order", "catalog"):
        if getattr(args, option) is not None and not any(
            option in SUITES[name].defaults for name in names
        ):
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} is read by none of the suites {', '.join(names)}")
    if args.catalog is not None:
        entries = load_catalog_file(args.catalog)
    elif any("catalog" in SUITES[name].defaults for name in names):
        entries = builtin_catalog()
    else:
        entries = []
    cache = _run_cache(args)
    end = "\n\n" if len(names) > 1 else "\n"
    code = 0
    for name in names:
        report = run_suite(
            name,
            max_n=args.max_n,
            max_order=args.max_order,
            catalog=entries,
            cache=cache,
        )
        print(format_report(report), end=end)
        code = max(code, 2 if report.empty else 0 if report.passed else 1)
    for e in entries:
        if e.error is not None:
            print(f"error: skipped {e.id}: {e.error}", file=sys.stderr)
            code = 2
    return code


def cmd_sweep(args) -> int:
    # Imported here, not at the top: only this command needs the sweep and csv.
    from .sweep import ALL_FAMILIES, run_sweep

    catalog = load_catalog_file(args.catalog) if args.catalog is not None else None
    entries = select_entries(catalog, args.max_order)
    if not entries:
        raise ValueError("the catalog selects no entry to sweep")
    families = ALL_FAMILIES
    if args.families is not None:  # '' names no family, so it is refused
        families = tuple(FamilySelector.from_name(f.strip()) for f in args.families.split(","))
    rows = run_sweep(
        entries,
        families=families,
        out_csv=args.out,
        cache=_run_cache(args),
        stable_timing=args.stable_timing,
    )
    failed = [r for r in rows if r.error]
    print(f"swept {len(rows)} entries ({len(failed)} errors) -> {args.out}")
    for r in failed:
        print(f"  error {r.id}: {r.error}")
    return 0


def _at_least(low: int):
    """An argparse type: an integer no less than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powcov",
        description="Covering numbers of finite p-groups by families of proper subgroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="covering number of one group")
    p.add_argument("descriptor", help="group descriptor, e.g. dihedral:16")
    p.add_argument(
        "family",
        help="subgroup family: all | abelian | powerful | powerfully-embedded (pe)",
    )
    p.add_argument("--no-cache", action="store_true", help="skip the lattice disk cache")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("lattice", help="subgroup lattice statistics")
    p.add_argument("descriptor")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("construct", help="write a group as a Cayley file")
    p.add_argument("descriptor")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run claim suites")
    p.add_argument("suite", nargs="+", choices=SUITE_NAMES + ("all",), help="suites, or all")
    p.add_argument("--max-n", type=_at_least(2), default=None, help="largest tower index n")
    p.add_argument("--max-order", type=_at_least(1), default=None, help="largest group order")
    p.add_argument("--catalog", default=None, help="catalog file instead of built-in")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="batch covering numbers over a catalog")
    p.add_argument("--catalog", default=None, help="catalog file (default: built-in)")
    p.add_argument(
        "--families",
        default=None,
        help="comma-separated families (default: all four)",
    )
    p.add_argument("--out", required=True, help="CSV output path (.md lands beside it)")
    p.add_argument("--max-order", type=_at_least(1), default=None)
    p.add_argument(
        "--stable-timing",
        action="store_true",
        help="write 0 for time_ms so reports are byte-reproducible",
    )
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # every library error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
