#!/usr/bin/env python3
"""Sweep the built-in catalog and write CSV + Markdown reports.

Example:
    python scripts/sweep_builtin.py --max-order 64 --out reports/sweep.csv
"""

import argparse
import os
import sys
import time

from powcov.cache import LatticeCache, default_cache_dir
from powcov.catalog import builtin_catalog
from powcov.cover import FamilySelector
from powcov.sweep import ALL_FAMILIES, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=128)
    parser.add_argument("--out", default="sweep.csv")
    parser.add_argument("--families", default=None,
                        help="comma-separated: all,abelian,powerful,powerfully-embedded")
    parser.add_argument("--stable-timing", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    families = ALL_FAMILIES
    if args.families:
        families = tuple(FamilySelector.from_name(f) for f in args.families.split(","))

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    entries = builtin_catalog(max_order=args.max_order)
    t0 = time.perf_counter()
    rows = run_sweep(
        entries,
        families=families,
        out_csv=args.out,
        cache=LatticeCache(None if args.no_cache else default_cache_dir()),
        stable_timing=args.stable_timing,
    )
    elapsed = time.perf_counter() - t0
    errors = [r for r in rows if r.error]
    print(f"{len(rows)} entries in {elapsed:.1f} s -> {args.out} (+.md); {len(errors)} errors")
    for r in errors:
        print(f"  {r.id}: {r.error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
