#!/usr/bin/env python3
"""Run every claim suite and print the full reports.

Exit status is nonzero if any theorem suite fails or any conjecture suite
finds a counterexample, mirroring `powcov verify` one suite at a time.
"""

import argparse
import sys
import time

from powcov.cache import LatticeCache, default_cache_dir
from powcov.verify import SUITE_NAMES, format_report, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6, help="tower bound for main-theorem")
    parser.add_argument("--max-order", type=int, default=None, help="order bound for catalog suites")
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    cache = LatticeCache(None if args.no_cache else default_cache_dir())
    worst = 0
    for name in SUITE_NAMES:
        t0 = time.perf_counter()
        report = run_suite(
            name,
            max_n=args.max_n if name == "main-theorem" else None,
            max_order=args.max_order,
            cache=cache,
        )
        elapsed = time.perf_counter() - t0
        print(format_report(report))
        print(f"  ({elapsed:.2f} s)\n")
        if not report.passed:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
