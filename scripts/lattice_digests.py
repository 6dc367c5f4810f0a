#!/usr/bin/env python3
"""Write the subgroup-record digest of every built-in lattice.

Example:
    python scripts/lattice_digests.py --out tests/data/lattice_digests.json

Each value is the `subgroups_sha256` a lattice cache entry carries: a
SHA-256 of the lattice's subgroup records (bits, order, flags, tag).  The
tier-1 suite recomputes every digest and compares it with the committed
file, so a change to enumeration or to any flag that alters one record of
one built-in lattice fails there.
"""

import argparse
import json
import sys

from powcov.cache import serialize_lattice
from powcov.catalog import builtin_catalog
from powcov.lattice import enumerate_subgroups


def lattice_digests() -> dict:
    """{catalog id: subgroup-record digest} over the whole built-in catalog."""
    return {
        e.id: json.loads(serialize_lattice(enumerate_subgroups(e.build())))["subgroups_sha256"]
        for e in builtin_catalog()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="JSON output path")
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        json.dump(lattice_digests(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
