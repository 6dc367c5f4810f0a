#!/usr/bin/env python3
"""Write the subgroup-record digest of every built-in lattice and a few more.

Example:
    python scripts/lattice_digests.py --out tests/data/lattice_digests.json

Each value is a SHA-256 of the lattice's subgroup records, in the sorted,
compact JSON text whose digest a cache entry carries.  The record shape is
the digest's own, built here and not by Subgroup.record: bits, order,
proper, the four enumerated flags, maximal (from Lattice.maximal) and the
classify_small tag.  A cache entry keeps less, so its `subgroups_sha256` is
not the value here.  The tier-1 suite recomputes every digest and compares
it with the committed file, so a change to enumeration, to any flag, to
the maximal subgroups or to a tag that alters one record of one built-in
lattice fails there.  The built-in groups are p-groups apart from the
trivial one, so EXTENSION adds groups that are not, to pin the
cyclic-extension path as well.
"""

import argparse
import json
import sys

from powcov.cache import _records_digest
from powcov.catalog import builtin_catalog
from powcov.groups import build_group
from powcov.lattice import enumerate_subgroups

# Groups that are not p-groups, keyed by their descriptor.
EXTENSION = (
    "cyclic:12",
    "cyclic:60",
    "product:(dihedral:8,cyclic:3)",
    "product:(quaternion:8,cyclic:3)",
    "product:(dihedral:16,cyclic:3)",
)


def _digest(g) -> str:
    lat = enumerate_subgroups(g)
    maximal = set(lat.maximal())
    records = [
        {
            "bits": format(s.bits, "x"),
            "order": s.order,
            "proper": s.is_proper,
            "abelian": s.is_abelian,
            "normal": s.is_normal,
            "maximal": s.bits in maximal,
            "powerful": s.is_powerful,
            "powerfully_embedded": s.is_powerfully_embedded,
            "tag": tag,
        }
        for s, tag in zip(lat.subgroups, lat.tags())
    ]
    return _records_digest(records)


def lattice_digests() -> dict:
    """{id: subgroup-record digest} over the whole built-in catalog, then
    over EXTENSION."""
    digests = {e.id: _digest(e.build()) for e in builtin_catalog()}
    digests.update((d, _digest(build_group(d))) for d in EXTENSION)
    return digests


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
