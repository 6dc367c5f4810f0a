"""Record the benchmark's reference table from the current source tree.

Writes perfbench/reference.json: for every group of the built-in catalog, in
built-in order, its order, prime, subgroup count and the four sigma cells as
the sweep CSV prints them.  The committed table was recorded at the commit
that introduced the benchmark; re-record it only when a change is meant to
alter an answer, and say so in the change.

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import os

from powcov.cache import memo_lattice
from powcov.catalog import builtin_catalog
from powcov.sweep import sweep_entry

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def cell(value) -> str:
    return "" if value is None else str(value)


def main() -> None:
    groups = []
    for entry in builtin_catalog():
        row = sweep_entry(entry)
        if row.error:
            raise SystemExit(f"{entry.id}: {row.error}")
        groups.append(
            {
                "id": entry.id,
                "order": row.order,
                "p": row.p,
                "subgroups": len(memo_lattice(entry.build())),
                "sigma": cell(row.sigma),
                "sigma_A": cell(row.sigma_a),
                "sigma_P": cell(row.sigma_p),
                "sigma_PE": cell(row.sigma_pe),
            }
        )
    with open(OUT, "w") as fh:
        fh.write('{"groups": [\n')
        fh.write(",\n".join(json.dumps(g) for g in groups))
        fh.write("\n]}\n")
    print(f"wrote {len(groups)} groups to {OUT}")


if __name__ == "__main__":
    main()
