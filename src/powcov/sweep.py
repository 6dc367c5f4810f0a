"""Batch computation of covering numbers over a catalog, with CSV/Markdown
reports.

One row per catalog entry, in input order.  The CSV has a fixed column
order (id, order, p, class, coclass, sigma, sigma_A, sigma_P, sigma_PE,
time_ms, error); families that were not requested stay blank, infeasible
values print as INF, and per-entry errors (OSError and ValueError, the
policy of cli.main and CatalogEntry.build) land in the error column
without stopping the sweep.  Fields holding a comma (product ids, error
messages) are quoted, as standard CSV readers expect.  The Markdown report
carries a per-family summary plus a violations section for the chain
inequality and the order-2^(n+1) bound sigma_P <= 2^(n-1)+1, as
verify.chain_violations and verify.tower_bound state them.  Subgroup
monotonicity is left to the `monotonicity` verify suite, which checks every
noncyclic proper subgroup of each catalog group in its range.

time_ms is wall-clock and therefore varies run to run; stable_timing=True
writes 0 there instead, making the reports byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import io
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from .cache import LatticeCache
from .catalog import CatalogEntry
from .cover import FamilySelector, FamilyUndefinedError, sigma_of
from .groups import GroupError, _coclass, is_p_group, nilpotence_class
from .verify import chain_violations, tower_bound

__all__ = [
    "SweepRow",
    "CSV_COLUMNS",
    "ALL_FAMILIES",
    "sweep_entry",
    "run_sweep",
    "rows_to_csv",
    "markdown_report",
]

ALL_FAMILIES = tuple(FamilySelector)

CSV_COLUMNS = (
    ("id", "order", "p", "class", "coclass")
    + tuple(f.sigma_label for f in ALL_FAMILIES)
    + ("time_ms", "error")
)

# int = computed minimum, "INF" = no cover exists, None = not computed
SigmaCell = Union[int, str, None]


class SweepRow(NamedTuple):
    id: str
    source: str
    order: Optional[int]
    p: Optional[int]
    nilpotence_class: Optional[int]
    coclass: Optional[int]
    sigmas: Dict[FamilySelector, SigmaCell]  # one cell for each of ALL_FAMILIES
    time_ms: int
    error: str

    # perfbench/record_reference.py reads the cells by these names.
    sigma = property(lambda r: r.sigmas[FamilySelector.ALL])
    sigma_a = property(lambda r: r.sigmas[FamilySelector.ABELIAN])
    sigma_p = property(lambda r: r.sigmas[FamilySelector.POWERFUL])
    sigma_pe = property(lambda r: r.sigmas[FamilySelector.POWERFULLY_EMBEDDED])


def sweep_entry(
    entry: CatalogEntry,
    families: Sequence[FamilySelector] = ALL_FAMILIES,
    cache: Optional[LatticeCache] = None,
    stable_timing: bool = False,
) -> SweepRow:
    """Compute one row, each family once by one sigma_of query on cache (by
    default a fresh memory-only LatticeCache()).  A group that fails to build
    or to compute (an OSError or ValueError, GroupError included) is recorded
    in the row's error cell; a family undefined on the group leaves its cell
    blank; any other exception is a fault in the program and propagates."""
    t0 = time.perf_counter()
    cache = LatticeCache() if cache is None else cache
    sigmas: Dict[FamilySelector, SigmaCell] = {f: None for f in ALL_FAMILIES}
    order = p = cls = cocls = None
    error = ""
    try:
        g = entry.build()
        order = g.order
        p = is_p_group(g)
        try:
            cls = nilpotence_class(g)
        except GroupError:
            cls = None
        cocls = None if p is None else _coclass(order, cls)  # a p-group is nilpotent
        for fam in dict.fromkeys(families):
            try:
                res = sigma_of(g, fam, cache)
            except FamilyUndefinedError:
                # powerful off a p-group: leave the cell blank, keep the
                # other columns
                continue
            sigmas[fam] = res.size if res.optimal else "INF"
    except (OSError, ValueError) as e:  # keep sweeping; the row records what went wrong
        error = f"{type(e).__name__}: {e}"
    elapsed_ms = 0 if stable_timing else int(round((time.perf_counter() - t0) * 1000))
    return SweepRow(
        id=entry.id,
        source=entry.source,
        order=order,
        p=p,
        nilpotence_class=cls,
        coclass=cocls,
        sigmas=sigmas,
        time_ms=elapsed_ms,
        error=error,
    )


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """The CSV report; blank cells for None, fields quoted where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        [r.id, r.order, r.p, r.nilpotence_class, r.coclass,
         *(r.sigmas[f] for f in ALL_FAMILIES), r.time_ms, r.error]
        for r in rows
    )
    return buf.getvalue()


def _finite(cell: SigmaCell) -> Optional[int]:
    return cell if isinstance(cell, int) else None


def markdown_report(rows: Sequence[SweepRow]) -> str:
    families: Dict[str, List[SweepRow]] = {}
    for r in rows:
        families.setdefault(r.source.partition(":")[0], []).append(r)

    lines = ["# covering-number sweep", "", "## summary", ""]
    lines.append("| family | entries | orders | errors |")
    lines.append("|---|---|---|---|")
    for fam in sorted(families):
        rs = families[fam]
        orders = sorted({r.order for r in rs if r.order is not None})
        span = f"{orders[0]}..{orders[-1]}" if orders else "-"
        errs = sum(1 for r in rs if r.error)
        lines.append(f"| {fam} | {len(rs)} | {span} | {errs} |")

    lines += ["", "## violations", ""]
    all_, pow_, ab = FamilySelector.ALL, FamilySelector.POWERFUL, FamilySelector.ABELIAN
    chain, bound = [], []
    for r in rows:
        values = {f: _finite(r.sigmas[f]) for f in ALL_FAMILIES}
        chain += [f"{r.id}: {v}" for v in chain_violations(values)[1]]
        sigma, sigma_p = values[all_], values[pow_]
        # a finite sigma means a noncyclic group
        if r.p == 2 and r.order >= 8 and sigma is not None and sigma_p is not None:
            if sigma_p > (limit := tower_bound(r.order)):
                bound.append(f"{r.id}: {pow_.sigma_label} {sigma_p} > bound {limit}")
    sections = (
        (f"chain {all_.sigma_label} <= {pow_.sigma_label} <= {ab.sigma_label}", chain),
        (f"bound {pow_.sigma_label} <= 2^(n-1)+1 on noncyclic 2-groups", bound),
    )
    for title, found in sections:
        if found:
            lines.append(f"- {title}: {len(found)} violation(s)")
            lines += [f"  - {v}" for v in found]
        else:
            lines.append(f"- {title}: none")
    return "\n".join(lines) + "\n"


def run_sweep(
    entries: Sequence[CatalogEntry],
    families: Sequence[FamilySelector] = ALL_FAMILIES,
    out_csv: Optional[str] = None,
    cache: Optional[LatticeCache] = None,
    stable_timing: bool = False,
) -> List[SweepRow]:
    """Sweep all entries; write CSV and Markdown reports when out_csv is set.

    The Markdown lands next to the CSV with the extension replaced by .md;
    if either path is not replaceable (fileio.check_replaceable), the sweep
    stops before its first row.
    Rows come back in input order.  cache holds the run's lattices; by
    default the sweep gets a fresh memory-only LatticeCache() of its own.
    """
    if out_csv is not None:
        from .fileio import atomic_write_text, check_replaceable

        stem = out_csv[: -len(".csv")] if out_csv.endswith(".csv") else out_csv
        out_md = stem + ".md"
        for path in (out_csv, out_md):  # refuse either before the first row
            check_replaceable(path)
    cache = LatticeCache() if cache is None else cache
    rows = [
        sweep_entry(e, families, cache=cache, stable_timing=stable_timing)
        for e in entries
    ]
    if out_csv is not None:
        atomic_write_text(out_csv, rows_to_csv(rows))
        atomic_write_text(out_md, markdown_report(rows))
    return rows
