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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .cache import LatticeCache, memo_lattice
from .catalog import CatalogEntry
from .cover import FamilySelector, covering_number
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

CSV_COLUMNS = (
    "id",
    "order",
    "p",
    "class",
    "coclass",
    "sigma",
    "sigma_A",
    "sigma_P",
    "sigma_PE",
    "time_ms",
    "error",
)

ALL_FAMILIES = tuple(FamilySelector)

# int = computed minimum, "INF" = no cover exists, None = not computed
SigmaCell = Union[int, str, None]


@dataclass(frozen=True)
class SweepRow:
    id: str
    source: str
    order: Optional[int]
    p: Optional[int]
    nilpotence_class: Optional[int]
    coclass: Optional[int]
    sigma: SigmaCell
    sigma_a: SigmaCell
    sigma_p: SigmaCell
    sigma_pe: SigmaCell
    time_ms: int
    error: str


def sweep_entry(
    entry: CatalogEntry,
    families: Sequence[FamilySelector] = ALL_FAMILIES,
    cache: Optional[LatticeCache] = None,
    stable_timing: bool = False,
) -> SweepRow:
    """Compute one row.  A group that fails to build or to compute (an
    OSError or ValueError, GroupError included) is recorded in the row's
    error cell; any other exception is a fault in the program and
    propagates."""
    t0 = time.perf_counter()
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
        lat = memo_lattice(g, cache=cache)
        for fam in families:
            try:
                res = covering_number(g, fam, lat=lat)
            except GroupError:
                # family undefined for this group (e.g. powerful off a
                # p-group): leave the cell blank, keep the other columns
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
        sigma=sigmas[FamilySelector.ALL],
        sigma_a=sigmas[FamilySelector.ABELIAN],
        sigma_p=sigmas[FamilySelector.POWERFUL],
        sigma_pe=sigmas[FamilySelector.POWERFULLY_EMBEDDED],
        time_ms=elapsed_ms,
        error=error,
    )


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """The CSV report; blank cells for None, fields quoted where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        [r.id, r.order, r.p, r.nilpotence_class, r.coclass, r.sigma,
         r.sigma_a, r.sigma_p, r.sigma_pe, r.time_ms, r.error]
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
    chain, bound = [], []
    for r in rows:
        sigma, sigma_p = _finite(r.sigma), _finite(r.sigma_p)
        chain += [f"{r.id}: {v}" for v in chain_violations(sigma, sigma_p, _finite(r.sigma_a))[1]]
        # a finite sigma means a noncyclic group
        if r.p == 2 and r.order >= 8 and sigma is not None and sigma_p is not None:
            if sigma_p > tower_bound(r.order):
                bound.append(f"{r.id}: sigma_P {sigma_p} > bound {tower_bound(r.order)}")
    sections = (
        ("chain sigma <= sigma_P <= sigma_A", chain),
        ("bound sigma_P <= 2^(n-1)+1 on noncyclic 2-groups", bound),
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

    The Markdown lands next to the CSV with the extension replaced by .md.
    Rows come back in input order.
    """
    rows = [
        sweep_entry(e, families, cache=cache, stable_timing=stable_timing)
        for e in entries
    ]

    if out_csv is not None:
        from .fileio import atomic_write_text

        atomic_write_text(out_csv, rows_to_csv(rows))
        stem = out_csv[: -len(".csv")] if out_csv.endswith(".csv") else out_csv
        atomic_write_text(stem + ".md", markdown_report(rows))
    return rows
