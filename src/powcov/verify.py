"""Claim suites: turn the library's headline facts into runnable checks.

Each suite replays one statement about covering numbers on a concrete range
of groups and reports per-instance results.  Theorem suites end in PASS or
FAIL.  Conjecture-style suites (including the open monotonicity question)
end in CONFIRMED-ON-RANGE or COUNTEREXAMPLE: they are confirmed on the
groups actually checked, never asserted in general, and a counterexample is
a finding to report, not a malfunction.  A suite whose range held nothing to
compare ends in EMPTY, whatever its kind.

SUITES is the one place that says which range options (max_n, max_order,
catalog) each suite reads and what they default to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .catalog import CatalogEntry, select_entries
from .cache import LatticeCache, memo_lattice
from .cover import CoverResult, FamilySelector, covering_number
from .groups import (
    FiniteGroup, GroupError, build_group, coclass, quotient_group, subgroup_as_group,
)
from .lattice import is_powerful

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "SUITE_NAMES",
    "run_suite",
    "format_report",
]


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: Optional[bool]  # None: nothing to compare, such as every value INF
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    kind: str  # "theorem" or "conjecture"
    scope: str  # human-readable statement of the range actually checked
    checks: Tuple[CheckResult, ...]

    @property
    def empty(self) -> bool:
        """No check compared anything: the range held nothing to test."""
        return all(c.ok is None for c in self.checks)

    @property
    def passed(self) -> bool:
        return not self.empty and not any(c.ok is False for c in self.checks)

    @property
    def status(self) -> str:
        if self.empty:
            return "EMPTY"
        if self.kind == "theorem":
            return "PASS" if self.passed else "FAIL"
        return "CONFIRMED-ON-RANGE" if self.passed else "COUNTEREXAMPLE"


def _fmt(res: CoverResult) -> str:
    return str(res.size) if res.optimal else "INF"


def _is_cyclic(g: FiniteGroup) -> bool:
    return int(g.element_orders.max()) == g.order


def _group_is_powerful(g: FiniteGroup) -> bool:
    if g.order == 1:
        return True
    return is_powerful(g, g.full_set())


def _entries(catalog: Optional[Sequence[CatalogEntry]], max_order: Optional[int]):
    """Each selected entry with its group, built only once it is selected."""
    for e in select_entries(catalog, max_order):
        yield e, e.build()


def _tower_index(order: int) -> int:
    """n such that order = 2^(n+1)."""
    return order.bit_length() - 2


def suite_main_theorem(cache: LatticeCache, max_n: int) -> SuiteReport:
    """sigma_P of the dihedral group of order 2^(n+1) equals 2^(n-1)+1."""
    checks = []
    for n in range(2, max_n + 1):
        order = 1 << (n + 1)
        g = build_group(f"dihedral:{order}")
        res = covering_number(g, FamilySelector.POWERFUL, lat=memo_lattice(g, cache))
        expected = (1 << (n - 1)) + 1
        ok = res.optimal and res.size == expected
        checks.append(
            CheckResult(
                label=f"dihedral:{order}",
                ok=ok,
                detail=f"tower index n={n}: sigma_P = {_fmt(res)}, expected {expected}",
            )
        )
    return SuiteReport(
        name="main-theorem",
        kind="theorem",
        scope=f"dihedral groups of order 8..{1 << (max_n + 1)}",
        checks=tuple(checks),
    )


def suite_sigma_equals_p_plus_1(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> SuiteReport:
    """sigma = p + 1 for every noncyclic p-group; no cover at all for cyclic
    groups."""
    checks = []
    count = 0
    for e, g in _entries(catalog, max_order):
        count += 1
        res = covering_number(g, FamilySelector.ALL, lat=memo_lattice(g, cache))
        if _is_cyclic(g):
            ok = res.infeasible
            detail = f"cyclic: sigma = {_fmt(res)}, expected INF"
        else:
            p = int(g.element_orders[g.element_orders > 1].min()) if g.order > 1 else 0
            ok = res.optimal and res.size == p + 1
            detail = f"noncyclic p={p}: sigma = {_fmt(res)}, expected {p + 1}"
        checks.append(CheckResult(label=e.id, ok=ok, detail=detail))
    return SuiteReport(
        name="sigma-equals-p-plus-1",
        kind="theorem",
        scope=f"{count} catalog groups",
        checks=tuple(checks),
    )


def suite_chain(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> SuiteReport:
    """sigma <= sigma_P <= sigma_A wherever the values are finite."""
    checks = []
    count = 0
    for e, g in _entries(catalog, max_order):
        count += 1
        lat = memo_lattice(g, cache)
        s = covering_number(g, FamilySelector.ALL, lat=lat)
        sp = covering_number(g, FamilySelector.POWERFUL, lat=lat)
        sa = covering_number(g, FamilySelector.ABELIAN, lat=lat)
        finite = [(a, b) for a, b in ((s, sp), (sp, sa), (s, sa)) if a.optimal and b.optimal]
        ok = all(a.size <= b.size for a, b in finite) if finite else None
        checks.append(
            CheckResult(
                label=e.id,
                ok=ok,
                detail=f"sigma = {_fmt(s)}, sigma_P = {_fmt(sp)}, sigma_A = {_fmt(sa)}",
            )
        )
    return SuiteReport(
        name="chain",
        kind="theorem",
        scope=f"{count} catalog groups",
        checks=tuple(checks),
    )


def suite_quotient(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> SuiteReport:
    """sigma_P of a noncyclic non-powerful quotient never exceeds sigma_P of
    the dihedral group it comes from."""
    checks = []
    scanned = 0
    for e, g in _entries(catalog, max_order):
        if not e.source.startswith("dihedral:"):
            continue
        scanned += 1
        lat = memo_lattice(g, cache)
        bound = covering_number(g, FamilySelector.POWERFUL, lat=lat)
        for sub in lat.subgroups:
            if not sub.is_normal or sub.order == g.order:
                continue
            q = quotient_group(g, sub.elements)
            if _is_cyclic(q) or _group_is_powerful(q):
                continue
            res = covering_number(q, FamilySelector.POWERFUL, lat=memo_lattice(q, cache))
            ok = (
                bound.optimal
                and res.optimal
                and res.size <= bound.size
            )
            checks.append(
                CheckResult(
                    label=f"{e.id} / N(order {sub.order})",
                    ok=ok,
                    detail=(
                        f"quotient order {q.order}: sigma_P = {_fmt(res)} "
                        f"<= {_fmt(bound)}"
                    ),
                )
            )
    return SuiteReport(
        name="quotient",
        kind="theorem",
        scope=f"noncyclic non-powerful quotients of {scanned} dihedral groups",
        checks=tuple(checks),
    )


_PRODUCT_CASES = (
    ("dihedral:8", "cyclic:2"),
    ("dihedral:8", "cyclic:4"),
    ("dihedral:16", "cyclic:2"),
    ("dihedral:32", "cyclic:2"),
    ("quaternion:8", "cyclic:2"),
)


def suite_product_powerful(cache: LatticeCache, max_order: Optional[int]) -> SuiteReport:
    """sigma_P(G x K) = sigma_P(G) for noncyclic G and powerful K."""
    checks = []
    for left, right in _PRODUCT_CASES:
        g = build_group(left)
        prod = build_group(f"product:({left},{right})")
        if max_order is not None and prod.order > max_order:
            continue
        base = covering_number(g, FamilySelector.POWERFUL, lat=memo_lattice(g, cache))
        both = covering_number(prod, FamilySelector.POWERFUL, lat=memo_lattice(prod, cache))
        ok = base.optimal and both.optimal and base.size == both.size
        checks.append(
            CheckResult(
                label=f"{left} x {right}",
                ok=ok,
                detail=f"sigma_P(product) = {_fmt(both)}, sigma_P({left}) = {_fmt(base)}",
            )
        )
    return SuiteReport(
        name="product-powerful",
        kind="theorem",
        scope=f"{len(checks)} product instances with powerful second factor",
        checks=tuple(checks),
    )


def suite_conjecture1(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> SuiteReport:
    """Coclass-1 2-groups of order 2^(n+1) >= 8: sigma_P = 2^(n-1)+1."""
    checks = []
    for e, g in _entries(catalog, max_order):
        if g.order < 8 or _is_cyclic(g):
            continue
        try:
            p_ok = coclass(g) == 1 and g.order & (g.order - 1) == 0
        except GroupError:
            continue
        if not p_ok:
            continue
        n = _tower_index(g.order)
        expected = (1 << (n - 1)) + 1
        res = covering_number(g, FamilySelector.POWERFUL, lat=memo_lattice(g, cache))
        checks.append(
            CheckResult(
                label=e.id,
                ok=res.optimal and res.size == expected,
                detail=f"coclass 1, tower index n={n}: sigma_P = {_fmt(res)}, expected {expected}",
            )
        )
    return SuiteReport(
        name="conjecture1",
        kind="conjecture",
        scope=f"coclass-1 catalog 2-groups of order 8..{max_order}",
        checks=tuple(checks),
    )


def suite_conjecture2(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> SuiteReport:
    """Noncyclic 2-groups of order 2^(n+1) >= 8: sigma_P <= 2^(n-1)+1.

    Confirmed only on the groups in the catalog at hand — this says nothing
    about 2-groups in general.
    """
    checks = []
    for e, g in _entries(catalog, max_order):
        if g.order < 8 or g.order & (g.order - 1) or _is_cyclic(g):
            continue
        n = _tower_index(g.order)
        bound = (1 << (n - 1)) + 1
        res = covering_number(g, FamilySelector.POWERFUL, lat=memo_lattice(g, cache))
        checks.append(
            CheckResult(
                label=e.id,
                ok=res.optimal and res.size <= bound,
                detail=f"tower index n={n}: sigma_P = {_fmt(res)} <= {bound}",
            )
        )
    return SuiteReport(
        name="conjecture2",
        kind="conjecture",
        scope=f"noncyclic catalog 2-groups of order 8..{max_order} (catalog only, not a proof)",
        checks=tuple(checks),
    )


def suite_pe_d32(cache: LatticeCache) -> SuiteReport:
    """No cover of dihedral:32 by powerfully embedded subgroups exists."""
    g = build_group("dihedral:32")
    lat = memo_lattice(g, cache)
    res = covering_number(g, FamilySelector.POWERFULLY_EMBEDDED, lat=lat)
    pe = [s for s in lat.subgroups if s.is_proper and s.is_powerfully_embedded]
    union = sum(s.order - 1 for s in pe) + 1  # crude upper bound on coverage
    check = CheckResult(
        label="dihedral:32",
        ok=res.infeasible,
        detail=(
            f"sigma_PE = {_fmt(res)} (expected INF); "
            f"{len(pe)} proper powerfully embedded subgroups cover at most "
            f"{union} of 32 elements"
        ),
    )
    return SuiteReport(
        name="pe-d32",
        kind="theorem",
        scope="dihedral:32",
        checks=(check,),
    )


def suite_monotonicity(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> SuiteReport:
    """Open question: can sigma_P(H) exceed sigma_P(G) for H <= G?

    Searches every noncyclic proper subgroup of every catalog group in range
    and reports any violation found; finding one is an answer, not an error.
    """
    checks = []
    scanned = 0
    for e, g in _entries(catalog, max_order):
        if _is_cyclic(g):
            continue
        lat = memo_lattice(g, cache)
        outer = covering_number(g, FamilySelector.POWERFUL, lat=lat)
        if not outer.optimal:
            continue
        for sub in lat.subgroups:
            if not sub.is_proper or sub.order < 4:
                continue
            h = subgroup_as_group(g, sub.elements)
            if _is_cyclic(h):
                continue
            scanned += 1
            inner = covering_number(h, FamilySelector.POWERFUL, lat=memo_lattice(h, cache))
            if not (inner.optimal and inner.size <= outer.size):
                checks.append(
                    CheckResult(
                        label=f"{e.id} >= subgroup of order {sub.order}",
                        ok=False,
                        detail=(
                            f"sigma_P(subgroup) = {_fmt(inner)} > "
                            f"sigma_P(group) = {_fmt(outer)}"
                        ),
                    )
                )
    if not checks:
        checks.append(
            CheckResult(
                label="search",
                ok=True if scanned else None,
                detail=f"no violation among {scanned} noncyclic subgroup pairs",
            )
        )
    return SuiteReport(
        name="monotonicity",
        kind="conjecture",
        scope=f"subgroup pairs in catalog groups of order <= {max_order}",
        checks=tuple(checks),
    )


class Suite(NamedTuple):
    run: Callable[..., SuiteReport]
    defaults: Dict[str, Any]  # each range option the suite reads, with its default


_CATALOG = {"catalog": None, "max_order": None}

SUITES: Dict[str, Suite] = {
    "main-theorem": Suite(suite_main_theorem, {"max_n": 6}),
    "sigma-equals-p-plus-1": Suite(suite_sigma_equals_p_plus_1, _CATALOG),
    "chain": Suite(suite_chain, _CATALOG),
    "quotient": Suite(suite_quotient, _CATALOG),
    "product-powerful": Suite(suite_product_powerful, {"max_order": None}),
    "conjecture1": Suite(suite_conjecture1, {"catalog": None, "max_order": 64}),
    "conjecture2": Suite(suite_conjecture2, {"catalog": None, "max_order": 128}),
    "pe-d32": Suite(suite_pe_d32, {}),
    "monotonicity": Suite(suite_monotonicity, {"catalog": None, "max_order": 16}),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    max_n: Optional[int] = None,
    max_order: Optional[int] = None,
    catalog: Optional[Sequence[CatalogEntry]] = None,
    cache: Optional[LatticeCache] = None,
) -> SuiteReport:
    """Run one suite by its public name with optional range bounds.

    Each range option the suite reads falls back to its SUITES default when
    None; options it does not read are ignored.  cache holds the run's
    lattices; pass one instance to share them across suites.  Without one,
    the suite gets a memory-only cache of its own.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    given = {"max_n": max_n, "max_order": max_order, "catalog": catalog}
    options = {k: d if given[k] is None else given[k] for k, d in suite.defaults.items()}
    return suite.run(LatticeCache() if cache is None else cache, **options)


def format_report(report: SuiteReport) -> str:
    lines = [f"suite {report.name}: {report.status}  [{report.scope}]"]
    for c in report.checks:
        mark = "FAIL" if c.ok is False else "ok "
        lines.append(f"  {mark} {c.label}: {c.detail}")
    return "\n".join(lines)
