"""Claim suites: turn the library's headline facts into runnable checks.

Each suite replays one statement about covering numbers on a concrete range
of groups and reports per-instance results.  Theorem suites end in PASS or
FAIL.  Conjecture-style suites (including the open monotonicity question)
end in CONFIRMED-ON-RANGE or COUNTEREXAMPLE: they are confirmed on the
groups actually checked, never asserted in general, and a counterexample is
a finding to report, not a malfunction.  A suite whose range held nothing to
compare ends in EMPTY, whatever its kind.  A claim about p-groups skips the
catalog groups outside its hypothesis, and a catalog entry that fails to
build is left out of every check.  The entry keeps its error
(CatalogEntry.error), so `powcov verify` names it once after all its suites.

SUITES is the one place that says each suite's kind, which range options
(max_n, max_order, catalog) it reads and what they default to.  The sweep
report checks the same tower and chain claims through tower_bound and
chain_violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import CatalogEntry, select_entries
from .cache import LatticeCache, memo_lattice
from .cover import CoverResult, FamilySelector, covering_number
from .descriptors import parse_descriptor
from .groups import (
    FiniteGroup, build_group, coclass, is_p_group, quotient_group, subgroup_as_group,
)
from .lattice import is_powerful

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "SUITE_NAMES",
    "run_suite",
    "format_report",
    "sigma_of",
    "tower_bound",
    "chain_violations",
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


def sigma_of(g: FiniteGroup, family: FamilySelector, cache: Optional[LatticeCache]) -> CoverResult:
    """The covering number of g by the family, on the lattice of g that cache holds."""
    return covering_number(g, family, lat=memo_lattice(g, cache))


def tower_bound(order: int) -> int:
    """2^(n-1)+1 for order 2^(n+1) >= 8: sigma_P of the dihedral group of that
    order, and the conjectured bound for every noncyclic 2-group of it."""
    return order // 4 + 1


_CHAIN = (("sigma", "sigma_P"), ("sigma_P", "sigma_A"), ("sigma", "sigma_A"))


def chain_violations(
    sigma: Optional[int], sigma_p: Optional[int], sigma_a: Optional[int]
) -> Tuple[int, List[str]]:
    """sigma <= sigma_P <= sigma_A, compared on each pair of known values
    (None: INF or undefined).  Returns how many pairs were compared and each
    failing pair, as "sigma_P 5 > sigma_A 3"."""
    values = {"sigma": sigma, "sigma_P": sigma_p, "sigma_A": sigma_a}
    pairs = [(a, b) for a, b in _CHAIN if values[a] is not None and values[b] is not None]
    failed = [f"{a} {values[a]} > {b} {values[b]}" for a, b in pairs if values[a] > values[b]]
    return len(pairs), failed


def _fmt(res: CoverResult) -> str:
    return str(res.size) if res.optimal else "INF"


def _entries(catalog: Optional[Sequence[CatalogEntry]], max_order: Optional[int]):
    """Each selected entry with its group, built only once it is selected.

    An entry that fails to build is left out, holding its error, so one bad
    entry neither stops the suite nor decides a check.
    """
    for e in select_entries(catalog, max_order):
        try:
            g = e.build()
        except (OSError, ValueError):
            continue
        yield e, g


def _tower_groups(catalog: Optional[Sequence[CatalogEntry]], max_order: Optional[int]):
    """Each selected noncyclic 2-group of order 2^(n+1) >= 8, with its group."""
    for e, g in _entries(catalog, max_order):
        if g.order >= 8 and is_p_group(g) == 2 and not g.is_cyclic():
            yield e, g


def _tower_check(
    label: str, g: FiniteGroup, cache: LatticeCache, exact: bool, prefix: str = ""
) -> CheckResult:
    """sigma_P of g against tower_bound: equal to it when exact, else at most it."""
    bound = tower_bound(g.order)
    res = sigma_of(g, FamilySelector.POWERFUL, cache)
    ok = res.optimal and (res.size == bound if exact else res.size <= bound)
    claim = f", expected {bound}" if exact else f" <= {bound}"
    n = g.order.bit_length() - 2
    return CheckResult(label, ok, f"{prefix}tower index n={n}: sigma_P = {_fmt(res)}{claim}")


Checks = Tuple[str, List[CheckResult]]  # a suite's scope and its checks


def suite_main_theorem(cache: LatticeCache, max_n: int) -> Checks:
    """sigma_P of the dihedral group of order 2^(n+1) equals 2^(n-1)+1."""
    labels = [f"dihedral:{1 << (n + 1)}" for n in range(2, max_n + 1)]
    checks = [_tower_check(label, build_group(label), cache, exact=True) for label in labels]
    return f"dihedral groups of order 8..{1 << (max_n + 1)}", checks


def suite_sigma_equals_p_plus_1(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> Checks:
    """sigma = p + 1 for every noncyclic p-group; no cover at all for cyclic
    groups.  Noncyclic groups that are not p-groups are outside the theorem."""
    checks = []
    for e, g in _entries(catalog, max_order):
        cyclic, p = g.is_cyclic(), is_p_group(g)
        if not cyclic and p is None:
            continue
        sigma = _fmt(sigma_of(g, FamilySelector.ALL, cache))
        claim, expected = ("cyclic", "INF") if cyclic else (f"noncyclic p={p}", str(p + 1))
        detail = f"{claim}: sigma = {sigma}, expected {expected}"
        checks.append(CheckResult(e.id, sigma == expected, detail))
    return f"{len(checks)} catalog groups", checks


def suite_chain(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> Checks:
    """sigma <= sigma_P <= sigma_A wherever the values are finite."""
    checks = []
    for e, g in _entries(catalog, max_order):
        if g.order > 1 and is_p_group(g) is None:
            continue  # sigma_P is undefined off p-groups
        s, sp, sa = (
            sigma_of(g, f, cache)
            for f in (FamilySelector.ALL, FamilySelector.POWERFUL, FamilySelector.ABELIAN)
        )
        compared, failed = chain_violations(*(r.size if r.optimal else None for r in (s, sp, sa)))
        checks.append(
            CheckResult(
                label=e.id,
                ok=not failed if compared else None,
                detail=f"sigma = {_fmt(s)}, sigma_P = {_fmt(sp)}, sigma_A = {_fmt(sa)}",
            )
        )
    return f"{len(checks)} catalog groups", checks


def suite_quotient(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: Optional[int],
) -> Checks:
    """sigma_P of a noncyclic non-powerful quotient never exceeds sigma_P of
    the dihedral group it comes from."""
    checks = []
    scanned = 0
    for e, g in _entries(catalog, max_order):
        if not e.source.startswith("dihedral:"):
            continue
        scanned += 1
        bound = sigma_of(g, FamilySelector.POWERFUL, cache)
        for sub in memo_lattice(g, cache).subgroups:
            if not sub.is_normal or sub.order == g.order:
                continue
            q = quotient_group(g, sub.elements)
            if q.is_cyclic() or is_powerful(q, q.full_set()):
                continue
            res = sigma_of(q, FamilySelector.POWERFUL, cache)
            checks.append(
                CheckResult(
                    label=f"{e.id} / N(order {sub.order})",
                    ok=bound.optimal and res.optimal and res.size <= bound.size,
                    detail=(
                        f"quotient order {q.order}: sigma_P = {_fmt(res)} "
                        f"<= {_fmt(bound)}"
                    ),
                )
            )
    return f"noncyclic non-powerful quotients of {scanned} dihedral groups", checks


_PRODUCT_CASES = (
    ("dihedral:8", "cyclic:2"),
    ("dihedral:8", "cyclic:4"),
    ("dihedral:16", "cyclic:2"),
    ("dihedral:32", "cyclic:2"),
    ("quaternion:8", "cyclic:2"),
)


def suite_product_powerful(cache: LatticeCache, max_order: Optional[int]) -> Checks:
    """sigma_P(G x K) = sigma_P(G) for noncyclic G and powerful K."""
    checks = []
    for left, right in _PRODUCT_CASES:
        product = f"product:({left},{right})"
        if max_order is not None and parse_descriptor(product).order > max_order:
            continue
        base = sigma_of(build_group(left), FamilySelector.POWERFUL, cache)
        both = sigma_of(build_group(product), FamilySelector.POWERFUL, cache)
        checks.append(
            CheckResult(
                label=f"{left} x {right}",
                ok=base.optimal and both.optimal and base.size == both.size,
                detail=f"sigma_P(product) = {_fmt(both)}, sigma_P({left}) = {_fmt(base)}",
            )
        )
    return f"{len(checks)} product instances with powerful second factor", checks


def suite_conjecture1(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> Checks:
    """Coclass-1 2-groups of order 2^(n+1) >= 8: sigma_P = 2^(n-1)+1."""
    checks = [
        _tower_check(e.id, g, cache, exact=True, prefix="coclass 1, ")
        for e, g in _tower_groups(catalog, max_order)
        if coclass(g) == 1
    ]
    return f"coclass-1 catalog 2-groups of order 8..{max_order}", checks


def suite_conjecture2(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> Checks:
    """Noncyclic 2-groups of order 2^(n+1) >= 8: sigma_P <= 2^(n-1)+1.

    Confirmed only on the groups in the catalog at hand — this says nothing
    about 2-groups in general.
    """
    groups = _tower_groups(catalog, max_order)
    checks = [_tower_check(e.id, g, cache, exact=False) for e, g in groups]
    scope = f"noncyclic catalog 2-groups of order 8..{max_order} (catalog only, not a proof)"
    return scope, checks


def suite_pe_d32(cache: LatticeCache) -> Checks:
    """No cover of dihedral:32 by powerfully embedded subgroups exists."""
    g = build_group("dihedral:32")
    res = sigma_of(g, FamilySelector.POWERFULLY_EMBEDDED, cache)
    pe = [s for s in memo_lattice(g, cache).subgroups if s.is_proper and s.is_powerfully_embedded]
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
    return "dihedral:32", [check]


def suite_monotonicity(
    cache: LatticeCache,
    catalog: Optional[Sequence[CatalogEntry]],
    max_order: int,
) -> Checks:
    """Open question: can sigma_P(H) exceed sigma_P(G) for H <= G?

    Searches every noncyclic proper subgroup of every catalog p-group in
    range and reports any violation found; finding one is an answer, not an
    error.
    """
    checks = []
    scanned = 0
    for e, g in _entries(catalog, max_order):
        if g.is_cyclic() or is_p_group(g) is None:
            continue  # no cover of a cyclic group; sigma_P is undefined off p-groups
        outer = sigma_of(g, FamilySelector.POWERFUL, cache)
        if not outer.optimal:
            continue
        for sub in memo_lattice(g, cache).subgroups:
            if not sub.is_proper or sub.order < 4:
                continue
            h = subgroup_as_group(g, sub.elements)
            if h.is_cyclic():
                continue
            scanned += 1
            inner = sigma_of(h, FamilySelector.POWERFUL, cache)
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
    return f"subgroup pairs in catalog groups of order <= {max_order}", checks


class Suite(NamedTuple):
    run: Callable[..., Checks]
    kind: str  # "theorem" or "conjecture"
    defaults: Dict[str, Any]  # each range option the suite reads, with its default


_CATALOG = {"catalog": None, "max_order": None}

SUITES: Dict[str, Suite] = {
    "main-theorem": Suite(suite_main_theorem, "theorem", {"max_n": 6}),
    "sigma-equals-p-plus-1": Suite(suite_sigma_equals_p_plus_1, "theorem", _CATALOG),
    "chain": Suite(suite_chain, "theorem", _CATALOG),
    "quotient": Suite(suite_quotient, "theorem", _CATALOG),
    "product-powerful": Suite(suite_product_powerful, "theorem", {"max_order": None}),
    "conjecture1": Suite(suite_conjecture1, "conjecture", {"catalog": None, "max_order": 64}),
    "conjecture2": Suite(suite_conjecture2, "conjecture", {"catalog": None, "max_order": 128}),
    "pe-d32": Suite(suite_pe_d32, "theorem", {}),
    "monotonicity": Suite(suite_monotonicity, "conjecture", {"catalog": None, "max_order": 16}),
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
    None; options it does not read are ignored.  A suite that reads a
    catalog leaves out each entry that fails to build, and the entry keeps
    its error; pass one entry list to several suites to build each once.
    cache holds the run's lattices; pass one instance to share them across
    suites.  Without one, the suite gets a memory-only cache of its own.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    given = {"max_n": max_n, "max_order": max_order, "catalog": catalog}
    options = {k: d if given[k] is None else given[k] for k, d in suite.defaults.items()}
    scope, checks = suite.run(LatticeCache() if cache is None else cache, **options)
    return SuiteReport(name, suite.kind, scope, tuple(checks))


def format_report(report: SuiteReport) -> str:
    lines = [f"suite {report.name}: {report.status}  [{report.scope}]"]
    for c in report.checks:
        mark = "FAIL" if c.ok is False else "ok "
        lines.append(f"  {mark} {c.label}: {c.detail}")
    return "\n".join(lines)
