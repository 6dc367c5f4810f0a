"""Acceptance suite: the eleven headline checks, one test (and one printed
pass/fail line) per criterion.  Run `pytest -s tests/test_acceptance.py` to
see the lines; each test also stands alone.  One more test takes criterion
08's oracles past order 32, to the catalog's groups of order 64.
"""

import time

from powcov.bitset import ElementSet
from powcov.catalog import builtin_catalog
from powcov.cover import (
    FamilySelector,
    build_instance,
    covering_number,
    solve_exact,
    verify_witness,
)
from powcov.cache import memo_lattice
from powcov.dihedral_nf import (
    explicit_powerful_cover,
    klein_subgroups_nf,
    nf_embed,
    nf_order,
)
from powcov.groups import GroupError, build_group, is_p_group, quotient_group
from powcov.lattice import enumerate_subgroups, is_powerful
from powcov.verify import run_suite

from oracles import element_orders, exhaustive_min_cover, subset_closure_subgroups

ALL = FamilySelector.ALL
AB = FamilySelector.ABELIAN
POW = FamilySelector.POWERFUL
PE = FamilySelector.POWERFULLY_EMBEDDED

# computed once, shared across criteria; each entry records its own cold
# wall-clock cost so the timing criteria stay honest under any test order
_TOWER: dict = {}


def tower(n: int) -> dict:
    if n not in _TOWER:
        g = build_group(f"dihedral:{1 << (n + 1)}")
        t0 = time.perf_counter()
        lat = enumerate_subgroups(g)
        res = solve_exact(build_instance(g, lat, POW))
        elapsed = time.perf_counter() - t0
        _TOWER[n] = {"group": g, "lattice": lat, "powerful": res, "elapsed": elapsed}
    return _TOWER[n]


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail or 'check failed'}"


def test_criterion_01_dihedral_powerful_tower():
    expected = {2: 3, 3: 5, 4: 9, 5: 17, 6: 33, 7: 65, 8: 129}
    got = {n: tower(n)["powerful"].size for n in range(2, 9)}
    total = sum(tower(n)["elapsed"] for n in range(2, 9))
    ok = got == expected and total < 10.0
    report(1, "dihedral-powerful-tower", ok, f"sizes {got}, runtime {total:.2f}s")


def test_criterion_02_abelian_matches_powerful_on_tower():
    mismatches = []
    for n in range(2, 9):
        t = tower(n)
        res = solve_exact(build_instance(t["group"], t["lattice"], AB))
        if res.size != t["powerful"].size:
            mismatches.append((n, res.size, t["powerful"].size))
    report(2, "abelian-equals-powerful-on-tower", not mismatches, str(mismatches))


def test_criterion_03_unrestricted_cover_sizes():
    bad = []
    two_groups_checked = 0
    for entry in builtin_catalog():
        g = entry.build()
        noncyclic = int(g.element_orders.max()) < g.order
        if is_p_group(g) == 2 and noncyclic:
            two_groups_checked += 1
            res = covering_number(g, ALL, lat=memo_lattice(g))
            if res.size != 3:
                bad.append((entry.id, res.size))
    for spec, want in (("elementary:3^2", 4), ("elementary:5^2", 6)):
        g = build_group(spec)
        res = covering_number(g, ALL, lat=memo_lattice(g))
        if res.size != want:
            bad.append((spec, res.size))
    ok = not bad and two_groups_checked == 32
    report(3, "minimal-cover-is-three-or-p-plus-1", ok,
           f"violations {bad}, noncyclic 2-groups checked {two_groups_checked}")


def test_criterion_04_sigma_chain_ordering():
    violations = []
    for entry in builtin_catalog():
        g = entry.build()
        lat = memo_lattice(g)
        sizes = {}
        for fam in (ALL, POW, AB):
            try:
                res = covering_number(g, fam, lat=lat)
            except GroupError:
                continue
            if res.optimal:
                sizes[fam] = res.size
        if len(sizes) == 3 and not (sizes[ALL] <= sizes[POW] <= sizes[AB]):
            violations.append((entry.id, sizes))
    report(4, "sigma-chain-ordering", not violations, str(violations))


def test_criterion_05_powerfully_embedded_infeasible_at_32():
    g = build_group("dihedral:32")
    res = covering_number(g, PE, lat=memo_lattice(g))
    report(5, "powerfully-embedded-infeasible-at-32", res.infeasible,
           f"status {res.status}")


def test_criterion_06_quaternion_semidihedral_range():
    rep = run_suite("conjecture1")
    bad = []
    for kind in ("quaternion", "semidihedral"):
        for order, want in ((16, 5), (32, 9), (64, 17)):
            g = build_group(f"{kind}:{order}")
            res = covering_number(g, POW, lat=memo_lattice(g))
            if res.size != want:
                bad.append((f"{kind}:{order}", res.size, want))
    ok = rep.status == "CONFIRMED-ON-RANGE" and not bad
    report(6, "quaternion-semidihedral-range", ok,
           f"suite {rep.status}, mismatches {bad}")


def test_criterion_07_dihedral_lattice_census():
    bad = []
    for n in range(2, 7):
        lat = tower(n)["lattice"]
        maximal = sum(1 for s in lat.subgroups if s.is_maximal)
        klein = sum(1 for s in lat.subgroups if s.tag == "klein")
        if maximal != 3 or klein != 2 ** (n - 1):
            bad.append((n, maximal, klein))
    report(7, "dihedral-lattice-census", not bad, str(bad))


def oracle_mismatches(entries) -> list:
    """Each entry's subgroups against the subset-closure oracle, and each
    family's exact cover size (or infeasibility) against exhaustive search."""
    bad = []
    for entry in entries:
        g = entry.build()
        lat = enumerate_subgroups(g)
        ours = {frozenset(s.elements.indices()) for s in lat.subgroups}
        oracle_subs = subset_closure_subgroups(g.table.tolist())
        if ours != oracle_subs:
            bad.append((entry.id, "subgroup enumeration"))
            continue
        for fam in (ALL, AB, POW, PE):
            try:
                inst = build_instance(g, lat, fam)
            except GroupError:
                continue
            res = solve_exact(inst)
            cand = [frozenset(c.indices()) for c in inst.candidates]
            best = exhaustive_min_cover(frozenset(range(g.order)), cand)
            if best is None:
                if not res.infeasible:
                    bad.append((entry.id, fam.value, "expected infeasible"))
            elif not res.optimal or res.size != best[0]:
                bad.append((entry.id, fam.value, res.size, best[0]))
    return bad


def test_criterion_08_oracle_equivalence_to_32():
    t0 = time.perf_counter()
    entries = builtin_catalog(max_order=32)
    bad = oracle_mismatches(entries)
    total = time.perf_counter() - t0
    ok = not bad and len(entries) == 44 and total < 60.0
    report(8, "oracle-equivalence-to-32", ok,
           f"mismatches {bad}, entries {len(entries)}, runtime {total:.1f}s")


def test_oracle_equivalence_at_order_64():
    # Past criterion 08's range: the oracles reach order 64 now that the
    # subset-closure search walks each closure once per start index.
    entries = [e for e in builtin_catalog(max_order=64) if e.build().order == 64]
    assert len(entries) == 7
    assert oracle_mismatches(entries) == []


def test_criterion_09_product_and_quotient_bounds():
    bad = []
    gp = build_group("product:(dihedral:8,cyclic:2)")
    base = build_group("dihedral:8")
    sp_product = covering_number(gp, POW, lat=memo_lattice(gp)).size
    sp_base = covering_number(base, POW, lat=memo_lattice(base)).size
    if not (sp_product == sp_base == 3):
        bad.append(("product", sp_product, sp_base))
    for order in (4, 8, 16, 32, 64, 128):
        g = build_group(f"dihedral:{order}")
        lat = memo_lattice(g)
        sp_g = covering_number(g, POW, lat=lat).size
        for s in lat.subgroups:
            if not (s.is_normal and s.is_proper):
                continue
            q = quotient_group(g, s.elements)
            if int(q.element_orders.max()) == q.order:
                continue  # cyclic quotient
            if is_powerful(q, q.full_set()):
                continue
            sp_q = covering_number(q, POW, lat=memo_lattice(q)).size
            if sp_q is None or sp_q > sp_g:
                bad.append((f"dihedral:{order}", s.order, sp_q, sp_g))
    report(9, "product-and-quotient-bounds", not bad, str(bad))


def test_criterion_10_closed_form_regressions():
    bad = []
    # element-order formula against every Cayley table entry, n <= 5
    for n in range(2, 6):
        emb = nf_embed(n)
        g = build_group(f"dihedral:{1 << (n + 1)}")
        table_orders = element_orders(g.table.tolist())
        for x, i in emb.items():
            if nf_order(x) != table_orders[i]:
                bad.append(("order-formula", n, (x.j, x.k)))
    # Klein four-subgroup census against brute-force subgroup search, n <= 5
    for n in range(2, 6):
        emb = nf_embed(n)
        g = build_group(f"dihedral:{1 << (n + 1)}")
        table = g.table.tolist()
        orders = element_orders(table)
        brute = {
            s
            for s in subset_closure_subgroups(table)
            if len(s) == 4 and all(orders[i] <= 2 for i in s)
        }
        formula = {
            frozenset(emb[x] for x in k.members) for k in klein_subgroups_nf(n)
        }
        if brute != formula:
            bad.append(("klein-census", n, len(brute), len(formula)))
    # the explicit cover construction is a valid powerful cover, n = 2..6
    for n in range(2, 7):
        emb = nf_embed(n)
        g = build_group(f"dihedral:{1 << (n + 1)}")
        witness = [
            ElementSet.from_indices((emb[x] for x in c.members), g.order)
            for c in explicit_powerful_cover(n)
        ]
        if not verify_witness(g, POW, witness):
            bad.append(("explicit-cover", n))
        if len(witness) != 2 ** (n - 1) + 1:
            bad.append(("explicit-cover-size", n, len(witness)))
    report(10, "closed-form-regressions", not bad, str(bad))


def test_criterion_11_strict_growth_up_the_tower():
    bad = []
    for n in range(2, 6):
        small = tower(n)["powerful"].size
        large = tower(n + 1)["powerful"].size
        if not large > small:
            bad.append((n, small, large))
    report(11, "strict-growth-up-the-tower", not bad, str(bad))
