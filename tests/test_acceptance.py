"""Acceptance suite: the eleven headline checks, one test (and one printed
pass/fail line) per criterion.  Run `pytest -s tests/test_acceptance.py` to
see the lines; each test also stands alone.  One more test takes criterion
08's oracles past order 32, to the catalog's groups of order 64.
"""

import time

from powcov.catalog import builtin_catalog, select_entries
from powcov.cover import (
    FamilySelector,
    build_instance,
    covering_number,
    sigma_of,
    solve_exact,
    verify_witness,
)
from powcov.cache import LatticeCache, memo_lattice
from powcov.groups import GroupError, build_group, is_p_group, quotient_group
from powcov.lattice import classify_small, enumerate_subgroups, is_powerful
from powcov.verify import run_suite

from oracles import (
    bits_of,
    dihedral_explicit_cover,
    dihedral_order,
    dihedral_product,
    element_orders,
    exhaustive_min_cover,
    members_of,
    subset_closure_subgroups,
)

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
        noncyclic = max(g.element_orders) < g.order
        if is_p_group(g) == 2 and noncyclic:
            two_groups_checked += 1
            res = sigma_of(g, ALL, LatticeCache())
            if res.size != 3:
                bad.append((entry.id, res.size))
    for spec, want in (("elementary:3^2", 4), ("elementary:5^2", 6)):
        g = build_group(spec)
        res = sigma_of(g, ALL, LatticeCache())
        if res.size != want:
            bad.append((spec, res.size))
    ok = not bad and two_groups_checked == 32
    report(3, "minimal-cover-is-three-or-p-plus-1", ok,
           f"violations {bad}, noncyclic 2-groups checked {two_groups_checked}")


def test_criterion_04_sigma_chain_ordering():
    violations = []
    for entry in builtin_catalog():
        g = entry.build()
        lat = memo_lattice(g, LatticeCache())
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
    # Searched on the lattice: sigma_of would answer from the theorem that
    # a non-powerful p-group has no such cover, checking it against itself.
    g = build_group("dihedral:32")
    res = covering_number(g, PE, memo_lattice(g, LatticeCache()))
    report(5, "powerfully-embedded-infeasible-at-32", res.infeasible,
           f"status {res.status}")


def test_criterion_06_quaternion_semidihedral_range():
    rep = run_suite("conjecture1")
    bad = []
    for kind in ("quaternion", "semidihedral"):
        for order, want in ((16, 5), (32, 9), (64, 17)):
            g = build_group(f"{kind}:{order}")
            res = sigma_of(g, POW, LatticeCache())
            if res.size != want:
                bad.append((f"{kind}:{order}", res.size, want))
    ok = rep.status == "CONFIRMED-ON-RANGE" and not bad
    report(6, "quaternion-semidihedral-range", ok,
           f"suite {rep.status}, mismatches {bad}")


def test_criterion_07_dihedral_lattice_census():
    bad = []
    for n in range(2, 7):
        lat = tower(n)["lattice"]
        maximal = len(lat.maximal())
        klein = sum(1 for s in lat.subgroups if classify_small(lat.group, s.bits) == "klein")
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
        ours = {members_of(s.bits) for s in lat.subgroups}
        oracle_subs = subset_closure_subgroups(g.table)
        if ours != oracle_subs:
            bad.append((entry.id, "subgroup enumeration"))
            continue
        for fam in (ALL, AB, POW, PE):
            try:
                inst = build_instance(g, lat, fam)
            except GroupError:
                continue
            res = solve_exact(inst)
            cand = list(map(members_of, inst.candidates))
            best = exhaustive_min_cover(frozenset(range(g.order)), cand)
            if best is None:
                if not res.infeasible:
                    bad.append((entry.id, fam.value, "expected infeasible"))
            elif not res.optimal or res.size != best[0]:
                bad.append((entry.id, fam.value, res.size, best[0]))
    return bad


def test_criterion_08_oracle_equivalence_to_32():
    t0 = time.perf_counter()
    entries = select_entries(None, 32)
    bad = oracle_mismatches(entries)
    total = time.perf_counter() - t0
    ok = not bad and len(entries) == 44 and total < 60.0
    report(8, "oracle-equivalence-to-32", ok,
           f"mismatches {bad}, entries {len(entries)}, runtime {total:.1f}s")


def test_oracle_equivalence_at_order_64():
    # Past criterion 08's range: the oracles reach order 64 now that the
    # subset-closure search walks each closure once per start index.
    entries = [e for e in select_entries(None, 64) if e.build().order == 64]
    assert len(entries) == 7
    assert oracle_mismatches(entries) == []


def test_criterion_09_product_and_quotient_bounds():
    bad = []
    gp = build_group("product:(dihedral:8,cyclic:2)")
    base = build_group("dihedral:8")
    sp_product = sigma_of(gp, POW, LatticeCache()).size
    sp_base = sigma_of(base, POW, LatticeCache()).size
    if not (sp_product == sp_base == 3):
        bad.append(("product", sp_product, sp_base))
    for order in (4, 8, 16, 32, 64, 128):
        g = build_group(f"dihedral:{order}")
        lat = memo_lattice(g, LatticeCache())
        sp_g = covering_number(g, POW, lat=lat).size
        for s in lat.subgroups:
            if not (s.is_normal and s.is_proper):
                continue
            q = quotient_group(g, s.bits)
            if max(q.element_orders) == q.order:
                continue  # cyclic quotient
            if is_powerful(q, q.full_set()):
                continue
            sp_q = sigma_of(q, POW, LatticeCache()).size
            if sp_q is None or sp_q > sp_g:
                bad.append((f"dihedral:{order}", s.order, sp_q, sp_g))
    report(9, "product-and-quotient-bounds", not bad, str(bad))


def test_criterion_10_closed_form_regressions():
    """The normal form r^j s^k against the tables, the paper's explicit cover
    and its counting bound on the library's own lattice.  A cover must hold
    r, and only the rotation subgroup does; every other admitted member
    holds at most 2 of the 2^n reflections.  So at least 1 + 2^n / 2 members
    are needed, the explicit cover has that many, and the tower's optimum
    does not rest on the solver."""
    bad = []
    for n in range(2, 9):
        m = 1 << n
        t = tower(n)
        g, table = t["group"], t["group"].table
        nf = [(j, k) for k in (0, 1) for j in range(m)]  # element i is nf[i]
        orders = element_orders(table)
        cover = dihedral_explicit_cover(n)
        if n <= 4:
            bad += [
                ("product", n, x, y)
                for a, x in enumerate(nf)
                for b, y in enumerate(nf)
                if nf[table[a][b]] != dihedral_product(n, x, y)
            ]
        bad += [("order-formula", n, x) for x, o in zip(nf, orders) if dihedral_order(n, x) != o]
        if n <= 5:
            brute = {
                s
                for s in subset_closure_subgroups(table)
                if len(s) == 4 and all(orders[i] <= 2 for i in s)
            }
            if brute != set(cover[1:]):
                bad.append(("klein-census", n, len(brute), len(cover) - 1))
        witness = list(map(bits_of, cover))
        for family in (POW, AB):
            if not verify_witness(g, family, witness):
                bad.append(("explicit-cover", n, family.value))
        if len(witness) != 2 ** (n - 1) + 1:
            bad.append(("explicit-cover-size", n, len(witness)))
        # the counting bound, read off enumerate_subgroups(g)
        proper = [s for s in t["lattice"].subgroups if s.is_proper]
        holders = [members_of(s.bits) for s in proper if s.bits >> 1 & 1]
        if orders[1] != m or holders != cover[:1]:
            bad.append(("only-rotations-hold-r", n, orders[1], len(holders)))
        for family in (POW, AB):
            most = max(
                (s.bits >> m).bit_count()  # the reflections, elements m..2m-1
                for s in proper
                if family.admits(s) and not s.bits >> 1 & 1
            )
            bound = 1 + -(-m // most)
            if most > 2 or bound != t["powerful"].size:
                bad.append(("counting-bound", n, family.value, most, bound, t["powerful"].size))
    report(10, "closed-form-regressions", not bad, str(bad))


def test_criterion_11_strict_growth_up_the_tower():
    bad = []
    for n in range(2, 6):
        small = tower(n)["powerful"].size
        large = tower(n + 1)["powerful"].size
        if not large > small:
            bad.append((n, small, large))
    report(11, "strict-growth-up-the-tower", not bad, str(bad))
