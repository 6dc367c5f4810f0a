import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from powcov.cache import LatticeCache, memo_lattice
from powcov.catalog import select_entries
from powcov.cover import (
    FamilySelector,
    FamilyUndefinedError,
    build_instance,
    CoverInstance,
    covering_number,
    sigma_of,
    solve_exact,
    solve_greedy,
    verify_infeasible,
    verify_witness,
)
from powcov.groups import GroupError, build_group, is_p_group
from powcov.lattice import classify_small, enumerate_subgroups

from oracles import bits_of, exhaustive_min_cover, members_of

ALL = FamilySelector.ALL
AB = FamilySelector.ABELIAN
POW = FamilySelector.POWERFUL
PE = FamilySelector.POWERFULLY_EMBEDDED
S3_PERM = Path(__file__).resolve().parent / "data" / "s3.perm"


# ---------------------------------------------------------- family selector

def test_selector_names_and_aliases():
    assert FamilySelector.from_name("all") is ALL
    assert FamilySelector.from_name("abelian") is AB
    assert FamilySelector.from_name("powerful") is POW
    assert FamilySelector.from_name("powerfully-embedded") is PE
    assert FamilySelector.from_name("pe") is PE
    assert FamilySelector.from_name("POWERFUL") is POW
    with pytest.raises(GroupError, match="family"):
        FamilySelector.from_name("normal")


def test_sigma_labels():
    assert ALL.sigma_label == "sigma"
    assert AB.sigma_label == "sigma_A"
    assert POW.sigma_label == "sigma_P"
    assert PE.sigma_label == "sigma_PE"


# -------------------------------------------------------------- known values

@pytest.mark.parametrize(
    "spec,family,size",
    [
        ("dihedral:8", ALL, 3),
        ("dihedral:8", AB, 3),
        ("dihedral:8", POW, 3),
        ("dihedral:16", ALL, 3),
        ("dihedral:16", AB, 5),
        ("dihedral:16", POW, 5),
        ("dihedral:32", POW, 9),
        ("quaternion:8", ALL, 3),
        ("quaternion:8", POW, 3),
        ("quaternion:16", POW, 5),
        ("semidihedral:16", POW, 5),
        ("modular:16", ALL, 3),
        ("modular:16", AB, 3),
        ("modular:16", POW, 3),
        ("elementary:2^3", POW, 3),
        ("elementary:3^2", ALL, 4),
        ("elementary:3^2", POW, 4),
    ],
)
def test_covering_numbers(spec, family, size):
    res = sigma_of(build_group(spec), family, LatticeCache())
    assert res.optimal and res.size == size


@pytest.mark.parametrize("family", [ALL, AB, POW, PE])
def test_cyclic_groups_are_infeasible(family):
    res = sigma_of(build_group("cyclic:8"), family, LatticeCache())
    assert res.infeasible
    assert res.size is None
    assert res.witness == ()


def test_pe_infeasible_on_d32():
    g = build_group("dihedral:32")
    res = sigma_of(g, PE, LatticeCache())
    assert res.infeasible
    # reason: only the trivial subgroup and the center are PE
    inst = build_instance(g, enumerate_subgroups(g), PE)
    assert sum(c.bit_count() for c in inst.candidates) < g.order


def test_d8_powerful_witness_members():
    g = build_group("dihedral:8")
    res = sigma_of(g, POW, LatticeCache())
    sets = {members_of(w) for w in res.witness}
    assert sets == {
        frozenset({0, 1, 2, 3}),   # the rotation subgroup
        frozenset({0, 2, 4, 6}),   # klein: half-turn with reflections s, r^2 s
        frozenset({0, 2, 5, 7}),   # klein: half-turn with reflections r s, r^3 s
    }
    assert verify_witness(g, POW, res.witness)


def test_d16_powerful_witness_is_rotations_plus_kleins():
    g = build_group("dihedral:16")
    res = sigma_of(g, POW, LatticeCache())
    assert res.size == 5
    assert [w.bit_count() for w in res.witness] == [8, 4, 4, 4, 4]
    rotations = frozenset(range(8))
    assert members_of(res.witness[0]) == rotations
    # the four kleins partition the reflections into pairs
    reflections = [members_of(w) - {0, 4} for w in res.witness[1:]]
    assert all(len(r) == 2 for r in reflections)
    assert frozenset().union(*reflections) == frozenset(range(8, 16))


# --------------------------------------------------------------- mechanics

def test_build_instance_is_dominance_reduced_and_sorted():
    g = build_group("dihedral:16")
    inst = build_instance(g, enumerate_subgroups(g), ALL)
    sizes = [c.bit_count() for c in inst.candidates]
    assert sizes == sorted(sizes, reverse=True)
    for i, a in enumerate(inst.candidates):
        for b in inst.candidates[i + 1:]:
            assert b & ~a and a & ~b
    # maximal subgroups survive reduction
    assert sizes[:3] == [8, 8, 8]


def test_greedy_none_when_candidates_cannot_cover():
    inst = CoverInstance(universe=bits_of(range(4)), candidates=(bits_of([0, 1]),))
    assert solve_greedy(inst) is None
    res = solve_exact(inst)
    assert res.infeasible and res.witness == ()


def test_a_tie_keeps_the_first_cover_reached():
    # Both 2-covers are reached; the witness is the first in canonical
    # order, so a search that records every leaf it reaches fails here.
    inst = CoverInstance(
        universe=bits_of(range(4)),
        candidates=tuple(map(bits_of, ({0, 1}, {0, 2, 3}, {1, 2, 3}))),
    )
    res = solve_exact(inst)
    assert [sorted(members_of(w)) for w in res.witness] == [[0, 2, 3], [1, 2, 3]]


def test_a_cover_deeper_than_the_recursion_limit():
    # 1,100 members, past the interpreter's default recursion limit of 1,000.
    n = 1100
    inst = CoverInstance(
        universe=(1 << n) - 1,
        candidates=tuple(1 << e for e in range(n)),
    )
    res = solve_exact(inst)
    assert res.optimal and res.size == n
    assert res.nodes_explored == n + 1


def test_exact_never_beaten_by_greedy():
    for spec in ("dihedral:16", "dihedral:32", "semidihedral:32", "quaternion:32"):
        g = build_group(spec)
        lat = enumerate_subgroups(g)
        for family in (ALL, AB, POW):
            inst = build_instance(g, lat, family)
            greedy = solve_greedy(inst)
            exact = solve_exact(inst)
            assert (greedy is None) == exact.infeasible
            if greedy is not None:
                assert exact.size <= greedy[0]
                assert verify_witness(g, family, greedy[1])


def test_exact_is_deterministic():
    g = build_group("dihedral:32")
    lat = enumerate_subgroups(g)
    a = solve_exact(build_instance(g, lat, POW))
    b = solve_exact(build_instance(g, lat, POW))
    assert a.size == b.size
    assert a.witness == b.witness
    assert a.nodes_explored == b.nodes_explored


def test_result_bookkeeping():
    res = sigma_of(build_group("dihedral:16"), POW, LatticeCache())
    assert res.nodes_explored > 0
    assert res.route == "search"
    assert len(res.witness) == res.size


def test_family_predicate_needs_p_group():
    g = build_group("cyclic:12")
    with pytest.raises(GroupError, match="p-group"):
        sigma_of(g, POW, LatticeCache())
    # the unrestricted family is still fine on non-p-groups
    assert sigma_of(g, ALL, LatticeCache()).infeasible


# ---------------------------------------------------- witness verification

def test_verify_witness_rejects_bad_members():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    good = covering_number(g, POW, lat).witness
    assert verify_witness(g, POW, good)
    # not a subgroup
    broken = (bits_of([0, 1]),) + good[1:]
    assert not verify_witness(g, POW, broken)
    # the whole group is not a proper member
    assert not verify_witness(g, POW, (g.full_set(),) + good)
    # union shortfall
    assert not verify_witness(g, POW, good[:-1])
    # wrong family: a dihedral-order-8 subgroup is neither abelian nor powerful
    d8 = next(s for s in lat.subgroups if classify_small(g, s.bits) == "dihedral(8)")
    assert not verify_witness(g, AB, good[1:] + (d8.bits,))
    assert not verify_witness(g, POW, good[1:] + (d8.bits,))
    # masks with bits past a smaller group's order are rejected, not mis-read
    assert not verify_witness(build_group("dihedral:8"), POW, good)


@pytest.mark.parametrize("spec,non_pe", [("modular:32", 5), ("elementary:2^3", 0)])
def test_verify_witness_rechecks_powerfully_embedded(spec, non_pe):
    # The PE re-check recomputes the predicate over all of G; every subgroup of
    # elementary:2^3 is PE, while modular:32 has proper subgroups that are not.
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    res = covering_number(g, PE, lat)
    assert res.size == 3
    assert verify_witness(g, PE, res.witness)
    outside = [s for s in lat.subgroups if s.is_proper and not s.is_powerfully_embedded]
    assert len(outside) == non_pe
    for s in outside:
        assert not verify_witness(g, PE, res.witness + (s.bits,)), classify_small(g, s.bits)


# ----------------------------------------------------------- oracle parity

@pytest.mark.parametrize(
    "spec", ["dihedral:8", "dihedral:16", "quaternion:8", "cyclic:9", "elementary:2^3", "modular:16"]
)
@pytest.mark.parametrize("family", [ALL, AB, POW, PE])
def test_exact_matches_exhaustive_oracle(spec, family):
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    inst = build_instance(g, lat, family)
    cand_sets = list(map(members_of, inst.candidates))
    oracle = exhaustive_min_cover(frozenset(range(g.order)), cand_sets)
    res = solve_exact(inst)
    if oracle is None:
        assert res.infeasible
    else:
        assert res.optimal and res.size == oracle[0]


# --------------------------------------------------------- pinned search

def _searches(groups, families):
    """[descriptor, family, status, size, nodes, witness bits in hex] of
    every exact search, in the order given."""
    rows = []
    for name, g in groups:
        lat = enumerate_subgroups(g)
        for family in families:
            res = solve_exact(build_instance(g, lat, family))
            witness = [format(w, "x") for w in res.witness]
            rows.append([name, family.value, res.status, res.size, res.nodes_explored, witness])
    return rows


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_exact_search_is_pinned_on_the_catalog():
    # Every built-in group of order <= 64 with all four families: the 240
    # queries of a sweep, whose 1,000 nodes are its traced cover.nodes.  The
    # digest covers each node count and witness, so any change to the branch
    # element or the child order fails here.
    groups = [(e.id, e.build()) for e in select_entries(None, 64)]
    rows = _searches(groups, list(FamilySelector))
    assert len(rows) == 240
    assert sum(row[4] for row in rows) == 1000
    assert _digest(rows) == "f77a3309700c1c585dffb67c1a6e3655f54f7ff203016a97af94526fb27e7b22"


def test_exact_search_is_pinned_on_the_tower():
    # sigma_P of dihedral:8..512; orders up to 128 are the tower workload.
    names = [f"dihedral:{2**k}" for k in range(3, 10)]
    rows = _searches([(name, build_group(name)) for name in names], [POW])
    assert [row[3] for row in rows] == [2 ** (k - 2) + 1 for k in range(3, 10)]
    assert [row[4] for row in rows] == [4, 6, 10, 18, 34, 66, 130]
    assert sum(row[4] for row in rows[:5]) == 72
    assert _digest(rows) == "1c7065ebe2de0dab54f4bfe9b5aea087e87e974d18b870d7915d5c08a884a694"


def test_the_inf_check_passes_exactly_the_infeasible_answers():
    # On every built-in group of order <= 32 and three groups that are not
    # p-groups, with every family defined on each: an answer passes
    # verify_infeasible iff the search found no cover.
    cache = LatticeCache()
    infeasible = 0
    groups = [entry.build() for entry in select_entries(None, 32)]
    groups += [build_group(f"perm:{S3_PERM}"), build_group("cyclic:6"),
               build_group("product:(dihedral:8,cyclic:3)")]
    assert sum(g.order > 1 and is_p_group(g) is None for g in groups) == 3
    for g in groups:
        for family in FamilySelector:
            try:
                res = sigma_of(g, family, cache)
            except FamilyUndefinedError:  # a powerful family off a p-group
                continue
            assert verify_infeasible(g, family, memo_lattice(g, cache)) == res.infeasible
            infeasible += res.infeasible
    assert infeasible > 0


# ------------------------------------------------------------ random covers

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_matches_oracle_on_random_instances(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    k = data.draw(st.integers(min_value=0, max_value=6))
    cands = [
        frozenset(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)))
        for _ in range(k)
    ]
    cands = [c for c in cands if c]
    inst = CoverInstance(
        universe=(1 << n) - 1,
        candidates=tuple(map(bits_of, cands)),
    )
    res = solve_exact(inst)
    oracle = exhaustive_min_cover(frozenset(range(n)), cands)
    if oracle is None:
        assert res.infeasible
    else:
        assert res.optimal
        assert res.size == oracle[0]
        union = 0
        for w in res.witness:
            union |= w
        assert union == (1 << n) - 1
