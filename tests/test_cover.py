import pytest
from hypothesis import given, settings, strategies as st

from powcov.bitset import ElementSet
from powcov.cover import (
    FamilySelector,
    build_instance,
    CoverInstance,
    covering_number,
    solve_exact,
    solve_greedy,
    verify_witness,
)
from powcov.groups import GroupError, build_group
from powcov.lattice import enumerate_subgroups

from oracles import exhaustive_min_cover

ALL = FamilySelector.ALL
AB = FamilySelector.ABELIAN
POW = FamilySelector.POWERFUL
PE = FamilySelector.POWERFULLY_EMBEDDED


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
    res = covering_number(build_group(spec), family)
    assert res.optimal and res.size == size


@pytest.mark.parametrize("family", [ALL, AB, POW, PE])
def test_cyclic_groups_are_infeasible(family):
    res = covering_number(build_group("cyclic:8"), family)
    assert res.infeasible
    assert res.size is None
    assert res.witness == ()


def test_pe_infeasible_on_d32():
    g = build_group("dihedral:32")
    res = covering_number(g, PE)
    assert res.infeasible
    # reason: only the trivial subgroup and the center are PE
    inst = build_instance(g, enumerate_subgroups(g), PE)
    assert sum(len(c) for c in inst.candidates) < g.order


def test_d8_powerful_witness_members():
    g = build_group("dihedral:8")
    res = covering_number(g, POW)
    sets = {frozenset(w.indices()) for w in res.witness}
    assert sets == {
        frozenset({0, 1, 2, 3}),   # the rotation subgroup
        frozenset({0, 2, 4, 6}),   # klein: half-turn with reflections s, r^2 s
        frozenset({0, 2, 5, 7}),   # klein: half-turn with reflections r s, r^3 s
    }
    assert verify_witness(g, POW, res.witness)


def test_d16_powerful_witness_is_rotations_plus_kleins():
    g = build_group("dihedral:16")
    res = covering_number(g, POW)
    assert res.size == 5
    assert [len(w) for w in res.witness] == [8, 4, 4, 4, 4]
    rotations = frozenset(range(8))
    assert frozenset(res.witness[0].indices()) == rotations
    # the four kleins partition the reflections into pairs
    reflections = [frozenset(w.indices()) - {0, 4} for w in res.witness[1:]]
    assert all(len(r) == 2 for r in reflections)
    assert frozenset().union(*reflections) == frozenset(range(8, 16))


# --------------------------------------------------------------- mechanics

def test_build_instance_is_dominance_reduced_and_sorted():
    g = build_group("dihedral:16")
    inst = build_instance(g, enumerate_subgroups(g), ALL)
    sizes = [len(c) for c in inst.candidates]
    assert sizes == sorted(sizes, reverse=True)
    for i, a in enumerate(inst.candidates):
        for b in inst.candidates[i + 1:]:
            assert not b.issubset(a) and not a.issubset(b)
    # maximal subgroups survive reduction
    assert sizes[:3] == [8, 8, 8]


def test_greedy_none_when_candidates_cannot_cover():
    universe = ElementSet.from_indices(range(4), 4)
    inst = CoverInstance(
        universe=universe,
        candidates=(ElementSet.from_indices([0, 1], 4),),
    )
    assert solve_greedy(inst) is None
    res = solve_exact(inst)
    assert res.infeasible and res.witness == ()


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
    assert [w.bits for w in a.witness] == [w.bits for w in b.witness]
    assert a.nodes_explored == b.nodes_explored


def test_result_bookkeeping():
    res = covering_number(build_group("dihedral:16"), POW)
    assert res.nodes_explored > 0
    assert res.elapsed >= 0.0
    assert len(res.witness) == res.size


def test_family_predicate_needs_p_group():
    g = build_group("cyclic:12")
    with pytest.raises(GroupError, match="p-group"):
        covering_number(g, POW)
    # the unrestricted family is still fine on non-p-groups
    assert covering_number(g, ALL).infeasible


# ---------------------------------------------------- witness verification

def test_verify_witness_rejects_bad_members():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    good = covering_number(g, POW, lat).witness
    assert verify_witness(g, POW, good)
    # not a subgroup
    broken = (ElementSet.from_indices([0, 1], 16),) + good[1:]
    assert not verify_witness(g, POW, broken)
    # the whole group is not a proper member
    assert not verify_witness(g, POW, (g.full_set(),) + good)
    # union shortfall
    assert not verify_witness(g, POW, good[:-1])
    # wrong family: a dihedral-order-8 subgroup is neither abelian nor powerful
    d8 = next(s for s in lat.subgroups if s.tag == "dihedral(8)")
    assert not verify_witness(g, AB, good[1:] + (d8.elements,))
    assert not verify_witness(g, POW, good[1:] + (d8.elements,))
    # sets sized for a different group are rejected, not mis-read
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
        assert not verify_witness(g, PE, res.witness + (s.elements,)), s.tag


# ----------------------------------------------------------- oracle parity

@pytest.mark.parametrize(
    "spec", ["dihedral:8", "dihedral:16", "quaternion:8", "cyclic:9", "elementary:2^3", "modular:16"]
)
@pytest.mark.parametrize("family", [ALL, AB, POW, PE])
def test_exact_matches_exhaustive_oracle(spec, family):
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    inst = build_instance(g, lat, family)
    cand_sets = [frozenset(c.indices()) for c in inst.candidates]
    oracle = exhaustive_min_cover(frozenset(range(g.order)), cand_sets)
    res = solve_exact(inst)
    if oracle is None:
        assert res.infeasible
    else:
        assert res.optimal and res.size == oracle[0]


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
        universe=ElementSet.full(n),
        candidates=tuple(ElementSet.from_indices(c, n) for c in cands),
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
            union |= w.bits
        assert union == (1 << n) - 1
