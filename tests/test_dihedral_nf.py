"""Closed-form dihedral arithmetic, checked against explicit Cayley tables."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from powcov.dihedral_nf import (
    DihedralElement,
    NFSubgroup,
    counting_bound_check,
    explicit_powerful_cover,
    klein_subgroups_nf,
    nf_embed,
    nf_multiply,
    nf_order,
    rotation_subgroup_nf,
)
from powcov.cover import FamilySelector, verify_witness
from powcov.bitset import ElementSet
from powcov.groups import build_group

from oracles import element_orders


def embed_subgroup(g, emb, sub):
    return ElementSet.from_indices((emb[x] for x in sub.members), g.order)


# ----------------------------------------------------------------- elements

def test_element_validation():
    DihedralElement(3, 7, 1)
    with pytest.raises(ValueError):
        DihedralElement(1, 0, 0)
    with pytest.raises(ValueError):
        DihedralElement(3, 8, 0)
    with pytest.raises(ValueError):
        DihedralElement(3, -1, 0)
    with pytest.raises(ValueError):
        DihedralElement(3, 0, 2)


def test_constructors():
    e = DihedralElement.identity(4)
    assert (e.j, e.k) == (0, 0)
    r = DihedralElement.rotation(4, 19)
    assert r.j == 3  # reduced mod 16
    s = DihedralElement.reflection(4, 5)
    assert (s.j, s.k) == (5, 1)
    h = DihedralElement.half_turn(4)
    assert (h.j, h.k) == (8, 0)
    assert nf_order(h) == 2


def test_multiplication_law():
    # two reflections compose to a rotation by the offset difference
    a = DihedralElement.reflection(3, 5)
    b = DihedralElement.reflection(3, 2)
    ab = nf_multiply(a, b)
    assert (ab.j, ab.k) == (3, 0)
    # a reflection conjugates rotations to their inverses
    r = DihedralElement.rotation(3, 1)
    s = DihedralElement.reflection(3, 0)
    conj = nf_multiply(nf_multiply(s, r), s)
    assert (conj.j, conj.k) == (7, 0)


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError, match="mismatched"):
        nf_multiply(DihedralElement.identity(3), DihedralElement.identity(4))


def test_rotation_orders_use_gcd():
    # order of (ab)^j is 2^n / gcd(j, 2^n) -- e.g. j=6 at n=3 gives order 4
    assert nf_order(DihedralElement.rotation(3, 6)) == 4
    assert nf_order(DihedralElement.rotation(3, 0)) == 1
    assert nf_order(DihedralElement.rotation(3, 4)) == 2
    assert nf_order(DihedralElement.rotation(5, 24)) == 4
    for n in (2, 3, 4, 5):
        for j in range(1 << n):
            assert nf_order(DihedralElement.rotation(n, j)) == (1 << n) // gcd(j, 1 << n)
            assert nf_order(DihedralElement.reflection(n, j)) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_group_axioms_in_normal_form(n, data):
    mod = 1 << n
    elem = st.builds(
        DihedralElement,
        st.just(n),
        st.integers(0, mod - 1),
        st.integers(0, 1),
    )
    x, y, z = data.draw(elem), data.draw(elem), data.draw(elem)
    assert nf_multiply(nf_multiply(x, y), z) == nf_multiply(x, nf_multiply(y, z))
    e = DihedralElement.identity(n)
    assert nf_multiply(e, x) == x and nf_multiply(x, e) == x
    # x * x^(order-1) = e
    acc = x
    for _ in range(nf_order(x) - 1):
        acc = nf_multiply(acc, x)
    assert acc == e


# ---------------------------------------------------------------- subgroups

def test_rotation_subgroup():
    rot = rotation_subgroup_nf(4)
    assert len(rot) == 16
    assert rot.label == "rotation-cyclic(16)"
    assert rot.is_closed()
    assert all(x.k == 0 for x in rot.members)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_klein_subgroups(n):
    kleins = klein_subgroups_nf(n)
    assert len(kleins) == 2 ** (n - 1)
    half_turn = DihedralElement.half_turn(n)
    seen = set()
    for k in kleins:
        assert len(k) == 4
        assert k.is_closed()
        assert half_turn in k.members
        assert all(nf_order(x) <= 2 for x in k.members)
        seen.add(k.members)
    assert len(seen) == len(kleins)
    # together the kleins hit every reflection exactly once
    refl = [x for k in kleins for x in k.members if x.k == 1]
    assert len(refl) == 1 << n
    assert len(set(refl)) == 1 << n


def test_klein_pairing_is_half_turn_apart():
    for k in klein_subgroups_nf(4):
        offs = sorted(x.j for x in k.members if x.k == 1)
        assert offs[1] - offs[0] == 8  # = 2^(n-1)


def test_small_n_rejected():
    with pytest.raises(ValueError):
        klein_subgroups_nf(1)
    with pytest.raises(ValueError):
        rotation_subgroup_nf(1)


def test_exhaustive_klein_search_matches_formula():
    """Every exponent-2 four-subset that is closed appears in the formula's list."""
    for n in (2, 3, 4):
        mod = 1 << n
        elems = [DihedralElement(n, j, k) for j in range(mod) for k in (0, 1)]
        invol = [x for x in elems if nf_order(x) == 2]
        e = DihedralElement.identity(n)
        found = set()
        for i, a in enumerate(invol):
            for b in invol[i + 1:]:
                c = nf_multiply(a, b)
                group = frozenset({e, a, b, c})
                if len(group) == 4 and NFSubgroup(n, group, "other").is_closed():
                    if all(nf_order(x) <= 2 for x in group):
                        found.add(group)
        assert found == {k.members for k in klein_subgroups_nf(n)}


# ------------------------------------------------------------ cover + bound

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_explicit_cover_size_and_coverage(n):
    cover = explicit_powerful_cover(n)
    assert len(cover) == 2 ** (n - 1) + 1
    everything = set()
    for c in cover:
        everything |= c.members
    assert len(everything) == 1 << (n + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_explicit_cover_embeds_to_verified_witness(n):
    g = build_group(f"dihedral:{1 << (n + 1)}")
    emb = nf_embed(n)
    witness = [embed_subgroup(g, emb, c) for c in explicit_powerful_cover(n)]
    assert verify_witness(g, FamilySelector.POWERFUL, witness)
    assert verify_witness(g, FamilySelector.ABELIAN, witness)


def test_counting_bound_accepts_explicit_cover():
    for n in (2, 3, 4, 5, 6):
        assert counting_bound_check(n, explicit_powerful_cover(n))


def test_counting_bound_rejects_short_cover():
    # rotations plus only half the kleins: q too small, capacity falls short
    n = 4
    cover = [rotation_subgroup_nf(n)] + klein_subgroups_nf(n)[:4]
    assert not counting_bound_check(n, cover)


def test_counting_bound_requires_rotations():
    with pytest.raises(ValueError, match="rotation"):
        counting_bound_check(3, klein_subgroups_nf(3))


def test_counting_bound_rejects_fat_members():
    # splice in a dihedral-order-8 subgroup: 4 elements outside the rotations
    n = 4
    mod = 1 << n
    members = frozenset(
        {DihedralElement(n, j, 0) for j in range(0, mod, 4)}
        | {DihedralElement(n, j, 1) for j in range(0, mod, 4)}
    )
    fat = NFSubgroup(n, members, "other")
    assert fat.is_closed()
    cover = [rotation_subgroup_nf(n), fat] + klein_subgroups_nf(n)
    assert not counting_bound_check(n, cover)


# ---------------------------------------------------------------- embedding

@pytest.mark.parametrize("n", [2, 3, 4])
def test_embedding_is_isomorphism(n):
    g = build_group(f"dihedral:{1 << (n + 1)}")
    emb = nf_embed(n)
    assert sorted(emb.values()) == list(range(g.order))
    mod = 1 << n
    for j in range(mod):
        for k in (0, 1):
            x = DihedralElement(n, j, k)
            for j2 in range(mod):
                y = DihedralElement(n, j2, k)
                assert emb[nf_multiply(x, y)] == g.table[emb[x]][emb[y]]


def test_embedding_preserves_orders():
    for n in (2, 3, 4, 5):
        g = build_group(f"dihedral:{1 << (n + 1)}")
        emb = nf_embed(n)
        table_orders = element_orders(g.table)
        for x, i in emb.items():
            assert nf_order(x) == table_orders[i]
