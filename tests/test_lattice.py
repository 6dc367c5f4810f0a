import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from powcov import lattice
from powcov.cache import LatticeCache
from powcov.catalog import builtin_catalog, entry_order, select_entries
from powcov.cover import (
    FamilySelector,
    FamilyUndefinedError,
    build_instance,
    covering_number,
    sigma_of,
)
from powcov.descriptors import parse_descriptor, prime_power
from powcov.groups import (
    FiniteGroup,
    GroupError,
    build_group,
    is_abelian,
    is_normal,
    is_p_group,
    is_subgroup,
    quotient_group,
)
from powcov.groups import _generate
from powcov.lattice import (
    FLAGS,
    Subgroup,
    _records_by_descent,
    _subgroups_by_extension,
    classify_small,
    enumerate_subgroups,
    is_powerful,
    is_powerfully_embedded,
    maximal_subgroups,
)

from oracles import (
    bits_of,
    classify_oracle,
    closure_of,
    element_orders,
    members_of,
    subgroup_flags,
    subset_closure_subgroups,
)
from test_groups import generated


def lattice_sets(g):
    return {members_of(s.bits) for s in enumerate_subgroups(g).subgroups}

def descent_bits(g):
    """The bitmask of every subgroup the descent finds, each once."""
    records = _records_by_descent(g, is_p_group(g))
    bits = {s.bits for s in records}
    assert len(bits) == len(records)
    return bits


# ------------------------------------------------------------- enumeration

@pytest.mark.parametrize(
    "spec,count",
    [
        ("dihedral:8", 10),
        ("dihedral:16", 19),
        ("quaternion:8", 6),
        ("modular:16", 11),
        ("elementary:2^4", 67),
        ("cyclic:12", 6),
        ("cyclic:1", 1),
    ],
)
def test_subgroup_counts(spec, count):
    assert len(enumerate_subgroups(build_group(spec))) == count


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _prime_power(q):
    """(p, k) with q = p^k; (None, 0) for q = 1."""
    if q == 1:
        return None, 0
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    assert q == 1, "not a prime power"
    return p, k


def _gaussian_binomial(k, i, p):
    num = den = 1
    for j in range(i):
        num *= p ** (k - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def closed_form_subgroup_count(desc):
    """Subgroup count from the standard formulas, never from a table."""
    if desc.kind == "cyclic":  # C_{p^k}: k + 1
        return _prime_power(desc.order)[1] + 1
    if desc.kind == "dihedral":  # D_{2m}: tau(m) + sigma(m)
        divs = _divisors(desc.order // 2)
        return len(divs) + sum(divs)
    if desc.kind == "quaternion":  # Q_{2^n}: n + 2^(n-1) - 1
        n = _prime_power(desc.order)[1]
        return n + 2 ** (n - 1) - 1
    if desc.kind == "elementary":  # sum of Gaussian binomials [k choose i]_p
        p, k = desc.params
        return sum(_gaussian_binomial(k, i, p) for i in range(k + 1))
    raise ValueError(desc.kind)


CLOSED_FORM_KINDS = {"cyclic", "dihedral", "quaternion", "elementary"}
CLOSED_FORM_SPECS = [
    e.source
    for e in builtin_catalog()
    if parse_descriptor(e.source).kind in CLOSED_FORM_KINDS
]


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_subgroup_counts_match_closed_forms(spec):
    expected = closed_form_subgroup_count(parse_descriptor(spec))
    assert len(enumerate_subgroups(build_group(spec))) == expected


def test_closed_forms_cover_the_catalog_families():
    assert {parse_descriptor(s).kind for s in CLOSED_FORM_SPECS} == CLOSED_FORM_KINDS
    # spot values of the formulas themselves
    assert closed_form_subgroup_count(parse_descriptor("dihedral:128")) == 134
    assert closed_form_subgroup_count(parse_descriptor("quaternion:128")) == 70
    assert closed_form_subgroup_count(parse_descriptor("elementary:2^5")) == 374
    assert closed_form_subgroup_count(parse_descriptor("elementary:3^4")) == 212


@pytest.mark.parametrize(
    "spec,count",
    [("dihedral:256", 263), ("dihedral:512", 520), ("quaternion:256", 135)],
)
def test_subgroup_counts_past_order_128(spec, count):
    assert closed_form_subgroup_count(parse_descriptor(spec)) == count
    assert len(enumerate_subgroups(build_group(spec))) == count


@pytest.mark.parametrize(
    "spec",
    [
        "dihedral:16",
        "quaternion:16",
        "semidihedral:16",
        "cyclic:12",
        "elementary:3^2",
        "product:(dihedral:8,cyclic:3)",  # nonabelian, not a p-group
    ],
)
def test_matches_subset_closure_oracle(spec):
    g = build_group(spec)
    assert lattice_sets(g) == subset_closure_subgroups(g.table)


def test_symmetric_group_s4_matches_subset_closure_oracle():
    # S4 is not nilpotent, unlike every group a descriptor builds.
    table = s4_table()
    g = FiniteGroup(table)
    assert len(lattice_sets(g)) == 30
    assert lattice_sets(g) == subset_closure_subgroups(table)


def test_product_and_quotient_match_subset_closure_oracle():
    product = build_group("product:(quaternion:8,cyclic:2)")
    # Q8 x C4 modulo its central element (x^2, z^2), numbered 2*4 + 2 = 10:
    # the order-16 central product Q8 o C4, which no descriptor builds.
    big = build_group("product:(quaternion:8,cyclic:4)")
    central_product = quotient_group(big, generated(big, 10))
    for g in (product, central_product):
        assert g.order == 16
        assert lattice_sets(g) == subset_closure_subgroups(g.table)


def test_lattice_is_sorted_and_flags_consistent():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)
    for s in lat.subgroups:
        assert is_subgroup(g, s.bits)
        assert s.order == len(members_of(s.bits))
        assert g.order % s.order == 0
        assert s.is_proper == (s.order < g.order)
    proper = {s.bits for s in lat.subgroups if s.is_proper}
    assert set(lat.maximal()) <= proper


def test_maximal_subgroups_of_dihedral():
    g = build_group("dihedral:32")
    maxes = maximal_subgroups(g)
    assert len(maxes) == 3
    assert sorted(m.order for m in maxes) == [16, 16, 16]
    # the rotation subgroup is one of them
    assert closure_of(g.table, [1]) in {members_of(m.bits) for m in maxes}


def s4_table():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms]


@pytest.mark.parametrize(
    "spec", ["S4", "cyclic:12", "product:(dihedral:8,cyclic:3)", "dihedral:16"]
)
def test_maximal_flags_match_the_oracle(spec):
    # Maximal: proper, and no proper subgroup strictly contains it.
    # Lattice.maximal reads that off either enumeration path's lattice.
    g = FiniteGroup(s4_table()) if spec == "S4" else build_group(spec)
    proper = [h for h in subset_closure_subgroups(g.table) if len(h) < g.order]
    expected = {h for h in proper if not any(h < k for k in proper)}
    maximal = enumerate_subgroups(g).maximal()
    assert {members_of(bits) for bits in maximal} == expected
    assert len(maximal) == len(expected)


@pytest.mark.parametrize("spec", ["dihedral:16", "elementary:2^4", "cyclic:12", "S4"])
def test_lattice_order_is_order_then_membership_vector(spec):
    # The canonical order: by order, ties by the 0/1 membership vector with
    # element 0 first, on both enumeration paths.
    g = FiniteGroup(s4_table()) if spec == "S4" else build_group(spec)
    keys = [
        (s.order, [s.bits >> i & 1 for i in range(g.order)])
        for s in enumerate_subgroups(g).subgroups
    ]
    assert keys == sorted(keys)
    assert len({tuple(v) for _, v in keys}) == len(keys)


def test_klein_census_in_dihedral():
    for n in (2, 3, 4):
        g = build_group(f"dihedral:{2 ** (n + 1)}")
        lat = enumerate_subgroups(g)
        kleins = [s for s in lat.subgroups if classify_small(g, s.bits) == "klein"]
        assert len(kleins) == 2 ** (n - 1)


def test_tags_on_q8():
    g = build_group("quaternion:8")
    tags = sorted(classify_small(g, s.bits) for s in enumerate_subgroups(g).subgroups)
    assert tags == ["cyclic(2)", "cyclic(4)", "cyclic(4)", "cyclic(4)", "quaternion-like", "trivial"]


def test_enumeration_tags_no_subgroup(monkeypatch):
    # A tag is computed only where it is read; each enumeration path, the
    # descent and the extension, records the flags the cover reads and no tag.
    def untaggable(*args):
        raise AssertionError("the enumeration tagged a subgroup")

    monkeypatch.setattr(lattice, "_tag", untaggable)
    assert "tag" not in Subgroup._fields
    for descriptor in ("dihedral:16", "product:(dihedral:8,cyclic:3)"):
        for s in enumerate_subgroups(build_group(descriptor)).subgroups:
            assert s.record().keys() == {"bits", *FLAGS}


def test_enumeration_computes_no_maximality(monkeypatch):
    # Maximality is read off a lattice, by the one containment filter; the
    # descent and the extension path record only the flags the cover reads.
    def unfiltered(*args):
        raise AssertionError("the enumeration ran the containment filter")

    monkeypatch.setattr(lattice, "_dominant", unfiltered)
    assert Subgroup._fields == (
        "bits", "is_proper", "is_abelian", "is_normal", "is_powerful", "is_powerfully_embedded"
    )
    for descriptor in ("dihedral:16", "product:(dihedral:8,cyclic:3)"):
        enumerate_subgroups(build_group(descriptor))


def test_dihedral_subgroups_tagged():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    assert any(classify_small(g, s.bits) == "dihedral(8)" for s in lat.subgroups)
    assert any(classify_small(g, s.bits) == "cyclic(8)" for s in lat.subgroups)


# --------------------------------------------------------------- predicates

def test_powerful_groups():
    m16 = build_group("modular:16")
    assert is_powerful(m16, m16.full_set())
    d16 = build_group("dihedral:16")
    assert not is_powerful(d16, d16.full_set())
    # Klein subgroups are abelian, hence powerful
    lat = enumerate_subgroups(d16)
    for s in lat.subgroups:
        if s.is_abelian:
            assert s.is_powerful


def test_powerfully_embedded_in_d32():
    g = build_group("dihedral:32")
    lat = enumerate_subgroups(g)
    pe = [s for s in lat.subgroups if s.is_proper and s.is_powerfully_embedded]
    assert [s.order for s in pe] == [1, 2]
    assert members_of(pe[1].bits) == closure_of(g.table, [8])  # the center


def test_pe_implies_powerful_and_normal():
    for spec in ("dihedral:32", "modular:16", "elementary:2^3", "quaternion:16"):
        lat = enumerate_subgroups(build_group(spec))
        for s in lat.subgroups:
            if s.is_powerfully_embedded:
                assert s.is_powerful and s.is_normal


P_GROUPS_TO_32 = [e.id for e in select_entries(None, 32) if prime_power(entry_order(e))]


@pytest.mark.parametrize("spec", P_GROUPS_TO_32)
def test_public_pe_predicate_matches_lattice_flag(spec):
    # Each family admits a subgroup by a lattice flag, and verify_witness
    # re-checks it with the family's public predicate, recomputed from the
    # members (the PE one conjugates by all of G, the lattice by g.generators).
    # The whole group is compared too: modular:16 is the one group here that
    # is powerful and not abelian.
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    if spec in ("modular:32", "dihedral:16"):
        assert {s.is_powerfully_embedded for s in lat.subgroups} == {True, False}
    for s in lat.subgroups:
        assert is_powerfully_embedded(g, s.bits) == s.is_powerfully_embedded, classify_small(g, s.bits)
        for family in FamilySelector:
            assert family.admits(s) == family.predicate(g, s.bits), (family, classify_small(g, s.bits))


@pytest.mark.parametrize(
    "family", [FamilySelector.POWERFUL, FamilySelector.POWERFULLY_EMBEDDED], ids=lambda f: f.value
)
def test_powerful_families_are_undefined_off_p_groups(family):
    g = build_group("cyclic:6")
    lat = enumerate_subgroups(g)
    # the sweep leaves the cell blank on this error and only on it; it is
    # raised once per query, before the cyclic answer and any lattice scan
    with pytest.raises(FamilyUndefinedError, match="p-group"):
        family.require(g)
    with pytest.raises(FamilyUndefinedError, match="p-group"):
        sigma_of(g, family, LatticeCache())
    with pytest.raises(FamilyUndefinedError, match="p-group"):
        covering_number(g, family, lat)
    proper = [s for s in lat.subgroups if s.is_proper]
    assert proper
    for s in proper:
        with pytest.raises(GroupError, match="p-group"):
            family.predicate(g, s.bits)


def test_predicates_demand_p_groups():
    g = build_group("cyclic:12")
    with pytest.raises(GroupError, match="p-group"):
        is_powerful(g, g.full_set())
    lat = enumerate_subgroups(g)
    assert all(s.is_powerful is None for s in lat.subgroups)
    assert all(s.is_powerfully_embedded is None for s in lat.subgroups)


def test_odd_p_power_index():
    g = build_group("elementary:3^2")
    lat = enumerate_subgroups(g)
    assert all(s.is_powerful for s in lat.subgroups)
    assert all(s.is_powerfully_embedded for s in lat.subgroups)


def flags_match_definitions(g):
    """Every subgroup's four flags against the definitional oracle."""
    table = g.table
    p = is_p_group(g)
    for s in enumerate_subgroups(g).subgroups:
        flags = (s.is_abelian, s.is_normal, s.is_powerful, s.is_powerfully_embedded)
        assert flags == subgroup_flags(table, members_of(s.bits), p), (g, s.bits)


def test_flags_match_definitions_on_builtin_groups_to_order_32():
    for e in select_entries(None, 32):
        if e.source != "cyclic:1":  # the trivial group has no prime
            flags_match_definitions(e.build())


@pytest.mark.parametrize("p", [3, 5])
def test_flags_match_definitions_on_heisenberg_groups(p):
    # The only nonabelian odd-p groups here: powerful reads K^p from the descent.
    flags_match_definitions(FiniteGroup(heisenberg_table(p)))


def test_generators_generate_and_decide_normality():
    # g.generators is the one set of conjugators: the oracle conjugates by
    # every element of G instead.  Its normal flag needs no prime.
    groups = [e.build() for e in select_entries(None, 32)] + [FiniteGroup(s4_table())]
    for g in groups:
        table = g.table
        assert isinstance(g.generators, tuple)
        assert closure_of(table, g.generators) == frozenset(range(g.order)), g
        for members in subset_closure_subgroups(table):
            expected = subgroup_flags(table, members, 2)[1]
            got = is_normal(g, bits_of(members))
            assert got == expected, (g, sorted(members))


def test_enumeration_checks_each_subgroup_once(monkeypatch):
    # Every subgroup of every level passes through the check exactly once.
    rows = []
    check = lattice._checked

    def counting_check(g, bits, *args):
        rows.append(bits)
        return check(g, bits, *args)

    monkeypatch.setattr(lattice, "_checked", counting_check)
    for spec in ("dihedral:64", "elementary:2^4", "product:(dihedral:8,cyclic:3)"):
        rows.clear()
        lat = enumerate_subgroups(build_group(spec))
        assert len(rows) == len(lat)
        assert set(rows) == {s.bits for s in lat.subgroups}


def test_hyperplanes_are_built_once_and_read_only():
    planes = lattice._hyperplanes(3, 2)
    assert planes is lattice._hyperplanes(3, 2)
    assert isinstance(planes, tuple) and all(isinstance(plane, tuple) for plane in planes)
    # p + 1 = 4 lines of F_3^2, each holding p = 3 of its 9 vectors: the
    # origin and two more, and every vector lies on one of them.
    assert len(planes) == 4 and all(len(plane) == 3 and 0 in plane for plane in planes)
    assert set().union(*planes) == set(range(9))
    # The same rule at p = 2: the 7 planes of F_2^3, each holding 4 of its
    # 8 vectors, the origin among them.
    planes = lattice._hyperplanes(2, 3)
    assert len(planes) == 7 and all(len(plane) == 4 and 0 in plane for plane in planes)
    assert len(set(planes)) == 7


@pytest.mark.parametrize(
    "rows",
    [
        ([0, 8], [0, 1], [0, 9]),  # {e, r} is not closed: r*r = r^2
        ([0, 8], [8, 9]),  # {s, rs} lacks the identity
        ([],),  # the empty row lacks it too, with nothing to close
    ],
    ids=["not-closed", "no-identity", "empty"],
)
def test_level_check_rejects_a_block_with_one_bad_row(rows):
    g = build_group("dihedral:16")
    with pytest.raises(GroupError, match="enumerated set is not a subgroup"):
        for bits in map(bits_of, rows):
            lattice._checked(g, bits)


def _d16_non_subgroup():
    g = build_group("dihedral:16")
    return g, bits_of([0, 1, 8])  # {e, r, s}


@pytest.mark.parametrize(
    "call",
    [
        lambda g, bad: is_abelian(g, bad),
        lambda g, bad: is_normal(g, bad),
        lambda g, bad: is_powerful(g, bad),
        lambda g, bad: is_powerfully_embedded(g, bad),
        lambda g, bad: classify_small(g, bad),
        lambda g, bad: quotient_group(g, bad),
    ],
    ids=[
        "is_abelian",
        "is_normal",
        "is_powerful",
        "is_powerfully_embedded",
        "classify_small",
        "quotient_group",
    ],
)
def test_public_operations_reject_a_non_subgroup(call):
    g, bad = _d16_non_subgroup()
    with pytest.raises(GroupError, match="not a subgroup"):
        call(g, bad)


def test_classify_small_labels():
    g = build_group("dihedral:16")
    assert classify_small(g, generated(g)) == "trivial"
    assert classify_small(g, generated(g, 1)) == "cyclic(8)"
    assert classify_small(g, generated(g, 4, 8)) in ("klein", "dihedral(4)")
    assert classify_small(g, g.full_set()) == "dihedral(16)"
    q = build_group("quaternion:8")
    assert classify_small(q, q.full_set()) == "quaternion-like"


# --------------------------------------------------------------------- caps

@pytest.mark.parametrize("m,divisors", [(300, 18), (504, 24), (510, 16)])
def test_no_lattice_cap_below_the_construction_cap(m, divisors):
    assert len(enumerate_subgroups(build_group(f"cyclic:{m}"))) == divisors


# ------------------------------------------------------------ property tests

@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(
        ["dihedral:8", "quaternion:8", "cyclic:16", "elementary:2^3", "modular:16"]
    )
)
def test_every_member_is_a_subgroup_and_closed(spec):
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    seen = set()
    for s in lat.subgroups:
        key = s.bits
        assert key not in seen  # no duplicates
        seen.add(key)
        assert is_subgroup(g, s.bits)
        assert closure_of(g.table, members_of(s.bits)) == members_of(s.bits)


def heisenberg_table(p):
    """Unitriangular 3x3 matrices over F_p as triples:
    (a, b, c)(x, y, z) = (a + x, b + y, c + z + a*y)."""
    elements = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elements)}
    return [
        [index[(a + x) % p, (b + y) % p, (c + z + a * y) % p] for x, y, z in elements]
        for a, b, c in elements
    ]


@pytest.mark.parametrize("p,count", [(3, 19), (5, 39)])
def test_heisenberg_group_lattice(p, count):
    # Nonabelian of exponent p, so Phi(K) = [K, K] with K^p trivial: no
    # built-in odd-p group exercises the commutator part of the descent.
    # Subgroups: 1, the p^2 + p + 1 of order p, the p + 1 maximal ones, G.
    assert count == 1 + (p**2 + p + 1) + (p + 1) + 1
    table = heisenberg_table(p)
    g = FiniteGroup(table)
    lat = enumerate_subgroups(g)
    assert {s.bits for s in lat.subgroups} == _subgroups_by_extension(g)
    assert len(lat) == count
    if p == 3:
        assert lattice_sets(g) == subset_closure_subgroups(table)


def _prime(spec):
    return _prime_power(parse_descriptor(spec).order)[0]


P_GROUP_FACTORS = [e.source for e in select_entries(None, 32) if e.source != "cyclic:1"]
P_GROUP_PRODUCTS = [
    f"product:({a},{b})"
    for i, a in enumerate(P_GROUP_FACTORS)
    for b in P_GROUP_FACTORS[i:]
    if _prime(a) == _prime(b)
    and parse_descriptor(a).order * parse_descriptor(b).order <= 64
]


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(P_GROUP_PRODUCTS), st.data())
def test_descent_matches_extension_on_products_and_quotients(spec, data):
    # The cyclic-extension path is exhaustive for any finite group, which
    # makes it an oracle for the Frattini descent past order 32.
    g = build_group(spec)
    subgroups = descent_bits(g)
    assert subgroups == _subgroups_by_extension(g)
    normal = [
        bits for bits in subgroups if 1 < bits.bit_count() < g.order and is_normal(g, bits)
    ]
    q = quotient_group(g, data.draw(st.sampled_from(normal)))
    assert descent_bits(q) == _subgroups_by_extension(q)


@pytest.mark.parametrize("spec", [s for s in P_GROUP_PRODUCTS if _prime(s) != 2])
def test_descent_matches_extension_on_odd_products(spec):
    # The test above draws 8 of the products, so it seldom reaches these.
    g = build_group(spec)
    assert descent_bits(g) == _subgroups_by_extension(g)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(P_GROUP_PRODUCTS), st.data())
def test_flags_match_definitions_on_products_and_quotients(spec, data):
    g = build_group(spec)
    flags_match_definitions(g)
    normal = [
        s.bits for s in enumerate_subgroups(g).subgroups if s.is_normal and 1 < s.order < g.order
    ]
    flags_match_definitions(quotient_group(g, data.draw(st.sampled_from(normal))))


def wreath_table(m):
    """Cm wr C2 = (Cm x Cm) : C2, with t swapping the coordinates, as
    triples (a, b, t), of order 2m^2.  For m = 4, order 32, its squares,
    {(2a, 2b)} u {(c, c)}, do not form a subgroup: (2, 0) (1, 1) = (3, 1)
    is not a square."""
    elements = [(a, b, t) for a in range(m) for b in range(m) for t in range(2)]
    index = {e: i for i, e in enumerate(elements)}

    def mul(u, v):
        a, b, t = u
        c, d, s = v
        if t:
            c, d = d, c
        return (a + c) % m, (b + d) % m, t ^ s

    return [[index[mul(u, v)] for v in elements] for u in elements]


def test_descent_on_a_group_whose_squares_are_no_subgroup():
    # Phi(G) = G^2 is larger than the set of squares here, so the descent
    # has to close the image of x -> x^2 on this nonabelian G.
    table = wreath_table(4)
    g = FiniteGroup(table)
    squares = {table[x][x] for x in range(g.order)}
    assert squares != closure_of(table, squares)
    assert descent_bits(g) == _subgroups_by_extension(g)
    flags_match_definitions(g)


def test_flags_on_a_group_whose_fourth_powers_are_no_subgroup():
    # C8 wr C2, order 128: its 4th powers are {(4a, 4b)} u {(2c, 2c)}, and
    # (4, 0) (2, 2) = (6, 2) is none of them.  The powerful flags read the
    # unclosed image of x -> x^4, which is exact by Lubotzky-Mann; compare
    # them with the oracle, which closes it.
    table = wreath_table(8)
    g = FiniteGroup(table)
    fourth = {table[table[x][x]][table[x][x]] for x in range(g.order)}
    assert fourth != closure_of(table, fourth)
    lat = enumerate_subgroups(g)
    assert {s.bits for s in lat.subgroups} == _subgroups_by_extension(g)
    large = [s for s in lat.subgroups if s.order >= 32]
    assert any(not s.is_abelian for s in large)
    for s in large:
        flags = (s.is_abelian, s.is_normal, s.is_powerful, s.is_powerfully_embedded)
        assert flags == subgroup_flags(table, members_of(s.bits), 2), s.bits


ORACLE_GROUPS = (
    [e.source for e in select_entries(None, 64)]
    + ["heisenberg:3", "heisenberg:5", "wreath"]
    + P_GROUP_PRODUCTS
)


def _oracle_group(name):
    if name.startswith("heisenberg:"):
        return FiniteGroup(heisenberg_table(int(name.split(":")[1])))
    if name == "wreath":
        return FiniteGroup(wreath_table(4))
    return build_group(name)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS), st.data())
def test_closure_matches_oracle(name, data):
    g = _oracle_group(name)
    seeds = data.draw(st.lists(st.integers(min_value=0, max_value=g.order - 1), max_size=3))
    assert set(_generate(g, seeds)[0]) == closure_of(g.table, seeds)


def twisted_table(m, s):
    """<x, y | x^m, y^2 = x^s, yx = x^-1 y> as pairs (i, j) for x^i y^j:
    the dihedral group of order 2m at s = 0, the dicyclic one at s = m/2."""
    elements = [(i, j) for j in range(2) for i in range(m)]
    index = {e: k for k, e in enumerate(elements)}

    def mul(u, v):
        (i, j), (k, l) = u, v
        return (i + (-k if j else k) + (s if j and l else 0)) % m, j ^ l

    return [[index[mul(u, v)] for v in elements] for u in elements]


S3_PERM = Path(__file__).resolve().parent / "data" / "s3.perm"

# Groups where h/2 is odd or h is no power of 2: S3, two products with C3,
# and twisted_table's dihedral (s = 0) and dicyclic (s = m/2) groups.
TAG_DESCRIPTORS = [f"perm:{S3_PERM}", "product:(dihedral:8,cyclic:3)", "product:(dihedral:16,cyclic:3)"]
TAG_TABLES = {f"D{2 * m}": (m, 0) for m in (3, 5, 6, 9, 10)}
TAG_TABLES.update({f"Dic{m // 2}": (m, m // 2) for m in (6, 10)})


def test_tags_match_the_pair_loop_oracle():
    names = [e.source for e in select_entries(None, 64)] + ["heisenberg:3", "heisenberg:5"]
    groups = [(name, _oracle_group(name)) for name in names + TAG_DESCRIPTORS]
    groups += [(name, FiniteGroup(twisted_table(*ms))) for name, ms in TAG_TABLES.items()]
    seen = set()
    for name, g in groups:
        table = g.table
        orders = element_orders(table)
        lat = enumerate_subgroups(g)
        for s, tag in zip(lat.subgroups, lat.tags(), strict=True):
            assert tag == classify_small(g, s.bits), (name, s.bits)
            assert tag == classify_oracle(table, orders, members_of(s.bits)), (name, s.bits)
            seen.add(tag)
    assert {"dihedral(6)", "dihedral(10)", "dihedral(12)", "dihedral(18)", "dihedral(20)"} <= seen


PINNED_DIGESTS = Path(__file__).resolve().parent / "data" / "lattice_digests.json"


def test_maximal_subgroups_match_the_join_oracle():
    # A proper H is maximal iff <H, x> = G for every x outside H, found here
    # from the table alone, on every lattice with a pinned digest and on S3.
    # The cover's candidates over all proper subgroups are those same masks.
    for name in [*json.loads(PINNED_DIGESTS.read_text()), f"perm:{S3_PERM}"]:
        g = build_group(name)
        lat = enumerate_subgroups(g)
        expected = [
            s.bits
            for s in reversed(lat.subgroups)
            if s.is_proper
            and all(
                len(_generate(g, [*members_of(s.bits), x])[0]) == g.order
                for x in range(g.order)
                if not s.bits >> x & 1
            )
        ]
        assert lat.maximal() == expected, name
        assert build_instance(g, lat, FamilySelector.ALL).candidates == tuple(expected), name
