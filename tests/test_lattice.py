import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcov import lattice
from powcov.bitset import ElementSet
from powcov.cache import serialize_lattice
from powcov.catalog import builtin_catalog
from powcov.descriptors import parse_descriptor
from powcov.groups import (
    FiniteGroup,
    GroupError,
    build_group,
    closure,
    commutator_subgroup,
    is_abelian,
    is_normal,
    is_p_group,
    is_subgroup,
    power_subgroup,
    quotient_group,
)
from powcov.lattice import (
    _levels_by_descent,
    _subgroups_by_extension,
    classify_small,
    enumerate_subgroups,
    is_powerful,
    is_powerfully_embedded,
    maximal_subgroups,
)

from oracles import (
    classify_oracle,
    closure_of,
    element_orders,
    subgroup_flags,
    subset_closure_subgroups,
)


def lattice_sets(g):
    return {frozenset(s.elements.indices()) for s in enumerate_subgroups(g).subgroups}


def descent_maximal(g):
    """{bitmask: maximal} from the descent, as the extension path gives it."""
    levels = _levels_by_descent(g, is_p_group(g))
    return {bits: maximal for level in levels for bits, _, _, maximal, *_ in level}


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
    assert lattice_sets(g) == subset_closure_subgroups(g.table.tolist())


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
    central_product = quotient_group(big, closure(big, [10]))
    for g in (product, central_product):
        assert g.order == 16
        assert lattice_sets(g) == subset_closure_subgroups(g.table.tolist())


def test_lattice_is_sorted_and_flags_consistent():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)
    for s in lat.subgroups:
        assert is_subgroup(g, s.elements)
        assert s.order == len(s.elements)
        assert g.order % s.order == 0
        assert s.is_proper == (s.order < g.order)
        if s.is_maximal:
            assert s.is_proper


def test_maximal_subgroups_of_dihedral():
    g = build_group("dihedral:32")
    maxes = maximal_subgroups(g)
    assert len(maxes) == 3
    assert sorted(m.order for m in maxes) == [16, 16, 16]
    # the rotation subgroup is one of them
    rot = frozenset(closure(g, [1]).indices())
    assert rot in {frozenset(m.elements.indices()) for m in maxes}


def s4_table():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms]


@pytest.mark.parametrize(
    "spec", ["S4", "cyclic:12", "product:(dihedral:8,cyclic:3)", "dihedral:16"]
)
def test_maximal_flags_match_the_oracle(spec):
    # Maximal: proper, and no proper subgroup strictly contains it.  The
    # flag comes from the descent's first level or from the extension path.
    g = FiniteGroup(s4_table()) if spec == "S4" else build_group(spec)
    proper = [h for h in subset_closure_subgroups(g.table.tolist()) if len(h) < g.order]
    expected = {h for h in proper if not any(h < k for k in proper)}
    lat = enumerate_subgroups(g)
    assert {frozenset(s.elements) for s in lat.subgroups if s.is_maximal} == expected


@pytest.mark.parametrize("spec", ["dihedral:16", "elementary:2^4", "cyclic:12", "S4"])
def test_lattice_order_is_order_then_membership_vector(spec):
    # The canonical order: by order, ties by the 0/1 membership vector with
    # element 0 first, on both enumeration paths.
    g = FiniteGroup(s4_table()) if spec == "S4" else build_group(spec)
    keys = [
        (s.order, [int(i in s.elements) for i in range(g.order)])
        for s in enumerate_subgroups(g).subgroups
    ]
    assert keys == sorted(keys)
    assert len({tuple(v) for _, v in keys}) == len(keys)


def test_klein_census_in_dihedral():
    for n in (2, 3, 4):
        g = build_group(f"dihedral:{2 ** (n + 1)}")
        lat = enumerate_subgroups(g)
        kleins = [s for s in lat.subgroups if s.tag == "klein"]
        assert len(kleins) == 2 ** (n - 1)


def test_tags_on_q8():
    lat = enumerate_subgroups(build_group("quaternion:8"))
    tags = sorted(s.tag for s in lat.subgroups)
    assert tags == ["cyclic(2)", "cyclic(4)", "cyclic(4)", "cyclic(4)", "quaternion-like", "trivial"]


def test_dihedral_subgroups_tagged():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    assert any(s.tag == "dihedral(8)" for s in lat.subgroups)
    assert any(s.tag == "cyclic(8)" for s in lat.subgroups)


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
    assert list(pe[1].elements) == list(closure(g, [8]))  # the center


def test_pe_implies_powerful_and_normal():
    for spec in ("dihedral:32", "modular:16", "elementary:2^3", "quaternion:16"):
        lat = enumerate_subgroups(build_group(spec))
        for s in lat.subgroups:
            if s.is_powerfully_embedded:
                assert s.is_powerful and s.is_normal


@pytest.mark.parametrize("spec", ["modular:32", "dihedral:16"])
def test_public_pe_predicate_matches_lattice_flag(spec):
    # The public predicate conjugates by all of G, the lattice by g.generators.
    g = build_group(spec)
    lat = enumerate_subgroups(g)
    assert {s.is_powerfully_embedded for s in lat.subgroups} == {True, False}
    for s in lat.subgroups:
        assert is_powerfully_embedded(g, s.elements) == s.is_powerfully_embedded, s.tag


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
    table = g.table.tolist()
    p = is_p_group(g)
    for s in enumerate_subgroups(g).subgroups:
        flags = (s.is_abelian, s.is_normal, s.is_powerful, s.is_powerfully_embedded)
        assert flags == subgroup_flags(table, frozenset(s.elements), p), (g, s.elements)


def test_flags_match_definitions_on_builtin_groups_to_order_32():
    for e in builtin_catalog(max_order=32):
        if e.source != "cyclic:1":  # the trivial group has no prime
            flags_match_definitions(e.build())


@pytest.mark.parametrize("p", [3, 5])
def test_flags_match_definitions_on_heisenberg_groups(p):
    # The only nonabelian odd-p groups here: powerful reads K^p from the descent.
    flags_match_definitions(FiniteGroup(heisenberg_table(p)))


def test_generators_generate_and_decide_normality():
    # g.generators is the one set of conjugators: the oracle conjugates by
    # every element of G instead.  Its normal flag needs no prime.
    groups = [e.build() for e in builtin_catalog(max_order=32)] + [FiniteGroup(s4_table())]
    for g in groups:
        table = g.table.tolist()
        assert not g.generators.flags.writeable
        assert closure_of(table, g.generators.tolist()) == frozenset(range(g.order)), g
        for members in subset_closure_subgroups(table):
            expected = subgroup_flags(table, members, 2)[1]
            got = is_normal(g, ElementSet.from_indices(members, g.order))
            assert got == expected, (g, sorted(members))


def _bits(mask):
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def test_enumeration_checks_each_subgroup_once(monkeypatch):
    # Every row of every level passes through the level check exactly once.
    rows = []
    check = lattice._checked

    def counting_check(g, masks, *args):
        rows.extend(_bits(mask) for mask in masks)
        return check(g, masks, *args)

    monkeypatch.setattr(lattice, "_checked", counting_check)
    for spec in ("dihedral:64", "elementary:2^4"):
        rows.clear()
        lat = enumerate_subgroups(build_group(spec))
        assert len(rows) == len(lat)
        assert set(rows) == {s.elements.bits for s in lat.subgroups}


def test_hyperplanes_are_built_once_and_read_only():
    planes = lattice._hyperplanes(3, 2)
    assert planes is lattice._hyperplanes(3, 2)
    assert not planes.flags.writeable
    # p + 1 = 4 lines of F_3^2, each holding p = 3 of its 9 vectors; the
    # last row (outside K) lies in none.
    assert planes.shape == (10, 4)
    assert planes[:9].sum(axis=0).tolist() == [3] * 4 and not planes[9].any()


def _block(g, *rows):
    masks = np.zeros((len(rows), g.order), dtype=bool)
    for mask, row in zip(masks, rows):
        mask[list(row)] = True
    return masks


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
        lattice._checked(g, _block(g, *rows))


def test_chunked_levels_give_the_unchunked_records(monkeypatch):
    cases = [
        build_group("dihedral:32"),
        build_group("elementary:2^4"),
        build_group("product:(quaternion:8,cyclic:2)"),
        FiniteGroup(heisenberg_table(3)),
        FiniteGroup(wreath_table(4)),
    ]
    whole = [serialize_lattice(enumerate_subgroups(g)) for g in cases]
    monkeypatch.setattr(lattice, "_BUDGET", 1)  # every chunk is one row
    rows = Counter()
    check = lattice._checked

    def counting_check(g, masks, *args):
        rows[len(masks)] += 1
        return check(g, masks, *args)

    monkeypatch.setattr(lattice, "_checked", counting_check)
    assert [serialize_lattice(enumerate_subgroups(g)) for g in cases] == whole
    assert set(rows) == {1}


def _d16_non_subgroup():
    g = build_group("dihedral:16")
    return g, ElementSet.from_indices([0, 1, 8], g.order)  # {e, r, s}


@pytest.mark.parametrize(
    "call",
    [
        lambda g, bad: commutator_subgroup(g, bad, g.full_set()),
        lambda g, bad: commutator_subgroup(g, g.full_set(), bad),
        lambda g, bad: power_subgroup(g, bad, 2),
        lambda g, bad: is_abelian(g, bad),
        lambda g, bad: is_normal(g, bad),
        lambda g, bad: is_powerful(g, bad),
        lambda g, bad: is_powerfully_embedded(g, bad),
        lambda g, bad: classify_small(g, bad),
        lambda g, bad: quotient_group(g, bad),
    ],
    ids=[
        "commutator_subgroup-first",
        "commutator_subgroup-second",
        "power_subgroup",
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
    assert classify_small(g, closure(g, [])) == "trivial"
    assert classify_small(g, closure(g, [1])) == "cyclic(8)"
    assert classify_small(g, closure(g, [4, 8])) in ("klein", "dihedral(4)")
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
        key = s.elements.bits
        assert key not in seen  # no duplicates
        seen.add(key)
        assert is_subgroup(g, s.elements)
        assert closure(g, list(s.elements)).bits == s.elements.bits


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
    assert {s.elements.bits for s in lat.subgroups} == set(_subgroups_by_extension(g))
    assert len(lat) == count
    if p == 3:
        assert lattice_sets(g) == subset_closure_subgroups(table)


def _prime(spec):
    return _prime_power(parse_descriptor(spec).order)[0]


P_GROUP_FACTORS = [e.source for e in builtin_catalog(max_order=32) if e.source != "cyclic:1"]
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
    subgroups = descent_maximal(g)
    assert subgroups == _subgroups_by_extension(g)
    normal = [
        es
        for es in (ElementSet(bits, g.order) for bits in subgroups)
        if 1 < len(es) < g.order and is_normal(g, es)
    ]
    q = quotient_group(g, data.draw(st.sampled_from(normal)))
    assert descent_maximal(q) == _subgroups_by_extension(q)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(P_GROUP_PRODUCTS), st.data())
def test_flags_match_definitions_on_products_and_quotients(spec, data):
    g = build_group(spec)
    flags_match_definitions(g)
    normal = [
        s.elements for s in enumerate_subgroups(g).subgroups if s.is_normal and 1 < s.order < g.order
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
    assert descent_maximal(g) == _subgroups_by_extension(g)
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
    assert {s.elements.bits for s in lat.subgroups} == set(_subgroups_by_extension(g))
    large = [s for s in lat.subgroups if s.order >= 32]
    assert any(not s.is_abelian for s in large)
    for s in large:
        flags = (s.is_abelian, s.is_normal, s.is_powerful, s.is_powerfully_embedded)
        assert flags == subgroup_flags(table, frozenset(s.elements), 2), s.elements


ORACLE_GROUPS = (
    [e.source for e in builtin_catalog(max_order=64)]
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
    assert set(closure(g, seeds)) == closure_of(g.table.tolist(), seeds)


def test_tags_match_the_pair_loop_oracle():
    names = [e.source for e in builtin_catalog(max_order=64)] + ["heisenberg:3", "heisenberg:5"]
    for name in names:
        g = _oracle_group(name)
        table = g.table.tolist()
        orders = element_orders(table)
        for s in enumerate_subgroups(g).subgroups:
            assert s.tag == classify_oracle(table, orders, frozenset(s.elements)), (name, s.elements)
