import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcov.bitset import ElementSet
from powcov.groups import (
    CapError,
    ConstructionError,
    FiniteGroup,
    GroupError,
    build_group,
    center,
    closure,
    coclass,
    commutator_subgroup,
    direct_product,
    is_p_group,
    is_subgroup,
    nilpotence_class,
    normal_closure,
    power_subgroup,
    quotient_group,
    subgroup_as_group,
)

pytestmark = []


def members(g, *indices):
    return ElementSet.from_indices(indices, g.order)


# ---------------------------------------------------------------- validation

def test_table_must_be_square():
    with pytest.raises(ConstructionError, match="square"):
        FiniteGroup([[0, 1], [1, 0], [0, 1]])


def test_entry_out_of_range_names_position():
    with pytest.raises(ConstructionError, match="row 1, col 0"):
        FiniteGroup([[0, 1], [7, 0]])


def test_latin_square_error_names_row_and_columns():
    with pytest.raises(ConstructionError, match=r"row 0.*value 0 repeats.*columns 0 and 1"):
        FiniteGroup([[0, 0], [1, 1]])


def test_missing_identity_detected():
    # Latin square with a left identity (row 0) that is not a right identity
    with pytest.raises(ConstructionError, match="identity"):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_associativity_error_names_first_triple():
    # smallest non-associative loop with identity (order 5); it cannot be a
    # group, since the only order-5 group has no element of order 2
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ConstructionError, match=r"associativity fails at triple \(\d"):
        FiniteGroup(table)


@st.composite
def loops(draw):
    """A Latin square of order 2..8 with a two-sided identity, relabelled at
    random so the identity can sit anywhere.  Most of order 5 and up are not
    associative; all of order 4 and below are groups."""
    n = draw(st.integers(min_value=2, max_value=8))
    rnd = draw(st.randoms(use_true_random=False))
    table = [[j if i == 0 else i if j == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rnd.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    relabel = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[relabel[a]][relabel[b]] = relabel[table[a][b]]
    return out


@settings(max_examples=60, deadline=None)
@given(loops())
def test_light_associativity_test_matches_the_exhaustive_check(table):
    n = len(table)
    associative = all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    if associative:
        FiniteGroup(table)
        return
    with pytest.raises(ConstructionError, match="associativity") as err:
        FiniteGroup(table)
    a, b, c = map(int, re.search(r"triple \((\d+), (\d+), (\d+)\)", str(err.value)).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_is_checked_at_every_generator():
    # The order-5 loop above times C2, element (q, c) numbered 2q + c.  The
    # first generator, (e, 1), is central and passes Light's test; only the
    # loop's generators expose the failure.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    table = [
        [2 * loop[q][r] + (c ^ d) for r in range(5) for d in range(2)]
        for q in range(5)
        for c in range(2)
    ]
    with pytest.raises(ConstructionError, match=r"associativity fails at triple \(\d+, [2-9]"):
        FiniteGroup(table)


def test_tables_arrive_read_only():
    g = build_group("cyclic:4")
    with pytest.raises(ValueError):
        g.table[0, 0] = 3


# ------------------------------------------------------------- construction

def test_cyclic_orders():
    g = build_group("cyclic:6")
    assert g.order == 6
    assert sorted(int(v) for v in g.element_orders) == [1, 2, 3, 3, 6, 6]


def test_dihedral_8_structure():
    g = build_group("dihedral:8")
    assert [int(v) for v in g.element_orders] == [1, 4, 2, 4, 2, 2, 2, 2]
    assert list(center(g)) == [0, 2]
    assert list(commutator_subgroup(g, g.full_set(), g.full_set())) == [0, 2]
    assert list(power_subgroup(g, g.full_set(), 4)) == [0]
    assert g.name_of(1) == "r" and g.name_of(4) == "s"


def test_quaternion_8_structure():
    g = build_group("quaternion:8")
    assert sorted(int(v) for v in g.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert list(commutator_subgroup(g, g.full_set(), g.full_set())) == [0, 2]
    assert nilpotence_class(g) == 2
    # unique involution
    assert sum(1 for v in g.element_orders if v == 2) == 1


def test_semidihedral_16_has_mixed_reflection_orders():
    g = build_group("semidihedral:16")
    outside = [int(g.element_orders[i]) for i in range(8, 16)]
    assert sorted(outside) == [2, 2, 2, 2, 4, 4, 4, 4]


def test_modular_16_conjugation_relation():
    g = build_group("modular:16")
    t, z = 8, 1
    conj = g.mul(g.mul(t, z), g.inv(t))
    assert conj == 5  # t z t^-1 = z^5


def test_direct_product_structure():
    a = build_group("dihedral:8")
    b = build_group("cyclic:2")
    p = direct_product(a, b)
    assert p.order == 16
    assert p.descriptor == "product:(dihedral:8,cyclic:2)"
    assert p.name_of(1) == "(e,z)"
    # component-wise multiplication
    assert p.mul(3, 5) == a.mul(1, 2) * 2 + (1 + 1) % 2


def test_elementary_group_exponent():
    g = build_group("elementary:3^2")
    assert g.order == 9
    assert all(int(v) in (1, 3) for v in g.element_orders)
    assert is_p_group(g) == 3


def test_identity_inverses_roundtrip():
    g = build_group("semidihedral:32")
    for x in range(g.order):
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.inv(x), x) == g.identity


# ------------------------------------------------------------------ queries

def test_closure_examples():
    g = build_group("dihedral:8")
    assert list(closure(g, [1])) == [0, 1, 2, 3]
    assert list(closure(g, [])) == [0]
    assert list(normal_closure(g, members(g, 4))) == [0, 2, 4, 6]
    with pytest.raises(GroupError, match="out of range"):
        closure(g, [99])


def test_is_subgroup():
    g = build_group("dihedral:8")
    assert is_subgroup(g, members(g, 0, 2, 4, 6))
    assert not is_subgroup(g, members(g, 0, 1, 4))
    assert not is_subgroup(g, members(g, 1, 3))  # no identity
    assert not is_subgroup(g, ElementSet.empty(8))


def test_center_of_abelian_is_everything():
    g = build_group("cyclic:12")
    assert len(center(g)) == 12
    assert g.is_abelian()


def test_subgroup_as_group_reindexes():
    g = build_group("dihedral:16")
    rot = closure(g, [1])
    h = subgroup_as_group(g, rot)
    assert h.order == 8
    assert sorted(int(v) for v in h.element_orders) == [1, 2, 4, 4, 8, 8, 8, 8]
    assert h.descriptor.startswith("subgroup:")
    with pytest.raises(GroupError):
        subgroup_as_group(g, members(g, 0, 1, 8))


def test_quotient_group_collapses_center():
    g = build_group("dihedral:16")
    q = quotient_group(g, center(g))
    assert q.order == 8
    assert not q.is_abelian()  # the half-order dihedral group again
    assert q.descriptor.startswith("quotient:")
    with pytest.raises(GroupError, match="normal"):
        quotient_group(g, closure(g, [8]))


def test_quotient_by_whole_group_is_trivial():
    g = build_group("quaternion:8")
    q = quotient_group(g, g.full_set())
    assert q.order == 1


def test_nilpotence_class_and_coclass():
    assert nilpotence_class(build_group("cyclic:8")) == 1
    assert nilpotence_class(build_group("dihedral:16")) == 3
    assert coclass(build_group("dihedral:16")) == 1
    assert coclass(build_group("modular:16")) == 2
    assert is_p_group(build_group("cyclic:12")) is None
    with pytest.raises(GroupError):
        coclass(build_group("cyclic:12"))


def test_power_subgroup_of_rotations():
    g = build_group("dihedral:16")
    rot = closure(g, [1])
    sq = power_subgroup(g, rot, 2)
    assert list(sq) == [0, 2, 4, 6]


def test_content_key_tracks_table_not_names():
    a = build_group("dihedral:8")
    b = FiniteGroup(a.table, descriptor="renamed", names=None)
    assert a.content_key() == b.content_key()
    assert a.content_key() != build_group("quaternion:8").content_key()


# --------------------------------------------------------------------- caps

def test_hard_cap():
    with pytest.raises(CapError):
        build_group("cyclic:513")
    with pytest.raises(CapError, match="544"):
        build_group("product:(dihedral:32,cyclic:17)")
    with pytest.raises(CapError, match="544"):
        direct_product(build_group("dihedral:32"), build_group("cyclic:17"))
    with pytest.raises(CapError):
        FiniteGroup(np.zeros((513, 513), dtype=np.int32))
    assert build_group("dihedral:512").order == 512


# ------------------------------------------------------------ property tests

small_groups = st.sampled_from(
    [
        "cyclic:5",
        "cyclic:12",
        "dihedral:8",
        "dihedral:16",
        "quaternion:16",
        "semidihedral:16",
        "modular:16",
        "elementary:2^3",
        "elementary:3^2",
        "product:(cyclic:4,cyclic:2)",
    ]
)


@settings(max_examples=30, deadline=None)
@given(small_groups, st.data())
def test_element_order_divides_group_order(spec, data):
    g = build_group(spec)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert g.order % int(g.element_orders[x]) == 0
    assert int(g.element_orders[g.inv(x)]) == int(g.element_orders[x])


@settings(max_examples=30, deadline=None)
@given(small_groups, st.data())
def test_closure_is_a_subgroup_containing_seed(spec, data):
    g = build_group(spec)
    seed = data.draw(
        st.lists(st.integers(min_value=0, max_value=g.order - 1), max_size=3)
    )
    c = closure(g, seed)
    assert is_subgroup(g, c)
    assert all(s in c for s in seed)


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_commutator_with_center_is_trivial(spec):
    g = build_group(spec)
    z = center(g)
    assert list(commutator_subgroup(g, z, g.full_set())) == [g.identity]
