import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcov.catalog import builtin_catalog
from powcov.cover import FamilySelector, verify_witness
from powcov.groups import (
    CapError,
    ConstructionError,
    FiniteGroup,
    GroupError,
    build_group,
    center,
    coclass,
    direct_product,
    is_abelian,
    is_normal,
    is_p_group,
    is_subgroup,
    nilpotence_class,
    quotient_group,
    subgroup_as_group,
)
from powcov.groups import _TRIVIAL, _commutators, _extension, _generate
from powcov.lattice import is_powerful

from oracles import bits_of, closure_of, element_orders_stepwise, find_identity, members_of

pytestmark = []


def generated(g, *seeds):
    """The subgroup the seeds generate, from the oracle."""
    return bits_of(closure_of(g.table, seeds))


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


@pytest.mark.parametrize("table", [[[0, 1.7], [1.2, 0.4]], [["0", "1"], ["1", "0"]]], ids=["floats", "strings"])
def test_entries_must_be_integers(table):
    with pytest.raises(ConstructionError, match="integers"):
        FiniteGroup(table)


def test_numpy_integer_tables_build():
    d8 = build_group("dihedral:8")
    g = FiniteGroup(np.array(d8.table, dtype=np.int64))
    assert g.table == d8.table
    assert all(type(v) is int for row in g.table for v in row)


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
    for attribute in (g.table, g.table[0], g.generators, g.inverses, g.element_orders):
        with pytest.raises(TypeError):
            attribute[0] = 3


# ------------------------------------------------------------- construction

def test_cyclic_orders():
    g = build_group("cyclic:6")
    assert g.order == 6
    assert sorted(int(v) for v in g.element_orders) == [1, 2, 3, 3, 6, 6]


def test_element_orders_match_the_stepwise_loop():
    # Every built-in group, and groups whose orders have several primes.
    sources = [e.source for e in builtin_catalog()] + [
        "cyclic:210", "cyclic:300", "cyclic:504", "dihedral:512", "product:(dihedral:8,cyclic:3)",
    ]
    for source in sources:
        g = build_group(source)
        assert list(g.element_orders) == element_orders_stepwise(g.table).tolist(), source


# Beyond the catalog: the 2-power families at the 512 cap, larger elementary
# groups and cyclic groups whose orders have several primes.
TABLE_EXTRAS = [
    "dihedral:256", "dihedral:512", "quaternion:512", "semidihedral:512", "modular:512",
    "elementary:2^9", "elementary:3^5", "elementary:7^3", "elementary:11^2",
    "cyclic:300", "cyclic:504",
]


def test_every_builtin_table_and_name_list_is_pinned():
    # (canonical descriptor, content key, names) of the 93 groups; the digest
    # was computed before the constructors became extensions, so any change
    # to a built-in element's number or name fails here.
    rows = []
    for source in [e.source for e in builtin_catalog()] + TABLE_EXTRAS:
        g = build_group(source)
        rows.append([g.descriptor, g.content_key(), list(g.names)])
    assert len(rows) == 93
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "0374465240f6c79111c7dc2d57b5565dc0b88ff98cb7ab2682432605436bf96a"


def test_an_inconsistent_extension_is_refused():
    # y of order 3 acting on C_9 as x -> x^2: 2^3 = 8 is not 1 mod 9, so
    # phi^3 is not conjugation by y^3 = 1 and the table is no group.
    c9 = _extension(_TRIVIAL, 9, [0], 0)
    table = _extension(c9, 3, [2 * i % 9 for i in range(9)], 0)
    with pytest.raises(ConstructionError, match=r"associativity fails at triple \(18, 9, 1\)"):
        FiniteGroup(table)


def test_a_consistent_extension_is_a_group():
    # The same action on C_7 (2^3 = 8 = 1 mod 7) gives the group of order 21.
    c7 = _extension(_TRIVIAL, 7, [0], 0)
    g = FiniteGroup(_extension(c7, 3, [2 * i % 7 for i in range(7)], 0))
    assert g.order == 21 and not is_abelian(g, g.full_set())
    assert sorted(int(v) for v in g.element_orders) == [1] + [3] * 14 + [7] * 6


def test_dihedral_8_structure():
    g = build_group("dihedral:8")
    assert [int(v) for v in g.element_orders] == [1, 4, 2, 4, 2, 2, 2, 2]
    assert center(g) == bits_of([0, 2])
    assert g.name_of(1) == "r" and g.name_of(4) == "s"


def test_quaternion_8_structure():
    g = build_group("quaternion:8")
    assert sorted(int(v) for v in g.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
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
    conj = g.table[g.table[t][z]][g.inverses[t]]
    assert conj == 5  # t z t^-1 = z^5


def test_direct_product_structure():
    a = build_group("dihedral:8")
    b = build_group("cyclic:2")
    p = direct_product(a, b)
    assert p.order == 16
    assert p.descriptor == "product:(dihedral:8,cyclic:2)"
    assert p.name_of(1) == "(e,z)"
    # component-wise multiplication
    assert p.table[3][5] == a.table[1][2] * 2 + (1 + 1) % 2


def test_elementary_group_exponent():
    g = build_group("elementary:3^2")
    assert g.order == 9
    assert all(int(v) in (1, 3) for v in g.element_orders)
    assert is_p_group(g) == 3


def test_identity_inverses_roundtrip():
    g = build_group("semidihedral:32")
    for x in range(g.order):
        assert g.table[x][g.inverses[x]] == g.identity
        assert g.table[g.inverses[x]][x] == g.identity


# ------------------------------------------------------------------ queries

def test_closure_examples():
    # _generate, the closure the lattice and nilpotence_class run: plain,
    # and closed under conjugation by the generators (the normal closure).
    g = build_group("dihedral:8")
    assert sorted(_generate(g, [1])[0]) == [0, 1, 2, 3]
    assert _generate(g, [])[0] == [0]
    assert sorted(_generate(g, [4], g.generators)[0]) == [0, 2, 4, 6]


def test_is_subgroup():
    g = build_group("dihedral:8")
    assert is_subgroup(g, bits_of([0, 2, 4, 6]))
    assert not is_subgroup(g, bits_of([0, 1, 4]))
    assert not is_subgroup(g, bits_of([1, 3]))  # no identity
    assert not is_subgroup(g, 0)


# Each mask agrees with the subgroup {0, 1} of elementary:2^3 on the elements
# 0..7 and differs only outside them, so only the range check refuses it.
@pytest.mark.parametrize("mask", [-1, 0b11 | 1 << 8], ids=["negative", "bit-at-order"])
def test_masks_outside_the_group_are_refused(mask):
    g = build_group("elementary:2^3")
    for operation in (is_normal, is_powerful, quotient_group, subgroup_as_group):
        with pytest.raises(GroupError, match="is not a subgroup"):
            operation(g, mask)
    assert not is_subgroup(g, mask)
    assert not verify_witness(g, FamilySelector.ALL, [mask])


def test_center_of_abelian_is_everything():
    g = build_group("cyclic:12")
    assert center(g) == g.full_set()
    assert is_abelian(g, g.full_set())


def test_subgroup_as_group_reindexes():
    g = build_group("dihedral:16")
    h = subgroup_as_group(g, generated(g, 1))
    assert h.order == 8
    assert sorted(int(v) for v in h.element_orders) == [1, 2, 4, 4, 8, 8, 8, 8]
    assert h.descriptor.startswith("subgroup:")
    with pytest.raises(GroupError):
        subgroup_as_group(g, bits_of([0, 1, 8]))


def test_quotient_group_collapses_center():
    g = build_group("dihedral:16")
    q = quotient_group(g, center(g))
    assert q.order == 8
    assert not is_abelian(q, q.full_set())  # the half-order dihedral group again
    assert q.descriptor.startswith("quotient:")
    with pytest.raises(GroupError, match="normal"):
        quotient_group(g, generated(g, 8))


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
        FiniteGroup([[0] * 513] * 513)
    assert build_group("dihedral:512").order == 512


@pytest.mark.parametrize("n", [513, 10**19, 2**64 - 1])
def test_cap_message_below_2_to_64_names_the_order(n):
    with pytest.raises(CapError) as exc:
        build_group(f"cyclic:{n}")
    assert str(exc.value) == f"group order {n} exceeds construction cap 512"


@pytest.mark.parametrize(
    "spec, bits",
    [
        ("cyclic:18446744073709551616", 65),
        ("cyclic:" + "9" * 4000, 13288),
        ("product:(cyclic:{0},cyclic:{0})".format("9" * 4000), 26576),
    ],
    ids=["2^64", "4000-digits", "product-of-two"],
)
def test_cap_message_names_a_huge_order_by_its_bits(spec, bits):
    # Once a 4049-character line, and for the product Python's "Exceeds
    # the limit (4300 digits) for integer string conversion".
    with pytest.raises(CapError) as exc:
        build_group(spec)
    assert str(exc.value) == f"group order of {bits} bits exceeds construction cap 512"


def test_row_count_is_checked_before_any_entry_is_read():
    class Unreadable:
        def __len__(self):
            return 513

        def __iter__(self):
            raise AssertionError("an entry was read")

    with pytest.raises(CapError, match="^group order 513 exceeds construction cap 512$"):
        FiniteGroup([Unreadable()] * 513)


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
    assert int(g.element_orders[g.inverses[x]]) == int(g.element_orders[x])


@settings(max_examples=30, deadline=None)
@given(small_groups, st.data())
def test_closure_is_a_subgroup_containing_seed(spec, data):
    g = build_group(spec)
    seed = data.draw(
        st.lists(st.integers(min_value=0, max_value=g.order - 1), max_size=3)
    )
    c = bits_of(_generate(g, seed)[0])
    assert is_subgroup(g, c)
    assert set(seed) <= members_of(c)


@settings(max_examples=20, deadline=None)
@given(small_groups)
def test_commutator_with_center_is_trivial(spec):
    g = build_group(spec)
    assert _commutators(g, members_of(center(g)), range(g.order)) == set()


# ------------------------------------------------------- commutator kernel

# The catalog groups of order <= 64, and three that are not p-groups.
KERNEL_GROUPS = [e.source for e in builtin_catalog() if e.build().order <= 64] + [
    f"perm:{Path(__file__).resolve().parent / 'data' / 's3.perm'}",
    "product:(dihedral:8,cyclic:3)",
    "cyclic:6",
]


def commutators_by_definition(t, xs, ys):
    """{x^-1 y^-1 x y} - {e}, with e and the inverses read off the table."""
    e = find_identity(t)
    inv = [row.index(e) for row in t]
    return {t[t[t[inv[x]][inv[y]]][x]][y] for x in xs for y in ys} - {e}


def test_the_commutator_kernel_matches_the_definition():
    for spec in KERNEL_GROUPS:
        g = build_group(spec)
        n = g.order
        for xs, ys in ((range(n), range(n)), (g.generators, range(0, n, 3)), (range(1, n, 2), (n - 1,))):
            assert _commutators(g, xs, ys) == commutators_by_definition(g.table, xs, ys), spec


def test_the_center_commutes_with_every_element():
    for spec in KERNEL_GROUPS:
        g = build_group(spec)
        t = g.table
        everything = range(g.order)
        assert center(g) == bits_of(z for z in everything if all(t[z][y] == t[y][z] for y in everything)), spec


def test_a_group_is_abelian_iff_its_table_is_symmetric():
    for spec in KERNEL_GROUPS:
        g = build_group(spec)
        assert is_abelian(g, g.full_set()) == (g.table == tuple(zip(*g.table))), spec
