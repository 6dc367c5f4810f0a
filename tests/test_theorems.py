"""Theorems that hold at every order, used as oracles for the whole pipeline
(table, lattice, flags, instance and solver) past the reach of brute force."""

from collections import Counter

import pytest

from powcov.cache import LatticeCache, memo_lattice
from powcov.catalog import builtin_catalog
from powcov.cover import FamilySelector, covering_number, sigma_of, verify_witness
from powcov.groups import FiniteGroup, _extension, build_group, is_p_group
from powcov.lattice import is_powerful

POWERFUL = FamilySelector.POWERFUL
ABELIAN = FamilySelector.ABELIAN
PE = FamilySelector.POWERFULLY_EMBEDDED


def _search(g, family, cache):
    """The covering number by the search on g's full lattice, whatever
    sigma_of would read off the group first."""
    return covering_number(g, family, memo_lattice(g, cache))


def test_sigma_pe_is_inf_on_every_non_powerful_builtin_p_group():
    """sigma_PE(G) = INF when the p-group G is not powerful.

    Let N and M be normal and powerfully embedded (PE), with k = 4 at p = 2
    and k = p otherwise.  Then [NM, G] = [N, G][M, G] <= N^k M^k <= (NM)^k,
    so NM is PE too, and G has a largest PE subgroup: the product of all of
    them.  Every PE subgroup lies in it, so a cover by proper PE subgroups
    needs it to be G, and G is PE in itself only when it is powerful
    (Lubotzky & Mann, "Powerful p-groups. I", J. Algebra 1987).
    """
    cache = LatticeCache()
    checked = []
    for entry in builtin_catalog():
        g = entry.build()
        if is_p_group(g) is None or g.is_cyclic() or is_powerful(g, g.full_set()):
            continue
        checked.append(entry.id)
        assert _search(g, PE, cache).infeasible, entry.id
    assert len(checked) == 20


def _split_metacyclic():
    """The noncyclic C_(2^a) x|_r C_(2^b), a, b >= 1, order <= 64: every odd
    r with r^(2^b) = 1 mod 2^a, y acting on x as x -> x^r."""
    for a in range(1, 6):
        x = build_group(f"cyclic:{2**a}")
        for b in range(1, 7 - a):
            for r in range(1, 2**a, 2):
                if pow(r, 2**b, 2**a) == 1:
                    g = FiniteGroup(_extension(x.table, 2**b, [r * i % 2**a for i in range(2**a)], 0))
                    if not g.is_cyclic():
                        yield g


def test_sigma_pe_is_inf_on_every_non_powerful_split_metacyclic_2_group():
    """The theorem above on the split metacyclic 2-groups of order <= 64."""
    cache = LatticeCache()
    noncyclic = rejected = 0
    for g in _split_metacyclic():
        noncyclic += 1
        if not is_powerful(g, g.full_set()):
            rejected += 1
            assert _search(g, PE, cache).infeasible
    assert (noncyclic, rejected) == (41, 18)


# (G, K, families): G is a nonabelian p-group that is not powerful, K a
# powerful p-group for the same p.  sigma_A is checked only when K is
# abelian; modular:32 is not, and its product with dihedral:16 has sigma_A 15
# against 5.
PRODUCTS = [
    ("dihedral:64", "cyclic:4", (POWERFUL, ABELIAN), 17),
    ("dihedral:128", "cyclic:4", (POWERFUL, ABELIAN), 33),
    ("semidihedral:32", "cyclic:8", (POWERFUL, ABELIAN), 9),
    ("quaternion:16", "elementary:2^3", (POWERFUL, ABELIAN), 5),
    ("dihedral:16", "modular:32", (POWERFUL,), 5),
]


@pytest.mark.parametrize("factor, powerful, families, sigma", PRODUCTS)
def test_a_powerful_factor_keeps_sigma_p_and_an_abelian_one_sigma_a(
    factor, powerful, families, sigma
):
    """sigma_P(G x K) = sigma_P(G) for G not powerful and K powerful, and
    sigma_A(G x A) = sigma_A(G) for G nonabelian and A abelian.

    If H_1..H_s is a powerful cover of G, then the H_i x K are proper and
    powerful (a direct product of powerful p-groups is powerful) and cover
    G x K.  Conversely, the projections to G of a powerful cover of G x K
    are powerful (an image of a powerful group is powerful) and cover G; none
    is G itself, because G is not powerful.  The same argument with
    "abelian" in place of "powerful" gives the second identity.
    """
    cache = LatticeCache()
    g = build_group(factor)
    k = build_group(powerful)
    assert not is_powerful(g, g.full_set()) and is_powerful(k, k.full_set())
    product = build_group(f"product:({factor},{powerful})")
    assert product.order == g.order * k.order >= 128
    for family in families:
        assert sigma_of(product, family, cache).size == sigma_of(g, family, cache).size == sigma


def test_sigma_of_agrees_with_the_search_on_every_route():
    """sigma_of answers two kinds of query off the group: every family on a
    cyclic group, which is no union of proper subgroups, and sigma_PE on a
    p-group that is not powerful (the first theorem above).  The search
    answers the rest.  Every answer must give the search's status and size
    on the full lattice, and every witness must pass verify_witness."""
    cache = LatticeCache()
    groups = [entry.build() for entry in builtin_catalog()] + list(_split_metacyclic())
    groups += [build_group(f"product:({g},{k})") for g, k, _, _ in PRODUCTS]
    routes = Counter()
    for g in groups:
        for family in FamilySelector:
            res = sigma_of(g, family, cache)
            search = _search(g, family, cache)
            assert (res.status, res.size) == (search.status, search.size), (g, family)
            if g.is_cyclic():
                assert res.route == "cyclic"
            elif family is PE and not is_powerful(g, g.full_set()):
                assert res.route == "not powerful"
            else:
                assert res.route == "search" and res == search
            assert res.infeasible or verify_witness(g, family, res.witness)
            routes[res.route] += 1
    # the catalog, then the split metacyclic groups, then the products
    assert routes == {"cyclic": 180, "not powerful": 20 + 18 + 5, "search": 128 + 146 + 15}
