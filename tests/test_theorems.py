"""Theorems that hold at every order, used as oracles for the whole pipeline
(table, lattice, flags, instance and solver) past the reach of brute force."""

import pytest

from powcov.cache import LatticeCache
from powcov.catalog import builtin_catalog
from powcov.cover import FamilySelector
from powcov.groups import build_group, is_p_group
from powcov.lattice import is_powerful
from powcov.verify import sigma_of

POWERFUL = FamilySelector.POWERFUL
ABELIAN = FamilySelector.ABELIAN


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
        assert sigma_of(g, FamilySelector.POWERFULLY_EMBEDDED, cache).infeasible, entry.id
    assert len(checked) == 20


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
