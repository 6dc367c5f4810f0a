"""Relabelling invariance: an oracle that reaches any order.

Renaming the elements of a group by a permutation gives an isomorphic
group, so every answer must survive it: the lattice size, the multiset of
subgroup flags and the four covering numbers.  Any place where an index
order leaks into an answer (the canonical sort, the chunk boundaries, the
greedy basis, the dominance tie-breaks, the identity's label) would show.
"""

from collections import Counter

import numpy as np
import pytest

from powcov.catalog import builtin_catalog
from powcov.cover import FamilySelector, covering_number
from powcov.groups import FiniteGroup, GroupError, build_group
from powcov.lattice import classify_small, enumerate_subgroups

# Past the built-in catalog: groups that are not p-groups, which take the
# extension path.
NON_P_GROUPS = ("cyclic:12", "product:(dihedral:8,cyclic:3)", "product:(quaternion:8,cyclic:3)")
SPECS = [e.source for e in builtin_catalog()] + list(NON_P_GROUPS)


def relabelled(g: FiniteGroup, perm: np.ndarray) -> FiniteGroup:
    """g with each element x renamed perm[x]."""
    old = np.argsort(perm)  # old[perm[x]] = x
    return FiniteGroup(perm[np.asarray(g.table)[old[:, None], old[None, :]]])


def invariants(g: FiniteGroup):
    lat = enumerate_subgroups(g)
    maximal = set(lat.maximal())
    flags = Counter(
        (s.order, s.is_abelian, s.is_normal, s.bits in maximal, s.is_powerful,
         s.is_powerfully_embedded, classify_small(g, s.bits))
        for s in lat.subgroups
    )
    sigmas = {}
    for family in FamilySelector:
        try:
            res = covering_number(g, family, lat=lat)
        except GroupError:
            continue  # the family is undefined off p-groups
        sigmas[family] = res.size
    return len(lat), flags, sigmas


@pytest.mark.parametrize("spec", SPECS)
def test_answers_survive_relabelling(spec):
    g = build_group(spec)
    perm = np.random.default_rng(20190).permutation(g.order)
    assert invariants(relabelled(g, perm)) == invariants(g)

