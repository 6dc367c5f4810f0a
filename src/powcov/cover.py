"""Minimum covers of a group by restricted families of proper subgroups.

A covering-number query (sigma, sigma_A, sigma_P, sigma_PE) that the group
alone does not answer (see sigma_of) becomes an exact set-cover instance:
the universe is the whole group, the candidates are the proper subgroups
passing the family predicate, reduced by dominance.  The exact solver is a
deterministic branch-and-bound over integer bitmasks.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .cache import LatticeCache, memo_lattice
from .groups import FiniteGroup, GroupError, is_abelian, is_p_group, is_subgroup
from .lattice import Lattice, Subgroup, _dominant, _subgroups_by_extension
from .lattice import is_powerful, is_powerfully_embedded

__all__ = [
    "FamilySelector",
    "FamilyUndefinedError",
    "CoverInstance",
    "CoverResult",
    "OPTIMAL",
    "INFEASIBLE",
    "build_instance",
    "solve_greedy",
    "solve_exact",
    "covering_number",
    "sigma_of",
    "verify_witness",
    "verify_infeasible",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class FamilyUndefinedError(GroupError):
    """The family is not defined on this group (powerful off a p-group)."""


class FamilySelector(Enum):
    """Which proper subgroups may participate in a cover: the one table of a
    family.  Each member holds its CLI name (its value) and aliases, its
    sigma label (also its sweep CSV column), the lattice.FLAGS key that
    admits a subgroup (None: every one) and the public predicate that
    verify_witness and verify_infeasible re-check with."""

    ALL = ("all", (), "sigma", None, is_subgroup)
    ABELIAN = ("abelian", (), "sigma_A", "abelian", is_abelian)
    POWERFUL = ("powerful", (), "sigma_P", "powerful", is_powerful)
    POWERFULLY_EMBEDDED = (
        "powerfully-embedded", ("pe",), "sigma_PE", "powerfully_embedded", is_powerfully_embedded
    )

    def __new__(cls, name, aliases, sigma_label, flag, predicate):
        family = object.__new__(cls)
        family._value_ = name
        family.aliases = aliases
        family.sigma_label = sigma_label
        family.flag = flag
        family.predicate = predicate
        return family

    @classmethod
    def from_name(cls, name: str) -> "FamilySelector":
        key = name.strip().lower().replace("_", "-")
        for fam in cls:
            if key == fam.value or key in fam.aliases:
                return fam
        aliases = ", ".join(repr(a) for fam in cls for a in fam.aliases)
        raise GroupError(f"unknown family {name!r}; expected one of "
                         f"{[f.value for f in cls]} or {aliases}")

    def admits(self, s: Subgroup) -> bool:
        return self.flag is None or getattr(s, "is_" + self.flag)

    def require(self, g: FiniteGroup) -> None:
        """Raise FamilyUndefinedError where the family is undefined on g."""
        powerful = self.flag in ("powerful", "powerfully_embedded")
        if powerful and g.order > 1 and is_p_group(g) is None:
            raise FamilyUndefinedError(
                f"{self.value} family is undefined: ambient group is not a p-group"
            )


class CoverInstance(NamedTuple):
    """An exact-cover problem: cover the universe with the candidate sets,
    all bitmasks of the group's elements."""

    universe: int
    candidates: tuple[int, ...]


class CoverResult(NamedTuple):
    """Outcome of a cover search.

    witness holds the chosen members as bitmasks, in the order the
    solver committed to them (the first optimum reached in canonical
    order); it is empty when the instance is infeasible.  route names the
    step of sigma_of that answered.
    """

    status: str
    size: Optional[int]
    witness: tuple[int, ...]
    nodes_explored: int
    route: str = "search"

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def infeasible(self) -> bool:
        return self.status == INFEASIBLE


def build_instance(g: FiniteGroup, lat: Lattice, family: FamilySelector) -> CoverInstance:
    """Select and reduce the family's proper subgroups as cover candidates.

    Candidates contained in another candidate are dropped: replacing a set
    by a containing candidate never enlarges a cover, so at least one
    optimal solution survives.  Candidate order is the lattice's canonical
    order reversed: descending subgroup order, ties broken by descending
    membership vector, which is the index order all tie-breaking downstream
    refers to.
    """
    family.require(g)
    chosen = [s.bits for s in reversed(lat.subgroups) if s.is_proper and family.admits(s)]
    return CoverInstance(universe=g.full_set(), candidates=tuple(_dominant(chosen)))


def solve_greedy(inst: CoverInstance):
    """Largest-gain-first greedy; ties go to the lower candidate index.

    Returns (size, witness) or None when the candidates cannot cover at all.
    """
    cands = inst.candidates
    uncovered = inst.universe
    witness = []
    while uncovered:
        best_gain = 0
        for i, c in enumerate(cands):
            gain = (c & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if not best_gain:
            return None
        witness.append(best_i)
        uncovered &= ~cands[best_i]
    return len(witness), tuple(inst.candidates[i] for i in witness)


def solve_exact(inst: CoverInstance) -> CoverResult:
    """Minimum cover by deterministic branch-and-bound, one loop over a stack.

    The greedy decides feasibility and its size + 1 seeds the bound, which
    only a smaller cover lowers, so the witness reported is the first optimum
    the canonical order reaches.  Branching picks the first uncovered element
    in an order sorted once by (owner count, element); children pop by
    descending size, then index.  Nodes are counted as they pop and cut by
    ceil(|uncovered| / max gain).
    """
    greedy = solve_greedy(inst)
    if greedy is None:
        return CoverResult(INFEASIBLE, None, (), 0)

    universe = inst.universe
    cands = inst.candidates
    sizes = [c.bit_count() for c in cands]
    elem_cands = {
        e: sorted((i for i, c in enumerate(cands) if c >> e & 1), key=lambda i: (-sizes[i], i))
        for e in range(universe.bit_length())
        if universe >> e & 1
    }
    branch_order = sorted(elem_cands, key=lambda e: (len(elem_cands[e]), e))

    best_size = greedy[0] + 1
    best: tuple[int, ...] = ()
    nodes = 0
    stack = [(universe, ())]  # (uncovered, chosen candidate indices)
    while stack:
        uncovered, chosen = stack.pop()
        nodes += 1
        if not uncovered:
            if len(chosen) < best_size:
                best_size, best = len(chosen), chosen
            continue
        if len(chosen) + 1 >= best_size:
            continue
        max_gain = max((c & uncovered).bit_count() for c in cands)
        need = -(-uncovered.bit_count() // max_gain)
        if len(chosen) + need >= best_size:
            continue
        branch_e = next(e for e in branch_order if uncovered >> e & 1)
        stack.extend((uncovered & ~cands[i], chosen + (i,)) for i in reversed(elem_cands[branch_e]))
    assert best_size <= greedy[0], "the search recorded no cover"
    members = tuple(inst.candidates[i] for i in best)
    return CoverResult(OPTIMAL, best_size, members, nodes)


def covering_number(g: FiniteGroup, family: FamilySelector, lat: Lattice) -> CoverResult:
    """sigma of g with respect to the family, solved on g's lattice lat;
    Infeasible when no cover exists."""
    return solve_exact(build_instance(g, lat, family))


def sigma_of(g: FiniteGroup, family: FamilySelector, cache: LatticeCache) -> CoverResult:
    """The covering query every command answers through, settled in this
    order: the family must be defined on g; a cyclic group, a union of no
    proper subgroups, is INF (route "cyclic"); powerfully embedded subgroups
    generate one (Lubotzky & Mann 1987), so sigma_PE of a p-group that is not
    powerful is INF ("not powerful"); only the rest reads g's lattice from
    cache, for the search ("search")."""
    family.require(g)
    if g.is_cyclic():
        return CoverResult(INFEASIBLE, None, (), 0, "cyclic")
    if family is FamilySelector.POWERFULLY_EMBEDDED and not is_powerful(g, g.full_set()):
        return CoverResult(INFEASIBLE, None, (), 0, "not powerful")
    return covering_number(g, family, memo_lattice(g, cache))


def verify_witness(
    g: FiniteGroup, family: FamilySelector, witness: Sequence[int]
) -> bool:
    """Re-check a purported cover from scratch, independent of the solver.

    Each member must be a proper subgroup passing the family's predicate,
    freshly recomputed, and the union must be the whole group.
    """
    union = 0
    for w in witness:
        if not is_subgroup(g, w) or w == g.full_set() or not family.predicate(g, w):
            return False
        union |= w
    return union == g.full_set()


def verify_infeasible(g: FiniteGroup, family: FamilySelector, lat: Lattice) -> bool:
    """Re-check a search's INF answer apart from the solver and the cache: the
    least element x outside every admitted proper subgroup of lat must lie in
    no proper subgroup that passes the family's predicate, recomputed.  The
    subgroups that hold x are found afresh from g's table, not from lat.
    """
    whole = missing = g.full_set()
    for s in lat.subgroups:
        if s.is_proper and family.admits(s):
            missing &= ~s.bits
    if not missing:
        return False
    holders = _subgroups_by_extension(g, (missing & -missing).bit_length() - 1)
    return not any(family.predicate(g, h) for h in holders if h != whole)
