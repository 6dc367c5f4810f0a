"""Minimum covers of a group by restricted families of proper subgroups.

A covering-number query (sigma, sigma_A, sigma_P, sigma_PE) becomes an exact
set-cover instance: the universe is the whole group, the candidates are the
proper subgroups passing the family predicate, reduced by dominance.  The
exact solver is a deterministic branch-and-bound over integer bitmasks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .bitset import ElementSet
from .groups import FiniteGroup, GroupError, is_abelian, is_subgroup
from .lattice import (
    Lattice,
    Subgroup,
    enumerate_subgroups,
    is_powerful,
    is_powerfully_embedded,
)

__all__ = [
    "FamilySelector",
    "CoverInstance",
    "CoverResult",
    "OPTIMAL",
    "INFEASIBLE",
    "build_instance",
    "solve_greedy",
    "solve_exact",
    "covering_number",
    "verify_witness",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class FamilySelector(Enum):
    """Which proper subgroups may participate in a cover."""

    ALL = "all"
    ABELIAN = "abelian"
    POWERFUL = "powerful"
    POWERFULLY_EMBEDDED = "powerfully-embedded"

    @classmethod
    def from_name(cls, name: str) -> "FamilySelector":
        key = name.strip().lower().replace("_", "-")
        aliases = {"pe": cls.POWERFULLY_EMBEDDED}
        if key in aliases:
            return aliases[key]
        for fam in cls:
            if fam.value == key:
                return fam
        raise GroupError(f"unknown family {name!r}; expected one of "
                         f"{[f.value for f in cls]} or 'pe'")

    @property
    def sigma_label(self) -> str:
        return {
            FamilySelector.ALL: "sigma",
            FamilySelector.ABELIAN: "sigma_A",
            FamilySelector.POWERFUL: "sigma_P",
            FamilySelector.POWERFULLY_EMBEDDED: "sigma_PE",
        }[self]

    def admits(self, s: Subgroup) -> bool:
        if self is FamilySelector.ALL:
            return True
        if self is FamilySelector.ABELIAN:
            return s.is_abelian
        flag = (
            s.is_powerful
            if self is FamilySelector.POWERFUL
            else s.is_powerfully_embedded
        )
        if flag is None:
            raise GroupError(
                f"{self.value} family is undefined: ambient group is not a p-group"
            )
        return flag


@dataclass(frozen=True)
class CoverInstance:
    """An exact-cover problem: cover the universe with the candidate sets."""

    universe: ElementSet
    candidates: tuple[ElementSet, ...]


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a cover search.

    witness holds the chosen members as element sets, in the order the
    solver committed to them (the first optimum reached in canonical
    order); it is empty when the instance is infeasible.
    """

    status: str
    size: Optional[int]
    witness: tuple[ElementSet, ...]
    nodes_explored: int
    elapsed: float

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
    chosen = [s for s in reversed(lat.subgroups) if s.is_proper and family.admits(s)]
    kept: list[Subgroup] = []
    for s in chosen:
        if not any(
            s.elements.bits & ~t.elements.bits == 0 for t in kept
        ):
            kept.append(s)
    return CoverInstance(
        universe=g.full_set(),
        candidates=tuple(s.elements for s in kept),
    )


def solve_greedy(inst: CoverInstance):
    """Largest-gain-first greedy; ties go to the lower candidate index.

    Returns (size, witness) or None when the candidates cannot cover at all.
    """
    universe = inst.universe.bits
    cands = [c.bits for c in inst.candidates]
    covered = 0
    for c in cands:
        covered |= c
    if universe & ~covered:
        return None
    uncovered = universe
    witness = []
    while uncovered:
        best_i = -1
        best_gain = 0
        for i, c in enumerate(cands):
            gain = (c & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        witness.append(best_i)
        uncovered &= ~cands[best_i]
    return len(witness), tuple(inst.candidates[i] for i in witness)


def solve_exact(inst: CoverInstance) -> CoverResult:
    """Minimum cover by deterministic branch-and-bound.

    Branching picks the uncovered element lying in the fewest candidates
    (smallest element index on ties); children are tried by descending
    candidate size, then ascending candidate index.  The greedy size seeds
    the bound, and nodes are cut by ceil(|uncovered| / max gain).  The
    witness reported is the first optimum the canonical order reaches.
    """
    t0 = time.perf_counter()
    universe = inst.universe.bits
    cands = [c.bits for c in inst.candidates]
    m = len(cands)

    covered = 0
    for c in cands:
        covered |= c
    if universe & ~covered:
        return CoverResult(INFEASIBLE, None, (), 0, time.perf_counter() - t0)

    sizes = [c.bit_count() for c in cands]
    elem_cands: dict[int, list[int]] = {}
    rest = universe
    while rest:
        low = rest & -rest
        e = low.bit_length() - 1
        rest ^= low
        owners = [i for i in range(m) if cands[i] >> e & 1]
        owners.sort(key=lambda i: (-sizes[i], i))
        elem_cands[e] = owners

    greedy = solve_greedy(inst)
    assert greedy is not None
    best_size = greedy[0]
    best_witness: Optional[tuple[int, ...]] = None
    stack: list[int] = []
    nodes = 0

    def dfs(uncovered: int) -> None:
        nonlocal best_size, best_witness, nodes
        nodes += 1
        if not uncovered:
            size = len(stack)
            if size < best_size or (size == best_size and best_witness is None):
                best_size = size
                best_witness = tuple(stack)
            return
        limit = best_size if best_witness is None else best_size - 1
        if len(stack) >= limit:
            return
        max_gain = max((c & uncovered).bit_count() for c in cands)
        need = -(-uncovered.bit_count() // max_gain)
        if len(stack) + need > limit:
            return

        branch_e = -1
        branch_count = m + 1
        rest = uncovered
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            k = len(elem_cands[e])
            if k < branch_count:
                branch_count = k
                branch_e = e
        for i in elem_cands[branch_e]:
            stack.append(i)
            dfs(uncovered & ~cands[i])
            stack.pop()

    dfs(universe)
    assert best_witness is not None
    members = tuple(inst.candidates[i] for i in best_witness)
    return CoverResult(OPTIMAL, best_size, members, nodes, time.perf_counter() - t0)


def covering_number(
    g: FiniteGroup,
    family: FamilySelector,
    lat: Optional[Lattice] = None,
) -> CoverResult:
    """sigma of g with respect to the family; Infeasible when no cover exists."""
    if lat is None:
        lat = enumerate_subgroups(g)
    return solve_exact(build_instance(g, lat, family))


def verify_witness(
    g: FiniteGroup, family: FamilySelector, witness: Sequence[ElementSet]
) -> bool:
    """Re-check a purported cover from scratch, independent of the solver.

    Each member must be a proper subgroup passing the family predicate,
    freshly recomputed, and the union must be the whole group.
    """
    union = 0
    for w in witness:
        if w.n != g.order or not is_subgroup(g, w):
            return False
        if len(w) == g.order:
            return False
        if family is FamilySelector.ABELIAN:
            if not is_abelian(g, w):
                return False
        elif family is FamilySelector.POWERFUL:
            if not is_powerful(g, w):
                return False
        elif family is FamilySelector.POWERFULLY_EMBEDDED:
            if not is_powerfully_embedded(g, w):
                return False
        union |= w.bits
    return union == g.full_set().bits
