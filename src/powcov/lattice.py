"""Complete subgroup lattices of small groups, with structural flags.

Two enumeration paths, chosen by the group's order:

* p-groups descend from G by the Burnside basis theorem.  For each subgroup
  K found, Phi(K) = K^p [K, K] is the Frattini subgroup, K/Phi(K) is the
  vector space F_p^d, and the maximal subgroups of K are exactly the
  preimages of its hyperplanes.  Every subgroup of a p-group lies on a chain
  of maximal subgroups down from G, so the descent reaches all of them with
  one Frattini computation per subgroup and no closure per candidate.
* Every other group (and the trivial one) starts from the trivial subgroup
  and extends every subgroup found by a generator of each cyclic subgroup
  outside it, until no new subgroup appears.  Every subgroup is generated by
  its cyclic subgroups, so that is exhaustive for any finite group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitset import ElementSet
from .groups import (
    FiniteGroup,
    GroupError,
    closure,
    commutator_subgroup,
    is_abelian,
    is_normal,
    is_p_group,
    is_subgroup,
    power_subgroup,
)

__all__ = [
    "Subgroup",
    "Lattice",
    "enumerate_subgroups",
    "maximal_subgroups",
    "is_powerful",
    "is_powerfully_embedded",
    "classify_small",
]


def _power_index(g: FiniteGroup) -> int:
    """The exponent used by the powerful/powerfully-embedded tests: 4 at p=2, else p."""
    p = is_p_group(g)
    if p is None:
        raise GroupError("powerful-subgroup predicates require a nontrivial p-group")
    return 4 if p == 2 else p


def is_powerful(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff [H, H] lies inside H^4 (p = 2) or H^p (p odd).

    The test is intrinsic to H: both sides are computed from H's own
    elements, so the answer is independent of the ambient group.
    """
    k = _power_index(g)
    comm = commutator_subgroup(g, members, members)
    return comm.issubset(power_subgroup(g, members, k))


def is_powerfully_embedded(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff N is normal with [N, G] inside N^4 (p = 2) or N^p (p odd).

    [N, G] <= N^k <= N already forces normality, but the explicit check
    keeps the reported reason honest when the argument is not normal.
    """
    k = _power_index(g)
    if not is_normal(g, members):
        return False
    comm = commutator_subgroup(g, members, g.full_set())
    return comm.issubset(power_subgroup(g, members, k))


def classify_small(g: FiniteGroup, members: ElementSet) -> str:
    """Coarse isomorphism-type tag used in lattice reports.

    One of "trivial", "cyclic(m)", "klein", "dihedral(m)", "quaternion-like"
    (noncyclic 2-group with a unique involution), or "other".  m is the
    subgroup's total order.
    """
    if not is_subgroup(g, members):
        raise GroupError("element set is not a subgroup")
    h = len(members)
    if h == 1:
        return "trivial"
    idx = np.fromiter(members, dtype=np.int64, count=h)
    orders = g.element_orders[idx]
    if (orders == h).any():
        return f"cyclic({h})"
    if h == 4 and (orders <= 2).all():
        return "klein"

    invol = idx[orders == 2]
    if h % 2 == 0:
        half = h // 2
        mask = np.zeros(g.order, dtype=bool)
        mask[idx] = True
        for a in invol:
            for b in invol:
                if a == b:
                    continue
                c = g.table[a, b]
                if g.element_orders[c] != half:
                    continue
                # <a, b> = <c> u a<c>, which is all of H unless a lies in <c>.
                cur = int(c)
                in_cyc = False
                while cur != g.identity:
                    if cur == a:
                        in_cyc = True
                        break
                    cur = g.mul(cur, int(c))
                if not in_cyc:
                    return f"dihedral({h})"

    two_power = h & (h - 1) == 0
    if two_power and invol.size == 1:
        return "quaternion-like"
    return "other"


@dataclass(frozen=True)
class Subgroup:
    """One node of a subgroup lattice, with precomputed structural flags."""

    elements: ElementSet
    order: int
    is_proper: bool
    is_abelian: bool
    is_normal: bool
    is_maximal: bool
    is_powerful: Optional[bool]
    is_powerfully_embedded: Optional[bool]
    tag: str


@dataclass(frozen=True)
class Lattice:
    """All subgroups of a group, sorted by (order, membership bit pattern)."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    def proper(self) -> tuple[Subgroup, ...]:
        return tuple(s for s in self.subgroups if s.is_proper)

    def counts(self) -> dict:
        out = {
            "subgroups": len(self.subgroups),
            "proper": 0,
            "abelian": 0,
            "normal": 0,
            "maximal": 0,
            "powerful": 0,
            "powerfully_embedded": 0,
        }
        for s in self.subgroups:
            out["proper"] += s.is_proper
            out["abelian"] += s.is_abelian
            out["normal"] += s.is_normal
            out["maximal"] += s.is_maximal
            out["powerful"] += bool(s.is_powerful)
            out["powerfully_embedded"] += bool(s.is_powerfully_embedded)
        return out


def _extend(table: np.ndarray, mask: np.ndarray, g: int) -> np.ndarray:
    """Close an existing subgroup (given as a bool mask) together with element g.

    Each round multiplies the current set by itself, which at least doubles
    the word length it covers, so the loop runs O(log |result|) times.
    """
    mask = mask.copy()
    mask[g] = True
    count = int(mask.sum())
    while True:
        members = np.flatnonzero(mask)
        mask[table[np.ix_(members, members)].ravel()] = True
        new_count = int(mask.sum())
        if new_count == count:
            return mask
        count = new_count


def _mask_bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _subgroups_by_extension(g: FiniteGroup) -> set[int]:
    """Bitmasks of every subgroup of any finite group, by cyclic extension.

    <H, x> depends only on <x>, so each subgroup is extended by one
    generator of each cyclic subgroup outside it.
    """
    n = g.order
    table = g.table
    seen: set[int] = set()
    queue: list[np.ndarray] = []

    def admit(mask: np.ndarray) -> bool:
        bits = _mask_bits(mask)
        if bits in seen:
            return False
        seen.add(bits)
        queue.append(mask)
        return True

    seed = np.zeros(n, dtype=bool)
    seed[g.identity] = True
    admit(seed)
    generators = []
    for s in range(n):
        mask = seed.copy()
        cur = s
        while cur != g.identity:
            mask[cur] = True
            cur = int(table[cur, s])
        if admit(mask):
            generators.append(s)

    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        for x in generators:
            if not mask[x]:
                admit(_extend(table, mask, x))
    return seen


def _frattini_coordinates(
    g: FiniteGroup, mask: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The members of a p-subgroup K and their images in K/Phi(K) = F_p^d.

    Returns (members, coords) with coords[i] the coordinate vector of
    members[i].  The basis x_1..x_d is greedy: each x_i is the least member
    outside <Phi(K), x_1..x_{i-1}>.  That subgroup is normal in K with
    quotient of order p, so adjoining x_i is the union of its cosets by
    x_i^j for 0 <= j < p, and the members of the j-th coset gain coordinate j.
    """
    k = ElementSet(_mask_bits(mask), g.order)
    frattini = closure(g, commutator_subgroup(g, k, k) | power_subgroup(g, k, p))
    d = 0
    index = len(k) // len(frattini)
    while index > 1:
        index //= p
        d += 1

    table = g.table
    members = np.flatnonzero(mask)
    coords = np.zeros((g.order, d), dtype=np.int64)
    spanned = np.zeros(g.order, dtype=bool)
    spanned[list(frattini)] = True
    for i in range(d):
        x = int(members[~spanned[members]][0])
        span = np.flatnonzero(spanned)
        power = x
        for j in range(1, p):
            coset = table[span, power]
            coords[coset] = coords[span]
            coords[coset, i] = j
            spanned[coset] = True
            power = int(table[power, x])
    return members, coords[members]


def _hyperplane_functionals(p: int, d: int) -> np.ndarray:
    """(d, (p^d - 1)/(p - 1)) array: one functional per hyperplane of F_p^d,
    normalised so that its first nonzero coordinate is 1."""
    cols = [
        (0,) * lead + (1,) + tail
        for lead in range(d)
        for tail in itertools.product(range(p), repeat=d - lead - 1)
    ]
    return np.array(cols, dtype=np.int64).T


def _subgroups_by_descent(g: FiniteGroup, p: int) -> set[int]:
    """Bitmasks of every subgroup of the p-group g, descending through
    maximal subgroups: those of K are the hyperplane preimages in K/Phi(K)."""
    full = np.ones(g.order, dtype=bool)
    seen = {_mask_bits(full)}
    queue = [full]
    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        if mask.sum() == 1:
            continue
        members, coords = _frattini_coordinates(g, mask, p)
        inside = (coords @ _hyperplane_functionals(p, coords.shape[1])) % p == 0
        for column in inside.T:
            sub = np.zeros(g.order, dtype=bool)
            sub[members[column]] = True
            bits = _mask_bits(sub)
            if bits not in seen:
                seen.add(bits)
                queue.append(sub)
    return seen


def enumerate_subgroups(g: FiniteGroup) -> Lattice:
    """Every subgroup of g, flags included."""
    n = g.order
    p = is_p_group(g)
    known = _subgroups_by_extension(g) if p is None else _subgroups_by_descent(g, p)

    p_defined = p is not None
    entries = []
    for bits in known:
        es = ElementSet(bits, n)
        order = len(es)
        entries.append(
            {
                "elements": es,
                "order": order,
                "is_proper": order < n,
                "is_abelian": is_abelian(g, es),
                "is_normal": is_normal(g, es),
                "is_powerful": is_powerful(g, es) if p_defined else None,
                "is_powerfully_embedded": (
                    is_powerfully_embedded(g, es) if p_defined else None
                ),
                "tag": classify_small(g, es),
            }
        )

    entries.sort(key=lambda e: (e["order"], e["elements"].membership_key()))
    proper_bits = [e["elements"].bits for e in entries if e["is_proper"]]
    for e in entries:
        b = e["elements"].bits
        e["is_maximal"] = e["is_proper"] and not any(
            b != other and b & other == b for other in proper_bits
        )
    return Lattice(group=g, subgroups=tuple(Subgroup(**e) for e in entries))


def maximal_subgroups(g: FiniteGroup, lattice: Optional[Lattice] = None) -> tuple[Subgroup, ...]:
    """The proper subgroups not contained in any other proper subgroup."""
    if lattice is None:
        lattice = enumerate_subgroups(g)
    return tuple(s for s in lattice.subgroups if s.is_maximal)
