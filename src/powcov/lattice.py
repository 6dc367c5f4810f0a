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

Each subgroup K is checked to be a subgroup once, when it enters the
lattice; its flags then come from data the descent already holds, with no
second check:

* abelian: [K, K] is trivial.  The descent computed [K, K] for Phi(K).
* normal: conjugating K by each element of G's own Burnside basis keeps K
  inside K.  The normaliser of K is a subgroup, so it is all of G once it
  holds a generating set of G.
* powerful: [K, K] lies in K^k, with k = p at odd p (the K^p of Phi(K))
  and k = 4 at p = 2 (the closure of the 4th powers of K's members).
* powerfully embedded: K is normal and [x, y] lies in K^k for every x in
  K's Burnside basis and every y in G's.  [K, G] is the normal closure in G
  of those [x, y] (Robinson 5.1.7), and K^k is characteristic in K, hence
  normal in G, so it holds [K, G] iff it holds them.
* maximal: a proper subgroup no larger maximal subgroup contains.

Groups that are not p-groups get the abelian and normal flags from the same
cores, with every element of G as a conjugator, and no powerful flags.  The
public is_powerful and is_powerfully_embedded check their argument, compute
the same inputs from scratch and call the same flag code.
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
    _commutator_subgroup,
    _commutator_values,
    _is_normal,
    _power_map,
    _power_subgroup,
    _require_subgroup,
    closure,
    is_normal,  # re-exported: perfbench's traced pass looks it up here by name
    is_p_group,
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


def _powerful(commutators: ElementSet, power: ElementSet) -> bool:
    """[K, K] <= K^k, given both sides."""
    return commutators.issubset(power)


def _powerfully_embedded(
    g: FiniteGroup, normal: bool, k_gens: np.ndarray, g_gens: np.ndarray, power: ElementSet
) -> bool:
    """K normal with [K, G] <= K^k, given generators of K and of G.

    Exact on generators: [K, G] is the normal closure in G of the [x, y]
    with x in k_gens and y in g_gens (Robinson, A Course in the Theory of
    Groups, 5.1.7), and K^k, characteristic in the normal subgroup K, is
    normal in G.  So K^k contains [K, G] iff it contains those [x, y].
    Those [x, y] lying in K already force K to be normal, as
    y^-1 x y = x [x, y]; the normal test only skips the work when K is not.
    """
    if not normal:
        return False
    inside = np.zeros(g.order, dtype=bool)
    inside[list(power)] = True
    return bool(inside[_commutator_values(g, k_gens, g_gens)].all())


def is_powerful(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff [H, H] lies inside H^4 (p = 2) or H^p (p odd).

    The test is intrinsic to H: both sides are computed from H's own
    elements, so the answer is independent of the ambient group.
    """
    k = _power_index(g)
    idx = _require_subgroup(g, members, "argument")
    power = _power_subgroup(g, idx, _power_map(g, k))
    return _powerful(_commutator_subgroup(g, idx, idx), power)


def is_powerfully_embedded(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff N is normal with [N, G] inside N^4 (p = 2) or N^p (p odd).

    [N, G] <= N^k <= N already forces normality, but the explicit check
    keeps the reported reason honest when the argument is not normal.
    """
    k = _power_index(g)
    idx = _require_subgroup(g, members, "argument")
    everything = np.arange(g.order, dtype=np.int64)
    power = _power_subgroup(g, idx, _power_map(g, k))
    return _powerfully_embedded(g, _is_normal(g, idx, everything), idx, everything, power)


def classify_small(g: FiniteGroup, members: ElementSet) -> str:
    """Coarse isomorphism-type tag used in lattice reports.

    One of "trivial", "cyclic(m)", "klein", "dihedral(m)", "quaternion-like"
    (noncyclic 2-group with a unique involution), or "other".  m is the
    subgroup's total order.
    """
    return _classify(g, _require_subgroup(g, members, "element set"))


def _classify(g: FiniteGroup, idx: np.ndarray) -> str:
    h = len(idx)
    if h == 1:
        return "trivial"
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


@dataclass(frozen=True)
class _Frattini:
    """What the descent computes for one subgroup K of a p-group."""

    members: np.ndarray       # K's elements, ascending
    commutators: ElementSet   # [K, K]
    powers: ElementSet        # K^p
    basis: np.ndarray         # a Burnside basis of K/Phi(K); it generates K


def _frattini_coordinates(
    g: FiniteGroup, mask: np.ndarray, p: int, power_p: np.ndarray
) -> tuple[_Frattini, np.ndarray]:
    """K's Frattini record, and the images of its members in K/Phi(K) = F_p^d.

    power_p is the map x -> x^p on g.  Returns (record, coords) with
    coords[i] the coordinate vector of record.members[i].  The basis
    x_1..x_d is greedy: each x_i is the least member outside
    <Phi(K), x_1..x_{i-1}>.  That subgroup is normal in K with quotient of
    order p, so adjoining x_i is the union of its cosets by x_i^j for
    0 <= j < p, and the members of the j-th coset gain coordinate j.
    """
    members = np.flatnonzero(mask)
    commutators = _commutator_subgroup(g, members, members)
    powers = _power_subgroup(g, members, power_p)
    # K^p[K, K] is K^p whenever K^p already holds [K, K], as it always does at p = 2.
    frattini = powers if commutators.issubset(powers) else closure(g, commutators | powers)
    d = 0
    index = len(members) // len(frattini)
    while index > 1:
        index //= p
        d += 1

    table = g.table
    coords = np.zeros((g.order, d), dtype=np.int64)
    spanned = np.zeros(g.order, dtype=bool)
    spanned[list(frattini)] = True
    basis = np.zeros(d, dtype=np.int64)
    for i in range(d):
        x = int(members[~spanned[members]][0])
        basis[i] = x
        span = np.flatnonzero(spanned)
        power = x
        for j in range(1, p):
            coset = table[span, power]
            coords[coset] = coords[span]
            coords[coset, i] = j
            spanned[coset] = True
            power = int(table[power, x])
    return _Frattini(members, commutators, powers, basis), coords[members]


def _hyperplane_functionals(p: int, d: int) -> np.ndarray:
    """(d, (p^d - 1)/(p - 1)) array: one functional per hyperplane of F_p^d,
    normalised so that its first nonzero coordinate is 1."""
    cols = [
        (0,) * lead + (1,) + tail
        for lead in range(d)
        for tail in itertools.product(range(p), repeat=d - lead - 1)
    ]
    return np.array(cols, dtype=np.int64).T


def _subgroups_by_descent(g: FiniteGroup, p: int) -> dict[int, _Frattini]:
    """Every subgroup of the p-group g, as {bitmask: Frattini record},
    descending through maximal subgroups: those of K are the hyperplane
    preimages in K/Phi(K)."""
    power_p = _power_map(g, p)
    full = np.ones(g.order, dtype=bool)
    records: dict[int, _Frattini] = {}
    queue = [(_mask_bits(full), full)]
    seen = {queue[0][0]}
    head = 0
    while head < len(queue):
        bits, mask = queue[head]
        head += 1
        record, coords = _frattini_coordinates(g, mask, p, power_p)
        records[bits] = record
        if not record.basis.size:
            continue
        inside = (coords @ _hyperplane_functionals(p, coords.shape[1])) % p == 0
        for column in inside.T:
            sub = np.zeros(g.order, dtype=bool)
            sub[record.members[column]] = True
            sub_bits = _mask_bits(sub)
            if sub_bits not in seen:
                seen.add(sub_bits)
                queue.append((sub_bits, sub))
    return records


def _entry(
    g: FiniteGroup,
    es: ElementSet,
    idx: np.ndarray,
    commutators: ElementSet,
    normal: bool,
    powerful: Optional[bool],
    embedded: Optional[bool],
) -> dict:
    return {
        "elements": es,
        "order": len(idx),
        "is_proper": len(idx) < g.order,
        "is_abelian": len(commutators) == 1,
        "is_normal": normal,
        "is_powerful": powerful,
        "is_powerfully_embedded": embedded,
        "tag": _classify(g, idx),
    }


def _p_group_entries(g: FiniteGroup, p: int) -> list[dict]:
    """Flags from each subgroup's Frattini record and G's own basis."""
    records = _subgroups_by_descent(g, p)
    g_gens = records[(1 << g.order) - 1].basis
    power_4 = _power_map(g, 4) if p == 2 else None
    entries = []
    for bits, rec in records.items():
        es = ElementSet(bits, g.order)
        idx = _require_subgroup(g, es, "enumerated set")
        normal = _is_normal(g, idx, g_gens)
        power = rec.powers if power_4 is None else _power_subgroup(g, idx, power_4)
        entries.append(
            _entry(
                g,
                es,
                idx,
                commutators=rec.commutators,
                normal=normal,
                powerful=_powerful(rec.commutators, power),
                embedded=_powerfully_embedded(g, normal, rec.basis, g_gens, power),
            )
        )
    return entries


def _other_entries(g: FiniteGroup) -> list[dict]:
    """Flags of a group that is not a p-group: no powerful predicates."""
    everything = np.arange(g.order, dtype=np.int64)
    entries = []
    for bits in _subgroups_by_extension(g):
        es = ElementSet(bits, g.order)
        idx = _require_subgroup(g, es, "enumerated set")
        entries.append(
            _entry(
                g,
                es,
                idx,
                commutators=_commutator_subgroup(g, idx, idx),
                normal=_is_normal(g, idx, everything),
                powerful=None,
                embedded=None,
            )
        )
    return entries


def enumerate_subgroups(g: FiniteGroup) -> Lattice:
    """Every subgroup of g, flags included."""
    p = is_p_group(g)
    entries = _other_entries(g) if p is None else _p_group_entries(g, p)
    entries.sort(key=lambda e: (e["order"], e["elements"].membership_key()))
    # A proper subgroup that is not maximal lies in a larger maximal one, so
    # from the largest down it suffices to test the maximal subgroups found.
    maximal: list[int] = []
    for e in reversed(entries):
        b = e["elements"].bits
        e["is_maximal"] = e["is_proper"] and not any(b & m == b for m in maximal)
        if e["is_maximal"]:
            maximal.append(b)
    return Lattice(group=g, subgroups=tuple(Subgroup(**e) for e in entries))


def maximal_subgroups(g: FiniteGroup, lattice: Optional[Lattice] = None) -> tuple[Subgroup, ...]:
    """The proper subgroups not contained in any other proper subgroup."""
    if lattice is None:
        lattice = enumerate_subgroups(g)
    return tuple(s for s in lattice.subgroups if s.is_maximal)
