"""Complete subgroup lattices of small groups, with structural flags.

Two enumeration paths, chosen by the group's order:

* p-groups descend from G by the Burnside basis theorem.  For each subgroup
  K found, Phi(K) = K^p [K, K] is the Frattini subgroup, K/Phi(K) is the
  vector space F_p^d, and the maximal subgroups of K are exactly the
  preimages of its hyperplanes.  Every subgroup of a p-group lies on a chain
  of maximal subgroups down from G, so the descent reaches all of them with
  one Frattini computation per subgroup and no closure per candidate.  All
  hyperplane preimages of K are packed into bitmasks in one call and
  deduplicated on their bytes; only a new one is queued.
* Every other group (and the trivial one) starts from the trivial subgroup
  and extends every subgroup found by a generator of each cyclic subgroup
  outside it, until no new subgroup appears.  Every subgroup is generated by
  its cyclic subgroups, so that is exhaustive for any finite group.

Both paths work on bool masks and index arrays and share the cores of
groups.py.  Closure squares the set, S <- S*S, until it stops growing, so it
takes O(log |H|) rounds of one gather each.  An abelian K skips the
closures: x -> x^k is then a homomorphism on K, so the image of K is the
subgroup K^k, and Phi(K) = K^p.  A nonabelian K closes K^p and K^4, and
joins K^p with the commutators when it does not hold them already.

Each subgroup K is checked to be a subgroup once, when it enters the
lattice; its flags then come from data the descent already holds, with no
second check:

* abelian: every two members commute, read off K's product table.
* normal: conjugating K by each element of a generating set of G keeps K
  inside K: G's Burnside basis for a p-group, a greedy generating set
  otherwise.  The normaliser of K is a subgroup, so it is all of G once it
  holds a generating set of G.
* powerful: [K, K] lies in K^k, with k = p at odd p and k = 4 at p = 2.
  K^k is a subgroup, so that holds iff K^k holds every commutator.
* powerfully embedded: K is normal and [x, y] lies in K^k for every x in
  K's Burnside basis and every y in G's.  [K, G] is the normal closure in G
  of those [x, y] (Robinson 5.1.7), and K^k is characteristic in K, hence
  normal in G, so it holds [K, G] iff it holds them.
* maximal: a proper subgroup no larger maximal subgroup contains.
* tag: dihedral(h) when two involutions a != b have a product c of order
  h/2.  Then <c> u a<c> is a dihedral group of order h, so it is all of H,
  provided a lies outside <c>; and it always does, because a in <c> would
  put b = ac in <c> too, while a cyclic group has at most one involution.
  a = b gives c = e, of order 1, while h/2 >= 2 for every h that reaches
  the test.  So one vectorised comparison over all pairs gives the tag.

Groups that are not p-groups get the abelian and normal flags from the same
cores and no powerful flags.  The public is_powerful and
is_powerfully_embedded check their argument, compute its Frattini record
from scratch and call the same flag code.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitset import ElementSet
from .groups import (
    FiniteGroup,
    GroupError,
    _close,
    _commutators,
    _commutes,
    _greedy_generators,
    _is_normal,
    _mask,
    _power_map,
    _power_subgroup,
    _require_subgroup,
    _set_of,
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


def _prime(g: FiniteGroup) -> int:
    p = is_p_group(g)
    if p is None:
        raise GroupError("powerful-subgroup predicates require a nontrivial p-group")
    return p


def _power_maps(g: FiniteGroup, p: int) -> tuple[np.ndarray, np.ndarray]:
    """x -> x^p and x -> x^k, with k = 4 at p = 2 and k = p otherwise: the
    exponent of the powerful and powerfully embedded tests."""
    power_p = _power_map(g, p)
    return power_p, (power_p[power_p] if p == 2 else power_p)


def _powerfully_embedded(
    g: FiniteGroup, normal: bool, k_gens: np.ndarray, g_gens: np.ndarray, power: np.ndarray
) -> bool:
    """K normal with [K, G] <= K^k, given generators of K and of G and K^k as a mask.

    Exact on generators: [K, G] is the normal closure in G of the [x, y]
    with x in k_gens and y in g_gens (Robinson, A Course in the Theory of
    Groups, 5.1.7), and K^k, characteristic in the normal subgroup K, is
    normal in G.  So K^k contains [K, G] iff it contains those [x, y].
    Those [x, y] lying in K already force K to be normal, as
    y^-1 x y = x [x, y]; the normal test only skips the work when K is not.
    """
    return normal and bool(power[_commutators(g, k_gens, g_gens)].all())


def _record(g: FiniteGroup, members: ElementSet) -> tuple[_Frattini, np.ndarray]:
    """The checked argument's Frattini record and member indices."""
    p = _prime(g)
    idx = _require_subgroup(g, members, "argument")
    return _frattini_coordinates(g, idx, p, *_power_maps(g, p))[0], idx


def is_powerful(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff [H, H] lies inside H^4 (p = 2) or H^p (p odd).

    The test is intrinsic to H: both sides are computed from H's own
    elements, so the answer is independent of the ambient group.
    """
    return _record(g, members)[0].powerful


def is_powerfully_embedded(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff N is normal with [N, G] inside N^4 (p = 2) or N^p (p odd).

    [N, G] <= N^k <= N already forces normality, but the explicit check
    keeps the reported reason honest when the argument is not normal.
    """
    record, idx = _record(g, members)
    everything = np.arange(g.order, dtype=np.int64)
    normal = _is_normal(g, idx, everything)
    return _powerfully_embedded(g, normal, record.basis, everything, record.power)


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
    # Involutions a != b with c = ab of order h/2 generate <c> u a<c>, of
    # order h, so all of H, and that group is dihedral.  See the module
    # docstring for why a never lies in <c> and a = b never matches.
    if (g.element_orders[g.table[invol[:, None], invol]] == h // 2).any():
        return f"dihedral({h})"
    if h & (h - 1) == 0 and invol.size == 1:
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


def _with(mask: np.ndarray, x: int) -> np.ndarray:
    mask = mask.copy()
    mask[x] = True
    return mask


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
        bits = _set_of(mask).bits
        if bits in seen:
            return False
        seen.add(bits)
        queue.append(mask)
        return True

    seed = np.zeros(n, dtype=bool)
    seed[g.identity] = True
    admit(seed)
    generators = [x for x in range(n) if admit(_close(table, _with(seed, x)))]

    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        for x in generators:
            if not mask[x]:
                admit(_close(table, _with(mask, x)))
    return seen


@dataclass(frozen=True)
class _Frattini:
    """What the descent computes for one subgroup K of a p-group."""

    abelian: bool
    powerful: bool      # [K, K] <= K^k
    power: np.ndarray   # K^k as a mask: k = 4 at p = 2, else p
    basis: np.ndarray   # a Burnside basis of K/Phi(K); it generates K


def _frattini_coordinates(
    g: FiniteGroup, members: np.ndarray, p: int, power_p: np.ndarray, power_k: np.ndarray
) -> tuple[_Frattini, np.ndarray, int]:
    """K's Frattini record, and the images of its members in K/Phi(K) = F_p^d.

    power_p and power_k are the maps x -> x^p and x -> x^k on g.  Returns
    (record, codes, d): codes[i] is the coordinate vector of members[i],
    read as a base-p integer with coordinate j as its j-th digit.

    Phi(K) = K^p [K, K].  On an abelian K that is K^p, the image of the
    homomorphism x -> x^p, so it needs no closure; otherwise K^p is closed,
    and joined with the commutators unless it holds them already (as it
    always does at p = 2).  The basis x_1..x_d is greedy: each x_i is the
    least member outside <Phi(K), x_1..x_{i-1}>.  That subgroup is normal in
    K with quotient of order p, so adjoining x_i is the union of its cosets
    by x_i^j for 0 <= j < p, and the members of the j-th coset gain
    coordinate j.
    """
    n = g.order
    table = g.table
    abelian = _commutes(g, members)
    powers = _power_subgroup(g, members, power_p, abelian)
    power = powers if power_k is power_p else _power_subgroup(g, members, power_k, abelian)
    frattini = powers
    powerful = True
    if not abelian:
        # Subgroups hold [K, K] iff they hold every commutator.
        commutators = _mask(n, _commutators(g, members, members))
        if (commutators & ~powers).any():
            frattini = _close(table, commutators | powers)
        powerful = not (commutators & ~power).any()

    span = frattini.nonzero()[0]
    d = 0
    index = len(members) // len(span)
    while index > 1:
        index //= p
        d += 1
    codes = np.zeros(n, dtype=np.int64)
    spanned = frattini.copy()
    basis = np.zeros(d, dtype=np.int64)
    digits = np.arange(1, p)
    for i in range(d):
        x = members[np.argmin(spanned[members])]
        basis[i] = x
        steps = [x]
        for _ in range(p - 2):
            steps.append(table[steps[-1], x])
        cosets = table[span[:, None], steps]           # (|span|, p - 1)
        codes[cosets] = codes[span][:, None] + digits * p**i
        spanned[cosets] = True
        span = np.concatenate((span, cosets.ravel()))
    return _Frattini(abelian, powerful, power, basis), codes[members], d


def _hyperplanes(p: int, d: int) -> np.ndarray:
    """(p^d, (p^d - 1)/(p - 1)) bool array: entry [c, h] says whether the
    vector with base-p code c lies in hyperplane h of F_p^d.  Each
    hyperplane is the kernel of one functional, normalised so that its
    first nonzero coordinate is 1."""
    functionals = np.array(
        [
            (0,) * lead + (1,) + tail
            for lead in range(d)
            for tail in itertools.product(range(p), repeat=d - lead - 1)
        ],
        dtype=np.int64,
    ).T
    vectors = np.arange(p**d)[:, None] // p ** np.arange(d) % p
    return (vectors @ functionals) % p == 0


def _subgroups_by_descent(g: FiniteGroup, p: int) -> dict[int, _Frattini]:
    """Every subgroup of the p-group g, as {bitmask: Frattini record},
    descending through maximal subgroups: those of K are the hyperplane
    preimages in K/Phi(K).

    Subgroups are keyed by their packed masks.  All hyperplane preimages of
    one K are packed in one call and only the new ones are queued.
    """
    n = g.order
    power_p, power_k = _power_maps(g, p)
    hyperplanes: dict[int, np.ndarray] = {}
    records: dict[int, _Frattini] = {}
    full = np.packbits(np.ones(n, dtype=bool), bitorder="little").tobytes()
    queue = deque([full])
    seen = {full}
    while queue:
        key = queue.popleft()
        raw = np.frombuffer(key, dtype=np.uint8)
        members = np.unpackbits(raw, count=n, bitorder="little").nonzero()[0]
        record, codes, d = _frattini_coordinates(g, members, p, power_p, power_k)
        records[int.from_bytes(key, "little")] = record
        if not d:
            continue
        if d not in hyperplanes:
            hyperplanes[d] = _hyperplanes(p, d)
        inside = hyperplanes[d][codes]                  # (|K|, hyperplanes)
        preimages = np.zeros((inside.shape[1], n), dtype=bool)
        preimages[:, members] = inside.T
        packed = np.packbits(preimages, axis=1, bitorder="little")
        width = packed.shape[1]
        buf = packed.tobytes()
        for start in range(0, len(buf), width):
            sub = buf[start:start + width]
            if sub not in seen:
                seen.add(sub)
                queue.append(sub)
    return records


def _entry(
    g: FiniteGroup,
    es: ElementSet,
    idx: np.ndarray,
    abelian: bool,
    normal: bool,
    powerful: Optional[bool],
    embedded: Optional[bool],
) -> dict:
    return {
        "elements": es,
        "order": len(idx),
        "is_proper": len(idx) < g.order,
        "is_abelian": abelian,
        "is_normal": normal,
        "is_powerful": powerful,
        "is_powerfully_embedded": embedded,
        "tag": _classify(g, idx),
    }


def _p_group_entries(g: FiniteGroup, p: int) -> list[dict]:
    """Flags from each subgroup's Frattini record and G's own basis."""
    records = _subgroups_by_descent(g, p)
    g_gens = records[(1 << g.order) - 1].basis
    entries = []
    for bits, rec in records.items():
        es = ElementSet(bits, g.order)
        idx = _require_subgroup(g, es, "enumerated set")
        normal = _is_normal(g, idx, g_gens)
        entries.append(
            _entry(
                g,
                es,
                idx,
                abelian=rec.abelian,
                normal=normal,
                powerful=rec.powerful,
                embedded=_powerfully_embedded(g, normal, rec.basis, g_gens, rec.power),
            )
        )
    return entries


def _other_entries(g: FiniteGroup) -> list[dict]:
    """Flags of a group that is not a p-group: no powerful predicates."""
    g_gens = _greedy_generators(g.table, g.identity)
    entries = []
    for bits in _subgroups_by_extension(g):
        es = ElementSet(bits, g.order)
        idx = _require_subgroup(g, es, "enumerated set")
        entries.append(
            _entry(
                g,
                es,
                idx,
                abelian=_commutes(g, idx),
                normal=_is_normal(g, idx, g_gens),
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
