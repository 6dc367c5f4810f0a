"""Complete subgroup lattices of small groups, with structural flags.

Two enumeration paths, chosen by the group's order:

* p-groups descend from G by the Burnside basis theorem, one level at a
  time, where level k holds every subgroup of order |G|/p^k.  For each K
  on a level, Phi(K) = K^p [K, K] is the Frattini subgroup, K/Phi(K) is the
  vector space F_p^d, and the maximal subgroups of K are exactly the
  preimages of its hyperplanes.  Level k+1 is the set of all those
  preimages over level k, and that is exhaustive: a subgroup H of order
  |G|/p^(k+1) is proper in its normaliser (normalisers grow in p-groups),
  so N(H)/H has a subgroup of order p, whose preimage K has order
  |G|/p^k, and H is maximal in K.  So the descent needs no global set of
  seen subgroups: each level's preimages are deduplicated as int bitmasks
  in a set, and a level's subgroups are found only once.
* Every other group (and the trivial one) starts from the trivial subgroup
  and extends every subgroup found by a generator of each cyclic subgroup
  outside it, until no new subgroup appears.  Every subgroup is generated by
  its cyclic subgroups, so that is exhaustive for any finite group.  Each
  queued subgroup keeps its elements and generators, so a join <H, y> grows
  H by y with groups._adjoin rather than closing from scratch.  Each
  subgroup found gets the same check, abelian and normal flags as in the
  descent.

Both paths return their Subgroups unsorted, and enumerate_subgroups sorts
them once, by order and then by membership vector, element 0 first.  That
canonical order is the only sort: the cover instance reads the lattice
backwards, and the cache and the record digests keep it.  Read backwards,
it also gives the maximal subgroups with no flag: a proper subgroup is
maximal iff no larger proper one contains it, and _dominant keeps just
those (Lattice.maximal).

Each enumerated set gets one check, groups._checked: its greedy generators
are adjoined one at a time by coset enumeration, failing as soon as a coset
leaves the set, so the set is a subgroup exactly when the check passes.
Everything else about a subgroup K is read from those generators, so K
costs O(|K| d) for d generators rather than a product table of |K|^2:

* Phi(K).  An abelian K skips closure: x -> x^p is then a homomorphism on
  K, so its image is Phi(K) = K^p.  Otherwise Phi(K) is the normal closure
  in K of the p-th powers and the commutators of K's generators: K^p is
  characteristic, and [K, K] is the normal closure of those commutators.
* The maximal subgroups.  groups._adjoin grows Phi(K) by each generator
  of K outside the span so far, and those generators are a Burnside basis
  x_1..x_d.  H = <Phi(K), x_1..x_(i-1)> holds Phi(K), so it is normal in K
  and H x_i^j x_k = H x_i^j for k < i: adjoining x_i with the basis alone
  appends the cosets H x_i^j for j = 1..p-1 in that order, and the members
  with code c in F_p^d (base-p digits) land in block c.  At every prime the
  preimage of a hyperplane is the OR of the blocks whose codes it holds.

Flags, from K's generators and groups._commutators, the one commutator
step, which gives the commutators [x, y] other than the identity:

* abelian: K's generators have no commutator.
* normal: conjugating each generator of K by each element of g.generators,
  the generating set of G that FiniteGroup keeps, keeps it inside K.  The
  normaliser of K is a subgroup, so it is all of G once it holds a
  generating set of G.  y^-1 x y = x [x, y], so that asks whether the
  commutators [x, y] lie in K; a K inside the center of G, which is every
  subgroup of an abelian G, has none but the identity and is normal and
  abelian with no commutator taken.
* powerful: [K, K] lies in K^k, with k = p at odd p and k = 4 at p = 2.
  K^k is characteristic in K, so K/K^k is abelian, and [K, K] <= K^k,
  iff the commutators of K's generators lie in the closure of the k-th
  powers.  An abelian K is powerful with no closure.
* powerfully embedded: [x, y] lies in K^k for every generator x of K and
  every y in g.generators.  [K, G] is the normal closure in G of those
  [x, y] (Robinson 5.1.7, which holds for any generating sets of K and G),
  and K^k is characteristic in K, hence normal in G, so K^k holds [K, G]
  iff it holds them.  As K^k <= K, that also makes K normal.

Groups that are not p-groups get no powerful flags.  The public
is_powerful and is_powerfully_embedded re-check a flag from the definitions
instead, as cover.verify_witness needs, with no closure: the commutator of
each generator x of K with each member of K (for the embedded test, with
each element of G) must be a k-th power of a member of K.  If K passes,
the commutators of K's generators (with G's) lie in K^k, so K is powerful
(powerfully embedded, hence normal) by the arguments above.  Conversely
the k-th powers of a powerful K form K^k (Lubotzky & Mann, "Powerful
p-groups. I", J. Algebra 105 (1987)), which holds [K, K]; and a powerfully
embedded K is powerful, as [K, K] <= [K, G] <= K^k.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Optional

from .groups import (
    FiniteGroup,
    GroupError,
    _BIT,
    _adjoin,
    _bits_of,
    _checked,
    _commutators,
    _gather,
    _generate,
    _normal,
    _power,
    _power_map,
    center,
    is_normal,  # re-exported: perfbench's traced pass looks it up here by name
    is_p_group,
)

__all__ = [
    "FLAGS",
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


def _order_masks(g: FiniteGroup) -> dict[int, int]:
    """{m: the bitmask of g's elements of order m}."""
    orders = g.element_orders
    return {m: _bits_of(x for x in range(g.order) if orders[x] == m) for m in set(orders)}


def _tag(masks: dict[int, int], bits: int) -> str:
    """The classify_small tag of the subgroup with members bits, from the
    number of its elements of each order, given g's _order_masks."""
    h = bits.bit_count()
    if h == 1:
        return "trivial"
    orders = {m: n for m, mask in masks.items() if (n := (bits & mask).bit_count())}
    involutions = orders.get(2, 0)
    if h in orders:
        return f"cyclic({h})"
    if h == 4 and max(orders) <= 2:
        return "klein"
    if h // 2 in orders and involutions == h // 2 + (h % 4 == 0):
        return f"dihedral({h})"
    if involutions == 1 and h & (h - 1) == 0:
        return "quaternion-like"
    return "other"


def _dominant(masks) -> list[int]:
    """The masks, in the order given, that no mask kept before them contains."""
    kept: list[int] = []
    for c in masks:
        if c not in map(c.__and__, kept):
            kept.append(c)
    return kept


@functools.cache
def _hyperplanes(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The hyperplanes of F_p^d, each as the tuple of the base-p codes
    (digit i is coordinate i) of its vectors.  Each is the kernel of one
    functional, normalised so that its first nonzero coordinate is 1."""
    vectors = [[c // p**i % p for i in range(d)] for c in range(p**d)]
    functionals = [
        (0,) * lead + (1,) + tail
        for lead in range(d)
        for tail in itertools.product(range(p), repeat=d - lead - 1)
    ]
    return tuple(
        tuple(c for c, v in enumerate(vectors) if sum(map(operator.mul, f, v)) % p == 0)
        for f in functionals
    )


def _maximal_below(g: FiniteGroup, p: int, gens: list, frattini: list) -> list[int]:
    """The maximal subgroups of K, the subgroup that gens generates, as
    bitmasks: the preimages of the hyperplanes of K/Phi(K), given the
    elements of Phi(K).  See the module docstring."""
    elements, span, basis = list(frattini), set(frattini), []
    for x in gens:
        if x not in span:
            _adjoin(g.table, elements, span, basis, x)
    blocks = list(map(sum, zip(*[map(_BIT.__getitem__, elements)] * len(frattini))))
    return [sum(_gather(blocks, kernel)) for kernel in _hyperplanes(p, len(basis))]


def _records_by_descent(g: FiniteGroup, p: int) -> list[Subgroup]:
    """Every subgroup of the p-group g, flags included, level by level from
    G down: the next level is every hyperplane preimage in K/Phi(K) over
    this one's K."""
    power_p = _power_map(g.table, g.identity, p)
    power_k = _gather(power_p, power_p) if p == 2 else power_p
    central = center(g)
    full = g.full_set()
    records: list[Subgroup] = []
    level = {full}
    while level:
        found: set[int] = set()
        for bits in level:
            members, gens = _checked(g, bits)
            outer = _commutators(g, gens, g.generators) if bits & ~central else set()
            inner = _commutators(g, gens, gens) if outer else outer  # else K is central
            normal = all(bits >> c & 1 for c in outer)
            kth = _generate(g, set(_gather(power_k, members)))[1] if inner or (normal and outer) else set()
            pth = set(_gather(power_p, members))
            frattini = _generate(g, pth | inner, gens)[0] if inner else list(pth)
            found.update(_maximal_below(g, p, gens, frattini))
            powerful, embedded = inner <= kth, outer <= kth
            records.append(Subgroup(bits, bits != full, not inner, normal, powerful, embedded))
        level = found
    return records


def _subgroups_by_extension(g: FiniteGroup, x: Optional[int] = None) -> set[int]:
    """The bitmask of every subgroup of any finite group that holds <x> (by
    default of every subgroup), by cyclic extension from <x>.

    For H >= <x>, <H, y> depends only on <x, y>, so each subgroup is
    extended by the least y of each <x, y> outside it.  Each is kept as
    (elements, span, gens), and a join copies H's and adjoins y.
    """
    seed = _generate(g, () if x is None else (x,))
    found, queue, generators = {_bits_of(seed[0])}, [seed], []
    for sub in queue:  # the queue grows while it is walked
        for y in range(g.order) if sub is seed else generators:
            if y in sub[1]:
                continue
            elements, span, gens = sub[0][:], set(sub[1]), sub[2][:]
            _adjoin(g.table, elements, span, gens, y)
            bits = _bits_of(elements)
            if bits not in found:
                found.add(bits)
                queue.append((elements, span, gens))
                if sub is seed:  # the least y of each <x, y>
                    generators.append(y)
    return found


def _records_by_extension(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of g, a group that is not a p-group, with every flag
    but the powerful two."""
    full = g.full_set()
    records: list[Subgroup] = []
    for bits in _subgroups_by_extension(g):
        gens = _checked(g, bits)[1]
        abelian, normal = not _commutators(g, gens, gens), _normal(g, bits, gens, g.generators)
        records.append(Subgroup(bits, bits != full, abelian, normal, None, None))
    return records


# ---------------------------------------------------------------------------
# Public predicates: the checked argument, then the definitions


def _kth_powers(g: FiniteGroup, p: int, members: list[int]) -> set[int]:
    """The k-th powers of the members: k = 4 at p = 2, else p."""
    k = 4 if p == 2 else p
    return {_power(g.table, g.identity, x, k) for x in members}


def is_powerful(g: FiniteGroup, members: int) -> bool:
    """True iff [H, H] lies inside H^4 (p = 2) or H^p (p odd).

    The test is intrinsic to H: both sides are computed from H's own
    elements, so the answer is independent of the ambient group.
    """
    p = _prime(g)
    idx, gens = _checked(g, members, "argument")
    return _commutators(g, gens, idx) <= _kth_powers(g, p, idx)


def is_powerfully_embedded(g: FiniteGroup, members: int) -> bool:
    """True iff N is normal with [N, G] inside N^4 (p = 2) or N^p (p odd).

    One pass over G settles both: if each [x, y] lies in N^k <= N, then
    y^-1 x y = x [x, y] lies in N for every generator x and every y, so N
    is normal with no test of its own.
    """
    p = _prime(g)
    idx, gens = _checked(g, members, "argument")
    return _commutators(g, gens, range(g.order)) <= _kth_powers(g, p, idx)


def classify_small(g: FiniteGroup, members: int) -> str:
    """Coarse isomorphism-type tag used in lattice reports.

    One of "trivial", "cyclic(m)", "klein", "dihedral(m)" (an element of
    order m/2 and m/2 + [4 | m] involutions), "quaternion-like" (noncyclic
    2-group with a unique involution), or "other", the first that fits.  m
    is the subgroup's total order; the element orders decide the tag: H of
    order h is dihedral(h) iff it has some c of order h/2 and h/2 + [4 | h]
    involutions.  C = <c> holds [4 | h] involutions, so all h/2 elements
    outside C are; for a outside C and x in C, ax is one, so a inverts C and
    H = C u aC is dihedral.  The dihedral group of order h has a rotation of
    order h/2, and h/2 reflections plus the half-turn if 4 | h.
    """
    _checked(g, members, "element set")
    return _tag(_order_masks(g), members)


# The enumeration's flags by record key; Subgroup's attribute is "is_" + key.
FLAGS = ("abelian", "normal", "powerful", "powerfully_embedded")


class Subgroup(NamedTuple):
    """One node of a subgroup lattice: its members as a bitmask and the
    flags the enumeration computed.  The order is read off the bits."""

    bits: int
    is_proper: bool
    is_abelian: bool
    is_normal: bool
    is_powerful: Optional[bool]
    is_powerfully_embedded: Optional[bool]

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def record(self) -> dict:
        """The JSON record the cache stores for this subgroup: its bits and
        its FLAGS, nothing the bits or the lattice give.  The keys are spelled
        out: every cache read writes each record back, and a literal dict
        builds in half the time of one zipped from FLAGS."""
        bits, _, abelian, normal, powerful, embedded = self
        return {"bits": format(bits, "x"), "abelian": abelian, "normal": normal,
                "powerful": powerful, "powerfully_embedded": embedded}

    @classmethod
    def from_record(cls, row: dict, g: FiniteGroup) -> "Subgroup":
        """The subgroup of g that a record() describes, proper unless its
        bits are all of g.  Raises ValueError unless its bits are a subset
        of g (a negative int shifts to -1) that holds the identity.  Each
        flag is read as bool, and the powerful two as None off p-groups, so
        a record with any other flag, key or spelling does not write back
        to itself, which cache.deserialize_lattice refuses."""
        bits = int(row["bits"], 16)
        if bits >> g.order or not bits >> g.identity & 1:
            raise ValueError(f"bits {row['bits']!r} name no subset of g that holds the identity")
        abelian, normal, powerful, embedded = [bool(row[flag]) for flag in FLAGS]
        if is_p_group(g) is None:
            powerful = embedded = None
        return cls(bits, bits != g.full_set(), abelian, normal, powerful, embedded)


class Lattice:
    """All subgroups of a group in canonical order: by order, then by
    membership vector, element 0 first."""

    __slots__ = ("group", "subgroups")

    def __init__(self, group: FiniteGroup, subgroups: tuple[Subgroup, ...]):
        self.group, self.subgroups = group, subgroups

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.group, self.subgroups) == (other.group, other.subgroups)

    def __len__(self) -> int:
        return len(self.subgroups)

    def tags(self) -> list[str]:
        """Each subgroup's classify_small tag, in lattice order."""
        masks = _order_masks(self.group)
        return [_tag(masks, s.bits) for s in self.subgroups]

    def maximal(self) -> list[int]:
        """The maximal subgroups as bitmasks, in reverse canonical order:
        the proper subgroups that no larger proper one contains."""
        return _dominant(s.bits for s in reversed(self.subgroups) if s.is_proper)


def enumerate_subgroups(g: FiniteGroup) -> Lattice:
    """Every subgroup of g, flags included, in canonical order: by order,
    then by membership vector, element 0 first."""
    p = is_p_group(g)
    subgroups = _records_by_extension(g) if p is None else _records_by_descent(g, p)
    subgroups.sort(key=_canonical_key(g))
    return Lattice(group=g, subgroups=tuple(subgroups))


def _canonical_key(g: FiniteGroup):
    """The sort key of the canonical order on g's Subgroups: by order, then
    by membership vector, element 0 first."""
    spec = f"0{g.order}b"
    return lambda s: (s.bits.bit_count(), format(s.bits, spec)[::-1])


def maximal_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """The proper subgroups not contained in any other proper subgroup, in
    canonical order."""
    lat = enumerate_subgroups(g)
    maximal = set(lat.maximal())
    return tuple(s for s in lat.subgroups if s.bits in maximal)
