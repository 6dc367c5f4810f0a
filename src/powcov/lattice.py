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
  seen subgroups: each level's preimages are deduplicated on their packed
  bytes with a set, and a level's subgroups are found only once.
* Every other group (and the trivial one) starts from the trivial subgroup
  and extends every subgroup found by a generator of each cyclic subgroup
  outside it, until no new subgroup appears.  Every subgroup is generated by
  its cyclic subgroups, so that is exhaustive for any finite group.  Each
  join <H, x> is closed on its own with _close.  The subgroups found are
  then grouped by order and pass through the same check, abelian, normal
  and tag kernel as a level of the descent.

Each level is sorted by its packed masks read with element 0 first, and the
lattice lists the levels from the smallest order up.  That canonical order,
by order and then by membership vector, is the only sort: the cover
instance reads the lattice backwards, and the cache and the record digests
keep it.

A level is one block of rows of equal size h, so every step below but
one closure is one numpy call per level rather than per subgroup.  The
members stack as an (m, h) array M, and one gather, prod =
table[M[:, :, None], M[:, None, :]], serves three things: the subgroup
check (each row holds the identity and is closed under the product; the
only check any enumerated subgroup gets), the abelian flag (prod equals
its transpose) and the commutators of the nonabelian rows
(table[inv[prod^T], prod]).  The tags read only the members' element
orders.  Power images are scattered into (m, n) masks.  An abelian K
skips closure: x -> x^p is then a homomorphism on K, so its image is
Phi(K) = K^p.  Each nonabelian row closes K^p u [K, K] on its own with
groups._close, the one closure routine, as the extension path closes
each join; closing the rows together, each padded to the widest with the
identity, measured no faster.  Rows are then grouped by |Phi(K)|, which
fixes d, and each group runs the greedy basis loop (each x_i is the
least member of K outside <Phi(K), x_1..x_{i-1}>), the coset codes in
F_p^d and all its hyperplane preimages as batched calls.  A level is cut
into chunks so that no temporary holds more than about _BUDGET entries;
the largest, the product tables and the preimage stack, hold at most
rows * h * n.

Flags, from the level's data:

* abelian: every two members commute.
* normal: conjugating K by each element of g.generators, the generating
  set of G that FiniteGroup keeps, keeps K inside K.  The normaliser of K
  is a subgroup, so it is all of G once it holds a generating set of G.
* powerful: [K, K] lies in K^k, with k = p at odd p and k = 4 at p = 2.
  That holds iff every commutator of K is a k-th power of a member of K,
  so K^k is never closed.  If K is powerful, its k-th powers already form
  the subgroup K^k (Lubotzky & Mann, "Powerful p-groups. I", J. Algebra
  105 (1987)), which holds [K, K] and so every commutator.  Conversely, k-th
  powers lie in the subgroup K^k, so if every commutator is one, K^k holds
  the subgroup they generate.
* powerfully embedded: K is normal and [x, y] is a k-th power of a member
  of K for every x in K's Burnside basis and every y in g.generators.
  [K, G] is the normal closure in G of those [x, y] (Robinson 5.1.7, which
  holds for any generating sets of K and G), and K^k is
  characteristic in K, hence normal in G, so K^k holds [K, G] iff it holds
  them.  The k-th powers suffice by the same argument as above: a
  powerfully embedded K is powerful, as [K, K] <= [K, G] <= K^k.
* maximal: a proper subgroup no larger proper subgroup contains, known
  from the enumeration.  In the descent these are level 1, the subgroups of
  index p.  On the extension path, a proper H is maximal iff every join
  <H, x> it closes is G.
* tag: H of order h is dihedral(h) iff it has some c of order h/2 and
  h/2 + [4 | h] involutions.  C = <c> holds [4 | h] involutions, so all
  h/2 elements outside C are; for a outside C and x in C, ax is one, so a
  inverts C and H = C u aC is dihedral.  The dihedral group of order h has
  a rotation of order h/2, and h/2 reflections plus the half-turn if 4 | h.

Groups that are not p-groups get no powerful flags.  The block kernel
(the subgroup check, the normal test and the power images) lives in
groups.py, where the public is_subgroup, is_abelian, is_normal,
quotient_group, power_subgroup and commutator_subgroup run it on their
argument as a block of one row.  The public is_powerful,
is_powerfully_embedded and classify_small here do the same;
is_powerfully_embedded conjugates by all of G and takes all of K and G as
commutator arguments, because cover.verify_witness uses it as an
independent re-check of the lattice's flag.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .bitset import ElementSet
from .descriptors import factorize
from .groups import (
    FiniteGroup,
    GroupError,
    _abelian,
    _argument,
    _checked,
    _close,
    _commutators,
    _holds,
    _images,
    _normal,
    _power_map,
    _set_of,
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

# The most entries any temporary of the level kernel holds, give or take.
_BUDGET = 1 << 20


def _prime(g: FiniteGroup) -> int:
    p = is_p_group(g)
    if p is None:
        raise GroupError("powerful-subgroup predicates require a nontrivial p-group")
    return p


def _power_maps(g: FiniteGroup, p: int) -> tuple[np.ndarray, np.ndarray]:
    """x -> x^p and x -> x^k, with k = 4 at p = 2 and k = p otherwise: the
    exponent of the powerful and powerfully embedded tests."""
    power_p = _power_map(g.table, g.identity, p)
    return power_p, (power_p[power_p] if p == 2 else power_p)


# ---------------------------------------------------------------------------
# The block kernel (see groups.py): rows of equal size, one numpy call per step


def _flags(
    g: FiniteGroup, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The kernel every block runs: members, product tables, and the
    abelian, normal and tag of each row."""
    members, prod = _checked(g, masks)
    normal = _normal(g, masks, members, g.generators)
    return members, prod, _abelian(prod), normal, _tags(g, members)


def _self_commutators(g: FiniteGroup, prod: np.ndarray) -> np.ndarray:
    """[x, y] = (yx)^-1 (xy) for every two members of each row, from the
    rows' product tables."""
    return g.table[g.inverses[prod.transpose(0, 2, 1)], prod]


def _tags(g: FiniteGroup, members: np.ndarray) -> list[str]:
    """Each row's coarse isomorphism-type tag, from its element orders
    alone; see classify_small and the module docstring."""
    m, h = members.shape
    if h == 1:
        return ["trivial"] * m
    orders = g.element_orders[members]
    cyclic = (orders == h).any(axis=1)
    klein = (orders <= 2).all(axis=1) & (h == 4)
    count = (orders == 2).sum(axis=1)
    dihedral = (orders == h // 2).any(axis=1) & (count == h // 2 + (h % 4 == 0))
    quaternion = (count == 1) & (h & (h - 1) == 0)
    first = np.argmax(np.stack((cyclic, klein, dihedral, quaternion, np.ones(m, dtype=bool))), axis=0)
    labels = (f"cyclic({h})", "klein", f"dihedral({h})", "quaternion-like", "other")
    return [labels[i] for i in first.tolist()]


@functools.cache
def _hyperplanes(p: int, d: int) -> np.ndarray:
    """(p^d + 1, (p^d - 1)/(p - 1)) read-only bool array: entry [c, h] says
    whether the vector with base-p code c lies in hyperplane h of F_p^d.
    Each hyperplane is the kernel of one functional, normalised so that its
    first nonzero coordinate is 1.  The last row, code p^d, marks elements
    outside K and lies in no hyperplane."""
    functionals = np.array(
        [
            (0,) * lead + (1,) + tail
            for lead in range(d)
            for tail in itertools.product(range(p), repeat=d - lead - 1)
        ],
        dtype=np.int64,
    ).T
    vectors = np.arange(p**d)[:, None] // p ** np.arange(d) % p
    inside = (vectors @ functionals) % p == 0
    planes = np.vstack((inside, np.zeros((1, inside.shape[1]), dtype=bool)))
    planes.setflags(write=False)
    return planes


def _split(
    g: FiniteGroup, p: int, members: np.ndarray, frattini: np.ndarray
) -> tuple[np.ndarray, list[bytes]]:
    """Burnside bases (r, d) and the packed maximal subgroups of r rows K
    that share |K| and |Phi(K)|, given Phi(K) as masks.

    Members of Phi(K) get code 0.  The greedy x_i is the least member of K
    still without a code; <Phi(K), x_1..x_{i-1}> is normal in its join with
    x_i, with quotient of order p, so that join is the union of its cosets by
    x_i^j for 0 <= j < p, and the j-th coset gains digit j at place i.
    """
    r, h = members.shape
    span = frattini.nonzero()[1].reshape(r, -1)
    d = dict(factorize(h // span.shape[1])).get(p, 0)  # |K : Phi(K)| = p^d
    basis = np.empty((r, d), dtype=members.dtype)
    if not d:
        return basis, []
    rows = np.arange(r)[:, None]
    outside = p**d
    codes = np.full((r, g.order), outside, dtype=np.int32)
    codes[rows, span] = 0
    digits = np.arange(1, p, dtype=np.int32)
    for i in range(d):
        x = members[rows[:, 0], np.argmax(codes[rows, members] == outside, axis=1)]
        basis[:, i] = x
        steps = [x]
        for _ in range(p - 2):
            steps.append(g.table[steps[-1], x])
        cosets = g.table[span[:, :, None], np.stack(steps, axis=1)[:, None, :]]
        codes[rows[:, :, None], cosets] = codes[rows, span][:, :, None] + digits * p**i
        span = np.concatenate((span, cosets.reshape(r, -1)), axis=1)
    return basis, _pack(_hyperplanes(p, d)[codes].transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# Levels: packed keys in, records out


def _pack(masks: np.ndarray) -> list[bytes]:
    """Little-endian packed bytes of each bool-mask row (along the last
    axis), without trailing zero bytes; the bytes are still distinct and
    int.from_bytes reads them unchanged."""
    packed = np.ascontiguousarray(np.packbits(masks, axis=-1, bitorder="little"))
    width = packed.shape[-1]
    return packed.reshape(-1, width).view(f"S{width}").ravel().tolist()


def _blocks(keys: list[bytes], h: int, n: int) -> Iterator[tuple[list[bytes], np.ndarray]]:
    """Chunks of one level's keys, with their bool masks, sized so that no
    temporary of the kernel exceeds about _BUDGET entries."""
    width = (n + 7) // 8
    step = max(1, _BUDGET // (h * n))
    for start in range(0, len(keys), step):
        chunk = keys[start:start + step]
        raw = np.array(chunk, dtype=f"S{width}").view(np.uint8).reshape(len(chunk), width)
        yield chunk, np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)


# Each byte with its bits reversed.
_MSB_FIRST = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _canonical(keys) -> list[bytes]:
    """One level's packed keys in canonical order: by membership vector,
    element 0 first, which is the order of the big-endian packed masks.
    Reversing the bits of each little-endian byte gives those bytes; keys
    cut short by _pack still compare as if padded with zero bytes."""
    return sorted(keys, key=lambda k: k.translate(_MSB_FIRST))


def _levels_by_descent(g: FiniteGroup, p: int) -> list[list[tuple]]:
    """Every subgroup of the p-group g, as records (bitmask, abelian,
    normal, maximal, powerful, powerfully embedded, tag), one list per
    level from G down, each in canonical order: the next level is every
    hyperplane preimage in K/Phi(K) over this one's K.  The maximal
    subgroups are level 1, the subgroups of index p."""
    n = g.order
    table = g.table
    power_p, power_k = _power_maps(g, p)
    levels: list[list[tuple]] = []
    level, h = _pack(np.ones((1, n), dtype=bool)), n
    while level:
        found: set[bytes] = set()
        records: list[tuple] = []
        maximal = itertools.repeat(len(levels) == 1)
        for keys, masks in _blocks(level, h, n):
            members, prod, abelian, normal, tags = _flags(g, masks)
            kth = _images(n, power_k, members)
            frattini = _images(n, power_p, members) if p == 2 else kth.copy()
            powerful = abelian.copy()
            nonabelian = np.flatnonzero(~abelian)
            if nonabelian.size:
                comm = _self_commutators(g, prod[nonabelian])
                powerful[nonabelian] = _holds(kth[nonabelian], comm)
                seed = frattini[nonabelian]
                seed[np.arange(nonabelian.size)[:, None, None], comm] = True
                frattini[nonabelian] = [_close(table, row) for row in seed]
            embedded = np.zeros(len(keys), dtype=bool)
            sizes = np.count_nonzero(frattini, axis=1)
            for size in set(sizes.tolist()):
                rows = np.flatnonzero(sizes == size)
                basis, below = _split(g, p, members[rows], frattini[rows])
                commutators = _commutators(g, basis, g.generators)
                embedded[rows] = normal[rows] & _holds(kth[rows], commutators)
                found.update(below)
            bits = (int.from_bytes(k, "little") for k in keys)
            flags = abelian.tolist(), normal.tolist(), maximal, powerful.tolist(), embedded.tolist()
            records += zip(bits, *flags, tags)
        levels.append(records)
        level, h = _canonical(found), h // p
    return levels


def _with(mask: np.ndarray, x: int) -> np.ndarray:
    mask = mask.copy()
    mask[x] = True
    return mask


def _subgroups_by_extension(g: FiniteGroup, x: Optional[int] = None) -> dict[int, bool]:
    """{bitmask: maximal} for every subgroup of any finite group that holds
    <x> (by default every subgroup), by cyclic extension from <x>.

    For H >= <x>, <H, y> depends only on <x, y>, so each subgroup is
    extended by one y for each <x, y> outside it.  A subgroup K strictly
    between H and G holds such a y, and <H, y> <= K < G for it; so a proper
    H is maximal iff every <H, y> it closes is G.
    """
    n = g.order
    table = g.table
    maximal: dict[int, bool] = {}
    queue: list[tuple[int, np.ndarray]] = []

    def admit(mask: np.ndarray) -> bool:
        bits = _set_of(mask).bits
        if bits in maximal:
            return False
        maximal[bits] = False
        queue.append((bits, mask))
        return True

    seed = _with(np.zeros(n, dtype=bool), g.identity)
    seed = seed if x is None else _close(table, _with(seed, x))
    admit(seed)
    generators = [y for y in range(n) if admit(_close(table, _with(seed, y)))]

    for bits, mask in queue:  # the queue grows while it is walked
        joins = [_close(table, _with(mask, y)) for y in generators if not mask[y]]
        maximal[bits] = bool(joins) and all(join.all() for join in joins)
        for join in joins:
            admit(join)
    return maximal


def _levels_by_extension(g: FiniteGroup) -> list[list[tuple]]:
    """Records as _levels_by_descent gives them, with no powerful flags,
    for a group that is not a p-group: its subgroups grouped by order into
    levels, the smallest first."""
    n = g.order
    width = (n + 7) // 8
    maximal = _subgroups_by_extension(g)
    by_order: dict[int, list[bytes]] = {}
    for bits in maximal:
        by_order.setdefault(bits.bit_count(), []).append(bits.to_bytes(width, "little"))
    levels = []
    nothing = itertools.repeat(None)
    for h in sorted(by_order):
        records: list[tuple] = []
        for keys, masks in _blocks(_canonical(by_order[h]), h, n):
            _, _, abelian, normal, tags = _flags(g, masks)
            bits = [int.from_bytes(k, "little") for k in keys]
            flags = abelian.tolist(), normal.tolist(), map(maximal.get, bits), nothing, nothing
            records += zip(bits, *flags, tags)
        levels.append(records)
    return levels


# ---------------------------------------------------------------------------
# Public predicates: one checked row through the same kernel


def is_powerful(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff [H, H] lies inside H^4 (p = 2) or H^p (p odd).

    The test is intrinsic to H: both sides are computed from H's own
    elements, so the answer is independent of the ambient group.
    """
    p = _prime(g)
    _, idx, prod = _argument(g, members, "argument")
    kth = _images(g.order, _power_maps(g, p)[1], idx)
    return bool(_holds(kth, _self_commutators(g, prod))[0])


def is_powerfully_embedded(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff N is normal with [N, G] inside N^4 (p = 2) or N^p (p odd).

    [N, G] <= N^k <= N already forces normality, but the explicit check
    keeps the reported reason honest when the argument is not normal.
    """
    p = _prime(g)
    mask, idx, _ = _argument(g, members, "argument")
    everything = np.arange(g.order)
    kth = _images(g.order, _power_maps(g, p)[1], idx)
    normal = _normal(g, mask, idx, everything)
    return bool((normal & _holds(kth, _commutators(g, idx, everything)))[0])


def classify_small(g: FiniteGroup, members: ElementSet) -> str:
    """Coarse isomorphism-type tag used in lattice reports.

    One of "trivial", "cyclic(m)", "klein", "dihedral(m)" (an element of
    order m/2 and m/2 + [4 | m] involutions), "quaternion-like" (noncyclic
    2-group with a unique involution), or "other", the first that fits.  m
    is the subgroup's total order; the element orders decide the tag.
    """
    _, idx, _ = _argument(g, members, "element set")
    return _tags(g, idx)[0]


# The enumeration's flags by record key; Subgroup's attribute is "is_" + key.
FLAGS = ("abelian", "normal", "maximal", "powerful", "powerfully_embedded")
_flags_of = operator.attrgetter(*("is_" + flag for flag in FLAGS))


@dataclass(frozen=True)
class Subgroup:
    """One node of a subgroup lattice: its members, the flags the enumeration
    computed and its tag.  Order and properness are read off the members."""

    elements: ElementSet
    is_abelian: bool
    is_normal: bool
    is_maximal: bool
    is_powerful: Optional[bool]
    is_powerfully_embedded: Optional[bool]
    tag: str

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_proper(self) -> bool:
        return len(self.elements) < self.elements.n

    def record(self) -> dict:
        """The JSON record the cache stores for this subgroup."""
        row = {"bits": format(self.elements.bits, "x"), "order": self.order, "tag": self.tag}
        row["proper"] = self.is_proper
        row.update(zip(FLAGS, _flags_of(self)))
        return row

    @classmethod
    def from_record(cls, row: dict, g: FiniteGroup) -> "Subgroup":
        """The subgroup of g that a record() describes.  Raises ValueError
        unless order and proper agree with the members, the flags are JSON
        booleans (the powerful two null unless g is a p-group) and the tag a
        string: the enumeration writes no other record."""
        try:
            elements = ElementSet(int(row["bits"], 16), g.order)
            fields = [row[key] for key in FLAGS + ("tag",)]
            order, proper = row["order"], row["proper"]
        except (KeyError, TypeError) as e:
            raise ValueError(f"cannot read record {row!r}: {e!r}") from None
        powerful = type(None) if is_p_group(g) is None else bool
        if (
            order != len(elements)
            or proper is not (len(elements) < g.order)
            or list(map(type, fields)) != [bool, bool, bool, powerful, powerful, str]
        ):
            raise ValueError(f"the enumeration writes no record {row}")
        return cls(elements, *fields)


@dataclass(frozen=True)
class Lattice:
    """All subgroups of a group in canonical order: by order, then by
    membership vector, element 0 first."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    def counts(self) -> dict:
        """The number of subgroups, and of those proper and with each flag."""
        out = {"subgroups": len(self.subgroups), "proper": sum(s.is_proper for s in self.subgroups)}
        for flag in FLAGS:
            out[flag] = sum(bool(getattr(s, "is_" + flag)) for s in self.subgroups)
        return out


def enumerate_subgroups(g: FiniteGroup) -> Lattice:
    """Every subgroup of g, flags included, in canonical order."""
    p = is_p_group(g)
    levels = _levels_by_extension(g) if p is None else _levels_by_descent(g, p)[::-1]
    n = g.order
    subgroups: list[Subgroup] = []
    for level in levels:
        subgroups += (Subgroup(ElementSet(bits, n), *flags) for bits, *flags in level)
    return Lattice(group=g, subgroups=tuple(subgroups))


def maximal_subgroups(g: FiniteGroup, lattice: Optional[Lattice] = None) -> tuple[Subgroup, ...]:
    """The proper subgroups not contained in any other proper subgroup."""
    if lattice is None:
        lattice = enumerate_subgroups(g)
    return tuple(s for s in lattice.subgroups if s.is_maximal)
