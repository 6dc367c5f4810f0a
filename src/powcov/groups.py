"""Finite groups as validated Cayley tables, plus the standard 2-group families.

Elements are integers 0..n-1.  Every constructor validates the full group
axioms on the finished table (Latin square, identity, inverses,
associativity), so anything downstream can trust the table blindly.

Associativity uses Light's test (Clifford & Preston, The Algebraic Theory of
Semigroups, 1961, section 1.2): an element a passes when (x*a)*y = x*(a*y)
for all x and y, and the elements that pass are closed under the product.
So checking a generating set of the table under its own product proves
every triple, in O(n^2 * |gens|) instead of n^3.  The greedy generating set
adds the least element outside the closure so far until nothing is left.
The group keeps it as FiniteGroup.generators, the one set every normality
test conjugates by (is_normal, quotient_group and the lattice's normal and
powerfully-embedded flags): the normaliser of a subgroup is a subgroup, so
it is all of G once it holds a generating set.  On every built-in p-group
the set has d = dim G/Phi(G) elements, the size of a Burnside basis.

Subsets inside the private cores are bool masks and index arrays; an
ElementSet is built only for a result a caller sees.  A subgroup argument
gets one check, the block kernel's (_checked): the lattice runs it on a
whole level of subgroups at once, and each public operation on its argument
as a block of one row, whose product table then serves the operation.
_close is the one closure routine, here and in the lattice: it squares
the set, S <- S*S, until it stops growing.  A subgroup is generated by
words of length at most its order, and each round doubles the length
covered, so that takes O(log |H|) rounds of one gather each.

Every built-in group but a product is built from the trivial group by
_extension, one generator y at a time, which numbers n*y^a as n + |N|*a
and names it n*y^a with e dropped: cyclic:M is one extension (z^i),
elementary:p^k is k of them with trivial action (named by base-p digits,
least significant first) and each 2-power family one of C_h, as in
_TWO_COSET.  A product numbers (a, b) as a*|B| + b.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .bitset import ElementSet
from .descriptors import HARD_MAX_ORDER, PATH_KINDS, GroupDescriptor, factorize, parse_descriptor

__all__ = [
    "GroupError",
    "ConstructionError",
    "CapError",
    "FiniteGroup",
    "build_group",
    "direct_product",
    "subgroup_as_group",
    "closure",
    "is_subgroup",
    "is_abelian",
    "commutator_subgroup",
    "power_subgroup",
    "center",
    "normal_closure",
    "is_normal",
    "quotient_group",
    "nilpotence_class",
    "coclass",
    "is_p_group",
]


class GroupError(ValueError):
    """Base class for group construction and operation failures."""


class ConstructionError(GroupError):
    """A purported Cayley table violates the group axioms."""


class CapError(GroupError):
    """A requested group is larger than HARD_MAX_ORDER."""


def _check_order(n: int) -> None:
    if n > HARD_MAX_ORDER:
        raise CapError(f"group order {n} exceeds construction cap {HARD_MAX_ORDER}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Attributes:
        order: number of elements n.
        table: (n, n) int array, table[a, b] = a*b.  Read-only.
        identity: index of the identity element.
        generators: int array of a generating set, the greedy one that
            Light's test checked.  Read-only.
        inverses: int array, inverses[a] = a^-1.
        element_orders: int array of multiplicative orders.
        descriptor: provenance string ("dihedral:16", "quotient:...", ...).
        names: optional per-element display names (whitespace-free tokens).
    """

    def __init__(
        self,
        table: Union[np.ndarray, Sequence[Sequence[int]]],
        descriptor: str = "",
        names: Optional[Sequence[str]] = None,
    ):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ConstructionError(f"table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise ConstructionError("empty table")
        _check_order(n)
        if table.min() < 0 or table.max() >= n:
            bad = np.argwhere((table < 0) | (table >= n))[0]
            raise ConstructionError(
                f"entry out of range at row {bad[0]}, col {bad[1]}: "
                f"{table[bad[0], bad[1]]}"
            )

        rng = np.arange(n, dtype=np.int32)
        for axis, word in ((1, "row"), (0, "column")):
            ok = (np.sort(table, axis=axis) == (rng if axis == 1 else rng[:, None])).all()
            if not ok:
                other = "column" if word == "row" else "row"
                for i in range(n):
                    line = table[i, :] if axis == 1 else table[:, i]
                    counts = np.bincount(line, minlength=n)
                    if (counts != 1).any():
                        dup = int(np.argmax(counts > 1))
                        at = [int(v) for v in np.flatnonzero(line == dup)[:2]]
                        raise ConstructionError(
                            f"{word} {i} is not a permutation: value {dup} repeats "
                            f"at {other}s {at[0]} and {at[1]}"
                        )

        ident_rows = np.flatnonzero((table == rng[None, :]).all(axis=1))
        ident = None
        for i in ident_rows:
            if (table[:, i] == rng).all():
                ident = int(i)
                break
        if ident is None:
            raise ConstructionError("no two-sided identity element")

        # Light's test on a greedy generating set; see the module docstring.
        generators = _greedy_generators(table, ident)
        for a in generators:
            lhs = table[table[:, a]]       # lhs[x, y] = (x*a)*y
            rhs = table[:, table[a]]       # rhs[x, y] = x*(a*y)
            if not np.array_equal(lhs, rhs):
                x, y = map(int, np.argwhere(lhs != rhs)[0])
                raise ConstructionError(
                    f"associativity fails at triple ({x}, {a}, {y}): "
                    f"(a*b)*c = {int(lhs[x, y])}, a*(b*c) = {int(rhs[x, y])}"
                )

        inverses = np.argmax(table == ident, axis=1).astype(np.int32)

        orders = _element_orders(table, ident)

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ConstructionError(
                    f"got {len(names)} names for {n} elements"
                )

        for array in (table, generators, inverses, orders):
            array.setflags(write=False)
        self.order = n
        self.table = table
        self.identity = ident
        self.generators = generators
        self.inverses = inverses
        self.element_orders = orders
        self.descriptor = descriptor
        self.names = names
        self._content_key: Optional[str] = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.order)

    def content_key(self) -> str:
        """sha256 of the table bytes; the content-addressed cache key."""
        if self._content_key is None:
            import hashlib

            h = hashlib.sha256()
            h.update(b"powcov-cayley-v1")
            h.update(self.order.to_bytes(4, "little"))
            h.update(np.ascontiguousarray(self.table, dtype=np.int32).tobytes())
            self._content_key = h.hexdigest()
        return self._content_key

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_cyclic(self) -> bool:
        return int(self.element_orders.max()) == self.order

    def __repr__(self) -> str:
        tag = self.descriptor or "?"
        return f"FiniteGroup({tag}, order={self.order})"


# ---------------------------------------------------------------------------
# Constructors


# The trivial group: the base of every built-in table.
_TRIVIAL = np.zeros((1, 1), dtype=np.int32)


def _extension(base: np.ndarray, q: int, phi: Sequence[int], s: int) -> np.ndarray:
    """The table of <N, y | y^q = s, y*n*y^-1 = phi(n)>, N given by its table
    base (identity 0), phi an automorphism of N as an index array and s an
    element of N that phi fixes.  n*y^a is numbered n + |N|*a, and
    (n*y^a)(m*y^b) is n*phi^a(m)*s^[a+b >= q]*y^((a+b) mod q).
    FiniteGroup's validation refuses an inconsistent presentation.
    """
    size = len(base)
    left = base[None, :, None]  # [a, n, 0, m] = n*phi^a(m)
    step = np.asarray(phi)  # phi^0..phi^(q-1) by doubling: step is phi^len(left)
    while len(left) < q:
        left, step = np.concatenate([left, left[..., step]]), step[step]
    left = left[:q]
    ya = np.arange(0, q * size, size, dtype=np.int32)  # y^a is numbered |N|*a
    yab = ya[:, None] + ya
    if s:  # times s where a+b >= q; s = e (index 0) changes nothing
        left = np.where((yab >= q * size)[:, None, :, None], base[left, s], left)
    table = left + (yab % (q * size))[:, None, :, None]
    return table.reshape(q * size, q * size)


def _extension_names(names: list, q: int, y: str) -> list:
    """The names of n*y^a: n's name followed by y or y^a, e dropped when a >= 1."""
    powers = [y if a == 1 else f"{y}^{a}" for a in range(1, q)]
    return names + [y_a if n == "e" else f"{n}*{y_a}" for y_a in powers for n in names]


# Each 2-power family of order 2h is <x, y | x^h = 1, y^2 = x^sq, y*x = x^t*y>:
# kind -> ((t, sq) as a function of h, the name of x, the name of y).
_TWO_COSET = {
    "dihedral": (lambda h: (-1, 0), "r", "s"),
    "quaternion": (lambda h: (-1, h // 2), "x", "y"),
    "semidihedral": (lambda h: (h // 2 - 1, 0), "x", "y"),
    "modular": (lambda h: (h // 2 + 1, 0), "z", "t"),
}


def direct_product(a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
    """External direct product; element (x, y) is numbered x*|B| + y."""
    n = a.order * b.order
    _check_order(n)
    ta = a.table.astype(np.int64)
    tb = b.table.astype(np.int64)
    table = (
        ta[:, None, :, None] * b.order + tb[None, :, None, :]
    ).reshape(n, n)
    names = None
    if a.names and b.names:
        names = [f"({na},{nb})" for na in a.names for nb in b.names]
    desc = f"product:({a.descriptor},{b.descriptor})" if a.descriptor and b.descriptor else ""
    return FiniteGroup(table, descriptor=desc, names=names)


def build_group(spec: Union[str, GroupDescriptor]) -> FiniteGroup:
    """Construct the group a descriptor names.  See parse_descriptor for the grammar."""
    desc = parse_descriptor(spec)

    if desc.kind in PATH_KINDS:
        from . import fileio

        load = {"file": fileio.load_cayley_file, "perm": fileio.load_permutation_generators}
        return load[desc.kind](desc.params[0])

    _check_order(desc.order)
    if desc.kind == "product":
        return direct_product(build_group(desc.params[0]), build_group(desc.params[1]))

    if desc.kind == "elementary":
        p, k = desc.params
        table = _TRIVIAL
        for _ in range(k):
            table = _extension(table, p, range(len(table)), 0)
        digits = (np.arange(p**k)[:, None] // p ** np.arange(k)) % p
        names = [("" if p < 10 else "-").join(map(str, row)) for row in digits]
    elif desc.kind == "cyclic":
        m = desc.params[0]
        table, names = _extension(_TRIVIAL, m, [0], 0), _extension_names(["e"], m, "z")
    else:
        relations, x, y = _TWO_COSET[desc.kind]
        h = desc.params[0] // 2
        t, sq = relations(h)
        table = _extension(_extension(_TRIVIAL, h, [0], 0), 2, t * np.arange(h) % h, sq % h)
        names = _extension_names(_extension_names(["e"], h, x), 2, y)
    return FiniteGroup(table, descriptor=desc.canonical(), names=names)


def subgroup_as_group(g: FiniteGroup, members: ElementSet) -> FiniteGroup:
    """Reindex a subgroup's sub-table as a standalone group (elements sorted)."""
    _, idx, prod = _argument(g, members, "element set")
    idx = idx[0]
    pos = np.zeros(g.order, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    table = pos[prod[0]]
    names = [g.name_of(int(e)) for e in idx] if g.names else None
    desc = f"subgroup:[{','.join(map(str, idx))}]of({g.descriptor})"
    return FiniteGroup(table, descriptor=desc, names=names)


# ---------------------------------------------------------------------------
# Subset operations


def _close(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The closure of a bool mask that holds the identity, by squaring.

    S <- S*S until the count stops growing; S*S contains S because S holds
    the identity, and a set with S*S = S is closed under the product.  The
    table need not be associative: the result is then the closure under its
    own product, which is what the greedy generating set below needs.
    """
    mask = mask.copy()
    members = mask.nonzero()[0]
    while True:
        mask[table[members[:, None], members]] = True
        grown = mask.nonzero()[0]
        if grown.size == members.size:
            return mask
        members = grown


def _greedy_generators(table: np.ndarray, identity: int) -> np.ndarray:
    """Each element that lies outside the closure of those before it."""
    span = np.zeros(len(table), dtype=bool)
    span[identity] = True
    gens = []
    while not span.all():
        x = int(np.argmin(span))
        gens.append(x)
        span[x] = True
        span = _close(table, span)
    return np.asarray(gens, dtype=np.int64)


def _mask(n: int, values: np.ndarray) -> np.ndarray:
    """The bool mask of the distinct entries of an index array."""
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return mask


def _mask_of(members: ElementSet) -> np.ndarray:
    raw = np.frombuffer(members.bits.to_bytes((members.n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=members.n, bitorder="little").view(bool)


def _set_of(mask: np.ndarray) -> ElementSet:
    bits = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    return ElementSet(bits, mask.size)


def _seed_mask(g: FiniteGroup, seed) -> np.ndarray:
    """The identity and the seed elements as a mask; indices are range-checked."""
    idx = _mask_of(seed).nonzero()[0] if isinstance(seed, ElementSet) else [int(i) for i in seed]
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.order):
        bad = int(idx[(idx < 0) | (idx >= g.order)][0])
        raise GroupError(f"element index {bad} out of range for order {g.order}")
    mask = _mask(g.order, idx)
    mask[g.identity] = True
    return mask


def closure(g: FiniteGroup, seed) -> ElementSet:
    """Smallest subgroup containing the seed elements (the empty seed gives {e})."""
    return _set_of(_close(g.table, _seed_mask(g, seed)))


# ---------------------------------------------------------------------------
# The block kernel: m bool-mask rows of h members each, one numpy call per
# step.  The lattice runs it on a whole level of subgroups; each public
# operation below runs it on its argument, as a block of one row.


def _holds(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row: whether row r of the mask block holds every entry of values[r]."""
    return masks[np.arange(len(masks))[:, None, None], values].all(axis=(1, 2))


def _checked(
    g: FiniteGroup, masks: np.ndarray, what: str = "enumerated set"
) -> tuple[np.ndarray, np.ndarray]:
    """Member indices (m, h) and product tables (m, h, h) of a block of m
    bool-mask rows with h members each.

    Raises GroupError unless every row holds the identity and is closed
    under the product, that is, unless every row is a subgroup.
    """
    members = masks.nonzero()[1].reshape(len(masks), -1)
    prod = g.table[members[:, :, None], members[:, None, :]]
    if not (masks[:, g.identity].all() and _holds(masks, prod).all()):
        raise GroupError(f"{what} is not a subgroup")
    return members, prod


def _abelian(prod: np.ndarray) -> np.ndarray:
    """Per row: every two members commute, from the rows' product tables."""
    return (prod == prod.transpose(0, 2, 1)).all(axis=(1, 2))


def _normal(
    g: FiniteGroup, masks: np.ndarray, members: np.ndarray, conjugators: np.ndarray
) -> np.ndarray:
    """Per row: y^-1 K y lies in K for every y in conjugators.

    Conjugating by a generating set of G is enough: the elements that
    normalise K form a subgroup.
    """
    y = conjugators[None, :, None]
    return _holds(masks, g.table[g.table[g.inverses[y], members[:, None, :]], y])


def _images(n: int, power: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The (m, n) mask of each row's image under the map power."""
    mask = np.zeros((len(members), n), dtype=bool)
    mask[np.arange(len(members))[:, None], power[members]] = True
    return mask


def _argument(g: FiniteGroup, members: ElementSet, what: str) -> tuple[np.ndarray, ...]:
    """A subgroup argument as a checked block of one row: (mask, members, prod)."""
    if members.n != g.order:
        raise GroupError(f"{what} is not a subgroup")
    mask = _mask_of(members)[None]
    return (mask, *_checked(g, mask, what))


def _commutators(g: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """x^-1 y^-1 x y = (yx)^-1 (xy) for x in xs and y in the 1-d ys, as an
    array of shape xs.shape + ys.shape."""
    t = g.table
    x = xs[..., None]
    return t[g.inverses[t[ys, x]], t[x, ys]]


def _commutator_subgroup(g: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[<xs>, <ys>] as a mask, given the member indices of two subgroups."""
    return _close(g.table, _mask(g.order, _commutators(g, xs, ys)))


def _power_map(table: np.ndarray, identity: int, k: int) -> np.ndarray:
    """x -> x^k on every element, by repeated squaring."""
    n = table.shape[0]
    cur = np.full(n, identity, dtype=np.int64)
    base = np.arange(n, dtype=np.int64)
    while k:
        if k & 1:
            cur = table[cur, base].astype(np.int64)
        base = table[base, base].astype(np.int64)
        k >>= 1
    return cur


def _element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    """The order of every element of a group table, one prime of n at a time.

    The table is a group, so by Lagrange every order divides n.  For each
    prime q with q^a exactly dividing n, y = x^(n/q^a) has order the q-part
    q^j of x's order, and j is the number of q-th powers that take y to the
    identity: at most a steps, against one step per unit of the exponent
    when x is multiplied by itself until it returns to the identity.
    """
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int32)
    for q, a in factorize(n):
        y = _power_map(table, identity, n // q**a)
        qth = _power_map(table, identity, q)
        while (live := y != identity).any():
            orders[live] *= q
            y = qth[y]
    return orders


def is_subgroup(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff the set is nonempty and closed under the product."""
    try:
        _argument(g, members, "element set")
    except GroupError:
        return False
    return True


def is_abelian(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff every two members of the subgroup commute: [H, H] is trivial."""
    _, _, prod = _argument(g, members, "argument")
    return bool(_abelian(prod)[0])


def commutator_subgroup(g: FiniteGroup, a: ElementSet, b: ElementSet) -> ElementSet:
    """[A, B]: the subgroup generated by all commutators x^-1 y^-1 x y."""
    _, ai, _ = _argument(g, a, "first argument")
    _, bi, _ = _argument(g, b, "second argument")
    return _set_of(_commutator_subgroup(g, ai[0], bi[0]))


def power_subgroup(g: FiniteGroup, members: ElementSet, k: int) -> ElementSet:
    """H^k: the subgroup generated by the k-th powers of the members."""
    _, idx, _ = _argument(g, members, "argument")
    if k < 0:
        raise GroupError(f"power exponent must be >= 0, got {k}")
    return _set_of(_close(g.table, _images(g.order, _power_map(g.table, g.identity, k), idx)[0]))


def center(g: FiniteGroup) -> ElementSet:
    commutes = (g.table == g.table.T).all(axis=1)
    return _set_of(commutes)


def normal_closure(g: FiniteGroup, seed) -> ElementSet:
    """Smallest normal subgroup containing the seed elements."""
    idx = np.flatnonzero(_seed_mask(g, seed))
    allg = np.arange(g.order, dtype=np.int64)
    half = g.table[g.inverses[allg][:, None], idx]      # g^-1 * s
    conj = g.table[half, allg[:, None]]                 # (g^-1 s) * g
    return _set_of(_close(g.table, _mask(g.order, conj)))


def is_normal(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff the subgroup is invariant under conjugation by every element."""
    mask, idx, _ = _argument(g, members, "argument")
    return bool(_normal(g, mask, idx, g.generators)[0])


def quotient_group(g: FiniteGroup, normal: ElementSet) -> FiniteGroup:
    """G/N with cosets numbered by their smallest member, checked as a group.

    The quotient map is verified to be a surjective homomorphism on every
    pair of elements.
    """
    mask, idx, _ = _argument(g, normal, "normal subgroup")
    if not _normal(g, mask, idx, g.generators)[0]:
        raise GroupError("subgroup is not normal")
    idx = idx[0]
    n = g.order
    coset_id = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if coset_id[x] < 0:
            members = g.table[idx, x]
            coset_id[members] = len(reps)
            reps.append(x)
    reps_arr = np.asarray(reps, dtype=np.int64)
    table = coset_id[g.table[reps_arr[:, None], reps_arr]]

    phi = coset_id
    lhs = table[phi[:, None], phi[None, :]]
    rhs = phi[g.table]
    if not np.array_equal(lhs, rhs):
        x, y = map(int, np.argwhere(lhs != rhs)[0])  # pragma: no cover
        raise GroupError(f"quotient map fails homomorphism at pair ({x}, {y})")

    names = [f"[{g.name_of(int(r))}]" for r in reps] if g.names else None
    desc = f"quotient:({g.descriptor})/[{','.join(map(str, sorted(normal)))}]"
    return FiniteGroup(table, descriptor=desc, names=names)


def nilpotence_class(g: FiniteGroup) -> int:
    """Length of the lower central series: least c with G_c trivial (G_0 = G)."""
    whole = np.arange(g.order, dtype=np.int64)
    term = whole
    c = 0
    while term.size > 1:
        nxt = np.flatnonzero(_commutator_subgroup(g, term, whole))
        if nxt.size == term.size:
            raise GroupError("group is not nilpotent: lower central series stalls")
        term = nxt
        c += 1
    return c


def is_p_group(g: FiniteGroup) -> Optional[int]:
    """The prime p when |G| = p^k with k >= 1, else None (trivial group included)."""
    factors = factorize(g.order)
    return factors[0][0] if len(factors) == 1 else None


def coclass(g: FiniteGroup) -> int:
    """log_p |G| minus the nilpotence class; defined for nontrivial p-groups."""
    if is_p_group(g) is None:
        raise GroupError("coclass is defined for nontrivial p-groups only")
    return _coclass(g.order, nilpotence_class(g))


def _coclass(order: int, cls: int) -> int:
    """log_p of a p-power order minus a nilpotence class: the one statement
    of the coclass, for coclass above and for the sweep, which has the
    class already."""
    return factorize(order)[0][1] - cls
