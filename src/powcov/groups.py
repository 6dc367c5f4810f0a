"""Finite groups as validated Cayley tables, plus the standard 2-group families.

Elements are integers 0..n-1 and a table is a tuple of n row tuples,
table[a][b] = a*b, in plain Python.  FiniteGroup.__init__ is the one proof
that a table is a group (Latin square, identity, inverses, associativity),
so anything downstream can trust the table blindly; _check_order, the one
comparison of an order with the cap, runs on its row count before any
entry is read.

Associativity uses Light's test (Clifford & Preston, The Algebraic Theory of
Semigroups, 1961, section 1.2): an element a passes when (x*a)*y = x*(a*y)
for all x and y, and the elements that pass are closed under the product.
So checking a generating set of the table under its own product proves
every triple, in O(n^2 * |gens|) instead of n^3; row x*(a*y) over y is
row x read at the entries of row a, one operator.itemgetter call.  The
greedy generating set adds the least element outside the span so far until
nothing is left.  The group keeps it as FiniteGroup.generators, the one set
every normality test conjugates by (is_normal, quotient_group and the
lattice's normal and powerfully-embedded flags): the normaliser of a
subgroup is a subgroup, so it is all of G once it holds a generating set.
On every built-in p-group the set has d = dim G/Phi(G) elements, the size
of a Burnside basis.

A subset of G is an int bitmask, bit i set when element i is a member: the
form every argument, result and lattice record takes.  A subgroup being
built is a list of its elements and a set of the same.  _adjoin is the one
closure step, here and in the lattice: it grows a subgroup H by a new
generator x to <H, x> by Dimino's coset enumeration.  <H, x> is the union
of the right cosets H*r that right multiplication by the generators reaches
from H*x, so each step costs one product per element gained plus one per
coset and generator.  A subgroup argument gets one check (_checked): a mask
that is negative or has a bit at or above |G| fails it; otherwise its
greedy generators are adjoined one at a time, and the check fails as soon
as a coset leaves the set.  What the check returns, the members and those
generators, then serves the operation: abelian and normal tests read the
generators only.  _commutators is the one commutator step, as _adjoin is
the one closure step: the commutators [x, y] other than the identity, x
and y over two sets, which every abelian, normal and powerful test reads.

Every built-in group but a product is built from the trivial group by
_extension, one generator y at a time, which numbers n*y^a as n + |N|*a
and names it n*y^a with e dropped: cyclic:M is one extension (z^i),
elementary:p^k is k of them with trivial action (named by base-p digits,
least significant first) and each 2-power family one of C_h, as in
_TWO_COSET.  A product numbers (a, b) as a*|B| + b.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from math import gcd
from operator import add, index, itemgetter
from typing import Callable, Optional, Sequence, Union

from .descriptors import HARD_MAX_ORDER, PATH_KINDS, GroupDescriptor, parse_descriptor, prime_power

__all__ = [
    "GroupError",
    "ConstructionError",
    "CapError",
    "FiniteGroup",
    "build_group",
    "direct_product",
    "subgroup_as_group",
    "is_subgroup",
    "is_abelian",
    "center",
    "is_normal",
    "quotient_group",
    "nilpotence_class",
    "coclass",
    "is_p_group",
]

Table = tuple[tuple[int, ...], ...]


class GroupError(ValueError):
    """Base class for group construction and operation failures."""


class ConstructionError(GroupError):
    """A purported Cayley table violates the group axioms."""


class CapError(GroupError):
    """A requested group is larger than HARD_MAX_ORDER."""


def _check_order(n: int, where: str = "") -> None:
    """Raise CapError if n exceeds HARD_MAX_ORDER, naming n from 2^64 on by its bit length."""
    if n > HARD_MAX_ORDER:
        size = f"of {n.bit_length()} bits" if n >> 64 else n
        raise CapError(f"{where}group order {size} exceeds construction cap {HARD_MAX_ORDER}")


def _getter(index: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A function taking a sequence to the tuple of its entries at index
    (nonempty), at C speed."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda values: (get(values),)


def _gather(values: Sequence[int], index: Sequence[int]) -> tuple:
    """tuple(values[i] for i in index)."""
    return _getter(index)(values)


def _refuse_line(rows: Table, word: str, other: str, i: int, line: Sequence[int]):
    """Raise the error for a table line that is not a permutation: the first
    entry of the table out of range, else the line's least repeated value."""
    n = len(rows)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not 0 <= v < n:
                raise ConstructionError(f"entry out of range at row {r}, col {c}: {v}")
    dup = min(v for v in line if line.count(v) > 1)
    at = [j for j, v in enumerate(line) if v == dup]
    raise ConstructionError(
        f"{word} {i} is not a permutation: value {dup} repeats at {other}s {at[0]} and {at[1]}"
    )


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Attributes:
        order: number of elements n.
        table: tuple of n row tuples, table[a][b] = a*b.
        identity: index of the identity element.
        generators: tuple of a generating set, the greedy one that Light's
            test checked.
        inverses: tuple, inverses[a] = a^-1.
        element_orders: tuple of multiplicative orders.
        descriptor: provenance string ("dihedral:16", "quotient:...", ...).
        names: optional per-element display names (whitespace-free tokens,
            none starting with '#').
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        descriptor: str = "",
        names: Optional[Sequence[str]] = None,
    ):
        try:
            rows = tuple(table)
            _check_order(len(rows))  # before any entry is read
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise ConstructionError("table must be a square sequence of rows of integers") from None
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ConstructionError(f"table must be square: {n} rows, row {i} has {len(row)} entries")
        if n == 0:
            raise ConstructionError("empty table")
        # A line is a permutation iff its set is {0..n-1}; range errors come first.
        full = set(range(n))
        columns = tuple(zip(*rows))
        for word, other, lines in (("row", "column", rows), ("column", "row", columns)):
            for i, line in enumerate(lines):
                if set(line) != full:
                    _refuse_line(rows, word, other, i, line)

        rng = tuple(range(n))
        ident = next((i for i in rng if rows[i] == rng and columns[i] == rng), None)
        if ident is None:
            raise ConstructionError("no two-sided identity element")

        # Light's test on a greedy generating set; see the module docstring.
        generators = tuple(_greedy_generators(rows, ident, rng))
        for a in generators:
            after = _getter(rows[a])
            for x, row in enumerate(rows):
                lhs, rhs = rows[row[a]], after(row)  # (x*a)*y and x*(a*y) over y
                if lhs != rhs:
                    y = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                    raise ConstructionError(
                        f"associativity fails at triple ({x}, {a}, {y}): "
                        f"(a*b)*c = {lhs[y]}, a*(b*c) = {rhs[y]}"
                    )

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ConstructionError(
                    f"got {len(names)} names for {n} elements"
                )
            # A Cayley file holds each name as one token on a line of its own.
            bad = next((i for i, s in enumerate(names) if s.split() != [s] or s.startswith("#")), None)
            if bad is not None:
                raise ConstructionError(
                    f"name {names[bad]!r} of element {bad} is empty, holds whitespace or starts with '#'"
                )

        self.order = n
        self.table: Table = rows
        self.identity = ident
        self.generators = generators
        self.inverses = tuple(row.index(ident) for row in rows)
        self.element_orders = _element_orders(rows, ident)
        self.descriptor = descriptor
        self.names = names
        self._content_key: Optional[str] = None

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def full_set(self) -> int:
        return (1 << self.order) - 1

    def content_key(self) -> str:
        """sha256 of the table as int32 bytes, row by row; the
        content-addressed cache key."""
        if self._content_key is None:
            import hashlib
            from array import array

            h = hashlib.sha256()
            h.update(b"powcov-cayley-v1")
            h.update(self.order.to_bytes(4, "little"))
            h.update(b"".join(array("i", row).tobytes() for row in self.table))
            self._content_key = h.hexdigest()
        return self._content_key

    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order

    def __repr__(self) -> str:
        tag = self.descriptor or "?"
        return f"FiniteGroup({tag}, order={self.order})"


# ---------------------------------------------------------------------------
# Constructors


# The trivial group: the base of every built-in table.
_TRIVIAL: Table = ((0,),)


def _extension(base: Table, q: int, phi: Sequence[int], s: int) -> Table:
    """The table of <N, y | y^q = s, y*n*y^-1 = phi(n)>, N given by its table
    base (identity 0), phi an automorphism of N as an index sequence and s
    an element of N that phi fixes.  n*y^a is numbered n + |N|*a, and
    (n*y^a)(m*y^b) is n*phi^a(m)*s^[a+b >= q]*y^((a+b) mod q).
    FiniteGroup's validation refuses an inconsistent presentation.
    """
    size = len(base)
    powers = [tuple(range(size))]  # phi^a as index tuples
    while len(powers) < q:
        powers.append(_gather(phi, powers[-1]))
    # y^(a+b) is numbered |N|*((a+b) mod q): the offsets of row block a are
    # those of block 0 turned left by a blocks.
    ys = tuple(chain.from_iterable(repeat(size * b, size) for b in range(q)))
    times_s = tuple(row[s] for row in base)
    table = []
    for a, power in enumerate(powers):
        act = _getter(power)
        offsets = ys[a * size:] + ys[:a * size]
        for row in base:
            left = act(row)  # n*phi^a(m) over m
            wrapped = _gather(times_s, left) if s else left  # times s where a+b >= q
            table.append(tuple(map(add, offsets, left * (q - a) + wrapped * a)))
    return tuple(table)


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
    table = []
    for row_a in a.table:
        scaled = tuple(chain.from_iterable(repeat(v * b.order, b.order) for v in row_a))
        table += (tuple(map(add, scaled, row_b * a.order)) for row_b in b.table)
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
        sep = "" if p < 10 else "-"
        names = [sep.join(str(x // p**i % p) for i in range(k)) for x in range(p**k)]
    elif desc.kind == "cyclic":
        m = desc.params[0]
        table, names = _extension(_TRIVIAL, m, [0], 0), _extension_names(["e"], m, "z")
    else:
        relations, x, y = _TWO_COSET[desc.kind]
        h = desc.params[0] // 2
        t, sq = relations(h)
        table = _extension(_extension(_TRIVIAL, h, [0], 0), 2, [t * i % h for i in range(h)], sq % h)
        names = _extension_names(_extension_names(["e"], h, x), 2, y)
    return FiniteGroup(table, descriptor=desc.canonical(), names=names)


def subgroup_as_group(g: FiniteGroup, members: int) -> FiniteGroup:
    """Reindex a subgroup's sub-table as a standalone group (elements sorted)."""
    idx, _ = _checked(g, members, "element set")
    pos = {x: i for i, x in enumerate(idx)}
    table = [[pos[g.table[x][y]] for y in idx] for x in idx]
    names = [g.name_of(e) for e in idx] if g.names else None
    desc = f"subgroup:[{','.join(map(str, idx))}]of({g.descriptor})"
    return FiniteGroup(table, descriptor=desc, names=names)


# ---------------------------------------------------------------------------
# Subsets: int bitmasks, and subgroups as (elements, span, gens) while built


_BIT = tuple(1 << i for i in range(HARD_MAX_ORDER))
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _members_of(bits: int) -> list[int]:
    """The elements of a bitmask, ascending."""
    return list(compress(count(), format(bits, "b")[::-1].encode().translate(_DIGITS)))


def _bits_of(elements) -> int:
    """The bitmask of distinct elements."""
    return sum(map(_BIT.__getitem__, elements))


def _adjoin(table: Table, elements: list, span: set, gens: list, x: int, inside=None) -> bool:
    """Grow the subgroup H that elements lists (span holds the same elements,
    gens generates them) to <H, x>, x outside H, in place: x joins gens and
    each right coset H*r that right multiplication by gens reaches from H*x
    joins H.  Returns False, leaving the three half grown, as soon as a coset
    leaves the set inside.

    The cosets reached are closed under right multiplication by every
    generator, and hold H, so their union is <H, x>.  On a table that is
    not yet known to be a group the union is still a set of products of
    gens, which is what the greedy generating set needs.
    """
    gens.append(x)
    if len(elements) == 1:  # H = {e}: walk the powers of x instead
        power = x
        while power not in span:
            if inside is not None and power not in inside:
                return False
            span.add(power)
            elements.append(power)
            power = table[power][x]
        return True
    rows = list(map(table.__getitem__, elements))
    queue = [x]
    while queue:
        r = queue.pop()
        if r in span:
            continue
        coset = list(map(itemgetter(r), rows))
        if inside is not None and not inside.issuperset(coset):
            return False
        span.update(coset)
        elements += coset
        queue += map(table[r].__getitem__, gens)
    return True


def _generate(g: FiniteGroup, seeds, conjugators=()) -> tuple[list, set, list]:
    """(elements, span, gens) of the least subgroup that holds the seeds
    and is closed under conjugation by each element of conjugators: each
    generator adjoined sends its conjugates back as seeds."""
    table, inverses = g.table, g.inverses
    elements, span, gens = [g.identity], {g.identity}, []
    seeds = list(seeds)
    while seeds:
        x = seeds.pop()
        if x not in span:
            _adjoin(table, elements, span, gens, x)
            seeds += [table[table[inverses[y]][x]][y] for y in conjugators]
    return elements, span, gens


def _greedy_generators(table: Table, identity: int, members: Sequence[int], inside=None) -> Optional[list]:
    """Each of the members that lies outside the span of those before it,
    or None as soon as a coset leaves the set inside."""
    elements, span, gens = [identity], {identity}, []
    for x in members:
        if len(span) == len(members):
            break
        if x not in span and not _adjoin(table, elements, span, gens, x, inside):
            return None
    return gens


def _checked(g: FiniteGroup, bits: int, what: str = "enumerated set") -> tuple[list, list]:
    """The members, ascending, and the greedy generators of a bitmask.

    Raises GroupError unless the mask is a subset of G (not negative, no bit
    at or above |G|) that holds the identity and is closed under the
    product, that is, unless it is a subgroup: each member outside the span
    of the generators so far is adjoined, and a coset that leaves the set
    fails the check.  The span then equals the set.
    """
    if bits < 0 or bits >> g.order:
        raise GroupError(f"{what} is not a subgroup")
    members = _members_of(bits)
    inside = set(members)
    gens = _greedy_generators(g.table, g.identity, members, inside) if g.identity in inside else None
    if gens is None:
        raise GroupError(f"{what} is not a subgroup")
    return members, gens


def _commutators(g: FiniteGroup, xs, ys) -> set[int]:
    """The commutators [x, y] = x^-1 y^-1 x y = (yx)^-1 (xy) other than the
    identity, x in xs, y in ys."""
    t, inv = g.table, g.inverses
    return {t[inv[t[y][x]]][t[x][y]] for x in xs for y in ys} - {g.identity}


def _normal(g: FiniteGroup, bits: int, gens: Sequence[int], conjugators: Sequence[int]) -> bool:
    """Whether y^-1 x y = x [x, y] lies in the subgroup bits, that is,
    whether [x, y] does, for every generator x of it and every y in
    conjugators.  Conjugating by a generating set of G is enough: the
    elements that normalise a subgroup form a subgroup."""
    return all(bits >> c & 1 for c in _commutators(g, gens, conjugators))


def _power(table: Table, identity: int, x: int, k: int) -> int:
    """x^k, by repeated squaring."""
    out = identity
    while k:
        if k & 1:
            out = table[out][x]
        x, k = table[x][x], k >> 1
    return out


def _power_map(table: Table, identity: int, k: int) -> tuple[int, ...]:
    """x -> x^k on every element."""
    return tuple(_power(table, identity, x, k) for x in range(len(table)))


def _element_orders(table: Table, identity: int) -> tuple[int, ...]:
    """The order of every element of a group table.  Each element whose
    order is not known yet walks its powers x, x^2, .. back to the identity;
    that walk of length m gives every power x^j its order m / gcd(j, m)."""
    orders = [0] * len(table)
    for x in range(len(table)):
        if not orders[x]:
            powers = [x]
            while powers[-1] != identity:
                powers.append(table[powers[-1]][x])
            m = len(powers)
            for j, y in enumerate(powers, 1):
                orders[y] = m // gcd(j, m)
    return tuple(orders)


def is_subgroup(g: FiniteGroup, members: int) -> bool:
    """True iff the set is nonempty and closed under the product."""
    try:
        _checked(g, members, "element set")
    except GroupError:
        return False
    return True


def is_abelian(g: FiniteGroup, members: int) -> bool:
    """True iff every two members of the subgroup commute: its generators do."""
    _, gens = _checked(g, members, "argument")
    return not _commutators(g, gens, gens)


def center(g: FiniteGroup) -> int:
    """The elements that commute with every generator of G."""
    return _bits_of(z for z in range(g.order) if not _commutators(g, (z,), g.generators))


def is_normal(g: FiniteGroup, members: int) -> bool:
    """True iff the subgroup is invariant under conjugation by every element."""
    _, gens = _checked(g, members, "argument")
    return _normal(g, members, gens, g.generators)


def quotient_group(g: FiniteGroup, normal: int) -> FiniteGroup:
    """G/N with cosets numbered by their smallest member.

    N is proved normal first, so the product of two cosets is well defined;
    FiniteGroup then validates the quotient table as it does every table.
    """
    idx, gens = _checked(g, normal, "normal subgroup")
    if not _normal(g, normal, gens, g.generators):
        raise GroupError("subgroup is not normal")
    n = g.order
    coset_id = [-1] * n
    reps = []
    for x in range(n):
        if coset_id[x] < 0:
            for m in idx:
                coset_id[g.table[m][x]] = len(reps)
            reps.append(x)
    at_reps = _getter(reps)
    table = tuple(_gather(coset_id, at_reps(g.table[r])) for r in reps)

    names = [f"[{g.name_of(r)}]" for r in reps] if g.names else None
    desc = f"quotient:({g.descriptor})/[{','.join(map(str, idx))}]"
    return FiniteGroup(table, descriptor=desc, names=names)


def nilpotence_class(g: FiniteGroup) -> int:
    """Length of the lower central series: least c with G_c trivial (G_0 = G).

    G_(i+1) = [G_i, G] is the normal closure in G of the commutators of the
    generators of G_i with those of G (G_i is normal; Robinson 5.1.7).
    """
    size, gens = g.order, list(g.generators)
    c = 0
    while size > 1:
        elements, _, gens = _generate(g, _commutators(g, gens, g.generators), g.generators)
        if len(elements) == size:
            raise GroupError("group is not nilpotent: lower central series stalls")
        size = len(elements)
        c += 1
    return c


def is_p_group(g: FiniteGroup) -> Optional[int]:
    """The prime p when |G| = p^k with k >= 1, else None (trivial group included)."""
    power = prime_power(g.order)
    return None if power is None else power[0]


def coclass(g: FiniteGroup) -> int:
    """log_p |G| minus the nilpotence class; defined for nontrivial p-groups."""
    if is_p_group(g) is None:
        raise GroupError("coclass is defined for nontrivial p-groups only")
    return _coclass(g.order, nilpotence_class(g))


def _coclass(order: int, cls: int) -> int:
    """log_p of a p-power order minus a nilpotence class: the one statement
    of the coclass, for coclass above and for the sweep, which has the
    class already."""
    return prime_power(order)[1] - cls
