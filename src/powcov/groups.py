"""Finite groups as validated Cayley tables, plus the standard 2-group families.

Elements are integers 0..n-1.  Every constructor validates the full group
axioms on the finished table (Latin square, identity, inverses, exhaustive
associativity), so anything downstream can trust the table blindly.

Canonical element numbering for the built-in families puts rotation-like
generator powers first and the reflection-type coset second:

    cyclic:M        i              <->  z^i
    dihedral:2m     i / m+i        <->  r^i / r^i*s
    quaternion:2h   i / h+i        <->  x^i / x^i*y      (y^2 = x^(h/2))
    semidihedral    i / h+i        <->  x^i / x^i*y      (y*x*y = x^(h/2-1))
    modular:2h      i / h+i        <->  z^i / z^i*t      (t*z*t = z^(h/2+1))
    elementary:p^k  base-p digit vectors, least significant digit first
    product:(A,B)   (a, b)         <->  a*|B| + b
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bitset import ElementSet
from .descriptors import DescriptorError, GroupDescriptor, parse_descriptor

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
    "HARD_MAX_ORDER",
]

HARD_MAX_ORDER = 512


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

        # a*(b*c) == (a*b)*c, checked one row of a at a time to bound memory.
        for a in range(n):
            lhs = table[table[a]]          # lhs[b, c] = (a*b)*c
            rhs = table[a][table]          # rhs[b, c] = a*(b*c)
            if not np.array_equal(lhs, rhs):
                b, c = map(int, np.argwhere(lhs != rhs)[0])
                raise ConstructionError(
                    f"associativity fails at triple ({a}, {b}, {c}): "
                    f"(a*b)*c = {int(lhs[b, c])}, a*(b*c) = {int(rhs[b, c])}"
                )

        inverses = np.argmax(table == ident, axis=1).astype(np.int32)

        orders = np.zeros(n, dtype=np.int32)
        cur = rng.copy()
        k = 1
        while (orders == 0).any():
            hit = (cur == ident) & (orders == 0)
            orders[hit] = k
            if (orders != 0).all():
                break
            cur = table[cur, rng]
            k += 1
        if (n % orders.astype(np.int64) != 0).any():
            bad = int(np.flatnonzero(n % orders != 0)[0])
            raise ConstructionError(
                f"element {bad} has order {int(orders[bad])}, not a divisor of {n}"
            )

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ConstructionError(
                    f"got {len(names)} names for {n} elements"
                )

        table.setflags(write=False)
        inverses.setflags(write=False)
        orders.setflags(write=False)
        self.order = n
        self.table = table
        self.identity = ident
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

    def __repr__(self) -> str:
        tag = self.descriptor or "?"
        return f"FiniteGroup({tag}, order={self.order})"


# ---------------------------------------------------------------------------
# Constructors


def _cyclic(m: int):
    i = np.arange(m, dtype=np.int32)
    table = (i[:, None] + i[None, :]) % m
    names = ["e"] + ["z" if j == 1 else f"z^{j}" for j in range(1, m)]
    return table, names


def _two_coset_table(h: int, t: int, sq: int):
    """Order-2h table for <x, y | x^h = 1, y^2 = x^sq, y*x = x^t*y>.

    Indices 0..h-1 are x^i, indices h..2h-1 are x^i*y.  Covers dihedral
    (t = -1, sq = 0), quaternion (t = -1, sq = h/2), semidihedral
    (t = h/2 - 1, sq = 0) and modular (t = h/2 + 1, sq = 0) in one shape.
    """
    n = 2 * h
    i = np.arange(h, dtype=np.int64)
    table = np.zeros((n, n), dtype=np.int32)
    rot = (i[:, None] + i[None, :]) % h
    table[:h, :h] = rot
    table[:h, h:] = rot + h                      # x^i * (x^j y) = x^(i+j) y
    ref = (i[:, None] + t * i[None, :]) % h      # (x^i y) * x^j = x^(i+tj) y
    table[h:, :h] = ref + h
    table[h:, h:] = (ref + sq) % h               # (x^i y)(x^j y) = x^(i+tj+sq)
    return table


def _family_names(h: int, rot: str, ref: str):
    names = ["e"] + [rot if j == 1 else f"{rot}^{j}" for j in range(1, h)]
    names += [ref] + [f"{rot}*{ref}" if j == 1 else f"{rot}^{j}*{ref}" for j in range(1, h)]
    return names


def _elementary(p: int, k: int):
    n = p**k
    i = np.arange(n, dtype=np.int64)
    digits = (i[:, None] // p ** np.arange(k)) % p          # (n, k)
    summed = (digits[:, None, :] + digits[None, :, :]) % p  # (n, n, k)
    table = (summed * p ** np.arange(k)).sum(axis=2).astype(np.int32)
    sep = "" if p < 10 else "-"
    names = [sep.join(str(d) for d in row) for row in digits]
    return table, names


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

    if desc.kind == "file":
        from .fileio import load_cayley_file

        return load_cayley_file(desc.params[0])

    _check_order(desc.order)
    if desc.kind == "product":
        return direct_product(build_group(desc.params[0]), build_group(desc.params[1]))

    if desc.kind == "elementary":
        table, names = _elementary(*desc.params)
        return FiniteGroup(table, descriptor=desc.canonical(), names=names)

    (m,) = desc.params
    if desc.kind == "cyclic":
        table, names = _cyclic(m)
    elif desc.kind == "dihedral":
        h = m // 2
        table = _two_coset_table(h, -1, 0)
        names = _family_names(h, "r", "s")
    elif desc.kind == "quaternion":
        h = m // 2
        table = _two_coset_table(h, -1, h // 2)
        names = _family_names(h, "x", "y")
    elif desc.kind == "semidihedral":
        h = m // 2
        table = _two_coset_table(h, h // 2 - 1, 0)
        names = _family_names(h, "x", "y")
    elif desc.kind == "modular":
        h = m // 2
        table = _two_coset_table(h, h // 2 + 1, 0)
        names = _family_names(h, "z", "t")
    else:  # pragma: no cover - parse_descriptor screens kinds
        raise DescriptorError(f"cannot build kind {desc.kind!r}")
    return FiniteGroup(table, descriptor=desc.canonical(), names=names)


def subgroup_as_group(g: FiniteGroup, members: ElementSet) -> FiniteGroup:
    """Reindex a subgroup's sub-table as a standalone group (elements sorted)."""
    if not is_subgroup(g, members):
        raise GroupError("element set is not a subgroup")
    idx = np.fromiter(members, dtype=np.int64, count=len(members))
    pos = {int(e): i for i, e in enumerate(idx)}
    sub = g.table[np.ix_(idx, idx)]
    table = np.vectorize(pos.__getitem__, otypes=[np.int32])(sub)
    names = [g.name_of(int(e)) for e in idx] if g.names else None
    desc = f"subgroup:[{','.join(map(str, idx))}]of({g.descriptor})"
    return FiniteGroup(table, descriptor=desc, names=names)


# ---------------------------------------------------------------------------
# Subset operations


def _as_indices(seed) -> list:
    if isinstance(seed, ElementSet):
        return list(seed)
    return [int(i) for i in seed]


def closure(g: FiniteGroup, seed) -> ElementSet:
    """Smallest subgroup containing the seed elements (the empty seed gives {e})."""
    n = g.order
    table = g.table
    in_set = np.zeros(n, dtype=bool)
    in_set[g.identity] = True
    members = [g.identity]
    queue = []
    for i in _as_indices(seed):
        if not 0 <= i < n:
            raise GroupError(f"element index {i} out of range for order {n}")
        if not in_set[i]:
            in_set[i] = True
            members.append(i)
            queue.append(i)
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        marr = np.asarray(members, dtype=np.int64)
        prods = np.unique(np.concatenate([table[f, marr], table[marr, f]]))
        fresh = prods[~in_set[prods]]
        if fresh.size:
            in_set[fresh] = True
            members.extend(int(x) for x in fresh)
            queue.extend(int(x) for x in fresh)
    bits = 0
    for i in members:
        bits |= 1 << i
    return ElementSet(bits, n)


def is_subgroup(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff the set is nonempty and closed under the product."""
    if members.n != g.order or len(members) == 0:
        return False
    if g.identity not in members:
        return False
    idx = np.fromiter(members, dtype=np.int64, count=len(members))
    prods = g.table[np.ix_(idx, idx)]
    mask = np.zeros(g.order, dtype=bool)
    mask[idx] = True
    return bool(mask[prods].all())


def _require_subgroup(g: FiniteGroup, members: ElementSet, what: str) -> np.ndarray:
    """The member indices of a checked subgroup; raises GroupError otherwise.

    The private cores below take such index arrays and trust them, so each
    public operation checks its arguments here once and then calls a core.
    """
    if not is_subgroup(g, members):
        raise GroupError(f"{what} is not a subgroup")
    return np.fromiter(members, dtype=np.int64, count=len(members))


def _commutator_values(g: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The distinct commutators x^-1 y^-1 x y over x in xs and y in ys."""
    inv = g.inverses
    prod = g.table[np.ix_(xs, ys)]                  # x*y
    invprod = g.table[np.ix_(inv[xs], inv[ys])]     # x^-1 * y^-1
    return np.unique(g.table[invprod, prod])


def _commutator_subgroup(g: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> ElementSet:
    return closure(g, _commutator_values(g, xs, ys))


def _power_map(g: FiniteGroup, k: int) -> np.ndarray:
    """x -> x^k on every element, by repeated squaring."""
    cur = np.full(g.order, g.identity, dtype=np.int64)
    base = np.arange(g.order, dtype=np.int64)
    while k:
        if k & 1:
            cur = g.table[cur, base].astype(np.int64)
        base = g.table[base, base].astype(np.int64)
        k >>= 1
    return cur


def _power_subgroup(g: FiniteGroup, idx: np.ndarray, power_map: np.ndarray) -> ElementSet:
    """H^k, given H's members and the map x -> x^k from _power_map."""
    return closure(g, np.unique(power_map[idx]))


def _is_normal(g: FiniteGroup, idx: np.ndarray, conjugators: np.ndarray) -> bool:
    """True iff y^-1 K y lies in K for every y in conjugators.

    Conjugating by a generating set of G is enough: the elements that
    normalise K form a subgroup.
    """
    half = g.table[np.ix_(g.inverses[conjugators], idx)]
    conj = g.table[half, conjugators[:, None]]
    mask = np.zeros(g.order, dtype=bool)
    mask[idx] = True
    return bool(mask[conj].all())


def is_abelian(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff every two members commute: [H, H] is trivial."""
    idx = np.fromiter(members, dtype=np.int64, count=len(members))
    return len(_commutator_subgroup(g, idx, idx)) == 1


def commutator_subgroup(g: FiniteGroup, a: ElementSet, b: ElementSet) -> ElementSet:
    """[A, B]: the subgroup generated by all commutators x^-1 y^-1 x y."""
    ai = _require_subgroup(g, a, "first argument")
    bi = _require_subgroup(g, b, "second argument")
    return _commutator_subgroup(g, ai, bi)


def power_subgroup(g: FiniteGroup, members: ElementSet, k: int) -> ElementSet:
    """H^k: the subgroup generated by the k-th powers of the members."""
    idx = _require_subgroup(g, members, "argument")
    if k < 0:
        raise GroupError(f"power exponent must be >= 0, got {k}")
    return _power_subgroup(g, idx, _power_map(g, k))


def center(g: FiniteGroup) -> ElementSet:
    commutes = (g.table == g.table.T).all(axis=1)
    return ElementSet.from_indices(np.flatnonzero(commutes).tolist(), g.order)


def normal_closure(g: FiniteGroup, seed) -> ElementSet:
    """Smallest normal subgroup containing the seed elements."""
    idx = np.asarray(sorted(set(_as_indices(seed))), dtype=np.int64)
    if idx.size == 0:
        return closure(g, ())
    if idx.min() < 0 or idx.max() >= g.order:
        raise GroupError("seed element out of range")
    allg = np.arange(g.order, dtype=np.int64)
    half = g.table[np.ix_(g.inverses[allg], idx)]       # g^-1 * s
    conj = g.table[half, allg[:, None]]                 # (g^-1 s) * g
    return closure(g, np.unique(conj))


def is_normal(g: FiniteGroup, members: ElementSet) -> bool:
    """True iff the subgroup is invariant under conjugation by every element."""
    idx = _require_subgroup(g, members, "argument")
    return _is_normal(g, idx, np.arange(g.order, dtype=np.int64))


def quotient_group(g: FiniteGroup, normal: ElementSet) -> FiniteGroup:
    """G/N with cosets numbered by their smallest member, checked as a group.

    The quotient map is verified to be a surjective homomorphism on every
    pair of elements.
    """
    idx = _require_subgroup(g, normal, "normal subgroup")
    if not _is_normal(g, idx, np.arange(g.order, dtype=np.int64)):
        raise GroupError("subgroup is not normal")
    n = g.order
    coset_id = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if coset_id[x] < 0:
            members = g.table[idx, x]
            coset_id[members] = len(reps)
            reps.append(x)
    q = len(reps)
    reps_arr = np.asarray(reps, dtype=np.int64)
    table = coset_id[g.table[np.ix_(reps_arr, reps_arr)]]

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
    term = g.full_set()
    c = 0
    while len(term) > 1:
        nxt = _commutator_subgroup(g, np.fromiter(term, dtype=np.int64, count=len(term)), whole)
        if nxt.bits == term.bits:
            raise GroupError("group is not nilpotent: lower central series stalls")
        term = nxt
        c += 1
    return c


def is_p_group(g: FiniteGroup) -> Optional[int]:
    """The prime p when |G| = p^k with k >= 1, else None (trivial group included)."""
    n = g.order
    if n == 1:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    m = n
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def coclass(g: FiniteGroup) -> int:
    """log_p |G| minus the nilpotence class; defined for nontrivial p-groups."""
    p = is_p_group(g)
    if p is None:
        raise GroupError("coclass is defined for nontrivial p-groups only")
    log = 0
    n = g.order
    while n > 1:
        n //= p
        log += 1
    return log - nilpotence_class(g)
