"""Independent pure-Python oracles the test suite checks the library against.

Nothing here imports the library's lattice or solver code: subgroup
enumeration is closure over generator subsets, the subgroup flags come
straight from their definitions (every commutator, every k-th power, every
conjugate), the isomorphism-type tag walks every pair of involutions,
minimum covers come from exhaustive combination search, and the order-16
quaternion group is built from 2x2 matrices over the field with 17
elements.
"""

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


def find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            return e
    raise AssertionError("no identity element")


def close_with(
    table: Sequence[Sequence[int]], closed: FrozenSet[int], g: int
) -> FrozenSet[int]:
    """Closure of closed | {g}, where closed is already a subgroup."""
    members: Set[int] = set(closed)
    members.add(g)
    queue = [g]
    while queue:
        x = queue.pop()
        for y in tuple(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return frozenset(members)


def subset_closure_subgroups(table: Sequence[Sequence[int]]) -> Set[FrozenSet[int]]:
    """Every subgroup, as the set of closures of generator subsets.

    Depth-first over subsets with increasing element indices; a candidate
    generator already inside the current closure is skipped, which changes
    no closure value and bounds chains by strict growth.  A closure reached
    again from a start index no lower than on an earlier visit is not
    walked again: the calls dfs(C, s') makes are a subset of those dfs(C, s)
    makes for s <= s', so it would add nothing new.
    """
    n = len(table)
    identity = find_identity(table)
    base = frozenset([identity])
    found: Set[FrozenSet[int]] = {base}
    lowest_start: Dict[FrozenSet[int], int] = {}

    def dfs(current: FrozenSet[int], start: int) -> None:
        if lowest_start.get(current, n + 1) <= start:
            return
        lowest_start[current] = start
        for g in range(start, n):
            if g in current:
                continue
            bigger = close_with(table, current, g)
            found.add(bigger)
            dfs(bigger, g + 1)

    dfs(base, 0)
    return found


def exhaustive_min_cover(
    universe: FrozenSet[int], candidates: Sequence[FrozenSet[int]]
) -> Optional[Tuple[int, Tuple[FrozenSet[int], ...]]]:
    """Smallest cover by brute force over combinations, or None if even the
    union of all candidates misses part of the universe."""
    kept: List[FrozenSet[int]] = []
    for c in sorted(candidates, key=len, reverse=True):
        if not any(c <= k for k in kept):
            kept.append(c)
    union: Set[int] = set()
    for c in kept:
        union |= c
    if union != universe:
        return None
    for k in range(1, len(kept) + 1):
        for combo in combinations(kept, k):
            merged: Set[int] = set()
            for c in combo:
                merged |= c
            if merged == universe:
                return k, combo
    raise AssertionError("unreachable: full union covers")


def _mat_mul(a, b, p=17):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def f17_quaternion16_table() -> List[List[int]]:
    """Cayley table of the order-16 quaternion group realized by matrices.

    x = diag(2, 9) over F_17 has order 8 (2*9 = 1 mod 17), y = [[0,-1],[1,0]]
    satisfies y^2 = -I = x^4 and y^-1 x y = x^-1.
    """
    x = (2, 0, 0, 9)
    y = (0, 16, 1, 0)
    identity = (1, 0, 0, 1)
    elements = [identity]
    index: Dict[Tuple[int, int, int, int], int] = {identity: 0}
    cursor = 0
    while cursor < len(elements):
        m = elements[cursor]
        cursor += 1
        for g in (x, y):
            prod = _mat_mul(m, g)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
    assert len(elements) == 16, len(elements)
    return [
        [index[_mat_mul(a, b)] for b in elements]
        for a in elements
    ]


def element_orders(table: Sequence[Sequence[int]]) -> List[int]:
    identity = find_identity(table)
    out = []
    for g in range(len(table)):
        k, acc = 1, g
        while acc != identity:
            acc = table[acc][g]
            k += 1
        out.append(k)
    return out


def closure_of(table: Sequence[Sequence[int]], seeds) -> FrozenSet[int]:
    """The subgroup generated by the seed elements."""
    members = frozenset([find_identity(table)])
    for g in seeds:
        if g not in members:
            members = close_with(table, members, g)
    return members


def subgroup_flags(
    table: Sequence[Sequence[int]], members: FrozenSet[int], p: int
) -> Tuple[bool, bool, bool, bool]:
    """(abelian, normal, powerful, powerfully embedded) of the subgroup H of
    the p-group G, from the definitions over all elements:

    abelian: xy = yx for all x, y in H; normal: g^-1 h g in H for all g, h;
    powerful: [H, H] <= H^k; powerfully embedded: normal and [H, G] <= H^k;
    where [A, B] is generated by every x^-1 y^-1 x y (x in A, y in B), H^k
    by every x^k (x in H), and k = 4 at p = 2, else k = p.
    """
    n = len(table)
    identity = find_identity(table)
    inv = [table[x].index(identity) for x in range(n)]
    k = 4 if p == 2 else p

    def commutators(xs, ys):
        return {table[table[inv[x]][inv[y]]][table[x][y]] for x in xs for y in ys}

    def kth_power(x):
        acc = identity
        for _ in range(k):
            acc = table[acc][x]
        return acc

    power = closure_of(table, {kth_power(x) for x in members})
    abelian = all(table[x][y] == table[y][x] for x in members for y in members)
    normal = all(table[table[inv[g]][h]][g] in members for g in range(n) for h in members)
    powerful = closure_of(table, commutators(members, members)) <= power
    embedded = normal and closure_of(table, commutators(members, range(n))) <= power
    return abelian, normal, powerful, embedded


def classify_oracle(
    table: Sequence[Sequence[int]], orders: Sequence[int], members: FrozenSet[int]
) -> str:
    """The lattice's isomorphism-type tag of the subgroup H, given the
    element orders of G: H is dihedral when two involutions a != b with
    c = ab of order |H|/2 have a outside <c>, so that <c> u a<c> is H."""
    h = len(members)
    identity = orders.index(1)
    if h == 1:
        return "trivial"
    if any(orders[x] == h for x in members):
        return f"cyclic({h})"
    if h == 4 and all(orders[x] <= 2 for x in members):
        return "klein"
    invol = sorted(x for x in members if orders[x] == 2)
    if h % 2 == 0:
        for a in invol:
            for b in invol:
                c = table[a][b]
                if a == b or orders[c] != h // 2:
                    continue
                cyclic = {identity}
                cur = c
                while cur != identity:
                    cyclic.add(cur)
                    cur = table[cur][c]
                if a not in cyclic:
                    return f"dihedral({h})"
    if h & (h - 1) == 0 and len(invol) == 1:
        return "quaternion-like"
    return "other"
