"""Closed-form arithmetic for dihedral 2-groups, with no Cayley tables.

The group of total order 2^(n+1) is generated by two reflections a, b whose
product ab is a rotation of order 2^n.  Every element is uniquely
(ab)^j * a^k with 0 <= j < 2^n and k in {0, 1}; rotations are k = 0.  Facts
implemented here and cross-validated against the table-based modules:

  * a rotation (ab)^j has order 2^n / gcd(j, 2^n);
  * two distinct reflections generate a Klein four-group exactly when their
    rotation offsets differ by the half-turn exponent 2^(n-1), and there are
    exactly 2^(n-1) such subgroups;
  * the full rotation subgroup plus those Klein subgroups is a cover of size
    2^(n-1) + 1 whose members are all abelian, hence powerful;
  * any cover by subgroups misses nothing only if some member is the full
    rotation subgroup, and every other member adds at most 2 reflections,
    which forces at least 2^(n-1) + 1 members.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Sequence

from .groups import build_group

__all__ = [
    "DihedralElement",
    "NFSubgroup",
    "nf_multiply",
    "nf_order",
    "rotation_subgroup_nf",
    "klein_subgroups_nf",
    "explicit_powerful_cover",
    "counting_bound_check",
    "nf_embed",
]


@dataclass(frozen=True)
class DihedralElement:
    """The element (ab)^j * a^k of the dihedral group of order 2^(n+1)."""

    n: int
    j: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dihedral index n must be >= 2, got {self.n}")
        if not 0 <= self.j < 1 << self.n:
            raise ValueError(f"rotation exponent {self.j} out of range for n={self.n}")
        if self.k not in (0, 1):
            raise ValueError(f"reflection bit must be 0 or 1, got {self.k}")

    @classmethod
    def identity(cls, n: int) -> "DihedralElement":
        return cls(n, 0, 0)

    @classmethod
    def rotation(cls, n: int, j: int) -> "DihedralElement":
        return cls(n, j % (1 << n), 0)

    @classmethod
    def reflection(cls, n: int, j: int) -> "DihedralElement":
        return cls(n, j % (1 << n), 1)

    @classmethod
    def half_turn(cls, n: int) -> "DihedralElement":
        return cls(n, 1 << (n - 1), 0)


def nf_multiply(x: DihedralElement, y: DihedralElement) -> DihedralElement:
    """(j1,k1)*(j2,k2) = (j1 + (-1)^k1 * j2 mod 2^n, k1 xor k2).

    A reflection conjugates the rotation part: a*(ab)^j = (ab)^(-j)*a.
    """
    if x.n != y.n:
        raise ValueError(f"mismatched dihedral index: {x.n} != {y.n}")
    mod = 1 << x.n
    j = (x.j - y.j) % mod if x.k else (x.j + y.j) % mod
    return DihedralElement(x.n, j, x.k ^ y.k)


def nf_order(x: DihedralElement) -> int:
    """Reflections have order 2; the rotation (ab)^j has order 2^n / gcd(j, 2^n)."""
    if x.k:
        return 2
    mod = 1 << x.n
    return mod // gcd(x.j, mod)


@dataclass(frozen=True)
class NFSubgroup:
    """A subgroup given by its normal-form members plus a structural label.

    label is "rotation-cyclic(d)" for the rotation subgroup of order d,
    "klein(r)" for the Klein subgroup through the reflections with offsets
    r and r + 2^(n-1), or "other".
    """

    n: int
    members: frozenset
    label: str

    def __len__(self) -> int:
        return len(self.members)

    def is_closed(self) -> bool:
        return all(
            nf_multiply(x, y) in self.members
            for x in self.members
            for y in self.members
        )


def rotation_subgroup_nf(n: int) -> NFSubgroup:
    """The full rotation subgroup <ab>, order 2^n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    members = frozenset(DihedralElement(n, j, 0) for j in range(1 << n))
    return NFSubgroup(n, members, f"rotation-cyclic({1 << n})")


def klein_subgroups_nf(n: int) -> List[NFSubgroup]:
    """All Klein four-subgroups, klein(r) for 0 <= r < 2^(n-1).

    klein(r) = {e, (ab)^r a, (ab)^(r + 2^(n-1)) a, half-turn}.  Two distinct
    reflections (ab)^s a and (ab)^t a commute exactly when their product
    (ab)^(s-t) is the half-turn, i.e. s = t + 2^(n-1) mod 2^n, so these are
    the only Klein subgroups and there are exactly 2^(n-1) of them.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    half = 1 << (n - 1)
    out = []
    for r in range(half):
        members = frozenset(
            {
                DihedralElement.identity(n),
                DihedralElement(n, r, 1),
                DihedralElement(n, r + half, 1),
                DihedralElement.half_turn(n),
            }
        )
        out.append(NFSubgroup(n, members, f"klein({r})"))
    return out


def explicit_powerful_cover(n: int) -> List[NFSubgroup]:
    """The rotation subgroup plus all 2^(n-1) Klein subgroups: a cover of
    size 2^(n-1) + 1 whose members are all abelian."""
    return [rotation_subgroup_nf(n)] + klein_subgroups_nf(n)


def counting_bound_check(n: int, cover: Sequence[NFSubgroup]) -> bool:
    """Check the counting argument that makes 2^(n-1)+1 members necessary.

    The cover must contain the full rotation subgroup (raises otherwise).
    Returns true iff every other member has at most 2 elements outside the
    rotations and the resulting capacity 2^n + 2(q-1) reaches |G| = 2^(n+1).
    """
    rotations = rotation_subgroup_nf(n).members
    if not any(c.members == rotations for c in cover):
        raise ValueError("cover does not contain the full rotation subgroup")
    q = len(cover)
    for c in cover:
        if c.members == rotations:
            continue
        if len(c.members - rotations) > 2:
            return False
    return (1 << n) + 2 * (q - 1) >= 1 << (n + 1)


def nf_embed(n: int) -> Dict[DihedralElement, int]:
    """Bijection from normal forms onto build_group(dihedral:2^(n+1)) indices.

    (ab)^j maps to rotation index j and (ab)^j a to reflection index
    2^n + j.  The map is checked to preserve every product; a failure would
    mean the two element conventions have drifted apart.
    """
    m = 1 << n
    g = build_group(f"dihedral:{2 * m}")
    phi = {}
    for j in range(m):
        phi[DihedralElement(n, j, 0)] = j
        phi[DihedralElement(n, j, 1)] = m + j
    elements = list(phi)
    for x in elements:
        for y in elements:
            if phi[nf_multiply(x, y)] != g.mul(phi[x], phi[y]):
                raise AssertionError(
                    f"normal-form product disagrees with the Cayley table at "
                    f"({x}, {y})"
                )
    return phi
