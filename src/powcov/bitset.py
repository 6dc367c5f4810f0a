"""Subsets of a group's element range 0..n-1, stored as integer bitmasks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["ElementSet"]


@dataclass(frozen=True)
class ElementSet:
    """An immutable subset of {0, ..., n-1}, tagged with the ambient size n.

    ``bits`` has bit i set iff element i is a member.  Set algebra on two
    ElementSets with different n raises, which catches subsets of one group
    being mixed into another.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative ambient size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bitmask {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def singleton(cls, i: int, n: int) -> "ElementSet":
        return cls.from_indices((i,), n)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range for n={n}")
            bits |= 1 << i
        return cls(bits, n)

    def _check(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} != {other.n}")

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits | other.bits, self.n)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits & other.bits, self.n)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits & ~other.bits, self.n)

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ElementSet({{{','.join(map(str, self))}}}, n={self.n})"
