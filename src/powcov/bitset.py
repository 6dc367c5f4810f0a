"""Subsets of a group's element range 0..n-1, stored as integer bitmasks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["ElementSet"]


@dataclass(frozen=True)
class ElementSet:
    """An immutable subset of {0, ..., n-1}, tagged with the ambient size n.

    ``bits`` has bit i set iff element i is a member.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative ambient size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bitmask {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range for n={n}")
            bits |= 1 << i
        return cls(bits, n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __repr__(self) -> str:
        return f"ElementSet({{{','.join(map(str, self))}}}, n={self.n})"
