"""Parsing and validation of group descriptor strings: the one way to name
a group, for the command line and for catalogs alike.

The descriptor grammar:

    cyclic:M | dihedral:M | quaternion:M | semidihedral:M | modular:M
    | elementary:P^K | product:(D1,D2) | file:PATH | perm:PATH

M is always the total group order.  The four 2-power families start at the
orders in LEAST_ORDER: dihedral:4 is the Klein four-group, the degenerate
member of the dihedral family, and semidihedral starts at 16 because its
defining relation collapses to an abelian group at order 8.  A PATH names a
Cayley file (file:) or a permutation-generator file (perm:); it runs to the
end of the descriptor, so it can be no product factor.  groups.build_group
builds every kind.
An elementary:P^K whose P or K exceeds HARD_MAX_ORDER is refused before P
is tested for a prime or P^K is formed, so no descriptor makes them hang.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["DescriptorError", "GroupDescriptor", "parse_descriptor", "prime_power"]

HARD_MAX_ORDER = 512

# The least order of each 2-power family.
LEAST_ORDER = {"dihedral": 4, "quaternion": 8, "semidihedral": 16, "modular": 8}

# The kinds whose one parameter is a file path.
PATH_KINDS = ("file", "perm")

KINDS = ("cyclic", *LEAST_ORDER, "elementary", "product", *PATH_KINDS)


class DescriptorError(ValueError):
    """Malformed or out-of-range group descriptor."""

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.position = position
        if text:
            message = f"{message} (in {text!r} at position {position})"
        super().__init__(message)


@dataclass(frozen=True)
class GroupDescriptor:
    """A parsed descriptor: construction kind plus kind-specific parameters.

    params holds (order,) for the single-parameter families, (p, k) for
    elementary, (left, right) sub-descriptors for product, and (path,) for
    the path kinds.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DescriptorError(f"unknown descriptor kind {self.kind!r}")

    def canonical(self) -> str:
        if self.kind == "elementary":
            p, k = self.params
            return f"elementary:{p}^{k}"
        if self.kind == "product":
            a, b = self.params
            return f"product:({a.canonical()},{b.canonical()})"
        return f"{self.kind}:{self.params[0]}"

    @property
    def order(self) -> Optional[int]:
        """Group order, or None for a path kind (unknown until the file is loaded)."""
        if self.kind in PATH_KINDS:
            return None
        if self.kind == "elementary":
            p, k = self.params
            return p**k
        if self.kind == "product":
            # the grammar admits no path factor, so both orders are known
            a, b = self.params
            return a.order * b.order
        return self.params[0]

    def __str__(self) -> str:
        return self.canonical()


@functools.cache  # each cache record read asks it of the group's order
def prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, k) when n = p^k for a prime p and k >= 1, else None (1 included)."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _parse_int(text: str, pos: int, what: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise DescriptorError(f"expected {what}", text, start)
    return int(text[start:pos]), pos


def _parse(text: str, pos: int) -> tuple[GroupDescriptor, int]:
    colon = text.find(":", pos)
    if colon < 0:
        raise DescriptorError("expected kind:params", text, pos)
    kind = text[pos:colon]
    if kind not in KINDS:
        raise DescriptorError(f"unknown kind {kind!r}", text, pos)
    pos = colon + 1

    if kind in PATH_KINDS:
        # The path runs to the end of the string; a path inside a product
        # would be ambiguous, so refuse commas and parens.
        path = text[pos:]
        if not path:
            raise DescriptorError(f"empty {kind} path", text, pos)
        if any(c in path for c in "(),"):
            raise DescriptorError(
                f"{kind} paths may not contain '(', ')' or ','", text, pos
            )
        return GroupDescriptor(kind, (path,)), len(text)

    if kind == "product":
        if pos >= len(text) or text[pos] != "(":
            raise DescriptorError("expected '(' after product:", text, pos)
        left, pos = _parse(text, pos + 1)
        if pos >= len(text) or text[pos] != ",":
            raise DescriptorError("expected ',' between product factors", text, pos)
        right, pos = _parse(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise DescriptorError("expected ')' closing product", text, pos)
        return GroupDescriptor("product", (left, right)), pos + 1

    if kind == "elementary":
        p, pos = _parse_int(text, pos, "prime")
        if pos >= len(text) or text[pos] != "^":
            raise DescriptorError("expected P^K for elementary", text, pos)
        k, pos = _parse_int(text, pos + 1, "exponent")
        if p <= HARD_MAX_ORDER and prime_power(p) != (p, 1):
            raise DescriptorError(f"{p} is not prime", text, pos)
        if k < 1:
            raise DescriptorError("exponent must be >= 1", text, pos)
        if max(p, k) > HARD_MAX_ORDER:  # then p^k > HARD_MAX_ORDER too
            raise DescriptorError(
                f"group order {p}^{k} exceeds construction cap {HARD_MAX_ORDER}", text, pos
            )
        return GroupDescriptor("elementary", (p, k)), pos

    m, end = _parse_int(text, pos, "order")
    if kind == "cyclic":
        if m < 1:
            raise DescriptorError("cyclic order must be >= 1", text, pos)
    elif m < LEAST_ORDER[kind] or m.bit_count() != 1:  # m may be too large to factor
        raise DescriptorError(
            f"{kind} order must be a power of 2, >= {LEAST_ORDER[kind]}; got {m}", text, pos
        )
    return GroupDescriptor(kind, (m,)), end


def parse_descriptor(text: Union[str, GroupDescriptor]) -> GroupDescriptor:
    """Parse a descriptor string; raise DescriptorError with a position on junk."""
    if isinstance(text, GroupDescriptor):
        return text
    text = text.strip()
    if not text:
        raise DescriptorError("empty descriptor")
    desc, pos = _parse(text, 0)
    if pos != len(text):
        raise DescriptorError("trailing characters after descriptor", text, pos)
    return desc
