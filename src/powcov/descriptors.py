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
Products nest at most HARD_MAX_ORDER.bit_length() deep, so no descriptor
exhausts the parser's recursion.  No group under the cap needs more: a
product nested d deep has at least d+1 factors, so with its trivial
factors dropped it has order at least 2^(d+1).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple, Optional, Union

__all__ = ["DescriptorError", "GroupDescriptor", "factorize", "parse_descriptor", "prime_power"]

HARD_MAX_ORDER = 512
_MAX_NESTING = HARD_MAX_ORDER.bit_length()  # of products; see the module docstring

# The least order of each 2-power family.
LEAST_ORDER = {"dihedral": 4, "quaternion": 8, "semidihedral": 16, "modular": 8}

# The kinds whose one parameter is a file path.
PATH_KINDS = ("file", "perm")

KINDS = ("cyclic", *LEAST_ORDER, "elementary", "product", *PATH_KINDS)


class DescriptorError(ValueError):
    """Malformed or out-of-range group descriptor."""

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.position = position
        if len(text) > 80:  # quote 40 characters each side of position: one short line
            lo, hi = max(0, position - 40), position + 40
            text = ("..." if lo else "") + text[lo:hi] + ("..." if hi < len(text) else "")
        if text:
            message = f"{message} (in {text!r} at position {position})"
        super().__init__(message)


class GroupDescriptor(NamedTuple):
    """A parsed descriptor: construction kind plus kind-specific parameters.

    params holds (order,) for the single-parameter families, (p, k) for
    elementary, (left, right) sub-descriptors for product, and (path,) for
    the path kinds.  parse_descriptor refuses one of an unknown kind.
    """

    kind: str
    params: tuple

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


@functools.cache  # each construction and cache record read asks it of the order
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """((p, a), ...) with n the product of the p^a, primes ascending; () for n < 2."""
    primes, p = [], 2  # each prime divisor of n, with multiplicity
    while n > 1:
        p = next((d for d in range(p, math.isqrt(n) + 1) if n % d == 0), n)
        primes.append(p)
        n //= p
    return tuple(Counter(primes).items())


def prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, k) when n = p^k for a prime p and k >= 1, else None (1 included)."""
    factors = factorize(n)
    return factors[0] if len(factors) == 1 else None


def _parse_int(text: str, pos: int, what: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":  # ASCII only: isdigit() takes '²'
        pos += 1
    if pos == start:
        raise DescriptorError(f"expected {what}", text, start)
    try:
        return int(text[start:pos]), pos
    except ValueError:  # more digits than int() converts
        raise DescriptorError(f"{what} has {pos - start} digits, too many", text, start) from None


def _parse(text: str, pos: int, depth: int = 0) -> tuple[GroupDescriptor, int]:
    """The descriptor at pos, inside depth products, and the position after it."""
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
        if depth == _MAX_NESTING:
            raise DescriptorError(
                f"products nest deeper than {_MAX_NESTING} levels", text, colon - len(kind)
            )
        if pos >= len(text) or text[pos] != "(":
            raise DescriptorError("expected '(' after product:", text, pos)
        left, pos = _parse(text, pos + 1, depth + 1)
        if pos >= len(text) or text[pos] != ",":
            raise DescriptorError("expected ',' between product factors", text, pos)
        right, pos = _parse(text, pos + 1, depth + 1)
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
        big = max(p, k)
        if big > HARD_MAX_ORDER:  # then p^k > HARD_MAX_ORDER too
            order = f"{p}^{k}" if big >> 64 == 0 else f"P^K with P or K of {big.bit_length()} bits"
            raise DescriptorError(
                f"group order {order} exceeds construction cap {HARD_MAX_ORDER}", text, pos
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
        if text.kind not in KINDS:  # built by hand, not by _parse
            raise DescriptorError(f"unknown descriptor kind {text.kind!r}")
        return text
    text = text.strip()
    if not text:
        raise DescriptorError("empty descriptor")
    desc, pos = _parse(text, 0)
    if pos != len(text):
        raise DescriptorError("trailing characters after descriptor", text, pos)
    return desc
