"""Parsing and validation of group descriptor strings.

The descriptor grammar:

    cyclic:M | dihedral:M | quaternion:M | semidihedral:M | modular:M
    | elementary:P^K | product:(D1,D2) | file:PATH

M is always the total group order.  dihedral:4 is allowed (it denotes the
Klein four-group, the degenerate member of the dihedral 2-group family);
the other 2-group families require a power of two >= 8, except semidihedral
which starts at 16 because the defining relation collapses to an abelian
group at order 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["DescriptorError", "GroupDescriptor", "parse_descriptor"]

KINDS = (
    "cyclic",
    "dihedral",
    "quaternion",
    "semidihedral",
    "modular",
    "elementary",
    "product",
    "file",
)


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
    file.
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
        """Group order, or None for file: (unknown until the file is loaded)."""
        if self.kind == "file":
            return None
        if self.kind == "elementary":
            p, k = self.params
            return p**k
        if self.kind == "product":
            # the grammar admits no file: factor, so both orders are known
            a, b = self.params
            return a.order * b.order
        return self.params[0]

    def __str__(self) -> str:
        return self.canonical()


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and m & (m - 1) == 0


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

    if kind == "file":
        # The path runs to the end of the string; nested file descriptors
        # inside products would be ambiguous, so refuse commas and parens.
        path = text[pos:]
        if not path:
            raise DescriptorError("empty file path", text, pos)
        if any(c in path for c in "(),"):
            raise DescriptorError(
                "file paths may not contain '(', ')' or ','", text, pos
            )
        return GroupDescriptor("file", (path,)), len(text)

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
        if not _is_prime(p):
            raise DescriptorError(f"{p} is not prime", text, pos)
        if k < 1:
            raise DescriptorError("exponent must be >= 1", text, pos)
        return GroupDescriptor("elementary", (p, k)), pos

    m, end = _parse_int(text, pos, "order")
    if kind == "cyclic":
        if m < 1:
            raise DescriptorError("cyclic order must be >= 1", text, pos)
    elif kind == "dihedral":
        if not _is_power_of_two(m) or m < 4:
            raise DescriptorError(
                f"dihedral order must be a power of 2, >= 4; got {m}", text, pos
            )
    elif kind == "semidihedral":
        if not _is_power_of_two(m) or m < 16:
            raise DescriptorError(
                f"semidihedral order must be a power of 2, >= 16; got {m}", text, pos
            )
    else:  # quaternion, modular
        if not _is_power_of_two(m) or m < 8:
            raise DescriptorError(
                f"{kind} order must be a power of 2, >= 8; got {m}", text, pos
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
