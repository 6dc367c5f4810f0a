"""Text formats for moving groups in and out of the toolkit.

Two formats, both line-oriented, both carrying a mandatory format version:

Cayley file — the full multiplication table::

    # comments and blank lines are ignored
    version 1
    order 4
    table
    0 1 2 3
    1 0 3 2
    2 3 0 1
    3 2 1 0
    names        # optional section
    e
    a
    b
    ab

Table rows may separate entries with whitespace or commas.  Loading runs the
full group validation, so a malformed table fails with the same targeted
errors (first offending row/column/triple) as direct construction.

Permutation file — generators in image notation::

    version 1
    degree 3
    gen 1 0 2
    gen 0 2 1

The generators are closed under composition; element 0 of the resulting
group is the identity permutation, and the remaining elements are numbered
in breadth-first discovery order (stable for a given file).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from .descriptors import HARD_MAX_ORDER
from .groups import CapError, FiniteGroup, GroupError

__all__ = [
    "FileFormatError",
    "load_cayley_file",
    "save_cayley_file",
    "load_permutation_generators",
    "atomic_write_text",
    "content_lines",
]

FORMAT_VERSION = 1


class FileFormatError(GroupError):
    """A group file does not follow the expected layout."""


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see a
    partially written file.  Missing parent directories are created, and the
    file gets the mode open() would give it: os.open applies the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def content_lines(path: str) -> List[Tuple[int, str]]:
    """(line_number, stripped_text) for every non-blank, non-comment line."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            out.append((lineno, text))
    return out


def _expect_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(f"line {lineno}: {what} must be an integer, got {token!r}")


def _read_header(path: str, key: str, symbol: str) -> Tuple[List[Tuple[int, str]], int, int]:
    """The file's content lines, after checking the version line and the
    'key symbol' line below it, plus that line's number and its integer >= 1."""
    lines = content_lines(path)
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    lineno, text = lines[0]
    parts = text.split()
    if len(parts) != 2 or parts[0] != "version":
        raise FileFormatError(f"line {lineno}: expected 'version {FORMAT_VERSION}', got {text!r}")
    version = _expect_int(parts[1], "version", lineno)
    if version != FORMAT_VERSION:
        raise FileFormatError(f"line {lineno}: unsupported format version {version}")

    if len(lines) < 2 or lines[1][1].split()[0] != key:
        raise FileFormatError(f"{path}: expected '{key} {symbol}' after the version line")
    lineno, text = lines[1]
    parts = text.split()
    if len(parts) != 2:
        raise FileFormatError(f"line {lineno}: expected '{key} {symbol}', got {text!r}")
    value = _expect_int(parts[1], key, lineno)
    if value < 1:
        raise FileFormatError(f"line {lineno}: {key} must be >= 1, got {value}")
    return lines, lineno, value


def load_cayley_file(path: str) -> FiniteGroup:
    """Read a Cayley file and validate it as a group.

    An order header above HARD_MAX_ORDER is refused before any row is read.
    """
    lines, lineno, order = _read_header(path, "order", "N")
    if order > HARD_MAX_ORDER:
        raise CapError(
            f"line {lineno}: group order {order} exceeds construction cap {HARD_MAX_ORDER}"
        )
    if len(lines) < 3 or lines[2][1] != "table":
        raise FileFormatError(f"{path}: expected a 'table' section")
    pos = 3

    rows = []
    for i in range(order):
        if pos >= len(lines):
            raise FileFormatError(f"{path}: table has {i} rows, expected {order}")
        lineno, text = lines[pos]
        tokens = text.replace(",", " ").split()
        if len(tokens) != order:
            raise FileFormatError(
                f"line {lineno}: table row {i} has {len(tokens)} entries, expected {order}"
            )
        rows.append([_expect_int(t, f"table row {i} entry", lineno) for t in tokens])
        pos += 1

    names = None
    if pos < len(lines):
        lineno, text = lines[pos]
        if text != "names":
            raise FileFormatError(f"line {lineno}: unexpected content {text!r} after the table")
        pos += 1
        tokens: List[str] = []
        while pos < len(lines):
            tokens.extend(lines[pos][1].split())
            pos += 1
        if len(tokens) != order:
            raise FileFormatError(
                f"{path}: names section has {len(tokens)} entries, expected {order}"
            )
        names = tokens

    return FiniteGroup(rows, descriptor=f"file:{path}", names=names)


def save_cayley_file(g: FiniteGroup, path: str) -> None:
    """Write a group as a Cayley file; loading it back reproduces the table."""
    lines = [f"version {FORMAT_VERSION}", f"order {g.order}", "table"]
    for row in g.table:
        lines.append(" ".join(str(int(v)) for v in row))
    if g.names:
        lines.append("names")
        lines.extend(g.names)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_permutation(tokens: List[str], degree: int, lineno: int) -> Tuple[int, ...]:
    if len(tokens) != degree:
        raise FileFormatError(
            f"line {lineno}: generator has {len(tokens)} images, expected {degree}"
        )
    images = tuple(_expect_int(t, "image", lineno) for t in tokens)
    if sorted(images) != list(range(degree)):
        raise FileFormatError(
            f"line {lineno}: images {images} are not a permutation of 0..{degree - 1}"
        )
    return images


def load_permutation_generators(path: str) -> FiniteGroup:
    """Close a set of permutation generators into a full Cayley table.

    Composition is (p * q)(i) = p(q(i)): q acts first.  Raises CapError as
    soon as the closure exceeds HARD_MAX_ORDER.
    """
    lines, _, degree = _read_header(path, "degree", "d")

    gens: List[Tuple[int, ...]] = []
    for lineno, text in lines[2:]:
        tokens = text.split()
        if tokens[0] != "gen":
            raise FileFormatError(f"line {lineno}: expected 'gen <images>', got {text!r}")
        gens.append(_parse_permutation(tokens[1:], degree, lineno))
    if not gens:
        raise FileFormatError(f"{path}: expected at least one generator line")

    identity = tuple(range(degree))
    elements: List[Tuple[int, ...]] = [identity]
    index: Dict[Tuple[int, ...], int] = {identity: 0}
    cursor = 0
    while cursor < len(elements):
        p = elements[cursor]
        cursor += 1
        for q in gens:
            r = tuple(p[q[i]] for i in range(degree))
            if r not in index:
                if len(elements) >= HARD_MAX_ORDER:
                    raise CapError(
                        f"permutation closure exceeds the construction cap of "
                        f"{HARD_MAX_ORDER} elements"
                    )
                index[r] = len(elements)
                elements.append(r)

    n = len(elements)
    arr = np.array(elements, dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        composed = arr[i][arr]
        table[i] = [index[tuple(int(v) for v in row)] for row in composed]
    return FiniteGroup(table, descriptor=f"perm:{path}")
