"""Named collections of groups to sweep and verify against.

The built-in catalog holds every group the descriptor grammar can build
directly, restricted to p-groups (the covering predicates are only defined
there): cyclic groups of prime-power order, the four 2-power families,
elementary abelian groups, and a spread of direct products, all of order
at most 128.  Elementary 2-groups stop at order 32 because their subgroup
counts explode combinatorially (order 64 already has 2825 subgroups).

External catalogs are plain text files, one entry per line: an id and a
descriptor, in the grammar every command reads (see descriptors)::

    # comment
    my-d16  dihedral:16
    cas-export-7  perm:groups/o64_007.perm
    weird  file:tables/weird.cayley

Relative paths of the path kinds (file:, perm:) are resolved against the
catalog file's own directory, so a catalog directory can be moved as a unit.
A file that repeats an id is refused.  An entry builds its group once and
keeps it, or the OSError or ValueError its build raised, for every later
call, so its error can be named once (CatalogEntry.error).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .descriptors import PATH_KINDS, parse_descriptor, prime_power
from .fileio import content_lines
from .groups import FiniteGroup, build_group

__all__ = [
    "CatalogEntry",
    "builtin_catalog",
    "entry_order",
    "load_catalog_file",
    "select_entries",
]


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog row: a stable id plus the descriptor that names its group."""

    id: str
    source: str
    # the group or the error of the first build, set once though frozen
    _built: Any = field(default=None, init=False, repr=False, compare=False)

    def build(self) -> FiniteGroup:
        """The entry's group, constructed on the first call only."""
        if self._built is None:
            try:
                object.__setattr__(self, "_built", build_group(self.source))
            except (OSError, ValueError) as exc:
                object.__setattr__(self, "_built", exc)
        if self.error is not None:
            raise self.error
        return self._built

    @property
    def error(self) -> Optional[Exception]:
        """The error the entry's build raised; None while it is unbuilt or built."""
        return self._built if isinstance(self._built, Exception) else None


def entry_order(entry: CatalogEntry) -> Optional[int]:
    """The entry's group order, read from its descriptor; a path kind's
    group is built to read it.  None when the source does not parse or the
    build fails, so the caller meets the error when it builds the entry.
    """
    try:
        order = parse_descriptor(entry.source).order
        return entry.build().order if order is None else order
    except (OSError, ValueError):
        return None


def builtin_catalog(max_order: Optional[int] = 128) -> List[CatalogEntry]:
    """The shipped catalog, in deterministic order, filtered to max_order."""
    specs: List[str] = ["cyclic:1"]
    specs += [f"cyclic:{q}" for q in range(2, 129) if prime_power(q)]
    specs += [f"elementary:2^{k}" for k in range(2, 6)]
    specs += ["elementary:3^2", "elementary:3^3", "elementary:3^4",
              "elementary:5^2", "elementary:7^2"]
    specs += [f"dihedral:{m}" for m in (4, 8, 16, 32, 64, 128)]
    specs += [f"quaternion:{m}" for m in (8, 16, 32, 64, 128)]
    specs += [f"semidihedral:{m}" for m in (16, 32, 64, 128)]
    # modular:8 is skipped: at order 8 the presentation collapses onto the
    # dihedral group already listed.
    specs += [f"modular:{m}" for m in (16, 32, 64, 128)]
    specs += [
        "product:(cyclic:4,cyclic:2)",
        "product:(cyclic:4,cyclic:4)",
        "product:(cyclic:8,cyclic:2)",
        "product:(dihedral:8,cyclic:2)",
        "product:(dihedral:8,cyclic:4)",
        "product:(dihedral:16,cyclic:2)",
        "product:(dihedral:32,cyclic:2)",
        "product:(quaternion:8,cyclic:2)",
        "product:(dihedral:8,dihedral:8)",
    ]
    return select_entries([CatalogEntry(id=s, source=s) for s in specs], max_order)


def select_entries(
    entries: Optional[Sequence[CatalogEntry]], max_order: Optional[int]
) -> List[CatalogEntry]:
    """The entries (the built-in catalog when None) of order at most
    max_order, in catalog order; every entry when max_order is None.

    An entry whose order cannot be read is kept, so whoever builds it meets
    the error.
    """
    if entries is None:
        return builtin_catalog(max_order)
    if max_order is None:
        return list(entries)
    return [e for e in entries if (order := entry_order(e)) is None or order <= max_order]


def load_catalog_file(path: str) -> List[CatalogEntry]:
    """Parse an external catalog file into entries, resolving relative paths."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    first_line: Dict[str, int] = {}
    for lineno, text in content_lines(path):
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<id> <source>', got {text!r}")
        entry_id, source = parts[0], parts[1].strip()
        first = first_line.setdefault(entry_id, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate id {entry_id!r} (first on line {first})")
        kind, colon, rel = source.partition(":")
        if kind in PATH_KINDS and colon and not os.path.isabs(rel):
            source = f"{kind}:{os.path.join(base, rel)}"
        entries.append(CatalogEntry(id=entry_id, source=source))
    return entries
