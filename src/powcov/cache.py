"""The lattices of one run, kept in memory and optionally on disk.

A LatticeCache holds every lattice a run has needed, keyed by the group's
content key (a digest of its multiplication table), so groups with equal
tables share one lattice.  Given a directory, it also keeps each lattice in
a JSON sidecar file named by that key, so a cache hit can never pair a
lattice with the wrong group: renaming or re-deriving a group with the same
table still hits, while any change to the table misses.  Serialization is
deterministic and an entry holds only what the table determines (not the
descriptor that built it), so a cache hit is byte-identical to what
recomputation would store.  This module owns the envelope (version, content
key, order, SHA-256 digest of the records); Subgroup.record and from_record
write and read each record: its bits and four FLAGS, not what they or the
lattice give (order, proper, maximal, tag).  An entry is used only if
serialize_lattice writes back exactly its text for the lattice its records
describe, so the writer states the format once.  Beyond that round trip, a
record's bits must lie in G and hold the identity, and the records must
hold the trivial subgroup and G and meet Frobenius' count (one deleted
record breaks it).  Any other entry, or one that is not UTF-8 JSON, is
recomputed and overwritten.  With the digest recomputed, p records deleted
at one order or a flipped flag still pass.  `powcov sigma`'s re-checks
refuse such an entry where it gives a wrong witness or a wrong INF, but
not where it only inflates a finite answer: two Klein records deleted from
dihedral:16 give sigma_P = 7, not 5.  I/O failures (an entry that is not
a regular file too) degrade to recomputation and are logged.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from .descriptors import factorize
from .fileio import atomic_write_text, read_text
from .groups import FiniteGroup
from .lattice import Lattice, Subgroup, _canonical_key, enumerate_subgroups

__all__ = [
    "CACHE_FORMAT_VERSION",
    "LatticeCache",
    "default_cache_dir",
    "serialize_lattice",
    "deserialize_lattice",
    "memo_lattice",
]

CACHE_FORMAT_VERSION = 5


def default_cache_dir() -> str:
    env = os.environ.get("POWCOV_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "powcov")


def _warn(message: str, error: OSError) -> None:
    # logging is imported only here: a run whose cache works never loads it.
    import logging

    logging.getLogger(__name__).warning(message, error)


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _records_digest(records) -> str:
    return hashlib.sha256(_dump(records).encode()).hexdigest()


def serialize_lattice(lat: Lattice) -> str:
    """Deterministic JSON text for a lattice (stable key order, no float
    content, trailing newline): _dump of the whole envelope.  The records
    are dumped once, for their digest, and that text is spliced in after
    the three keys that sort before "subgroups"."""
    records = _dump([s.record() for s in lat.subgroups])
    digest = hashlib.sha256(records.encode()).hexdigest()
    head = _dump(
        {
            "content_key": lat.group.content_key(),
            "format_version": CACHE_FORMAT_VERSION,
            "order": lat.group.order,
        }
    )
    return f'{head[:-1]},"subgroups":{records},"subgroups_sha256":"{digest}"}}\n'


class CacheEntryError(ValueError):
    """A cache file exists but cannot be used for this group."""


def deserialize_lattice(text: str, g: FiniteGroup) -> Lattice:
    """The Lattice of the subgroups text records for g, each bits once, in
    canonical order; raises CacheEntryError unless serialize_lattice writes
    it back as text and it passes the checks the module docstring names."""
    try:
        rows = json.loads(text)["subgroups"]
        subgroups = {s.bits: s for s in (Subgroup.from_record(row, g) for row in rows)}
    except (LookupError, TypeError, ValueError, RecursionError) as e:  # also nesting too deep
        raise CacheEntryError(f"unreadable entry: {e!r}")
    lat = Lattice(group=g, subgroups=tuple(sorted(subgroups.values(), key=_canonical_key(g))))
    if serialize_lattice(lat) != text:
        raise CacheEntryError("serialize_lattice does not write the entry back byte for byte")
    if not lat.subgroups or lat.subgroups[0].order > 1 or lat.subgroups[-1].is_proper:
        raise CacheEntryError("subgroup records lack the trivial subgroup or the group")
    _check_prime_power_counts(lat)
    return lat


def _check_prime_power_counts(lat: Lattice) -> None:
    """Frobenius (1895): for each p^k dividing |G|, the subgroups of order
    p^k number 1 mod p.  Raise CacheEntryError where lat breaks that."""
    orders = [s.order for s in lat.subgroups]
    for p, a in factorize(lat.group.order):
        for q in (p**j for j in range(1, a + 1)):
            count = orders.count(q)
            if count % p != 1:
                raise CacheEntryError(f"{count} subgroups of order {q}, not 1 mod {p} (Frobenius)")


class LatticeCache:
    """The lattices of one run: in memory, and on disk when directory is set.

    memo_lattice is the lookup; get and put touch only the disk entries.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self.lattices: Dict[str, Lattice] = {}

    def path_for(self, g: FiniteGroup) -> str:
        return os.path.join(self.directory, f"{g.content_key()}.lattice.json")

    def get(self, g: FiniteGroup) -> Optional[Lattice]:
        """Disk entry for g, or None on miss/corruption/I-O trouble or with no
        directory."""
        if self.directory is None:
            return None
        path = self.path_for(g)
        try:
            text = read_text(path)
        except (FileNotFoundError, UnicodeDecodeError):
            return None
        except OSError as e:
            _warn("lattice cache read failed (%s); recomputing", e)
            return None
        try:
            return deserialize_lattice(text, g)
        except CacheEntryError:
            return None

    def put(self, g: FiniteGroup, lat: Lattice) -> Optional[str]:
        """Store the lattice on disk; returns the path, or None if writing
        failed or there is no directory."""
        if self.directory is None:
            return None
        path = self.path_for(g)
        try:
            atomic_write_text(path, serialize_lattice(lat))
        except OSError as e:
            _warn("lattice cache write failed (%s); continuing without cache", e)
            return None
        return path


def memo_lattice(g: FiniteGroup, cache: Optional[LatticeCache] = None) -> Lattice:
    """The lattice of g, enumerated at most once per cache (and per table
    content): from the cache's memory, then its disk entry, else enumerated
    and stored (overwriting any unusable entry).  With no cache, enumerate."""
    if cache is None:
        return enumerate_subgroups(g)
    key = g.content_key()
    lat = cache.lattices.get(key)
    if lat is None:
        lat = cache.get(g)
        if lat is None:
            lat = enumerate_subgroups(g)
            cache.put(g, lat)
        cache.lattices[key] = lat
    return lat
