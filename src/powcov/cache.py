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
write and read each record.  Corrupted, edited or version-mismatched entries
and impossible records are silently recomputed and overwritten.  I/O
failures degrade to recomputation and are logged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import Dict, Optional

from .fileio import atomic_write_text
from .groups import FiniteGroup
from .lattice import Lattice, Subgroup, enumerate_subgroups

__all__ = [
    "CACHE_FORMAT_VERSION",
    "LatticeCache",
    "default_cache_dir",
    "serialize_lattice",
    "deserialize_lattice",
    "memo_lattice",
]

CACHE_FORMAT_VERSION = 3

logger = logging.getLogger(__name__)


def default_cache_dir() -> str:
    env = os.environ.get("POWCOV_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "powcov")


def _records_digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serialize_lattice(lat: Lattice) -> str:
    """Deterministic JSON text for a lattice (stable key order, no float
    content, trailing newline)."""
    records = [s.record() for s in lat.subgroups]
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "content_key": lat.group.content_key(),
        "order": lat.group.order,
        "subgroups": records,
        "subgroups_sha256": _records_digest(records),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class CacheEntryError(ValueError):
    """A cache file exists but cannot be used for this group."""


def deserialize_lattice(text: str, g: FiniteGroup) -> Lattice:
    """Rebuild a Lattice for g from cached text; raises CacheEntryError on
    any mismatch (bad JSON, wrong version, wrong group, edited or impossible records)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise CacheEntryError(f"not valid JSON: {e}")
    if not isinstance(payload, dict):
        raise CacheEntryError("top level is not an object")
    if payload.get("format_version") != CACHE_FORMAT_VERSION:
        raise CacheEntryError(
            f"format version {payload.get('format_version')!r} != {CACHE_FORMAT_VERSION}"
        )
    if payload.get("content_key") != g.content_key():
        raise CacheEntryError("content key does not match the group")
    if payload.get("order") != g.order:
        raise CacheEntryError("order does not match the group")
    records = payload.get("subgroups")
    if payload.get("subgroups_sha256") != _records_digest(records):
        raise CacheEntryError("subgroup records do not match their digest")
    try:
        return Lattice(group=g, subgroups=tuple(Subgroup.from_record(row, g) for row in records))
    except (TypeError, ValueError) as e:
        raise CacheEntryError(f"malformed subgroup record: {e}")


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
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        except OSError as e:
            logger.warning("lattice cache read failed (%s); recomputing", e)
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
            logger.warning("lattice cache write failed (%s); continuing without cache", e)
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
