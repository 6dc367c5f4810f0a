import json
import logging
import os
from pathlib import Path

import pytest

from powcov.cache import (
    CACHE_FORMAT_VERSION,
    CacheEntryError,
    LatticeCache,
    _dump,
    _records_digest,
    default_cache_dir,
    deserialize_lattice,
    memo_lattice,
    serialize_lattice,
)
from powcov.catalog import builtin_catalog
from powcov.groups import build_group
from powcov.lattice import FLAGS, Subgroup, classify_small, enumerate_subgroups

from test_cli import cyclic_8, edit_cache_entry
from test_files import run_child

# Each refusal of deserialize_lattice, by its message.
ROUND_TRIP = "serialize_lattice does not write the entry back byte for byte"
UNREADABLE_ENTRY = "unreadable entry"
NO_SUBSET = "name no subset of g that holds the identity"
NO_ENDS = "lack the trivial subgroup or the group"


def test_default_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("POWCOV_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == str(tmp_path / "elsewhere")
    monkeypatch.delenv("POWCOV_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join(".cache", "powcov"))


def test_serialization_round_trip():
    g = build_group("dihedral:16")
    lat = enumerate_subgroups(g)
    text = serialize_lattice(lat)
    back = deserialize_lattice(text, g)
    assert len(back) == len(lat)
    for a, b in zip(lat.subgroups, back.subgroups):
        assert a.bits == b.bits
        assert (a.order, classify_small(g, a.bits)) == (b.order, classify_small(g, b.bits))
        assert (a.is_proper, a.is_abelian, a.is_normal) == (b.is_proper, b.is_abelian, b.is_normal)
        assert a.is_powerful == b.is_powerful
        assert a.is_powerfully_embedded == b.is_powerfully_embedded
    assert back.maximal() == lat.maximal()


def test_serialized_form_is_deterministic_json():
    g = build_group("quaternion:16")
    lat = enumerate_subgroups(g)
    assert serialize_lattice(lat) == serialize_lattice(lat)
    doc = json.loads(serialize_lattice(lat))
    assert doc["format_version"] == CACHE_FORMAT_VERSION
    assert doc["content_key"] == g.content_key()
    assert doc["order"] == 16


def test_spliced_text_is_the_dump_of_the_whole_envelope():
    # serialize_lattice dumps the records once and splices them in; the bytes
    # must be those of one json.dumps of the envelope, on every built-in group.
    for entry in builtin_catalog():
        lat = enumerate_subgroups(entry.build())
        records = [s.record() for s in lat.subgroups]
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "content_key": lat.group.content_key(),
            "order": lat.group.order,
            "subgroups": records,
            "subgroups_sha256": _records_digest(records),
        }
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert serialize_lattice(lat) == expected, entry.id


def test_cache_file_name_and_hit_bytes(tmp_path):
    cache = LatticeCache(str(tmp_path))
    g = build_group("dihedral:32")
    assert cache.get(g) is None  # cold
    lat = memo_lattice(g, cache)
    path = cache.path_for(g)
    assert os.path.basename(path) == f"{g.content_key()}.lattice.json"
    assert os.path.exists(path)
    # a hit returns exactly what a fresh computation would serialize to
    with open(path) as fh:
        stored = fh.read()
    assert stored == serialize_lattice(enumerate_subgroups(g))
    hit = cache.get(g)
    assert hit is not None and len(hit) == len(lat)


def test_corrupt_entries_are_recomputed(tmp_path):
    cache = LatticeCache(str(tmp_path))
    g = build_group("dihedral:16")
    memo_lattice(g, cache)
    path = cache.path_for(g)
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert cache.get(g) is None
    lat = memo_lattice(g, LatticeCache(str(tmp_path)))  # heals the entry
    assert len(lat) == 19
    assert cache.get(g) is not None


def test_version_and_group_mismatches_miss(tmp_path):
    cache = LatticeCache(str(tmp_path))
    g = build_group("dihedral:16")
    memo_lattice(g, cache)
    # bump the version field in place
    edit_cache_entry(cache.path_for(g), lambda doc: doc.update(format_version=99))
    assert cache.get(g) is None
    # an entry for a different group is invisible to this one
    cache2 = LatticeCache(str(tmp_path))
    other = build_group("quaternion:16")
    assert cache2.get(other) is None


def test_a_fifo_at_an_entry_path_is_a_miss(tmp_path):
    # Once every `sigma dihedral:8 all` blocked opening it, and put would
    # not replace it, so the next run blocked too.
    path = LatticeCache(str(tmp_path / "cache")).path_for(build_group("dihedral:8"))
    os.makedirs(os.path.dirname(path))
    os.mkfifo(path)
    for _ in range(2):
        proc = run_child(tmp_path, "sigma", "dihedral:8", "all")
        assert (proc.returncode, proc.stdout.splitlines()[0]) == (0, "sigma = 3")
        assert "lattice cache read failed" in proc.stderr and "is not a regular file" in proc.stderr


def test_unwritable_directory_degrades_gracefully(tmp_path, caplog):
    blocked = tmp_path / "file-in-the-way"
    blocked.write_text("not a directory")
    cache = LatticeCache(str(blocked / "sub"))
    g = build_group("dihedral:8")
    # get and put fail with a logged warning, not an exception;
    # memo_lattice still works
    with caplog.at_level(logging.WARNING, logger="powcov.cache"):
        lat = memo_lattice(g, cache)
    assert len(lat) == 10
    messages = [
        r.getMessage()
        for r in caplog.records
        if r.name == "powcov.cache" and r.levelno == logging.WARNING
    ]
    assert any(m.startswith("lattice cache read failed") for m in messages)
    assert any(m.startswith("lattice cache write failed") for m in messages)


def test_memo_identity_across_equal_groups():
    cache = LatticeCache()
    g1 = build_group("dihedral:16")
    g2 = build_group("dihedral:16")
    assert g1 is not g2
    lat1 = memo_lattice(g1, cache)
    assert memo_lattice(g2, cache) is lat1  # same content key -> same lattice
    assert memo_lattice(g1, LatticeCache()) is not lat1  # caches share nothing


def test_memo_without_cache_shares_nothing():
    g = build_group("dihedral:16")
    assert memo_lattice(g) is not memo_lattice(g)


def test_memory_only_cache_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv("POWCOV_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = LatticeCache()
    g = build_group("dihedral:8")
    assert len(memo_lattice(g, cache)) == 10
    assert cache.get(g) is None
    assert cache.put(g, memo_lattice(g, cache)) is None
    assert list(tmp_path.iterdir()) == []


def test_memo_backed_by_disk_cache(tmp_path):
    g = build_group("semidihedral:32")
    lat = memo_lattice(g, LatticeCache(str(tmp_path)))
    assert os.path.exists(LatticeCache(str(tmp_path)).path_for(g))
    # second process-equivalent: memory empty, disk warm
    lat2 = memo_lattice(g, LatticeCache(str(tmp_path)))
    assert lat2 is not lat
    assert [s.bits for s in lat2.subgroups] == [s.bits for s in lat.subgroups]


def _edit_entry(cache, g, edit):
    """Edit the records of g's entry under their old digest."""
    edit_cache_entry(cache.path_for(g), lambda doc: edit(doc["subgroups"]), digest=False)


def test_edited_subgroup_bits_are_recomputed(tmp_path):
    # Adding the reflection s (element 8) to the cyclic subgroup <r> of order 8
    # once made `powcov sigma dihedral:16 powerful` print a 9-element witness.
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))

    def add_reflection(records):
        (row,) = filter(cyclic_8, records)
        row["bits"] = format(int(row["bits"], 16) | 1 << 8, "x")

    _edit_entry(cache, g, add_reflection)
    assert cache.get(g) is None
    lat = memo_lattice(g, cache)  # recomputed and overwritten
    assert lat == enumerate_subgroups(g)
    with open(cache.path_for(g)) as fh:
        assert fh.read() == serialize_lattice(enumerate_subgroups(g))


def test_flipped_flag_is_recomputed(tmp_path):
    g = build_group("dihedral:16")
    cache = LatticeCache(str(tmp_path))
    memo_lattice(g, cache)

    def flip_powerful(records):
        row = next(r for r in records if r["powerful"] is False)
        row["powerful"] = True

    _edit_entry(cache, g, flip_powerful)
    assert cache.get(g) is None
    fresh = memo_lattice(g, LatticeCache(str(tmp_path)))
    assert [s.is_powerful for s in fresh.subgroups] == [
        s.is_powerful for s in enumerate_subgroups(g).subgroups
    ]


def _malformed_record(doc):
    doc["subgroups"][0]["bits"] = "not hex"


def _cyclic_8_deleted(doc):
    # D16 has three subgroups of order 8; two break the count 1 mod 2.
    doc["subgroups"] = [row for row in doc["subgroups"] if not cyclic_8(row)]


def _other_group(doc):
    # same order, other table
    return json.loads(serialize_lattice(enumerate_subgroups(build_group("quaternion:16"))))


# Each edit of dihedral:16's entry, written back by edit_cache_entry, and
# the refusal of deserialize_lattice it reaches.  An extra top-level key, like
# a re-indented entry (below), was a hit while the envelope was checked key
# by key.
REFUSED = {
    "top level is not an object": (lambda doc: doc["subgroups"], UNREADABLE_ENTRY),
    "content key does not match": (_other_group, ROUND_TRIP),
    "order does not match": (lambda doc: doc.update(order=32), ROUND_TRIP),
    "extra-top-level-key": (lambda doc: doc.update(note=""), ROUND_TRIP),
    "malformed subgroup record": (_malformed_record, f"{UNREADABLE_ENTRY}: ValueError"),
    "2 subgroups of order 8, not 1 mod 2": (_cyclic_8_deleted, "2 subgroups of order 8, not 1 mod 2"),
}


def _assert_refused_and_rewritten(cache, g, text, refusal):
    with pytest.raises(CacheEntryError, match=refusal):
        deserialize_lattice(text, g)
    assert cache.get(g) is None
    memo_lattice(g, cache)
    with open(cache.path_for(g)) as fh:
        assert fh.read() == serialize_lattice(enumerate_subgroups(g))


@pytest.mark.parametrize("reason", REFUSED)
def test_refused_entries_miss_and_are_rewritten(tmp_path, reason):
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    edit, refusal = REFUSED[reason]
    text = edit_cache_entry(cache.path_for(g), edit)
    _assert_refused_and_rewritten(cache, g, text, refusal)


def test_a_reindented_entry_misses_and_is_rewritten(tmp_path):
    # The same JSON value as the entry, so a reader that checked it key by
    # key used it; serialize_lattice writes no spaces or line breaks in it.
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    path = Path(cache.path_for(g))
    text = json.dumps(json.loads(path.read_text()), indent=1)
    path.write_text(text)
    _assert_refused_and_rewritten(cache, g, text, ROUND_TRIP)


# Entries that are not JSON text: each reads as a miss, not as an error.
UNREADABLE = {
    "not-utf-8": b'{"format_version":"\xff"}\n',
    "nested-too-deep": b"[" * 200_000,
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_entries_miss_and_are_rewritten(tmp_path, case):
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    path = cache.path_for(g)
    with open(path, "wb") as fh:
        fh.write(UNREADABLE[case])
    assert cache.get(g) is None
    assert len(memo_lattice(g, cache)) == 19
    with open(path) as fh:
        assert fh.read() == serialize_lattice(enumerate_subgroups(g))


def _powerful_no(records):
    for row in records:
        if row["powerful"] is False:
            row["powerful"] = "no"  # truthy, so bool() would read it as True


def _abelian_one(records):
    records[0]["abelian"] = 1  # equal to True, but not a JSON boolean


def _powerful_null(records):
    records[-1]["powerful"] = None  # dihedral:16 is a p-group


def _tag_kept(records):
    records[0]["tag"] = "trivial"  # as in every record of a format 3 entry


# A format 4 entry edited to say 5 keeps order, proper and maximal in every
# record, each true of its bits.
def _order_kept(records):
    for row in records:
        row["order"] = int(row["bits"], 16).bit_count()


def _proper_kept(records):
    for row in records:
        row["proper"] = row is not records[-1]  # the canonical order puts G last


def _maximal_kept(records):
    for row in records:
        row["maximal"] = int(row["bits"], 16).bit_count() == 8  # index 2 in dihedral:16


def _unknown_key(records):
    records[0]["junk"] = [1, 2]


def _powerful_off_p_groups(records):
    records[0]["powerful"] = True  # cyclic:6 is not a p-group


def _negative_bits(records):
    records[0]["bits"] = "-1"  # (-1).bit_count() is 1, the trivial record's order


def _bit_at_order(records):
    records[0]["bits"] = format(1 | 1 << 16, "x")  # element 16 of a group of order 16


def _trivial_bits(text):
    def edit(records):
        records[0]["bits"] = text  # int(text, 16) is 1, the trivial record's bits
    return edit


def _uppercase_bits(records):
    row = next(row for row in records if not row["bits"].isdigit())
    row["bits"] = row["bits"].upper()


def _identity_dropped(records):
    records[1]["bits"] = format(int(records[1]["bits"], 16) & ~1, "x")  # element 0 is e


def _empty_twice(records):
    # `powcov lattice dihedral:8` once printed 12 subgroups, not 10.
    records[:0] = [{**records[0], "bits": "0"}] * 2


def _reversed_within_orders(records):
    # Each order's records last first: the subgroups are the same, but
    # `powcov sigma elementary:2^3 all` once printed another witness.
    by_order = {}
    for row in records:
        by_order.setdefault(int(row["bits"], 16).bit_count(), []).append(row)
    records[:] = [row for rows in by_order.values() for row in reversed(rows)]


def _repeated(records):
    records[1:1] = [records[1], records[1]]  # each count stays 1 mod 2


def _trivial_deleted(records):
    del records[0]  # no count of Frobenius' theorem reads order 1


def _group_deleted(records):
    del records[-1]  # 6 is no prime power, so no count reads G's order


# Records no enumeration writes, each under a recomputed digest:
# (group, edit, the refusal of deserialize_lattice).  from_record refuses
# bits that are no subgroup's; every other record does not write back to
# itself.
BAD_RECORDS = {
    "proper-kept": ("dihedral:16", _proper_kept, ROUND_TRIP),
    "powerful-no": ("dihedral:16", _powerful_no, ROUND_TRIP),
    "order-kept": ("dihedral:16", _order_kept, ROUND_TRIP),
    "maximal-kept": ("dihedral:16", _maximal_kept, ROUND_TRIP),
    "abelian-one": ("dihedral:16", _abelian_one, ROUND_TRIP),
    "powerful-null": ("dihedral:16", _powerful_null, ROUND_TRIP),
    "tag-kept": ("dihedral:16", _tag_kept, ROUND_TRIP),
    "unknown-key": ("dihedral:16", _unknown_key, ROUND_TRIP),
    "powerful-off-p-groups": ("cyclic:6", _powerful_off_p_groups, ROUND_TRIP),
    "negative-bits": ("dihedral:16", _negative_bits, NO_SUBSET),
    "bit-at-order": ("dihedral:16", _bit_at_order, NO_SUBSET),
    "hex-prefix": ("dihedral:16", _trivial_bits("0x1"), ROUND_TRIP),
    "hex-space": ("dihedral:16", _trivial_bits(" 1"), ROUND_TRIP),
    "hex-sign": ("dihedral:16", _trivial_bits("+1"), ROUND_TRIP),
    "hex-underscore": ("dihedral:16", _trivial_bits("0_1"), ROUND_TRIP),
    "hex-uppercase": ("dihedral:16", _uppercase_bits, ROUND_TRIP),
    "identity-dropped": ("dihedral:16", _identity_dropped, NO_SUBSET),
    "empty-twice": ("dihedral:8", _empty_twice, NO_SUBSET),
}

# Record lists no enumeration writes, though each of their records could be
# one: (group, edit, the refusal of deserialize_lattice).
BAD_LISTS = {
    "reversed-within-orders": ("elementary:2^3", _reversed_within_orders, ROUND_TRIP),
    "repeated": ("dihedral:8", _repeated, ROUND_TRIP),
    "trivial-deleted": ("dihedral:8", _trivial_deleted, NO_ENDS),
    "group-deleted": ("cyclic:6", _group_deleted, NO_ENDS),
}
UNWRITABLE = {**BAD_RECORDS, **BAD_LISTS}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_records_the_enumeration_cannot_write_are_recomputed(tmp_path, case):
    descriptor, edit, refusal = UNWRITABLE[case]
    g = build_group(descriptor)
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    text = edit_cache_entry(cache.path_for(g), lambda doc: edit(doc["subgroups"]))
    _assert_refused_and_rewritten(cache, g, text, refusal)


def _format_4_entry(lat):
    """The entry format 4 wrote for lat: each record also held the subgroup's
    order, whether it is proper and whether it is maximal."""
    maximal = set(lat.maximal())
    records = [
        {**s.record(), "order": s.order, "proper": s.is_proper, "maximal": s.bits in maximal}
        for s in lat.subgroups
    ]
    doc = json.loads(serialize_lattice(lat))
    doc.update(format_version=4, subgroups=records, subgroups_sha256=_records_digest(records))
    return doc


def test_a_format_4_entry_misses_and_is_rewritten_as_format_5(tmp_path):
    # Caches written before format 5 recompute each lattice once, and so
    # does the same entry edited to say 5: neither writes back to itself.
    g = build_group("dihedral:16")
    cache = LatticeCache(str(tmp_path))
    path = cache.path_for(g)
    doc = _format_4_entry(enumerate_subgroups(g))
    for version in (4, 5):
        text = _dump({**doc, "format_version": version}) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        _assert_refused_and_rewritten(LatticeCache(str(tmp_path)), g, text, ROUND_TRIP)
    assert json.loads(serialize_lattice(enumerate_subgroups(g)))["format_version"] == 5


DATA = Path(__file__).resolve().parent / "data"


def test_every_pinned_lattice_meets_the_prime_power_count():
    # Frobenius: the subgroups of each order p^k dividing |G| number 1 mod p.
    # Every lattice with a pinned digest (the built-in catalog and five
    # groups that are not p-groups) and S3 pass the check, so a cache entry
    # the enumeration wrote is never refused by it.
    names = [*json.loads((DATA / "lattice_digests.json").read_text()), f"perm:{DATA / 's3.perm'}"]
    for name in names:
        g = build_group(name)
        lat = enumerate_subgroups(g)
        assert deserialize_lattice(serialize_lattice(lat), g) == lat, name


def test_records_are_written_and_read_by_the_subgroup_alone():
    g = build_group("semidihedral:16")
    for s in enumerate_subgroups(g).subgroups:
        row = json.loads(json.dumps(s.record()))
        assert Subgroup.from_record(row, g) == s
        assert row.keys() == {"bits", *FLAGS}
        assert s.is_proper == (s.bits.bit_count() < 16)


def test_aliases_of_one_table_write_identical_entries(tmp_path):
    # dihedral:4 and elementary:2^2 build the same table, so share one key.
    entries = []
    for name, spec in (("a", "dihedral:4"), ("b", "elementary:2^2")):
        g = build_group(spec)
        cache = LatticeCache(str(tmp_path / name))
        memo_lattice(g, cache)
        with open(cache.path_for(g)) as fh:
            entries.append((os.path.basename(cache.path_for(g)), fh.read()))
    assert entries[0] == entries[1]
