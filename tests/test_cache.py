import json
import logging
import os

import pytest

from powcov.cache import (
    CACHE_FORMAT_VERSION,
    CacheEntryError,
    LatticeCache,
    _records_digest,
    default_cache_dir,
    deserialize_lattice,
    memo_lattice,
    serialize_lattice,
)
from powcov.groups import build_group
from powcov.lattice import Subgroup, enumerate_subgroups


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
        assert a.elements.bits == b.elements.bits
        assert (a.order, a.tag) == (b.order, b.tag)
        assert (a.is_proper, a.is_abelian, a.is_normal, a.is_maximal) == (
            b.is_proper,
            b.is_abelian,
            b.is_normal,
            b.is_maximal,
        )
        assert a.is_powerful == b.is_powerful
        assert a.is_powerfully_embedded == b.is_powerfully_embedded


def test_serialized_form_is_deterministic_json():
    g = build_group("quaternion:16")
    lat = enumerate_subgroups(g)
    assert serialize_lattice(lat) == serialize_lattice(lat)
    doc = json.loads(serialize_lattice(lat))
    assert doc["format_version"] == CACHE_FORMAT_VERSION
    assert doc["content_key"] == g.content_key()
    assert doc["order"] == 16


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
    path = cache.path_for(g)
    doc = json.loads(open(path).read())
    doc["format_version"] = 99
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cache.get(g) is None
    # an entry for a different group is invisible to this one
    cache2 = LatticeCache(str(tmp_path))
    other = build_group("quaternion:16")
    assert cache2.get(other) is None


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
    assert [s.elements.bits for s in lat2.subgroups] == [
        s.elements.bits for s in lat.subgroups
    ]


def _edit_entry(cache, g, edit):
    path = cache.path_for(g)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc["subgroups"])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_edited_subgroup_bits_are_recomputed(tmp_path):
    # Adding the reflection s (element 8) to the cyclic subgroup <r> of order 8
    # once made `powcov sigma dihedral:16 powerful` print a 9-element witness.
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))

    def add_reflection(records):
        (row,) = [r for r in records if r["tag"] == "cyclic(8)"]
        row["bits"] = format(int(row["bits"], 16) | 1 << 8, "x")

    _edit_entry(cache, g, add_reflection)
    assert cache.get(g) is None
    lat = memo_lattice(g, cache)  # recomputed and overwritten
    assert all(len(s.elements) == s.order for s in lat.subgroups)
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
    doc["subgroups_sha256"] = _records_digest(doc["subgroups"])
    return json.dumps(doc)


# Each edit reaches one refusal of deserialize_lattice, named by its message.
REFUSED = {
    "top level is not an object": lambda doc: json.dumps(doc["subgroups"]),
    "content key does not match": lambda doc: serialize_lattice(
        enumerate_subgroups(build_group("quaternion:16"))  # same order, other table
    ),
    "order does not match": lambda doc: json.dumps({**doc, "order": 32}),
    "malformed subgroup record": _malformed_record,
}


@pytest.mark.parametrize("reason", REFUSED)
def test_refused_entries_miss_and_are_rewritten(tmp_path, reason):
    g = build_group("dihedral:16")
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    path = cache.path_for(g)
    with open(path) as fh:
        text = REFUSED[reason](json.load(fh))
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(CacheEntryError, match=reason):
        deserialize_lattice(text, g)
    assert cache.get(g) is None
    assert len(memo_lattice(g, cache)) == 19
    with open(path) as fh:
        assert fh.read() == serialize_lattice(enumerate_subgroups(g))


def _proper_whole_group(records):
    records[-1]["proper"] = True  # the canonical order puts G last


def _powerful_no(records):
    for row in records:
        if row["powerful"] is False:
            row["powerful"] = "no"  # truthy, so bool() would read it as True


def _wrong_order(records):
    records[1]["order"] += 1


def _abelian_one(records):
    records[0]["abelian"] = 1  # equal to True, but not a JSON boolean


def _powerful_null(records):
    records[-1]["powerful"] = None  # dihedral:16 is a p-group


def _tag_number(records):
    records[0]["tag"] = 1


def _powerful_off_p_groups(records):
    records[0]["powerful"] = True  # cyclic:6 is not a p-group


# Records no enumeration writes, each under a recomputed digest, so that only
# Subgroup.from_record can refuse them.
BAD_RECORDS = {
    "proper-whole-group": ("dihedral:16", _proper_whole_group),
    "powerful-no": ("dihedral:16", _powerful_no),
    "wrong-order": ("dihedral:16", _wrong_order),
    "abelian-one": ("dihedral:16", _abelian_one),
    "powerful-null": ("dihedral:16", _powerful_null),
    "tag-number": ("dihedral:16", _tag_number),
    "powerful-off-p-groups": ("cyclic:6", _powerful_off_p_groups),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_records_the_enumeration_cannot_write_are_recomputed(tmp_path, case):
    descriptor, edit = BAD_RECORDS[case]
    g = build_group(descriptor)
    memo_lattice(g, LatticeCache(str(tmp_path)))
    cache = LatticeCache(str(tmp_path))
    path = cache.path_for(g)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc["subgroups"])
    doc["subgroups_sha256"] = _records_digest(doc["subgroups"])
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(CacheEntryError, match="malformed subgroup record"):
        deserialize_lattice(text, g)
    assert cache.get(g) is None
    memo_lattice(g, cache)
    with open(path) as fh:
        assert fh.read() == serialize_lattice(enumerate_subgroups(g))


def test_records_are_written_and_read_by_the_subgroup_alone():
    g = build_group("semidihedral:16")
    for s in enumerate_subgroups(g).subgroups:
        row = json.loads(json.dumps(s.record()))
        assert Subgroup.from_record(row, g) == s
        assert (row["order"], row["proper"]) == (len(s.elements), len(s.elements) < 16)


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
