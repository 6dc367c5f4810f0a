import pytest

from powcov.catalog import CatalogEntry, builtin_catalog, entry_order, load_catalog_file, select_entries
from powcov.descriptors import DescriptorError


def test_builtin_sizes():
    assert len(builtin_catalog()) == 82
    assert len(select_entries(None, 32)) == 44
    assert select_entries(None, None) == select_entries(None, 128) == builtin_catalog()
    ids = [e.id for e in builtin_catalog()]
    assert len(set(ids)) == len(ids)


def test_order_filter_is_real():
    for e in select_entries(None, 32):
        assert e.build().order <= 32


def test_expected_members_present_and_absent():
    ids = {e.id for e in builtin_catalog()}
    for want in (
        "cyclic:1",
        "cyclic:128",
        "cyclic:125",
        "dihedral:128",
        "quaternion:8",
        "semidihedral:64",
        "modular:16",
        "elementary:2^5",
        "elementary:7^2",
        "product:(dihedral:8,dihedral:8)",
    ):
        assert want in ids
    # modular:8 collapses onto dihedral:8, larger elementary 2-groups blow up
    assert "modular:8" not in ids
    assert "elementary:2^6" not in ids
    assert "cyclic:6" not in ids  # only prime-power cyclic groups ship


def test_every_builtin_entry_builds():
    for e in builtin_catalog():
        g = e.build()
        assert g.order >= 1


def test_entry_build_with_perm_source(tmp_path):
    p = tmp_path / "c3.perm"
    p.write_text("version 1\ndegree 3\ngen 1 2 0\n")
    entry = CatalogEntry(id="c3", source=f"perm:{p}")
    assert entry.build().order == 3


def test_load_catalog_file(tmp_path):
    (tmp_path / "k4.perm").write_text(
        "version 1\ndegree 4\ngen 1 0 3 2\ngen 2 3 0 1\n"
    )
    cat = tmp_path / "groups.catalog"
    cat.write_text(
        "# demo catalog\n"
        "\n"
        "d16 dihedral:16\n"
        "k4  perm:k4.perm\n"
        f"abs perm:{tmp_path}/k4.perm\n"
    )
    entries = load_catalog_file(str(cat))
    assert [e.id for e in entries] == ["d16", "k4", "abs"]
    # relative path resolved against the catalog's own directory
    assert entries[1].source == f"perm:{tmp_path}/k4.perm"
    assert entries[2].source == f"perm:{tmp_path}/k4.perm"
    assert entries[1].build().order == 4
    assert entries[0].build().order == 16


def test_an_empty_path_in_a_catalog_file_is_the_grammar_s_error(tmp_path):
    cat = tmp_path / "empty.catalog"
    cat.write_text("x perm:\ny file:\n")
    for entry, kind in zip(load_catalog_file(str(cat)), ("perm", "file")):
        assert entry.source == f"{kind}:"  # not resolved to the catalog's directory
        with pytest.raises(DescriptorError) as exc:
            entry.build()
        assert str(exc.value) == f"empty {kind} path (in '{kind}:' at position {len(kind) + 1})"


def test_load_catalog_file_rejects_malformed_lines(tmp_path):
    cat = tmp_path / "bad.catalog"
    cat.write_text("only-an-id\n")
    with pytest.raises(ValueError, match=r"bad\.catalog:1"):
        load_catalog_file(str(cat))


def test_load_catalog_file_rejects_a_repeated_id(tmp_path):
    cat = tmp_path / "dup.catalog"
    cat.write_text("a dihedral:8\n# comment\nb cyclic:2\na cyclic:4\n")
    with pytest.raises(ValueError) as exc:
        load_catalog_file(str(cat))
    assert str(exc.value) == f"{cat}:4: duplicate id 'a' (first on line 1)"


def test_an_entry_builds_once_and_keeps_its_error(tmp_path, constructions):
    good = CatalogEntry("d8", "dihedral:8")
    assert good.error is None
    assert good.build() is good.build()
    assert good.error is None

    bad = CatalogEntry("bad", "dihedral:6")
    assert bad.error is None  # not built yet
    errors = []
    for _ in range(2):
        with pytest.raises(DescriptorError) as exc:
            bad.build()
        errors.append(exc.value)
    assert errors[0] is errors[1] is bad.error

    (tmp_path / "c5.perm").write_text("version 1\ndegree 5\ngen 1 2 3 4 0\n")
    perm = CatalogEntry("c5", f"perm:{tmp_path / 'c5.perm'}")
    assert entry_order(perm) == 5  # read from the build the entry keeps
    assert perm.build().order == 5
    assert constructions == {"dihedral:8": 1, "dihedral:6": 1, perm.source: 1}
    # The kept build is no part of an entry's value.
    fresh = CatalogEntry("d8", "dihedral:8")
    assert good == fresh and hash(good) == hash(fresh)
