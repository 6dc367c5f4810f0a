import csv
import io

import pytest

import powcov.cache
import powcov.cover
import powcov.sweep

from powcov.cache import LatticeCache
from powcov.catalog import CatalogEntry, select_entries
from powcov.cover import FamilySelector
from powcov.groups import GroupError
from powcov.sweep import (
    ALL_FAMILIES,
    CSV_COLUMNS,
    markdown_report,
    rows_to_csv,
    run_sweep,
    sweep_entry,
)


ALL, AB, POW, PE = ALL_FAMILIES


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def cells(row):
    return tuple(row.sigmas[f] for f in ALL_FAMILIES)


def test_single_row_values():
    row = sweep_entry(CatalogEntry("d16", "dihedral:16"), stable_timing=True)
    assert row.error == ""
    assert (row.order, row.p, row.nilpotence_class, row.coclass) == (16, 2, 3, 1)
    assert cells(row) == (3, 5, 5, "INF")
    assert (row.sigma, row.sigma_a, row.sigma_p, row.sigma_pe) == cells(row)
    assert row.time_ms == 0


def test_cyclic_row_is_all_inf():
    row = sweep_entry(CatalogEntry("c8", "cyclic:8"), stable_timing=True)
    assert cells(row) == ("INF", "INF", "INF", "INF")


def test_non_p_group_row():
    row = sweep_entry(CatalogEntry("c6", "cyclic:6"), stable_timing=True)
    assert row.error == ""
    assert row.p is None and row.coclass is None
    assert row.nilpotence_class == 1  # abelian, so class 1 even off p-groups
    assert row.sigmas[ALL] == "INF"
    # powerful/PE families are undefined off p-groups: cells stay empty
    assert row.sigmas[POW] is None and row.sigmas[PE] is None


def test_family_subset_leaves_cells_empty():
    row = sweep_entry(
        CatalogEntry("d8", "dihedral:8"),
        families=(FamilySelector.POWERFUL,),
        stable_timing=True,
    )
    assert cells(row) == (None, None, 3, None)


def test_bad_entry_becomes_error_row():
    row = sweep_entry(CatalogEntry("bad", "dihedral:6"), stable_timing=True)
    assert row.order is None
    assert row.error.startswith("DescriptorError:")
    assert cells(row) == (None, None, None, None)


def test_a_kernel_bug_propagates_out_of_the_sweep(monkeypatch):
    # Only build and group errors (OSError, ValueError) become error cells;
    # anything else is a fault in the program and must end the run.
    def broken(g, cache=None):
        raise IndexError("planted")

    monkeypatch.setattr(powcov.cover, "memo_lattice", broken)
    with pytest.raises(IndexError, match="planted"):
        run_sweep([CatalogEntry("d8", "dihedral:8")])


def test_a_lattice_error_fills_the_error_cell(monkeypatch):
    # A GroupError from the lattice (its self-check failing) is not a family
    # undefined on the group: the row records it once and enumerates once.
    calls = []

    def broken(g):
        calls.append(g)
        raise GroupError("enumerated set is not a subgroup")

    monkeypatch.setattr(powcov.cache, "enumerate_subgroups", broken)
    rows = run_sweep([CatalogEntry("d8", "dihedral:8")], stable_timing=True)
    assert rows[0].error == "GroupError: enumerated set is not a subgroup"
    assert cells(rows[0]) == (None, None, None, None)
    assert len(calls) == 1
    assert "| dihedral | 1 | 8..8 | 1 |" in markdown_report(rows)


def test_each_row_walks_the_lower_central_series_once(monkeypatch):
    calls = []
    walk = powcov.sweep.nilpotence_class
    monkeypatch.setattr(powcov.sweep, "nilpotence_class", lambda g: calls.append(g) or walk(g))
    entries = select_entries(None, 16) + [CatalogEntry("c6", "cyclic:6")]
    rows = run_sweep(entries, stable_timing=True)
    assert len(calls) == len(rows) == len(entries)
    assert [(r.nilpotence_class, r.coclass) for r in rows[-1:]] == [(1, None)]


def test_a_repeated_family_is_answered_once(monkeypatch):
    # --families powerful,powerful asks each powerful query once.
    calls = []
    sigma_of = powcov.sweep.sigma_of
    monkeypatch.setattr(
        powcov.sweep, "sigma_of", lambda g, family, cache: calls.append(family) or sigma_of(g, family, cache)
    )
    entries = select_entries(None, 16)
    rows = run_sweep(entries, families=(POW, ALL, POW), stable_timing=True)
    assert calls == [POW, ALL] * len(entries)
    assert rows == run_sweep(entries, families=(POW, ALL), stable_timing=True)


def test_csv_shape_and_error_escaping():
    product = "product:(cyclic:4,cyclic:2)"
    rows = [
        sweep_entry(CatalogEntry("d16", "dihedral:16"), stable_timing=True),
        sweep_entry(CatalogEntry("bad", "dihedral:6"), stable_timing=True),
        sweep_entry(CatalogEntry(product, product), stable_timing=True),
    ]
    assert "," in rows[1].error
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    parsed = parse_csv(text)
    assert parsed[0]["id"] == "d16"
    assert parsed[0]["sigma_PE"] == "INF"
    assert parsed[1]["error"] == rows[1].error  # round-trips, commas and all
    assert parsed[2]["id"] == product
    assert parsed[2]["order"] == "8"
    assert parsed[2]["sigma"] == "3"
    assert None not in parsed[2]  # no surplus fields spilled out of the id


def test_run_sweep_writes_csv_and_markdown(tmp_path):
    out = tmp_path / "report.csv"
    entries = [
        CatalogEntry("d8", "dihedral:8"),
        CatalogEntry("d16", "dihedral:16"),
        CatalogEntry("c8", "cyclic:8"),
    ]
    rows = run_sweep(entries, out_csv=str(out), stable_timing=True)
    assert [r.id for r in rows] == ["d8", "d16", "c8"]
    assert out.exists()
    md = (tmp_path / "report.md").read_text()
    assert md.startswith("# covering-number sweep")
    assert "## violations" in md
    assert "none" in md


def test_markdown_flags_planted_violation():
    good = sweep_entry(CatalogEntry("d16", "dihedral:16"), stable_timing=True)
    # fabricate a chain violation: sigma above sigma_P
    bad = good._replace(id="planted", sigmas={**good.sigmas, ALL: 9, AB: 5})
    md = markdown_report([good, bad])
    assert "  - planted: sigma 9 > sigma_P 5\n  - planted: sigma 9 > sigma_A 5\n" in md


def test_builtin_catalog_sweep_is_clean():
    rows = run_sweep(select_entries(None, 32), stable_timing=True)
    assert all(r.error == "" for r in rows)
    md = markdown_report(rows)
    violations = md.split("## violations", 1)[1]
    assert "none" in violations
    by_id = {r.id: r for r in rows}
    assert by_id["modular:16"].sigmas[POW] == 3
    assert by_id["quaternion:32"].sigmas[POW] == 9
    assert by_id["elementary:2^5"].sigmas[POW] == 3
    assert by_id["product:(dihedral:8,cyclic:2)"].sigmas[POW] == 3


@pytest.mark.parametrize("explicit", [True, False], ids=["given-cache", "default-cache"])
def test_a_sweep_enumerates_each_lattice_once(monkeypatch, explicit):
    # Every family is its own sigma_of query; the run's one cache must still
    # hand all four the lattice it enumerated for the first.  A cyclic group
    # is answered without one.
    keys = []
    enumerate_subgroups = powcov.cache.enumerate_subgroups

    def counted(g):
        keys.append(g.content_key())
        return enumerate_subgroups(g)

    monkeypatch.setattr(powcov.cache, "enumerate_subgroups", counted)
    entries = select_entries(None, 32)
    given = {"cache": LatticeCache()} if explicit else {}
    rows = run_sweep(entries, ALL_FAMILIES, stable_timing=True, **given)
    assert all(r.error == "" for r in rows)
    noncyclic = {g.content_key() for g in (e.build() for e in entries) if not g.is_cyclic()}
    assert sorted(keys) == sorted(noncyclic)
