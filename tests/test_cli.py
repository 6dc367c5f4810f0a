import json
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import powcov
import powcov.cache
import powcov.cli
import powcov.sweep
from powcov.catalog import builtin_catalog
from powcov.cli import main
from powcov.groups import build_group
from powcov.lattice import enumerate_subgroups
from powcov.sweep import CSV_COLUMNS
from powcov.verify import SUITE_NAMES, SUITES


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# A cache record holds the bits and the flags, no order or tag.  Among
# dihedral:16's three subgroups of order 8, <r>, cyclic(8), is the abelian
# one, and the other two are dihedral(8).
def _order_8(row):
    return int(row["bits"], 16).bit_count() == 8


def cyclic_8(row):
    return _order_8(row) and row["abelian"]


def dihedral_8(row):
    return _order_8(row) and not row["abelian"]


# -------------------------------------------------------------------- sigma

def test_sigma_powerful_dihedral(capsys):
    rc, out, _ = run(capsys, "sigma", "dihedral:16", "powerful")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "sigma_P = 5"
    assert lines[1] == "witness:"
    member_lines = lines[2:]
    assert len(member_lines) == 5
    assert member_lines[0].startswith("  order   8: {e, r, ")
    assert all(l.startswith("  order   4: {") for l in member_lines[1:])


def test_sigma_ignores_an_edited_cache_entry(capsys, tmp_path):
    # conftest points POWCOV_CACHE_DIR at tmp_path / "cache"
    rc, first, _ = run(capsys, "sigma", "dihedral:16", "powerful")
    assert rc == 0
    (path,) = (tmp_path / "cache").iterdir()

    def add_reflection(doc):
        (row,) = filter(cyclic_8, doc["subgroups"])
        row["bits"] = format(int(row["bits"], 16) | 1 << 8, "x")  # add s to <r>

    edit_cache_entry(path, add_reflection, digest=False)
    rc, second, _ = run(capsys, "sigma", "dihedral:16", "powerful")
    assert rc == 0
    assert second == first
    assert "order   9" not in second


@pytest.mark.parametrize(
    "entry", [b'{"format_version":"\xff"}\n', b"[" * 200_000], ids=["not-utf-8", "nested-too-deep"]
)
def test_sigma_recomputes_an_entry_that_is_not_json_text(capsys, tmp_path, entry):
    # Once exit 2 with a codec error and exit 1 with a RecursionError.
    rc, first, _ = run(capsys, "sigma", "dihedral:16", "powerful")
    (path,) = (tmp_path / "cache").iterdir()
    path.write_bytes(entry)
    assert run(capsys, "sigma", "dihedral:16", "powerful") == (rc, first, "")
    fresh = enumerate_subgroups(build_group("dihedral:16"))
    assert path.read_text() == powcov.cache.serialize_lattice(fresh)


def _entry_text(doc, digest: bool = True) -> str:
    """doc as serialize_lattice writes an entry: compact JSON with sorted
    keys and a newline, the records' digest recomputed unless digest is
    false."""
    if digest and isinstance(doc, dict):
        doc = {**doc, "subgroups_sha256": powcov.cache._records_digest(doc.get("subgroups"))}
    return powcov.cache._dump(doc) + "\n"


def edit_cache_entry(path, edit, digest: bool = True) -> str:
    """Rewrite the cache entry at path as edit leaves its JSON document, or
    as the document edit returns, written as serialize_lattice writes one
    (with the old digest of the records unless digest); returns the text.
    Written so, the unedited document gives the entry's own bytes, so it is
    still a hit: a case is refused for its edit alone, never for its
    formatting."""
    path = Path(path)
    text = path.read_text()
    doc = json.loads(text)
    assert _entry_text(doc) == text, "the unedited entry would not be a hit"
    edited = edit(doc)
    text = _entry_text(doc if edited is None else edited, digest)
    path.write_text(text)
    return text


def _edit_cached_records(tmp_path, edit):
    """Apply edit to the records of the one cache entry, so that no check of
    the envelope refuses the entry."""
    (path,) = (tmp_path / "cache").iterdir()
    edit_cache_entry(path, lambda doc: edit(doc["subgroups"]))


def _proper_whole_group(records):
    # G itself, last in canonical order, under the key format 5 retired: a
    # record says it is proper only through its bits.
    records[-1]["proper"] = True


def _powerful_no(records):
    for row in records:
        if row["powerful"] is False:
            row["powerful"] = "no"


def _cyclic_8_deleted(records):
    records[:] = [row for row in records if not cyclic_8(row)]


@pytest.mark.parametrize(
    "family, edit, answer",
    [
        ("all", _proper_whole_group, "sigma = 3"),
        ("powerful", _powerful_no, "sigma_P = 5"),
        # Without <r>, sigma_P read INF; two subgroups of order 8 are not 1 mod 2.
        ("powerful", _cyclic_8_deleted, "sigma_P = 5"),
    ],
    ids=["proper-whole-group", "powerful-no", "cyclic-8-deleted"],
)
def test_sigma_recomputes_a_record_the_enumeration_cannot_write(
    capsys, tmp_path, family, edit, answer
):
    rc, first, _ = run(capsys, "sigma", "dihedral:16", family)
    assert rc == 0 and first.splitlines()[0] == answer
    _edit_cached_records(tmp_path, edit)
    assert run(capsys, "sigma", "dihedral:16", family) == (0, first, "")
    (path,) = (tmp_path / "cache").iterdir()
    fresh = enumerate_subgroups(build_group("dihedral:16"))
    assert path.read_text() == powcov.cache.serialize_lattice(fresh)


def test_sigma_refuses_a_witness_that_fails_its_check(capsys, tmp_path):
    # Both D8s claim to be powerful: well-typed records, so only the witness
    # check sees that the cover they give (sigma_P = 3) is wrong.
    run(capsys, "sigma", "dihedral:16", "powerful")

    def flip(records):
        for row in records:
            if dihedral_8(row):
                row["powerful"] = True

    _edit_cached_records(tmp_path, flip)
    rc, out, err = run(capsys, "sigma", "dihedral:16", "powerful")
    assert (rc, out) == (2, "")
    assert err.startswith("error: dihedral:16: the powerful witness fails its re-check")


def test_sigma_refuses_an_inf_answer_that_fails_its_check(capsys, tmp_path):
    # <r> claims not to be powerful: no other proper subgroup holds r, so the
    # cached flags give sigma_P = INF, which only the INF re-check refuses.
    run(capsys, "sigma", "dihedral:16", "powerful")

    def flip(records):
        for row in records:
            if cyclic_8(row):
                row["powerful"] = False

    _edit_cached_records(tmp_path, flip)
    rc, out, err = run(capsys, "sigma", "dihedral:16", "powerful")
    assert (rc, out) == (2, "")
    assert err.startswith("error: dihedral:16: the powerful answer INF fails its re-check")


def test_sigma_refuses_an_inf_answer_from_deleted_records(capsys, tmp_path):
    # Deleting <r> and one D8 leaves one subgroup of order 8, 1 mod 2 as
    # Frobenius asks, and r in no recorded subgroup, so the cached lattice
    # gives sigma_P = INF.  The re-check finds the subgroups that hold r from
    # the table, not the cache, and <r> among them is powerful.
    run(capsys, "sigma", "dihedral:16", "powerful")

    def delete(records):
        (d8, *_) = filter(dihedral_8, records)
        records[:] = [row for row in records if not cyclic_8(row) and row is not d8]

    _edit_cached_records(tmp_path, delete)
    rc, out, err = run(capsys, "sigma", "dihedral:16", "powerful")
    assert (rc, out) == (2, "")
    assert err.startswith("error: dihedral:16: the powerful answer INF fails its re-check")


def test_sigma_cyclic_is_infeasible_with_reason(capsys):
    rc, out, _ = run(capsys, "sigma", "cyclic:8", "all")
    assert rc == 1
    assert out.strip() == "sigma = INF (cyclic group has no proper-subgroup cover)"


def test_sigma_pe_family_alias(capsys):
    rc, out, _ = run(capsys, "sigma", "dihedral:32", "pe")
    assert rc == 1
    assert out.strip() == "sigma_PE = INF (no cover by this family exists)"


@pytest.mark.parametrize(
    "argv, lattices",
    [(("cyclic:128", "all"), 0), (("dihedral:32", "pe"), 0), (("modular:16", "pe"), 1)],
)
def test_sigma_reads_a_lattice_only_for_an_inf_the_search_found(
    capsys, tmp_path, monkeypatch, argv, lattices
):
    # A cyclic group, and sigma_PE on a p-group that is not powerful, are
    # answered off the table: no lattice is enumerated or cached, for the
    # answer or for its re-check.  modular:16 is powerful, so the search
    # finds its INF and the re-check reads the one lattice again.
    keys = []

    def counted(g):
        keys.append(g.content_key())
        return enumerate_subgroups(g)

    monkeypatch.setattr(powcov.cache, "enumerate_subgroups", counted)
    rc, out, _ = run(capsys, "sigma", *argv)
    assert rc == 1 and " = INF (" in out
    assert len(keys) == len(list((tmp_path / "cache").glob("*"))) == lattices


def test_sigma_bad_descriptor_is_usage_error(capsys):
    rc, out, err = run(capsys, "sigma", "dihedral:6", "all")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sigma_bad_family_is_usage_error(capsys):
    rc, _, err = run(capsys, "sigma", "dihedral:8", "frobnicate")
    assert rc == 2
    assert "family" in err


def _nested_product(depth: int, factor: str = "cyclic:2") -> str:
    """cyclic:2 inside depth products, each with factor on its right."""
    return "product:(" * depth + "cyclic:2" + f",{factor})" * depth


# The refusal of a product nested past 10 levels, at its eleventh product:.
TOO_DEEP = "products nest deeper than 10 levels (in "


@pytest.mark.parametrize("depth, factor", [(1200, "cyclic:2"), (990, "cyclic:1")])
def test_sigma_refuses_a_product_nested_too_deep(capsys, depth, factor):
    # Once a RecursionError's traceback and exit 1, the code for "no cover".
    rc, out, err = run(capsys, "sigma", _nested_product(depth, factor), "all")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {TOO_DEEP}") and err.endswith(" at position 90)\n")
    assert err.count("\n") == 1


# ------------------------------------------------------------------ lattice

def test_lattice_counts(capsys):
    rc, out, _ = run(capsys, "lattice", "quaternion:8")
    assert rc == 0
    assert "quaternion:8: order 8, 6 subgroups" in out
    assert "  proper: 5" in out
    assert "  abelian: 5" in out
    assert "  maximal: 3" in out
    assert "  powerful: 5" in out
    assert "  powerfully embedded: 2" in out
    assert "quaternion-like x1" in out


@pytest.mark.parametrize("descriptor", ["cyclic:6", f"perm:{Path(__file__).parent / 'data' / 's3.perm'}"])
def test_lattice_prints_na_for_powerful_flags_off_p_groups(capsys, descriptor):
    # The powerful flags are undefined there, as in sweep's blank cells.
    rc, out, _ = run(capsys, "lattice", descriptor)
    assert rc == 0
    assert out.splitlines()[5:7] == ["  powerful: n/a", "  powerfully embedded: n/a"]


# ---------------------------------------------------------------- construct

def test_construct_then_query_file(tmp_path, capsys):
    out_file = tmp_path / "d16.cayley"
    rc, out, _ = run(capsys, "construct", "dihedral:16", "--out", str(out_file))
    assert rc == 0
    assert f"wrote dihedral:16 (order 16) to {out_file}" in out
    rc, out, _ = run(capsys, "sigma", f"file:{out_file}", "powerful")
    assert rc == 0
    assert "sigma_P = 5" in out


# ------------------------------------------------------------------- verify

def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "main-theorem", "--max-n", "4")
    assert rc == 0
    assert out.startswith("suite main-theorem: PASS")
    assert "dihedral:32: tower index n=4" in out


def test_verify_main_theorem_to_order_512(capsys):
    rc, out, _ = run(capsys, "verify", "main-theorem", "--max-n", "8")
    assert rc == 0
    assert out.startswith("suite main-theorem: PASS  [dihedral groups of order 8..512]")
    assert "dihedral:256: tower index n=7: sigma_P = 65, expected 65" in out
    assert "dihedral:512: tower index n=8: sigma_P = 129, expected 129" in out


@pytest.mark.parametrize("max_n", [9, 30000])
def test_main_theorem_refuses_a_tower_past_the_cap_before_any_lattice(
    capsys, monkeypatch, max_n
):
    # n=9 once enumerated dihedral:8..512 first; n=30000 failed converting
    # 2^30001 to a string, with Python's message.
    keys = []

    def counted(g):
        keys.append(g.content_key())
        return enumerate_subgroups(g)

    monkeypatch.setattr(powcov.cache, "enumerate_subgroups", counted)
    rc, out, err = run(capsys, "verify", "main-theorem", "--max-n", str(max_n))
    assert (rc, out, keys) == (2, "", [])
    assert err == f"error: tower index n={max_n} gives order 2^{max_n + 1}, past the cap 512\n"


def test_verify_names_a_catalog_entry_nested_too_deep(tmp_path, capsys):
    cat = tmp_path / "deep.catalog"
    cat.write_text(f"d8 dihedral:8\ndeep {_nested_product(1200)}\nq8 quaternion:8\n")
    rc, out, err = run(capsys, "verify", "sigma-equals-p-plus-1", "--catalog", str(cat))
    assert rc == 2
    assert out.startswith("suite sigma-equals-p-plus-1: PASS  [2 catalog groups]")
    assert err.startswith(f"error: skipped deep: {TOO_DEEP}") and err.count("\n") == 1


def test_verify_with_catalog_file(tmp_path, capsys):
    cat = tmp_path / "two.catalog"
    cat.write_text("d8 dihedral:8\nq8 quaternion:8\n")
    rc, out, _ = run(capsys, "verify", "sigma-equals-p-plus-1", "--catalog", str(cat))
    assert rc == 0
    assert "d8:" in out and "q8:" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--out", "unused.csv", "--max-order", "0"], "must be at least"),
        (["verify", "chain", "--max-order", "0"], "must be at least"),
        (["verify", "main-theorem", "--max-n", "1"], "must be at least"),
        (["verify", "chain", "--max-order", "1"], "suite chain: EMPTY"),
        (["verify", "conjecture1", "--max-order", "4"], "suite conjecture1: EMPTY"),
        (["verify", "conjecture2", "--max-order", "4"], "suite conjecture2: EMPTY"),
        (["verify", "quotient", "--max-order", "2"], "suite quotient: EMPTY"),
        (["verify", "product-powerful", "--max-order", "8"], "suite product-powerful: EMPTY"),
        (["verify", "monotonicity", "--max-order", "2"], "suite monotonicity: EMPTY"),
        (["sweep", "--catalog", "empty.catalog", "--out", "unused.csv"], "selects no entry"),
        (["sweep", "--families", "", "--out", "unused.csv"], "unknown family ''"),
        (["verify", "pe-d32", "--max-order", "8"], "--max-order is read by none"),
        (["verify", "main-theorem", "--max-order", "64"], "--max-order is read by none"),
        (["verify", "pe-d32", "--catalog", "F"], "--catalog is read by none"),
        (["verify", "chain", "pe-d32", "--max-n", "3"], "--max-n is read by none"),
    ],
    ids=[
        "sweep-max-order", "verify-max-order", "verify-max-n",
        "chain-trivial-group", "conjecture1-empty", "conjecture2-empty",
        "quotient-empty", "product-powerful-empty", "monotonicity-empty",
        "sweep-empty-catalog", "sweep-empty-families", "pe-d32-max-order", "main-theorem-max-order",
        "pe-d32-catalog", "two-suites-max-n",
    ],
)
def test_empty_ranges_are_usage_errors(argv, message, capsys, tmp_path, monkeypatch):
    # A range with nothing in it, or an option no named suite reads, must not
    # sweep everything or pass vacuously.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.catalog").touch()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a bad value itself
        code = e.code
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.out + captured.err
    assert not (tmp_path / "unused.csv").exists()


def _flags(options):
    return [a for k, v in options.items() for a in ("--" + k.replace("_", "-"), v)]


def test_verify_all_prints_each_suite_as_run_alone(capsys):
    options = {"max_n": "3", "max_order": "16"}
    rc, out, _ = run(capsys, "verify", "all", *_flags(options))
    assert rc == 0
    assert out.endswith("\n\n")
    reports = out[:-2].split("\n\n")
    assert [r.split(":")[0] for r in reports] == [f"suite {name}" for name in SUITE_NAMES]
    for name, report in zip(SUITE_NAMES, reports):
        read = {k: v for k, v in options.items() if k in SUITES[name].defaults}
        rc, alone, _ = run(capsys, "verify", name, *_flags(read))
        assert rc == 0
        assert alone == report + "\n"


def test_a_repeated_suite_runs_once(capsys):
    rc, once, _ = run(capsys, "verify", "chain", "--max-order", "8")
    assert (rc, once.count("suite chain:")) == (0, 1)
    assert run(capsys, "verify", "chain", "chain", "--max-order", "8") == (0, once, "")


@pytest.mark.parametrize("no_cache", [[], ["--no-cache"]], ids=["disk", "memory"])
def test_verify_all_enumerates_each_lattice_once(no_cache, capsys, monkeypatch):
    calls = Counter()
    enumerate_subgroups = powcov.cache.enumerate_subgroups

    def counting(g):
        calls[g.content_key()] += 1
        return enumerate_subgroups(g)

    monkeypatch.setattr(powcov.cache, "enumerate_subgroups", counting)
    rc, _, _ = run(capsys, "verify", "all", "--max-n", "3", "--max-order", "16", *no_cache)
    assert rc == 0
    assert calls and max(calls.values()) == 1


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as e:
        main(["verify", "does-not-exist"])
    assert e.value.code == 2


# -------------------------------------------------------------------- sweep

def test_sweep_builtin_small(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    rc, out, _ = run(
        capsys, "sweep", "--out", str(out_csv), "--max-order", "16",
        "--stable-timing",
    )
    assert rc == 0
    assert "(0 errors)" in out
    assert out_csv.exists() and (tmp_path / "s.md").exists()
    header = out_csv.read_text().splitlines()[0]
    assert header == "id,order,p,class,coclass,sigma,sigma_A,sigma_P,sigma_PE,time_ms,error"


def test_sweep_refuses_an_out_path_that_is_not_a_regular_file(tmp_path, capsys):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    rc, out, err = run(capsys, "sweep", "--out", str(fifo), "--max-order", "4")
    assert rc == 2
    assert out == ""
    assert err == f"error: {fifo} exists and is not a regular file; not replacing it\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe.csv"]  # refused before any lattice is cached


def test_sweep_writes_no_report_when_the_markdown_path_is_refused(tmp_path, capsys):
    fifo = tmp_path / "r.md"
    os.mkfifo(fifo)
    rc, out, err = run(capsys, "sweep", "--out", str(tmp_path / "r.csv"), "--max-order", "4")
    assert rc == 2
    assert err == f"error: {fifo} exists and is not a regular file; not replacing it\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["r.md"]


@pytest.mark.parametrize(
    "argv", [["sweep", "--max-order", "4"], ["construct", "dihedral:8"]], ids=["sweep", "construct"]
)
def test_an_empty_out_path_is_refused(tmp_path, capsys, monkeypatch, argv):
    # os.path.dirname(os.path.abspath("")) is the parent of the working
    # directory, so an empty path would put the temporary file there.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc, out, err = run(capsys, *argv, "--out", "")
    assert (rc, out, err) == (2, "", "error: the output path is empty\n")
    assert sorted(os.listdir(tmp_path)) == ["work"]
    assert os.listdir(work) == []


@pytest.mark.parametrize(
    "argv", [["sweep", "--max-order", "4"], ["construct", "dihedral:8"]], ids=["sweep", "construct"]
)
def test_an_out_path_ending_in_a_separator_is_refused(tmp_path, capsys, monkeypatch, argv):
    # Once refused only by the last rename, after every sweep row, in a
    # message that named the temporary file.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    out = "new" + os.sep
    rc, stdout, err = run(capsys, *argv, "--out", out)
    assert (rc, stdout) == (2, "")
    assert err == f"error: {out} ends in a path separator, so names a directory; not writing it\n"
    assert sorted(os.listdir(tmp_path)) == ["work"]  # no row cached a lattice
    assert os.listdir(work) == []


def test_sweep_refuses_a_directory_before_its_first_row(tmp_path, capsys, monkeypatch):
    rows = []
    monkeypatch.setattr(powcov.sweep, "sweep_entry", lambda *args, **kwargs: rows.append(args))
    rc, out, err = run(capsys, "sweep", "--out", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err == f"error: {tmp_path} exists and is not a regular file; not replacing it\n"
    assert rows == []


def test_sweep_catalog_with_bad_entry(tmp_path, capsys):
    cat = tmp_path / "c.catalog"
    cat.write_text("good dihedral:8\nbad dihedral:6\n")
    out_csv = tmp_path / "r.csv"
    rc, out, _ = run(
        capsys, "sweep", "--catalog", str(cat), "--out", str(out_csv), "--stable-timing"
    )
    assert rc == 0
    assert "(1 errors)" in out
    assert "error bad: DescriptorError" in out
    rows = out_csv.read_text().splitlines()
    assert rows[1].startswith("good,8,2,")
    assert "DescriptorError" in rows[2]


def test_sweep_records_a_product_nested_too_deep_and_goes_on(tmp_path, capsys):
    cat = tmp_path / "deep.catalog"
    cat.write_text(f"d8 dihedral:8\ndeep {_nested_product(1200)}\nc4 cyclic:4\n")
    out_csv = tmp_path / "r.csv"
    rc, out, _ = run(
        capsys, "sweep", "--catalog", str(cat), "--out", str(out_csv), "--stable-timing"
    )
    assert rc == 0
    assert "(1 errors)" in out
    rows = out_csv.read_text().splitlines()
    assert rows[1] == "d8,8,2,2,1,3,3,3,INF,0,"
    # The error quotes 40 characters each side of the position, so the row
    # stays short and its cell holds no comma to quote.
    assert rows[2].startswith(f"deep,,,,,,,,,0,DescriptorError: {TOO_DEEP}") and len(rows[2]) < 300
    assert rows[3] == "c4,4,2,1,1,INF,INF,INF,INF,0,"


def test_sweep_catalog_max_order_builds_only_swept_groups(tmp_path, capsys, constructions):
    (tmp_path / "c5.perm").write_text("version 1\ndegree 5\ngen 1 2 3 4 0\n")
    cat = tmp_path / "m.catalog"
    cat.write_text(
        "d8 dihedral:8\nd32 dihedral:32\nbad dihedral:6\nc5 perm:c5.perm\n"
        "q16 quaternion:16\nbig product:(dihedral:16,dihedral:8)\n"
    )
    out_csv = tmp_path / "m.csv"
    rc, _, _ = run(
        capsys, "sweep", "--catalog", str(cat), "--out", str(out_csv),
        "--max-order", "16", "--stable-timing",
    )
    assert rc == 0
    # Descriptor orders are read without a build; the perm: source is built
    # to filter and its sweep row reuses that build; the unparsable one is
    # built by its row only.
    assert constructions == {
        "dihedral:8": 1, "quaternion:16": 1, "dihedral:6": 1, f"perm:{tmp_path / 'c5.perm'}": 1,
    }
    assert out_csv.read_text() == (
        "id,order,p,class,coclass,sigma,sigma_A,sigma_P,sigma_PE,time_ms,error\n"
        "d8,8,2,2,1,3,3,3,INF,0,\n"
        "bad,,,,,,,,,0,\"DescriptorError: dihedral order must be a power of 2, "
        ">= 4; got 6 (in 'dihedral:6' at position 9)\"\n"
        "c5,5,5,1,0,INF,INF,INF,INF,0,\n"
        "q16,16,2,3,1,3,5,5,INF,0,\n"
    )


def test_writers_create_their_output_directory(tmp_path, capsys):
    out_csv = tmp_path / "new" / "dir" / "r.csv"
    rc, _, _ = run(
        capsys, "sweep", "--out", str(out_csv), "--max-order", "8", "--stable-timing"
    )
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert (out_csv.parent / "r.md").exists()
    cayley = tmp_path / "other" / "d8.cayley"
    rc, _, _ = run(capsys, "construct", "dihedral:8", "--out", str(cayley))
    assert rc == 0 and cayley.exists()


def test_sweep_family_subset(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    rc, out, _ = run(
        capsys, "sweep", "--out", str(out_csv), "--max-order", "8",
        "--families", "powerful,pe", "--stable-timing",
    )
    assert rc == 0
    rows = out_csv.read_text().splitlines()
    d8 = next(r for r in rows if r.startswith("dihedral:8,"))
    cells = d8.split(",")
    assert cells[5] == "" and cells[6] == ""  # sigma, sigma_A not computed
    assert cells[7] == "3"


# ------------------------------------------------------------------ process

def child_env(cache_dir):
    """A minimal environment whose interpreter imports the same powcov as this process."""
    src = str(Path(powcov.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {
        "PATH": "/usr/bin:/bin",
        "POWCOV_CACHE_DIR": str(cache_dir),
        "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src]),
    }


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "powcov", "sigma", "dihedral:8", "powerful"],
        capture_output=True,
        text=True,
        env=child_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "sigma_P = 3" in proc.stdout


def test_module_verify_all(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "powcov", "verify", "all", "--max-n", "3", "--max-order", "16"],
        capture_output=True,
        text=True,
        env=child_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("suite ") for line in proc.stdout.splitlines()) == 9


def test_console_script(tmp_path):
    # Run the declared [project.scripts] target the way an installer's wrapper does.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["powcov"]
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "sigma", "cyclic:4", "all"],
        capture_output=True,
        text=True,
        env=child_env(tmp_path),
    )
    assert proc.returncode == 1, proc.stderr
    assert "INF" in proc.stdout


# What a process has imported when run() returns: the script wrapper, plus a
# line naming the optional modules that are loaded.
LOADED = (
    "import sys; from powcov.__main__ import run; code = run(); "
    "print(*sorted({'powcov.sweep', 'csv', 'logging'} & set(sys.modules))); sys.exit(code)"
)


def test_each_command_imports_only_what_it_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, "sigma", "cyclic:4", "all"],
        capture_output=True,
        text=True,
        env=child_env(tmp_path),
    )
    assert proc.returncode == 1, proc.stderr
    assert "INF" in proc.stdout
    assert proc.stdout.splitlines()[-1] == ""
    out = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, "sweep", "--max-order", "8", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(tmp_path / "cache"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "csv powcov.sweep"
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert (tmp_path / "report.md").exists()


def test_main_leaves_the_collector_alone(capsys):
    import gc

    frozen = gc.get_freeze_count()
    assert main(["sigma", "dihedral:8", "powerful", "--no-cache"]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


# ------------------------------------------------------------ pinned reports

REPORTS = Path(__file__).resolve().parent / "data" / "reports"


def test_reports_match_pinned_bytes(capsys, tmp_path):
    # The claim layer's whole output over the built-in catalog, byte for byte.
    rc, out, _ = run(capsys, "verify", "all", "--no-cache")
    assert rc == 0
    assert out == (REPORTS / "verify_all.txt").read_text()
    out_csv = tmp_path / "sweep_builtin.csv"
    rc, _, _ = run(capsys, "sweep", "--stable-timing", "--no-cache", "--out", str(out_csv))
    assert rc == 0
    assert out_csv.read_bytes() == (REPORTS / "sweep_builtin.csv").read_bytes()
    assert (tmp_path / "sweep_builtin.md").read_bytes() == (REPORTS / "sweep_builtin.md").read_bytes()
    # `powcov lattice` over the groups with pinned lattice digests: the
    # built-in catalog, then five groups that are not p-groups.
    out = ""
    for name in json.loads((REPORTS.parent / "lattice_digests.json").read_text()):
        rc, text, _ = run(capsys, "lattice", name, "--no-cache")
        assert rc == 0
        out += text
    assert out == (REPORTS / "lattice_builtin.txt").read_text()


# ------------------------------------------ groups outside the p-group claims

S3_CATALOG = Path(__file__).resolve().parent / "data" / "s3_catalog.txt"


@pytest.mark.parametrize(
    "suite, first_line, labels",
    [
        # sigma = p + 1 is about p-groups; no cyclic group has a cover at all
        ("sigma-equals-p-plus-1", "PASS  [2 catalog groups]", ["d8", "c6"]),
        # sigma_P is undefined on s3 and c6, which are not p-groups
        ("chain", "PASS  [1 catalog groups]", ["d8"]),
        ("monotonicity", "CONFIRMED-ON-RANGE", ["search"]),
    ],
    ids=["sigma-equals-p-plus-1", "chain", "monotonicity"],
)
def test_p_group_claims_skip_groups_outside_their_hypothesis(suite, first_line, labels, capsys):
    rc, out, err = run(capsys, "verify", suite, "--catalog", str(S3_CATALOG), "--no-cache")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith(f"suite {suite}: {first_line}")
    assert [line.split()[1].rstrip(":") for line in lines[1:]] == labels


def test_sweep_leaves_undefined_families_blank(tmp_path, capsys):
    out_csv = tmp_path / "s3.csv"
    rc, _, _ = run(capsys, "sweep", "--catalog", str(S3_CATALOG), "--out", str(out_csv),
                   "--stable-timing", "--no-cache")
    assert rc == 0
    rows = out_csv.read_text().splitlines()[1:]
    assert rows == [
        "s3,6,,,,4,4,,,0,",
        "d8,8,2,2,1,3,3,3,INF,0,",
        "c6,6,,1,,INF,INF,,,0,",
    ]


BAD_ENTRY_CATALOG = S3_CATALOG.parent / "bad_entry_catalog.txt"
BAD_ENTRY_ERROR = (
    "bad: dihedral order must be a power of 2, >= 4; got 6 (in 'dihedral:6' at position 9)"
)


def test_verify_skips_an_entry_that_fails_to_build(capsys):
    rc, out, err = run(
        capsys, "verify", "chain", "--catalog", str(BAD_ENTRY_CATALOG), "--no-cache"
    )
    assert rc == 2
    assert out.splitlines() == [
        "suite chain: PASS  [2 catalog groups]",
        "  ok  d8: sigma = 3, sigma_P = 3, sigma_A = 3",
        "  ok  c4: sigma = INF, sigma_P = INF, sigma_A = INF",
    ]
    assert err == f"error: skipped {BAD_ENTRY_ERROR}\n"


def test_verify_all_runs_every_suite_past_an_entry_that_fails_to_build(capsys, constructions):
    rc, out, err = run(
        capsys, "verify", "all", "--max-order", "8", "--catalog", str(BAD_ENTRY_CATALOG),
        "--no-cache",
    )
    assert rc == 2
    heads = [line.split(":")[0] for line in out.splitlines() if line.startswith("suite ")]
    assert heads == [f"suite {name}" for name in SUITE_NAMES]
    assert "FAIL" not in out and "COUNTEREXAMPLE" not in out
    # Six suites read the catalog; the failing entry is tried and named once.
    assert err.splitlines() == [f"error: skipped {BAD_ENTRY_ERROR}"]
    assert constructions == {"dihedral:8": 1, "dihedral:6": 1, "cyclic:4": 1}


def test_verify_all_constructs_each_builtin_entry_once(capsys, constructions):
    rc, _, err = run(capsys, "verify", "all", "--no-cache")
    assert (rc, err) == (0, "")
    assert constructions == Counter(e.source for e in builtin_catalog())
    assert len(constructions) == 82


def test_verify_builds_the_catalog_only_for_a_suite_that_reads_it(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return builtin_catalog(*args)

    monkeypatch.setattr(powcov.cli, "builtin_catalog", counting)
    for argv in (["main-theorem", "--max-n", "3"], ["product-powerful", "--max-order", "16"], ["pe-d32"]):
        rc, _, err = run(capsys, "verify", *argv, "--no-cache")
        assert (rc, err) == (0, "")
    assert calls == []
    rc, _, _ = run(capsys, "verify", "main-theorem", "chain", "--max-order", "8", "--no-cache")
    assert rc == 0
    assert len(calls) == 1


def test_a_catalog_that_repeats_an_id_is_a_usage_error(tmp_path, capsys):
    cat = tmp_path / "dup.catalog"
    cat.write_text("a dihedral:8\na cyclic:4\n")
    message = f"error: {cat}:2: duplicate id 'a' (first on line 1)\n"
    for argv in (["sweep", "--out", str(tmp_path / "r.csv")], ["verify", "chain"]):
        rc, out, err = run(capsys, *argv, "--catalog", str(cat))
        assert (rc, out, err) == (2, "", message)
    assert not (tmp_path / "r.csv").exists()
