import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import powcov
import powcov.cache
from powcov.catalog import builtin_catalog
from powcov.cli import main
from powcov.sweep import CSV_COLUMNS
from powcov.verify import SUITE_NAMES, SUITES


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    doc = json.loads(path.read_text())
    (row,) = [r for r in doc["subgroups"] if r["tag"] == "cyclic(8)"]
    row["bits"] = format(int(row["bits"], 16) | 1 << 8, "x")  # add s to <r>
    path.write_text(json.dumps(doc))
    rc, second, _ = run(capsys, "sigma", "dihedral:16", "powerful")
    assert rc == 0
    assert second == first
    assert "order   9" not in second


def _edit_cached_records(tmp_path, edit):
    """Apply edit to the records of the one cache entry and recompute their
    digest, so that no envelope check refuses the entry."""
    (path,) = (tmp_path / "cache").iterdir()
    doc = json.loads(path.read_text())
    edit(doc["subgroups"])
    doc["subgroups_sha256"] = powcov.cache._records_digest(doc["subgroups"])
    path.write_text(json.dumps(doc))


def _proper_whole_group(records):
    records[-1]["proper"] = True  # G itself, last in canonical order


def _powerful_no(records):
    for row in records:
        if row["powerful"] is False:
            row["powerful"] = "no"


@pytest.mark.parametrize(
    "family, edit, answer",
    [("all", _proper_whole_group, "sigma = 3"), ("powerful", _powerful_no, "sigma_P = 5")],
    ids=["proper-whole-group", "powerful-no"],
)
def test_sigma_recomputes_a_record_the_enumeration_cannot_write(
    capsys, tmp_path, family, edit, answer
):
    rc, first, _ = run(capsys, "sigma", "dihedral:16", family)
    assert rc == 0 and first.splitlines()[0] == answer
    _edit_cached_records(tmp_path, edit)
    assert run(capsys, "sigma", "dihedral:16", family) == (0, first, "")


def test_sigma_refuses_a_witness_that_fails_its_check(capsys, tmp_path):
    # Both D8s claim to be powerful: well-typed records, so only the witness
    # check sees that the cover they give (sigma_P = 3) is wrong.
    run(capsys, "sigma", "dihedral:16", "powerful")

    def flip(records):
        for row in records:
            if row["tag"] == "dihedral(8)":
                row["powerful"] = True

    _edit_cached_records(tmp_path, flip)
    rc, out, err = run(capsys, "sigma", "dihedral:16", "powerful")
    assert (rc, out) == (2, "")
    assert err.startswith("error: dihedral:16: the powerful witness fails its re-check")


def test_sigma_cyclic_is_infeasible_with_reason(capsys):
    rc, out, _ = run(capsys, "sigma", "cyclic:8", "all")
    assert rc == 1
    assert out.strip() == "sigma = INF (cyclic group has no proper-subgroup cover)"


def test_sigma_pe_family_alias(capsys):
    rc, out, _ = run(capsys, "sigma", "dihedral:32", "pe")
    assert rc == 1
    assert out.strip() == "sigma_PE = INF (no cover by this family exists)"


def test_sigma_bad_descriptor_is_usage_error(capsys):
    rc, out, err = run(capsys, "sigma", "dihedral:6", "all")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sigma_bad_family_is_usage_error(capsys):
    rc, _, err = run(capsys, "sigma", "dihedral:8", "frobnicate")
    assert rc == 2
    assert "family" in err


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
        (["sweep", "--catalog", os.devnull, "--out", "unused.csv"], "selects no entry"),
        (["verify", "pe-d32", "--max-order", "8"], "--max-order is read by none"),
        (["verify", "main-theorem", "--max-order", "64"], "--max-order is read by none"),
        (["verify", "pe-d32", "--catalog", "F"], "--catalog is read by none"),
        (["verify", "chain", "pe-d32", "--max-n", "3"], "--max-n is read by none"),
    ],
    ids=[
        "sweep-max-order", "verify-max-order", "verify-max-n",
        "chain-trivial-group", "conjecture1-empty", "conjecture2-empty",
        "quotient-empty", "product-powerful-empty", "monotonicity-empty",
        "sweep-empty-catalog", "pe-d32-max-order", "main-theorem-max-order",
        "pe-d32-catalog", "two-suites-max-n",
    ],
)
def test_empty_ranges_are_usage_errors(argv, message, capsys, tmp_path, monkeypatch):
    # A range with nothing in it, or an option no named suite reads, must not
    # sweep everything or pass vacuously.
    monkeypatch.chdir(tmp_path)
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


def test_a_catalog_that_repeats_an_id_is_a_usage_error(tmp_path, capsys):
    cat = tmp_path / "dup.catalog"
    cat.write_text("a dihedral:8\na cyclic:4\n")
    message = f"error: {cat}:2: duplicate id 'a' (first on line 1)\n"
    for argv in (["sweep", "--out", str(tmp_path / "r.csv")], ["verify", "chain"]):
        rc, out, err = run(capsys, *argv, "--catalog", str(cat))
        assert (rc, out, err) == (2, "", message)
    assert not (tmp_path / "r.csv").exists()
