import os
import re
import stat
import subprocess
import sys
import textwrap

import pytest

from powcov import fileio
from powcov.fileio import (
    FileFormatError,
    atomic_write_text,
    load_cayley_file,
    load_permutation_generators,
    save_cayley_file,
)
from powcov.groups import CapError, ConstructionError, FiniteGroup, GroupError, build_group

from test_cli import child_env


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- atomic write

def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new contents\n")
    assert target.read_text() == "new contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize(
    "umask, mode",
    [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
    ids=["umask-022", "umask-077", "umask-002"],
)
def test_atomic_write_gives_the_mode_of_a_new_file(tmp_path, umask, mode):
    target = tmp_path / "report.csv"
    old = os.umask(umask)
    try:
        atomic_write_text(str(target), "id\n")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # The umask is process-wide: setting it, even for a moment, would change
    # the mode of a file another thread creates meanwhile.
    def refuse(mask):
        raise AssertionError("atomic_write_text set the umask")

    monkeypatch.setattr(os, "umask", refuse)
    atomic_write_text(str(tmp_path / "out.txt"), "new contents\n")
    assert (tmp_path / "out.txt").read_text() == "new contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_cleans_up_when_the_rename_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        assert os.path.isfile(src)  # the temp file was written
        raise OSError("planted")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="planted"):
        atomic_write_text(str(tmp_path / "out.txt"), "new contents\n")
    assert os.listdir(tmp_path) == []


def test_atomic_write_failure_propagates_and_leaves_no_temp(tmp_path):
    # A directory is refused before any temp file is made.
    target = tmp_path / "out.txt"
    (target / "inside").mkdir(parents=True)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "new contents\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert os.listdir(target) == ["inside"]


def test_atomic_write_refuses_a_path_that_is_not_a_regular_file(tmp_path):
    # Renaming over a FIFO (or a device) would replace it with a plain file.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="pipe exists and is not a regular file"):
        atomic_write_text(str(fifo), "new contents\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


# ----------------------------------------------------- files that are not files

def run_child(tmp_path, *argv):
    """Run the command line in a child process that a hang cannot outlive."""
    return subprocess.run(
        [sys.executable, "-m", "powcov", *argv],
        capture_output=True, text=True, env=child_env(tmp_path / "cache"), timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [["sigma", "file:{}", "all"], ["sigma", "perm:{}", "all"], ["sweep", "--catalog", "{}", "--out", "r.csv"]],
    ids=["cayley-file", "permutation-file", "catalog"],
)
def test_a_fifo_is_refused_not_read(tmp_path, argv):
    # Opening a FIFO to read once blocked the run until it was killed.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    proc = run_child(tmp_path, *(a.format(fifo) for a in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {fifo} is not a regular file; not reading it\n"
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


def test_a_catalog_entry_naming_a_fifo_fills_its_error_cell(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    cat = write(tmp_path, "c.catalog", "x file:pipe\nd8 dihedral:8\n")
    out = tmp_path / "r.csv"
    proc = run_child(tmp_path, "sweep", "--catalog", cat, "--out", str(out), "--stable-timing")
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[1] == f"x,,,,,,,,,0,OSError: {fifo} is not a regular file; not reading it"
    assert rows[2] == "d8,8,2,2,1,3,3,3,INF,0,"


# ------------------------------------------------------------- cayley files

def test_round_trip_is_byte_stable(tmp_path):
    g = build_group("dihedral:16")
    p1, p2 = tmp_path / "a.cayley", tmp_path / "b.cayley"
    save_cayley_file(g, str(p1))
    g2 = load_cayley_file(str(p1))
    save_cayley_file(g2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert g.table == g2.table
    assert g.names == g2.names
    assert g2.descriptor == f"file:{p1}"


def test_comments_commas_and_blank_lines(tmp_path):
    path = write(
        tmp_path,
        "c2.cayley",
        "# two-element group\nversion 1\n\norder 2\ntable\n0, 1\n1, 0\n\nnames\ne\nx\n",
    )
    g = load_cayley_file(path)
    assert g.order == 2
    assert g.names == ("e", "x")


def test_the_docstring_example_loads(tmp_path):
    text = fileio.__doc__.split("table::\n\n", 1)[1].split("\n\n", 1)[0]
    g = load_cayley_file(write(tmp_path, "doc.cayley", textwrap.dedent(text) + "\n"))
    assert g.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert g.names == ("e", "a", "b", "ab")


def test_trivial_group_file(tmp_path):
    path = write(tmp_path, "t.cayley", "version 1\norder 1\ntable\n0\n")
    g = load_cayley_file(path)
    assert g.order == 1 and g.identity == 0


def test_loaded_table_is_validated(tmp_path):
    path = write(
        tmp_path, "bad.cayley", "version 1\norder 2\ntable\n0 0\n1 0\n"
    )
    with pytest.raises(GroupError, match="row 0.*value 0 repeats"):
        load_cayley_file(path)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty file"),
        ("version 2\n", "unsupported format version 2"),
        ("format 1\n", "expected 'version 1'"),
        ("version 1\n", "expected 'order N'"),
        ("version 1\norder two\n", "order must be an integer"),
        ("version 1\norder 0\ntable\n", "order must be >= 1"),
        ("version 1\norder 2\n0 1\n1 0\n", "expected a 'table' section"),
        ("version 1\norder 2\ntable\n0 1\n", "table has 1 rows, expected 2"),
        ("version 1\norder 2\ntable\n0 1\n1 0\nx\n", "unexpected content"),
        ("version 1\norder 2\ntable\n0 1 0\n1 0\n", "row"),
        ("version 1\norder 2\ntable\n0 1\n1 0\nnames\ne\n", "names"),
    ],
)
def test_malformed_cayley_files(tmp_path, text, msg):
    path = write(tmp_path, "m.cayley", text)
    with pytest.raises(FileFormatError, match=msg):
        load_cayley_file(path)


def test_names_a_cayley_file_cannot_hold_are_refused(tmp_path):
    # The file holds one name a line, split on whitespace, and skips lines
    # that start with '#': "#a" would be saved as a comment and lost.
    path = write(tmp_path, "in.cayley", "version 1\norder 2\ntable\n0 1\n1 0\nnames\ne #a\n")
    with pytest.raises(ConstructionError, match="'#a' of element 1"):
        load_cayley_file(path)
    for name in ("", "a b", "a\tb", "#"):
        with pytest.raises(ConstructionError, match=re.escape(f"{name!r} of element 1")):
            FiniteGroup([[0, 1], [1, 0]], names=["e", name])


def test_file_errors_are_group_errors(tmp_path):
    path = write(tmp_path, "v.cayley", "version 9\n")
    with pytest.raises(GroupError):
        load_cayley_file(path)


def test_cayley_cap(tmp_path):
    # a well-formed cyclic table one past the ceiling
    n = 513
    rows = "\n".join(" ".join(str((i + j) % n) for j in range(n)) for i in range(n))
    path = write(tmp_path, "c513.cayley", f"version 1\norder {n}\ntable\n{rows}\n")
    with pytest.raises(CapError, match="513"):
        load_cayley_file(path)


def test_cayley_order_header_checked_before_rows(tmp_path):
    # the rows are missing and malformed: only the header is ever read
    path = write(tmp_path, "h.cayley", "version 1\norder 513\ntable\n0 x\n")
    with pytest.raises(CapError, match="line 2: group order 513 exceeds"):
        load_cayley_file(path)


# -------------------------------------------------------- permutation files

def test_octagon_symmetries_give_dihedral_16(tmp_path):
    path = write(
        tmp_path,
        "oct.perm",
        "version 1\ndegree 8\ngen 1 2 3 4 5 6 7 0\ngen 0 7 6 5 4 3 2 1\n",
    )
    g = load_permutation_generators(path)
    assert g.order == 16
    assert g.descriptor == f"perm:{path}"
    d16 = build_group("dihedral:16")
    assert sorted(g.element_orders) == sorted(d16.element_orders)


def test_identity_permutation_alone(tmp_path):
    path = write(tmp_path, "id.perm", "version 1\ndegree 3\ngen 0 1 2\n")
    g = load_permutation_generators(path)
    assert g.order == 1


def test_single_transposition_gives_c2(tmp_path):
    path = write(tmp_path, "swap.perm", "version 1\ndegree 2\ngen 1 0\n")
    g = load_permutation_generators(path)
    assert g.order == 2
    assert g.identity == 0  # identity is listed first even if no generator is e


def test_permutation_closure_cap(tmp_path):
    # a 600-cycle closes to a group past the construction cap of 512
    images = " ".join(str((i + 1) % 600) for i in range(600))
    path = write(tmp_path, "big.perm", f"version 1\ndegree 600\ngen {images}\n")
    with pytest.raises(CapError, match="512"):
        load_permutation_generators(path)


def test_permutation_closure_cap_names_a_lower_bound(tmp_path):
    # The closure stops at its 513th element, so it knows no more than that.
    images = " ".join(str((i + 1) % 600) for i in range(600))
    path = write(tmp_path, "big.perm", f"version 1\ndegree 600\ngen {images}\n")
    with pytest.raises(CapError) as exc:
        load_permutation_generators(path)
    assert str(exc.value) == (
        "permutation closure: a lower bound on the group order 513 exceeds construction cap 512"
    )


@pytest.mark.parametrize(
    "text,msg",
    [
        ("version 1\n", "expected 'degree d'"),
        ("version 1\ndegree 0\n", "degree must be >= 1"),
        ("version 1\ndegree 3\n", "at least one generator"),
        ("version 1\ndegree 3\ngen 0 1\n", "has 2 images, expected 3"),
        ("version 1\ndegree 3\ngen 0 0 1\n", "not a permutation"),
        ("version 1\ndegree 3\ngen 0 1 3\n", "not a permutation"),
        ("version 1\ndegree 3\nrow 0 1 2\n", "expected 'gen"),
    ],
)
def test_malformed_permutation_files(tmp_path, text, msg):
    path = write(tmp_path, "m.perm", text)
    with pytest.raises(FileFormatError, match=msg):
        load_permutation_generators(path)


def test_permutation_group_agrees_with_cyclic(tmp_path):
    path = write(tmp_path, "c5.perm", "version 1\ndegree 5\ngen 1 2 3 4 0\n")
    g = load_permutation_generators(path)
    c5 = build_group("cyclic:5")
    assert g.order == 5
    assert sorted(g.element_orders) == sorted(c5.element_orders)
