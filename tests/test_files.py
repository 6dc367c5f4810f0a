import os

import numpy as np
import pytest

from powcov.fileio import (
    FileFormatError,
    atomic_write_text,
    load_cayley_file,
    load_permutation_generators,
    save_cayley_file,
)
from powcov.groups import CapError, GroupError, build_group


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


def test_atomic_write_failure_propagates_and_leaves_no_temp(tmp_path):
    # os.replace cannot put a file over an existing directory.
    target = tmp_path / "out.txt"
    (target / "inside").mkdir(parents=True)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "new contents\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert os.listdir(target) == ["inside"]


# ------------------------------------------------------------- cayley files

def test_round_trip_is_byte_stable(tmp_path):
    g = build_group("dihedral:16")
    p1, p2 = tmp_path / "a.cayley", tmp_path / "b.cayley"
    save_cayley_file(g, str(p1))
    g2 = load_cayley_file(str(p1))
    save_cayley_file(g2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(g.table, g2.table)
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
    assert sorted(g.element_orders.tolist()) == sorted(d16.element_orders.tolist())


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
    assert sorted(g.element_orders.tolist()) == sorted(c5.element_orders.tolist())
