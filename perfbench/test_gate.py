"""Checks of the benchmark's correctness gate; no powcov run needed.

    python3 -m pytest -q perfbench/test_gate.py
"""

import copy

import gate

REFERENCE = gate.load_reference()
HEADER = "id,order,p,class,coclass,sigma,sigma_A,sigma_P,sigma_PE,time_ms,error"


def sweep_csv(reference, quote_ids=False):
    lines = [HEADER]
    for gid, ref in reference.items():
        shown = f'"{gid}"' if quote_ids and "," in gid else gid
        cells = [ref[c] for c in gate.SIGMA_COLUMNS]
        lines.append(",".join([shown, str(ref["order"]), "", "", "", *cells, "7", ""]))
    return "\n".join(lines) + "\n"


def test_reference_agrees_with_closed_forms():
    for gid, ref in REFERENCE.items():
        for column in gate.SIGMA_COLUMNS:
            assert gate.expected_sigma(ref, column) == ref[column], (gid, column)
        assert gate.expected_subgroups(gid, REFERENCE) == ref["subgroups"], gid


def test_closed_form_subgroup_counts():
    counts = {"dihedral:128": 134, "dihedral:256": 263, "quaternion:64": 37,
              "quaternion:128": 70, "elementary:2^5": 374, "elementary:3^4": 212,
              "cyclic:1": 1, "cyclic:128": 8}
    for descriptor, n in counts.items():
        assert gate.expected_subgroups(descriptor, {}) == n, descriptor
    assert gate.check_subgroup_counts(counts, REFERENCE) == (8, 0, [])
    assert gate.check_subgroup_counts({"dihedral:256": 262}, REFERENCE)[1] == 1
    assert gate.check_subgroup_counts({"semidihedral:256": 1}, REFERENCE)[1] == 1


def test_correct_sweep_passes_with_or_without_quoted_ids():
    ids = list(REFERENCE)
    for quoted in (False, True):
        attempted, failed, problems = gate.check_sweep_csv(
            sweep_csv(REFERENCE, quoted), ids, REFERENCE)
        assert (attempted, failed, problems) == (4 * len(ids), 0, [])


def test_wrong_reference_value_is_reported():
    wrong = copy.deepcopy(REFERENCE)
    wrong["semidihedral:32"]["sigma_A"] = "8"
    _, failed, problems = gate.check_sweep_csv(sweep_csv(REFERENCE), list(REFERENCE), wrong)
    assert failed == 1 and "semidihedral:32: sigma_A" in problems[0]


def test_wrong_closed_form_cell_is_reported():
    wrong = copy.deepcopy(REFERENCE)
    wrong["dihedral:64"]["sigma_P"] = "16"
    wrong["cyclic:8"]["sigma_PE"] = "3"
    _, failed, _ = gate.check_sweep_csv(sweep_csv(wrong), list(REFERENCE), REFERENCE)
    assert failed == 2


def test_missing_errored_and_duplicated_rows_fail_all_their_cells():
    ids = list(REFERENCE)
    lines = sweep_csv(REFERENCE).splitlines()
    lines = [line for line in lines if not line.startswith("dihedral:16,")]
    lines = [line + "ValueError: boom" if line.startswith("quaternion:8,") else line
             for line in lines]
    lines += [line for line in lines if line.startswith("modular:16,")]
    _, failed, _ = gate.check_sweep_csv("\n".join(lines) + "\n", ids, REFERENCE)
    assert failed == 12
    assert gate.check_sweep_csv("", ids, REFERENCE)[1] == 4 * len(ids)


def tower_stdout(values):
    lines = ["suite main-theorem: PASS  [dihedral groups of order 8..128]"]
    for n, v in zip(range(2, gate.TOWER_MAX_N + 1), values):
        lines.append(f"  ok  dihedral:{1 << (n + 1)}: tower index n={n}: "
                     f"sigma_P = {v}, expected {(1 << (n - 1)) + 1}")
    return "\n".join(lines) + "\n"


def test_tower_gate():
    good = [3, 5, 9, 17, 33]
    assert gate.check_tower(tower_stdout(good), 0) == (5, 0, [])
    assert gate.check_tower(tower_stdout([3, 5, 9, 17, 32]), 0)[1] == 1
    assert gate.check_tower(tower_stdout(good[:4]), 0)[1] == 1
    assert gate.check_tower(tower_stdout(good), 1)[1] == 5
