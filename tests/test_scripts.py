import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TRACED_PASS = Path(__file__).resolve().parents[1] / "perfbench" / "traced_pass.py"
PINNED_DIGESTS = Path(__file__).resolve().parent / "data" / "lattice_digests.json"


def run_script(name, *argv, cache_dir):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=child_env(cache_dir),
    )


def test_lattice_digests_match_the_pinned_records(tmp_path):
    # A rewrite of enumeration or of any flag must leave every record of
    # every built-in lattice as the pinned file has it.
    out = tmp_path / "digests.json"
    proc = run_script("lattice_digests.py", "--out", str(out), cache_dir=tmp_path / "cache")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == json.loads(PINNED_DIGESTS.read_text())
    assert out.read_bytes() == PINNED_DIGESTS.read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["sigma", "dihedral:8", "powerful"],
        ["sweep", "--max-order", "8", "--stable-timing"],
        ["verify", "main-theorem", "--max-n", "3"],
    ],
    ids=["sigma", "sweep", "verify"],
)
def test_traced_pass_still_sees_every_layer(tmp_path, command):
    # perfbench/traced_pass.py wraps powcov's entry points by name; a rename,
    # or a solver that bypasses solve_exact and solve_greedy, would leave a
    # layer untraced or its witnesses unchecked.
    summary = tmp_path / "summary.json"
    if command[0] == "sweep":
        command = command + ["--out", str(tmp_path / "sweep.csv")]
    proc = subprocess.run(
        [sys.executable, str(TRACED_PASS), str(summary), "--", *command],
        capture_output=True,
        text=True,
        env=child_env(tmp_path / "cache"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(summary.read_text())
    assert result["witness_failures"] == []
    assert result["witnesses_checked"] >= 1
    layers = {"cover.query", "cover.solve", "cache.memo", "lattice.enumerate"}
    assert layers <= result["layers"].keys()
