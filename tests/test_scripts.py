import json
import subprocess
import sys
from pathlib import Path

from test_cli import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
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
