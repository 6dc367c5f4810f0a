"""The library's import paths: the README example and what `import powcov` loads."""

import subprocess
import sys
from pathlib import Path

from test_cli import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    ns = {}
    exec(library_example(), ns)
    assert len(ns["lat"]) == 36
    assert ns["res"].size == 9
    assert [len(w) for w in ns["res"].witness] == [16, 4, 4, 4, 4, 4, 4, 4, 4]


def loaded_submodules(tmp_path, statement):
    probe = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.startswith('powcov.')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded_submodules(tmp_path, "import powcov") == []


def test_cli_does_not_load_the_closed_form_dihedral_module(tmp_path):
    loaded = loaded_submodules(tmp_path, "import powcov.cli")
    assert "powcov.cli" in loaded
    assert "powcov.dihedral_nf" not in loaded
