"""The README's examples, console and library, and what `import powcov` loads."""

import ast
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env, run

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def console_examples():
    """(argv, stdout lines, whether they are only the first ones) for each
    `$ powcov ...` line of the README's console blocks, in order.  The
    output runs to the next command or the block's end, less trailing blank
    lines, or up to a `...` line, which shows that more follows."""
    examples = []
    for block in README.read_text().split("```console\n")[1:]:
        for chunk in block.split("```", 1)[0].split("$ powcov ")[1:]:
            command, *lines = chunk.split("\n")
            cut = [i for i, line in enumerate(lines) if line.strip() == "..."]
            lines = lines[: cut[0]] if cut else lines
            while lines and not lines[-1]:
                lines.pop()
            examples.append((shlex.split(command), lines, bool(cut)))
    return examples


def test_readme_console_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # conftest points POWCOV_CACHE_DIR at tmp_path / "cache"
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "data" / "s3.perm", tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    examples = console_examples()
    assert len(examples) == 9
    for argv, lines, partial in examples:
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (1 if " = INF (" in out else 0, ""), argv
        assert out.splitlines()[: len(lines) if partial else None] == lines, argv


def library_example():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    ns = {}
    exec(library_example(), ns)
    assert len(ns["lat"]) == 36
    assert ns["res"].size == 9
    assert [w.bit_count() for w in ns["res"].witness] == [16, 4, 4, 4, 4, 4, 4, 4, 4]


def loaded_submodules(tmp_path, statement):
    probe = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.startswith('powcov.')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded_submodules(tmp_path, "import powcov") == []


def test_every_module_is_imported_by_another_module():
    """Each module of src/powcov but the entry points is imported, at module
    or function level, by another: none lingers that nothing reaches."""
    reached = set()
    package = ROOT / "src" / "powcov"
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                reached.update(set(names) - {path.stem})
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - reached) == []


def _defined(stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(tree) -> set:
    """The names a syntax tree references: as a name, an attribute, an
    import or a string (perfbench wraps entry points by their names)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update((node.name, node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_is_used_outside_its_export_list():
    """Each name in a module's __all__ is referenced by code of the package,
    perfbench or scripts, and each module-level private function, class or
    constant of the package by such code outside its own definition: none
    is kept for its own tests alone.  Every module of the package but the
    entry points declares an __all__."""
    package = ROOT / "src" / "powcov"
    public, private, uses = {}, {}, []
    for path in [*package.glob("*.py"), *ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]:
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            if names == ["__all__"]:
                public[path.stem] = ast.literal_eval(stmt.value)
                continue
            uses.append(_referenced(stmt))
            for name in names:
                if path.parent == package and name.startswith("_") and not name.startswith("__"):
                    private[f"{path.stem}.{name}"] = (name, len(uses) - 1)
    used = set().union(*uses)
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - set(public)) == []
    assert {module: sorted(set(names) - used) for module, names in public.items() if set(names) - used} == {}
    assert private  # the scan finds the package's helpers
    unused = [key for key, (name, own) in private.items() if not any(name in u for i, u in enumerate(uses) if i != own)]
    assert sorted(unused) == []


def _scoped(tree, scope=""):
    """(the dotted name of the innermost def or class around it, node) for
    each node below tree."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped(node, f"{scope}.{node.name}" if named else scope)


def test_one_place_compares_an_order_with_the_cap():
    """groups._check_order is the one size gate.  Beside it only verify's
    tower guard raises CapError, and only descriptors' elementary guard,
    groups and verify read HARD_MAX_ORDER: each guard refuses before the
    number it would check exists."""
    raisers, readers = set(), set()
    for path in (ROOT / "src" / "powcov").glob("*.py"):
        tree = ast.parse(path.read_text())
        if "HARD_MAX_ORDER" in _referenced(tree):
            readers.add(path.stem)
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Raise) and node.exc and "CapError" in _referenced(node.exc):
                raisers.add(path.stem + scope)
    assert raisers == {"groups._check_order", "verify.suite_main_theorem"}
    assert readers <= {"descriptors", "groups", "verify"}


# A launcher that blocks `import numpy`, then runs the command line as the
# console script does.
WITHOUT_NUMPY = "import sys; sys.modules['numpy'] = None; from powcov.__main__ import run; sys.exit(run())"


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_cli_import_adds_no(tmp_path, module):
    # Only what the import adds counts: a site hook may load any of them first.
    probe = "import sys; before = set(sys.modules); import powcov.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert "powcov.cli" in proc.stdout.split() and module not in proc.stdout.split()


def test_commands_run_the_same_without_numpy(tmp_path):
    report = tmp_path / "report.csv"
    commands = [
        ["sweep", "--max-order", "16", "--stable-timing", "--out", str(report)],
        ["verify", "main-theorem", "--max-n", "3"],
        ["sigma", "dihedral:16", "powerful"],
        ["lattice", "dihedral:16", "--no-cache"],
    ]
    for argv in commands:
        runs = []
        for name, launcher in (("plain", ["-m", "powcov"]), ("blocked", ["-c", WITHOUT_NUMPY])):
            proc = subprocess.run(
                [sys.executable, *launcher, *argv],
                capture_output=True, text=True, env=child_env(tmp_path / name),
            )
            written = report.read_text() if report.exists() else None
            report.unlink(missing_ok=True)
            runs.append((proc.returncode, proc.stdout, written))
        assert runs[0][0] == 0, (argv, runs[0])
        assert runs[1] == runs[0], argv
