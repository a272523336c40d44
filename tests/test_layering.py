"""Import rules between the package's modules, read from the source with ``ast``.

The package holds the engine and nothing else: the literal reference
scans (``reference``) and the constraint reasoning they use (``eqlogic``)
live in the test tree, and use no engine internals, so they stay
independent of what they judge.  ``matrices`` is the class layout and
knows nothing of constraints.  Each name has one import path: the module
that defines it, with no re-export beside it.  ``import regmc`` loads no
submodule, ``regmc universe`` reads no machine file and ``regmc simulate``
runs on the numpy-free modules alone, which fresh processes confirm with
``-X importtime``.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from regmc.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "regmc"
ROOT = SRC.parent.parent


def imported_modules(path: pathlib.Path, module_level: bool = False) -> set[str]:
    """Every module a file imports, by full name, anywhere in it or, with
    ``module_level``, in its top-level statements only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: set[str] = set()
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is an import of ``regmc``
            module = ".".join(filter(None, ("regmc" if node.level else "", node.module)))
            out.update([module, *(f"{module}.{a.name}" for a in node.names)])
    return out


def regmc_imports(path: pathlib.Path, module_level: bool = False) -> set[str]:
    """The ``regmc`` submodules a module imports, by short name."""
    names = imported_modules(path, module_level)
    return {n.split(".")[1] for n in names if n.startswith("regmc.")}


def imports_numpy(path: pathlib.Path, module_level: bool = False) -> bool:
    return any(n.split(".")[0] == "numpy" for n in imported_modules(path, module_level))


def test_regmc_imports_reads_every_form(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import regmc.eqlogic\nfrom regmc import reference\nfrom .core import Atom\n")
    assert regmc_imports(f) == {"eqlogic", "reference", "core"}


def test_matrices_imports_no_constraint_reasoning():
    assert not regmc_imports(SRC / "matrices.py") & {"eqlogic", "reference", "core"}


def unread_imports(path: pathlib.Path) -> set[str]:
    """The names a file binds by importing and never reads (a read in an
    annotation counts); ``from __future__`` binds nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return bound - read


def test_unread_imports_reads_every_form(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "from __future__ import annotations\nimport itertools, os\nimport regmc.core\n"
        "import oracles\nfrom collections.abc import Sequence\nfrom gens import figure_one\n"
        "from regmc.classes import ONE, ZERO  # noqa: F401\nfrom .dsl import serialize\n"
        "def g(x: ZERO) -> Sequence:\n    serialize(os.sep, figure_one)\n"
    )
    assert unread_imports(f) == {"itertools", "regmc", "oracles", "ONE"}


def test_no_module_re_exports_a_name():
    # a name a module imports and never reads is there only to be imported
    # again, a second path to it, and in a test it is dead; the benchmark
    # scripts import these two from ``matrices``, which says so where it
    # imports them
    files = [*SRC.glob("*.py"), *TESTS.glob("*.py")]
    unread = {(p.relative_to(ROOT).as_posix(), name) for p in files for name in unread_imports(p)}
    assert unread == {
        ("src/regmc/matrices.py", "RepConfig"), ("src/regmc/matrices.py", "matrix_of_valuation")
    }


def question_state(path: pathlib.Path) -> list[int]:
    """The lines of a file that bind a module-level list or set display, or
    that hold a ``global`` statement: state one call could leave for the
    next.  A dict of constants is not flagged."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    displays = (ast.List, ast.Set, ast.ListComp, ast.SetComp)
    lines = [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, displays)
    ]
    return lines + [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]


def test_question_state_reads_every_form(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "A = [1]\nB: set[int] = {1}\nC = {1: 2}\nD = (1,)\n"
        "def f():\n    global E\n    F = [1]\n"
    )
    assert question_state(f) == [1, 2, 6]


def test_modules_keep_no_question_state():
    # a question's answer is what the call returns: nothing in ``src/regmc``
    # keeps answers in a module-level list or set, or rebinds a global;
    # process-lifetime caches are ``functools.lru_cache``
    found = {p.name: question_state(p) for p in SRC.glob("*.py")}
    assert not {name: lines for name, lines in found.items() if lines}


def defined_names(path: pathlib.Path) -> set[str]:
    """The names a module's own top-level statements define."""
    out: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_names_come_from_the_module_that_defines_them():
    defined = {p.stem: defined_names(p) for p in SRC.glob("*.py")}
    wrong = []
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: dict[str, str] = {}  # local name -> module, from ``from regmc import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "regmc":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regmc."):
                stem = node.module.split(".")[1]
                wrong += [(path.name, stem, a.name) for a in node.names if a.name not in defined[stem]]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                stem = modules[node.value.id]
                if node.attr not in defined[stem]:
                    wrong.append((path.name, stem, node.attr))
    assert not wrong


def test_the_package_holds_the_engine_modules():
    stems = {p.stem for p in SRC.glob("*.py")}
    assert stems == {
        "__init__", "classes", "cli", "core", "ctl", "dsl", "formulas", "matrices", "reach"
    }


def test_the_judges_use_no_engine_internals():
    # the reference scans judge ``reach`` and ``ctl`` and read nothing of
    # them, nor any private name of the modules they do use
    for stem in ("reference", "eqlogic"):
        names = imported_modules(TESTS / f"{stem}.py")
        assert not regmc_imports(TESTS / f"{stem}.py") & {"reach", "ctl"}, stem
        private = [n for n in names if n.split(".")[0] != "__future__" and "._" in f".{n}"]
        assert not private, (stem, private)


# What ``regmc simulate`` runs: the concrete semantics and its sampler, the
# class names and the text formats.  The package and the command-line front
# end load none of the engine before a subcommand runs.
SIMULATE_PATH = ("core", "classes", "formulas", "dsl")
ENGINE = {"matrices", "reach", "ctl"}


def test_the_simulate_path_needs_no_numpy():
    for stem in SIMULATE_PATH:
        assert not imports_numpy(SRC / f"{stem}.py"), stem
        assert not regmc_imports(SRC / f"{stem}.py") & ENGINE, stem
    for stem in ("__init__", "cli"):
        assert not imports_numpy(SRC / f"{stem}.py", module_level=True), stem
        loaded = regmc_imports(SRC / f"{stem}.py", module_level=True)
        assert not loaded & (ENGINE | {"reference", "eqlogic"}), stem


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run from the repository root, with ``src`` on
    its path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env, timeout=60, check=True,
    )


def loaded_modules(*argv: str) -> set[str]:
    """The modules a fresh ``regmc`` process imports, read from ``-X importtime``."""
    done = run_python("-X", "importtime", "-m", "regmc.cli", *argv)
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_the_package_loads_no_submodule():
    done = run_python("-c", "import regmc, sys; print(sorted(m for m in sys.modules if m.startswith('regmc')))")
    assert done.stdout == "['regmc']\n"
    # nothing shadows a submodule on the package
    import regmc
    import regmc.reach

    assert regmc.reach is sys.modules["regmc.reach"]


def test_universe_reads_no_machine_file_modules():
    loaded = loaded_modules("universe", "-n", "2", "-c", "0")
    assert "regmc.matrices" in loaded
    assert not {"regmc.dsl", "regmc.core"} & loaded


def test_the_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    assert example, "README has no Library use code block"
    done = run_python("-c", example.group(1))
    assert done.stdout.split() == ["True", "True", "True"]


def test_simulate_loads_no_numpy():
    loaded = loaded_modules("simulate", "fixtures/figure1.ra", "--steps", "2")
    assert "regmc.dsl" in loaded  # the machine file is parsed
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}
    assert not {f"regmc.{m}" for m in ENGINE | {"reference", "eqlogic"}} & loaded


def test_no_subcommand_loads_the_reference_scans():
    fig = "fixtures/figure1.ra"
    for argv in (
        ("universe", "-n", "2", "-c", "0"),
        ("post", fig, "l0 | {x1 x2}"),
        ("reach", fig, "l1 | {x1} {x2}"),
        ("check", fig, "EF @l1", "--config", "l0 | {x1 x2}"),
    ):
        assert not {"reference", "eqlogic"} & loaded_modules(*argv), argv
    # and no option swaps them in
    with pytest.raises(SystemExit) as info:
        main(["--oracle", "post", fig, "l0 | {x1 x2}"])
    assert info.value.code == 2
