"""Import rules between the package's modules, read from the source with ``ast``.

The package holds the engine and nothing else: the literal reference
scans (``reference``) and the constraint reasoning they use (``eqlogic``)
live in the test tree, and use no engine internals, so they stay
independent of what they judge.  ``matrices`` is the class layout and
knows nothing of constraints.  ``regmc simulate`` runs on the numpy-free
modules alone, which fresh processes confirm with ``-X importtime``.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from regmc.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "regmc"


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
# end load them, and nothing else, before a subcommand runs.
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


def loaded_modules(*argv: str) -> set[str]:
    """The modules a fresh ``regmc`` process imports, read from ``-X importtime``."""
    root = SRC.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "regmc.cli", *argv],
        capture_output=True, text=True, cwd=root, env=env, timeout=60, check=True,
    )
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


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
