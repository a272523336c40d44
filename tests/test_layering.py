"""Import rules between the package's modules, read from the source with ``ast``.

``matrices`` is the class layout and knows nothing of constraints, and the
literal reference scans stay independent of the engine they judge: only the
command-line front end may import ``reference``, and only ``reference``
reasons with constraints (``eqlogic``).
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "regmc"


def regmc_imports(path: pathlib.Path) -> set[str]:
    """The ``regmc`` submodules a module imports, by short name."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is an import of ``regmc``
            module = "regmc" if node.level else ""
            module = ".".join(filter(None, (module, node.module)))
            names = [module, *(f"{module}.{a.name}" for a in node.names)]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "regmc" and len(parts) > 1:
                out.add(parts[1])
    return out


def test_regmc_imports_reads_every_form(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import regmc.eqlogic\nfrom regmc import reference\nfrom .core import Atom\n")
    assert regmc_imports(f) == {"eqlogic", "reference", "core"}


def test_matrices_imports_no_constraint_reasoning():
    assert not regmc_imports(SRC / "matrices.py") & {"eqlogic", "reference", "core"}


def test_only_the_cli_imports_reference():
    importers = {p.stem for p in SRC.glob("*.py") if "reference" in regmc_imports(p)}
    assert importers == {"cli"}


def test_only_the_reference_imports_eqlogic():
    importers = {p.stem for p in SRC.glob("*.py") if "eqlogic" in regmc_imports(p)}
    assert importers == {"reference"}
