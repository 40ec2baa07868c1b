"""Each entry point loads only the modules it runs.

Every `python -m homotopyalg` call pays for the imports of the package
before it computes anything, and without cached bytecode it compiles every
module it loads.  `dataclasses` alone pulls in `inspect`, `ast`, `dis` and
`tokenize`, so none of the five may be loaded by importing the command
line; the package exports resolve on first use, and each command imports
only the modules of its own computation.  The children run with `-S`, so
that no site `.pth` file loads a module on its own.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import homotopyalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
K = str(ROOT / "fixtures" / "K.alg")

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import homotopyalg.cli
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""

# Runs one entry point and prints the package's submodules it loaded:
# `import`, `setup DOCUMENT` (the benchmark's set-up probe: import the
# package and build the algebra of a document) or a command line, whose
# payload is discarded.
ENTRY = """\
import io
import sys
sys.path.insert(0, sys.argv[1])
import homotopyalg
mode = sys.argv[2:]
if mode[0] == "setup":
    from homotopyalg.documents import document_to_algebra, parse_document
    with open(mode[1], encoding="utf-8") as fh:
        document_to_algebra(parse_document(fh.read()))
elif mode[0] != "import":
    from homotopyalg.cli import main
    sys.stdout = io.StringIO()
    code = main(mode)
    sys.stdout = sys.__stdout__
    if code != 0:
        sys.exit(f"exit code {code}")
print(" ".join(sorted(name.split(".", 1)[1] for name in sys.modules
                      if name.startswith("homotopyalg."))))
"""

STAR = """\
import sys
sys.path.insert(0, sys.argv[1])
bound = {}
exec("from homotopyalg import *", bound)
print(" ".join(sorted(name for name in bound if name != "__builtins__")))
"""


def child(code, *args):
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC), *args],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return result.stdout.split()


def loaded(*mode):
    return child(ENTRY, *mode)


def test_cli_import_loads_no_heavy_module():
    assert child(CHILD, *HEAVY) == []


def test_importing_the_package_loads_no_submodule():
    assert loaded("import") == []


def test_building_an_algebra_loads_only_the_algebra_modules():
    assert loaded("setup", K) == ["ainfty", "coalgebra", "documents", "graded"]


@pytest.mark.parametrize("command", [
    ("check", K), ("hc", K, "--max-degree", "4")])
def test_associative_commands_load_no_lie_or_matrix_module(command):
    modules = loaded(*command)
    assert "cli" in modules
    assert {"constructions", "lqt", "linfty"}.isdisjoint(modules)


def test_ce_loads_no_matrix_module():
    modules = loaded("ce", str(ROOT / "fixtures" / "sl2.alg"),
                     "--coinvariants", "h", "--max-degree", "3")
    assert "linfty" in modules
    assert {"constructions", "lqt"}.isdisjoint(modules)


def test_lieify_loads_no_comparison_module():
    modules = loaded("lieify", str(ROOT / "fixtures" / "ut2.alg"))
    assert "constructions" in modules
    assert "lqt" not in modules


# ---------------------------------------------------------------------------
# the lazy exports behave like eager ones


def test_star_import_binds_every_exported_name():
    assert child(STAR) == sorted(homotopyalg.__all__)


def test_each_export_is_the_object_of_its_module():
    for name in homotopyalg.__all__:
        value = getattr(homotopyalg, name)
        if name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=(
            "module 'homotopyalg' has no attribute 'no_such_name'")):
        homotopyalg.no_such_name
