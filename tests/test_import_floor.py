"""The command line imports no heavy standard-library module.

Every `python -m homotopyalg` call pays for the imports of the package
before it computes anything.  `dataclasses` alone pulls in `inspect`,
`ast`, `dis` and `tokenize`, so none of the five may be loaded by
importing the command line.  The child runs with `-S`, so that no site
`.pth` file loads a module on its own.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import homotopyalg.cli
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_cli_import_loads_no_heavy_module():
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(SRC), *HEAVY],
        capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
