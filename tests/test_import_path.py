"""Importing the CLI keeps heavy standard-library modules off the start-up path.

Every CLI operation is a fresh process, so modules the import pulls in are
paid on each one.  The gate compares against the modules a bare interpreter
already holds on this host (a site-packages .pth file may load some of them
at start-up), so it asserts only what the package itself adds.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses pulls in inspect, ast, dis and tokenize; typing is not needed at run time
KEPT_OFF = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def _loaded_modules(statement: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"{statement}\nimport sys\nprint(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(ast.literal_eval(out))


def test_cli_import_adds_none_of_the_heavy_modules():
    bare = _loaded_modules("pass")
    with_cli = _loaded_modules("import knotsurgery.cli")
    assert "knotsurgery.cli" in with_cli
    assert sorted((with_cli - bare) & KEPT_OFF) == []
