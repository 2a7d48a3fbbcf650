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

# dataclasses pulls in inspect, ast, dis and tokenize; typing is not needed at
# run time; json loads only where a document is parsed
KEPT_OFF = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
    "json", "json.decoder", "json.encoder", "json.scanner", "_json",
}


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


def _json_loaded_after(argv: list[str]) -> bool:
    # runs cli.main(argv) in a fresh interpreter, stdout discarded; -S keeps
    # a site-packages .pth file from loading json before the package does
    code = (
        "import contextlib, io, sys\n"
        "from knotsurgery.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'json' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split()[0] == "0"
    return out.split()[1] == "True"


def test_only_certificate_verification_loads_json(tmp_path):
    # every document is written without json; reading one needs the parser
    for argv in [
        ["certify", "--target", "10"],
        ["family", "--pmin", "1", "--pmax", "3", "--format", "json"],
        ["alexander", "torus(2,5)", "--format", "json"],
        ["sw", "--p", "2", "--format", "json"],
    ]:
        assert not _json_loaded_after(argv), argv
    certificate = tmp_path / "certificate.json"
    with certificate.open("w", encoding="utf-8") as handle:
        subprocess.run(
            [sys.executable, "-m", "knotsurgery", "certify", "--target", "10"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=handle,
            check=True,
        )
    assert _json_loaded_after(["certify", "--verify", str(certificate)])
