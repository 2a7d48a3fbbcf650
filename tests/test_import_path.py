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


def _json_loaded_after(code: str) -> bool:
    # runs code in a fresh interpreter; -S keeps a site-packages .pth file
    # from loading json before the package does
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint('json' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.split()[-1] == "True"


def _cli(argv: list[str]) -> str:
    # code that runs cli.main(argv), stdout discarded, and needs it to succeed
    return (
        "import contextlib, io\n"
        "from knotsurgery.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_only_certificate_verification_loads_json(tmp_path):
    # every document is written without json; reading one needs the parser
    for argv in [
        ["certify", "--target", "10"],
        ["family", "--pmin", "1", "--pmax", "3", "--format", "json"],
        ["alexander", "torus(2,5)", "--format", "json"],
        ["torres", "--lk", "3", "t - 1 + t^-1", "--format", "json"],
        ["sw", "--p", "2", "--format", "json"],
        ["sw", "--p", "2", "--n", "3", "--delta-l", "x*y - 2 + y^-1", "--format", "json"],
    ]:
        assert not _json_loaded_after(_cli(argv)), argv
    # the library's own to_json methods, in process
    assert not _json_loaded_after(
        "from knotsurgery import LaurentPoly, analyze_family, certify_unbounded\n"
        "LaurentPoly.parse('x^2*y - 3').to_json()\n"
        "certify_unbounded(10).to_json()\n"
        "analyze_family(2, 1, 3).to_json()\n"
    )
    certificate = tmp_path / "certificate.json"
    with certificate.open("w", encoding="utf-8") as handle:
        subprocess.run(
            [sys.executable, "-m", "knotsurgery", "certify", "--target", "10"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=handle,
            check=True,
        )
    assert _json_loaded_after(_cli(["certify", "--verify", str(certificate)]))


def _json_imports() -> list[str]:
    # "module.function" for each import of json under src/knotsurgery, named
    # by the innermost function that holds it, or "module" at module level
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            found.extend(scope for module in modules if module.split(".")[0] == "json")
            visit(child, scope)

    for path in sorted((SRC / "knotsurgery").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_json_is_imported_only_where_a_document_is_read():
    # one read route; no writer may take the JSON module back up
    assert _json_imports() == ["laurent._json_loads"]
