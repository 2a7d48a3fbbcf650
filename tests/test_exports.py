"""Every exported name resolves, and the package exports its modules' __all__.

Private names that cross module boundaries are pinned too, so a new one is
added on purpose.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import knotsurgery

MODULES = ["knotsurgery"] + [
    f"knotsurgery.{info.name}" for info in pkgutil.iter_modules(knotsurgery.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_module_with_exports_is_checked():
    assert {"knotsurgery.laurent", "knotsurgery.surgery", "knotsurgery.cli"} <= set(MODULES)


def test_package_exports_each_library_module_once():
    from knotsurgery import family, fox, knots, laurent, surgery

    expected = ["__version__"]
    for module in (laurent, knots, fox, surgery, family):
        expected += module.__all__
    assert knotsurgery.__all__ == expected
    assert len(set(expected)) == len(expected)


# the names the package exported when it still listed them by hand
EARLIER_EXPORTS = [
    "__version__", "VariableSet", "LaurentPoly", "ExponentOverflowError",
    "NotDivisibleError", "NotSymmetrizableError", "PolyParseError", "TorusKnotSpec",
    "KnotExpr", "Unknot", "Torus", "Mirror", "ConnectedSum", "KnotParseError",
    "InternalInconsistencyError", "alexander_torus", "alexander_expr", "genus_torus",
    "parse_knot_expr", "format_knot_expr", "GroupPresentation",
    "UnsupportedPresentationError", "alexander_fox_oracle", "LinkFamilyMember",
    "SurgerySpec", "SWResult", "torres_specialize", "sw_prefactor", "sw_link_surgery",
    "sw_specialized", "basic_class_lower_bound", "FamilyRow", "FamilyReport", "Witness",
    "UnboundednessCertificate", "CapExhaustedError", "DEFAULT_P_CAP",
    "CERTIFICATE_SCHEMA_VERSION", "analyze_family", "certify_unbounded",
    "verify_certificate",
]


def test_earlier_exports_are_kept():
    assert len(EARLIER_EXPORTS) == 41
    assert [name for name in EARLIER_EXPORTS if name not in knotsurgery.__all__] == []


def test_package_import_leaves_the_cli_unloaded():
    # what the package adds to a bare interpreter, whose start-up may load
    # some modules on its own
    env = {**os.environ, "PYTHONPATH": str(Path(knotsurgery.__path__[0]).parent)}
    code = "import sys, {}; print(sorted({{'argparse', 'knotsurgery.cli'}} & set(sys.modules)))"
    bare, package = (
        subprocess.run(
            [sys.executable, "-c", code.format(module)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for module in ("os", "knotsurgery")
    )
    assert package == bare


# importing module -> {defining module: private names it imports from there}
PRIVATE_IMPORTS = {
    "knots": {
        "laurent": {
            "_Frozen", "_from_canonical", "_require_int", "_tokenize",
        },
    },
    "surgery": {
        "laurent": {
            "_Frozen", "_checked_exponent", "_from_canonical", "_geometric_multiple",
            "_require_int", "_require_one_variable", "_write_text",
        },
    },
    "family": {
        "knots": {"_check_torus_exponent"},
        "laurent": {
            "_Frozen", "_joined", "_json_int", "_json_loads",
            "_require_int", "_require_json_object", "_write_indent2", "_write_text",
        },
    },
    "fox": {
        "laurent": {
            "_Frozen", "_checked_exponent", "_from_canonical", "_from_dict", "_require_int",
        },
    },
    "cli": {
        "family": {"_family_rows", "_write_rows"},
        "laurent": {"_check_digits", "_write_indent2", "_write_text"},
        "surgery": {"_write_sw_text"},
    },
}


def test_private_imports_across_modules_are_pinned():
    found: dict[str, dict[str, set[str]]] = {}
    for path in sorted(Path(knotsurgery.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 0 and not node.module.startswith("knotsurgery"):
                continue
            source = node.module.rpartition(".")[2] if node.level == 0 else node.module
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.setdefault(path.stem, {}).setdefault(source, set()).add(alias.name)
    assert found == PRIVATE_IMPORTS



def test_cli_writes_stdout_through_one_route():
    # in cli.py, sys.stdout appears only inside _stream and in one
    # sys.stdout.flush() call in app, which sends what argparse wrote, and
    # print only as the callee of a call whose one keyword is file=sys.stderr
    tree = ast.parse((Path(knotsurgery.__path__[0]) / "cli.py").read_text(encoding="utf-8"))
    stream, app = (
        next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
        for name in ("_stream", "app")
    )
    app_flushes = [
        node.func.value for node in ast.walk(app)
        if isinstance(node, ast.Call) and ast.unparse(node) == "sys.stdout.flush()"
    ]
    assert len(app_flushes) == 1
    allowed = {id(node) for node in ast.walk(stream)} | {id(app_flushes[0])}
    to_stderr = {
        id(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and list(map(ast.unparse, node.keywords)) == ["file=sys.stderr"]
    }
    stdout = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"
    ]
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "print"]
    assert stdout and all(id(node) in allowed for node in stdout)
    assert prints and all(id(node) in to_stderr for node in prints)
