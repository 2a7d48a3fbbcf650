"""Every exported name resolves: a removal must also leave the __all__ lists.

Private names that cross module boundaries are pinned too, so a new one is
added on purpose.
"""

import ast
import importlib
import pkgutil
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


# importing module -> {defining module: private names it imports from there}
PRIVATE_IMPORTS = {
    "knots": {"laurent": {"_Frozen", "_binomial_quotient", "_tokenize"}},
    "surgery": {
        "laurent": {"_Frozen", "_binomial_quotient", "_require_int", "_require_one_variable"},
    },
    "family": {
        "laurent": {
            "_Frozen", "_dumps_indent2", "_json_int", "_json_loads", "_require_int",
            "_require_json_object",
        },
    },
    "fox": {"laurent": {"_Frozen"}},
    "cli": {"laurent": {"_dumps_indent2"}},
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
