"""The benchmark's span tracer wraps package names; each one must still exist.

perfbench/tracer.py is read, never changed: a refactor under src/ that drops
or renames a traced function fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FUNCTIONS = _load_tracer()._FUNCTIONS


@pytest.mark.parametrize("entry", FUNCTIONS.values(), ids=FUNCTIONS.keys())
def test_traced_name_resolves(entry):
    module_name, owner, attrs, _ = entry
    module = importlib.import_module(f"knotsurgery.{module_name}")
    if owner is None:
        assert callable(getattr(module, attrs[0], None))
    else:
        namespace = vars(getattr(module, owner))
        assert all(attr in namespace for attr in attrs)
