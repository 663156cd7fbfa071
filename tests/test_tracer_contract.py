"""Every name the benchmark's tracer binds must exist in the program.

`perfbench/tracer.py` wraps lingalloc functions and methods by name; a
name that a refactor removed or moved would crash `perfbench/run.py
--trace 1`. This reads the tracer's `TARGETS` and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the tracer also counts keys through models.hash_features
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS] + [("models", "hash_features")]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"lingalloc.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer replaces the method in the class's own namespace
        assert callable(getattr(module, cls_name).__dict__.get(method))
    else:
        assert callable(getattr(module, attr, None))
