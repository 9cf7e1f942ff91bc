"""Every call the benchmark's span trace wraps is still bound where it looks for it.

perfbench/spans.py is loaded by file path and its tracer is not installed, so
the package stays unwrapped.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name, attr", [entry[:2] for entry in SPANS.FUNCTIONS])
def test_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("module_name, cls_name, attr", [entry[:3] for entry in SPANS.METHODS])
def test_traced_method_defined_on_its_class(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert attr in vars(cls)
