"""Every call the benchmark's span trace wraps is still bound where it looks for it.

perfbench/spans.py is loaded by file path and its tracer is not installed, so
the package stays unwrapped.
"""
import dataclasses
import importlib
import inspect
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


@pytest.mark.parametrize("name", ["iterations", "converged"])
def test_solution_fields_read_by_solve_counts(name):
    # _solve_counts reads these from every traced solve's result; as plain
    # dataclass fields, reading them never builds the lazy plan
    from sinkdiv.sinkhorn import SinkhornSolution

    assert name in {f.name for f in dataclasses.fields(SinkhornSolution)}


def test_solve_parameters_read_by_solve_counts():
    # _solve_counts reads mu, nu and cfg as positional arguments 1 to 3, so
    # new parameters of solve go after psi0
    from sinkdiv.sinkhorn import solve

    names = list(inspect.signature(solve).parameters)
    assert names[:4] == ["cost", "mu", "nu", "cfg"]
    assert names.index("cost_matrix") == names.index("psi0") + 1
