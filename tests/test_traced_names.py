"""The names that the benchmark's span tracer (bench/spans.py) wraps exist.

A name missing here breaks ``bench/run.py --trace 1``; these tests read
the tracer's table and resolve each entry as ``Tracer.install`` does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import coskit

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced():
    spec = importlib.util.spec_from_file_location("coskit_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve():
    # a module attribute, or a class member read from the class __dict__:
    # a property is wrapped around its getter, anything else as a function
    for layer, attrs in traced():
        module = importlib.import_module(f"coskit.{layer}")
        assert getattr(coskit, layer) is module
        for attr in attrs:
            if "." in attr:
                cls_name, member = attr.split(".")
                original = getattr(module, cls_name).__dict__[member]
                assert isinstance(original, property) or inspect.isfunction(original), attr
            else:
                assert inspect.isfunction(getattr(module, attr)), attr


def test_traced_signatures():
    # the stencil label reads partial_derivative's arguments by these names,
    # and the benchmark's L^2 norm passes tensor_norm2's positionally
    stencil = inspect.signature(coskit.grids.partial_derivative).parameters
    assert list(stencil)[:4] == ["data", "index_sig", "grid", "axis"]
    assert list(inspect.signature(coskit.tensors.tensor_norm2).parameters) == \
        ["data", "sig", "g", "ginv"]
