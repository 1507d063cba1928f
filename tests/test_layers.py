"""Every function the layer tracer wraps still exists under its module."""

import importlib
import importlib.util
import os

import pytest

LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "layertrace.py")


def _layers():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("span, module, func", [layer[:3] for layer in _layers()])
def test_layer_function_is_callable(span, module, func):
    assert callable(getattr(importlib.import_module(f"dklattice.{module}"), func, None)), span
