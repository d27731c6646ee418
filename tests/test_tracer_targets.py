"""The benchmark tracer's targets must exist on phasefront.

``perfbench/tracer.py`` wraps each ``TARGETS`` entry by name when a run is
traced (``--trace``); a target deleted or renamed in the library would only
fail there, so every one is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", _targets())
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(f"phasefront.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the method in the class's own namespace
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
