"""The benchmark tracer's targets must exist on phasefront.

``perfbench/tracer.py`` wraps each ``TARGETS`` entry by name when a run is
traced (``--trace``); a target deleted or renamed in the library would only
fail there, so every one is resolved here, and the per-step target must see
every step of a march.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", _tracer().TARGETS)
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(f"phasefront.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the method in the class's own namespace
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_tracer_sees_every_phase_field_step():
    from phasefront import acsolver
    from phasefront.model import cubic_identity_model

    spec = cubic_identity_model(0.1)
    grid = acsolver.Grid(16)
    u0 = acsolver.trig_product_field(grid)
    t_end = 5 * acsolver.stability_dt(spec, grid)
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        acsolver.simulate(u0, spec, t_end)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([1.0])
    assert metrics["acsolver.step.calls"] == 5
    assert metrics["acsolver.step.ns_per_cell"] > 0.0
    assert metrics["acsolver.step.alloc_bytes_per_cell"] > 0.0
