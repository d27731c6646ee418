"""The one time schedule every march keeps: landing times, landing steps,
and the dt checks of the step functions."""

import math

import numpy as np
import pytest

from phasefront import errors
from phasefront.acsolver import (
    Grid,
    ScalarField,
    Stepper,
    landing_steps,
    landing_times,
    ordering_check,
    simulate,
    step,
    trig_product_field,
)
from phasefront.config import experiment_from_dict
from phasefront.curves import circle_curve
from phasefront.flow import (
    evolve_front,
    evolve_level_set,
    signed_distance,
    step_level_set,
)
from phasefront.harness import reaction_trajectory, solve_reaction_ode
from phasefront.mobility import tabulate_mobility
from phasefront.model import cubic_identity_model

T_END = 1e-3
BAD_T_END = {"nan": math.nan, "inf": math.inf, "negative": -T_END}
BAD_CHECKPOINT = {**BAD_T_END, "past-t_end": 2 * T_END}


@pytest.fixture(scope="module")
def mobility():
    return tabulate_mobility(cubic_identity_model(), 64)


def _fields():
    g = Grid(16)
    return (ScalarField(g, np.full((16, 16), -0.5)),
            ScalarField(g, np.full((16, 16), 0.5)))


def _experiment(t_end, checkpoints):
    return experiment_from_dict({
        "model": {"reaction": {"kind": "cubic"},
                  "diffusivity": {"kind": "identity"}, "epsilon": 0.08},
        "eps": [0.08], "times": {"t_end": t_end, "checkpoints": checkpoints}})


# each march called with an end time and a list of checkpoints
MARCHES = {
    "simulate": lambda mob, t_end, cps: simulate(
        trig_product_field(Grid(16)), cubic_identity_model(0.05), t_end, cps),
    "evolve_front": lambda mob, t_end, cps: evolve_front(
        circle_curve((0.5, 0.5), 0.25, 64), mob, t_end, 1e-5, cps),
    "evolve_level_set": lambda mob, t_end, cps: evolve_level_set(
        signed_distance(circle_curve((0.5, 0.5), 0.25, 64), Grid(32)), mob,
        t_end, checkpoints=cps),
    "experiment_from_dict": lambda mob, t_end, cps: _experiment(t_end, cps),
}
# each march called with one time
ONE_TIME_MARCHES = {
    "ordering_check": lambda t: ordering_check(*_fields(), cubic_identity_model(0.05), t),
    "solve_reaction_ode": lambda t: solve_reaction_ode(cubic_identity_model(), 0.5, t),
    "reaction_trajectory": lambda t: reaction_trajectory(
        cubic_identity_model(), [0.5], [T_END, t]),
}


@pytest.mark.parametrize("t_end, checkpoints", [
    *(pytest.param(t, [T_END / 2], id=f"t_end-{case}")
      for case, t in sorted(BAD_T_END.items())),
    *(pytest.param(T_END, [T_END / 2, t], id=f"checkpoint-{case}")
      for case, t in sorted(BAD_CHECKPOINT.items())),
])
@pytest.mark.parametrize("march", sorted(MARCHES))
def test_march_rejects_a_bad_time_at_once(mobility, march, t_end, checkpoints):
    with pytest.raises(errors.ConfigError):
        MARCHES[march](mobility, t_end, checkpoints)


@pytest.mark.parametrize("case", sorted(BAD_T_END))
@pytest.mark.parametrize("march", sorted(ONE_TIME_MARCHES))
def test_one_time_march_rejects_a_bad_time_at_once(march, case):
    with pytest.raises(errors.ConfigError):
        ONE_TIME_MARCHES[march](BAD_T_END[case])


def test_landing_times_are_distinct_and_increasing():
    assert landing_times(1.0, [0.5, 1.0, 0.25, 0.5, 0.0]) == [0.0, 0.25, 0.5, 1.0]
    assert landing_times(0.0) == [0.0]
    with pytest.raises(errors.ConfigError, match="t_end must be finite"):
        landing_times(math.nan, [])
    with pytest.raises(errors.ConfigError, match=r"got 2$"):
        landing_times(1.0, [0.5, 2.0])


def test_landing_steps_land_on_the_target():
    steps = list(landing_steps(0.0, 2.5e-3, 1e-3))
    assert steps[:2] == [1e-3, 1e-3] and steps[2] == pytest.approx(5e-4, rel=1e-12)
    assert list(landing_steps(1.0, 1.0, 1e-3)) == []
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(errors.ConfigError, match="dt must be finite and positive"):
            list(landing_steps(0.0, 1.0, dt))


def test_reaction_captures_come_back_in_the_order_asked():
    spec = cubic_identity_model()
    xi = np.linspace(-0.9, 0.9, 7)
    taus = [2.0, 0.5, 2.0, 1.0]
    got = reaction_trajectory(spec, xi, taus)
    # one march lands on the distinct taus in increasing order
    stops = dict(zip([0.5, 1.0, 2.0], reaction_trajectory(spec, xi, [0.5, 1.0, 2.0])))
    for tau, capture in zip(taus, got):
        assert [a.tobytes() for a in capture] == [a.tobytes() for a in stops[tau]]
    # the first stop is reached as by a march of its own
    alone = reaction_trajectory(spec, xi, [0.5])[0]
    assert [a.tobytes() for a in got[1]] == [a.tobytes() for a in alone]
    # a repeated tau gets its own arrays
    got[0][0][:] = 0.0
    assert got[2][0].tobytes() == stops[2.0][0].tobytes()


@pytest.mark.parametrize("dt", [0.0, -1e-6, math.nan, math.inf])
def test_step_rejects_a_bad_dt_and_leaves_the_stepper(dt):
    fld = trig_product_field(Grid(16))
    with Stepper(fld, cubic_identity_model(0.05)) as stepper:
        with pytest.raises(errors.ConfigError, match="dt must be finite and positive"):
            step(stepper, dt)
        assert stepper.t == 0.0 and stepper.step_index == 0
        assert stepper.u.tobytes() == fld.values.tobytes()


@pytest.mark.parametrize("dt", [0.0, -1e-6, math.nan, math.inf])
def test_step_level_set_rejects_a_bad_dt_and_leaves_the_field(mobility, dt):
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 64), Grid(32))
    before = sdf.values.copy()
    with pytest.raises(errors.ConfigError, match="dt must be finite and positive"):
        step_level_set(sdf, mobility, dt)
    assert sdf.values.tobytes() == before.tobytes() and sdf.steps_taken == 0
