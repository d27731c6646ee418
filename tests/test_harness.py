import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import propagation_spec

from phasefront import errors, harness
from phasefront.acsolver import Grid, read_field_dump, trig_product_field, write_field_dump
from phasefront.config import (
    experiment_from_dict,
    parse_shape_string,
)
from phasefront.curves import circle_curve
from phasefront.flow import signed_distance
from phasefront.harness import (
    _initial_field,
    check_generation_lemma,
    generation_experiment,
    propagation_sweep,
    reaction_trajectory,
    solve_reaction_ode,
    t_epsilon,
    tanh_ansatz_field,
    write_report,
)
from phasefront.model import ModelSpec, cubic_identity_model, cubic_reaction, identity_diffusivity
from phasefront.profile import ProfileTable


def _closed_form(tau, xi):
    et = np.exp(tau)
    return xi * et / np.sqrt(1.0 + xi * xi * (et * et - 1.0))


def _experiment(**overrides):
    cfg = {
        "model": {"reaction": {"kind": "cubic"},
                  "diffusivity": {"kind": "identity"}, "epsilon": 0.08},
        "grid": {"n": 64},
        "eps": [0.08],
        "shape": {"kind": "trig", "params": {"amplitude": 0.5}},
        "times": {"t_end": 0.005, "checkpoints": [0.005]},
        "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10},
    }
    cfg.update(overrides)
    return experiment_from_dict(cfg)


def test_t_epsilon_arithmetic():
    spec = cubic_identity_model()
    assert t_epsilon(spec, 0.01) == pytest.approx(1e-4 * abs(math.log(0.01)),
                                                  rel=1e-12)
    # doubling nu halves the generation time
    fast = ModelSpec(cubic_reaction(2.0), identity_diffusivity(2), 0.01)
    assert t_epsilon(fast, 0.01) == pytest.approx(t_epsilon(spec, 0.01) / 2.0,
                                                  rel=1e-12)


def test_reaction_ode_closed_form():
    spec = cubic_identity_model()
    y, _ = solve_reaction_ode(spec, 0.5, 1.0)
    assert y == pytest.approx(_closed_form(1.0, 0.5), abs=1e-10)
    taus = np.linspace(0.1, 4.0, 9)
    xis = np.linspace(-0.9, 0.9, 11)
    for tau, (yv, dyv, _) in zip(taus, reaction_trajectory(spec, xis, taus)):
        assert np.abs(yv - _closed_form(tau, xis)).max() <= 1e-9
        assert np.all(dyv > 0.0)


def test_reaction_ode_equilibria_and_variation():
    spec = cubic_identity_model()
    y, dy = solve_reaction_ode(spec, 1.0, 4.0)
    assert y == 1.0
    y, dy = solve_reaction_ode(spec, 0.0, 5.0)
    assert y == 0.0
    assert dy == pytest.approx(math.e**5, rel=1e-9)


def test_reaction_ode_blowup_reported():
    spec = cubic_identity_model()
    with pytest.raises(errors.Blowup, match=r"at tau = 0\.001, step 1$"):
        solve_reaction_ode(spec, 100.0, 1.0)
    with pytest.raises(errors.Blowup, match=r"at tau = 0\.001, step 1$"):
        solve_reaction_ode(spec, [0.5, math.nan], 1.0)


def test_generation_lemma_fits():
    spec = cubic_identity_model()
    rep = check_generation_lemma(spec, eta=0.1, eps_list=(0.04, 0.02, 0.01))
    assert rep.passed
    assert math.isfinite(rep.c_hat)
    # the slope bound is sharp at the unstable root: C >= 1
    assert rep.c_slope >= 1.0 - 1e-9
    assert rep.c_threshold > 1.0
    # direct check of the threshold statement with the fitted constant
    r = spec.reaction
    for eps in (0.04, 0.01):
        tau = abs(math.log(eps)) / r.nu
        y, _ = solve_reaction_ode(spec, r.alpha_mid + rep.c_hat * eps, tau)
        assert y >= r.alpha_plus - 0.1 - 1e-9


def test_generation_lemma_rejects_degenerate_eta():
    spec = cubic_identity_model()
    with pytest.raises(errors.ConfigError):
        check_generation_lemma(spec, eta=spec.reaction.eta0)


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        _experiment(eps=[0.01, 0.02])           # not decreasing
    with pytest.raises(errors.ConfigError):
        _experiment(tol={"eta_g": 1.5, "eta_p": 0.1, "m0_ceiling": 10})
    with pytest.raises(errors.ConfigError):
        _experiment(unknown_field=1)
    with pytest.raises(errors.ConfigError, match="unknown config fields"):
        _experiment(seed=0)
    with pytest.raises(errors.ConfigError):
        _experiment(times={"t_end": 0.005, "bogus": 1})
    for times in ({"t_end": float("nan")}, {"t_end": float("inf")},
                  {"t_end": 0.005, "checkpoints": [float("nan")]}):
        with pytest.raises(errors.ConfigError, match="must be finite"):
            _experiment(times=times)
    cfg = _experiment()
    assert cfg.grid_size_for(0.08) == 64
    assert cfg.grid_size_for(0.01) == 512


def test_parse_shape_string():
    s = parse_shape_string("circle:R=0.25")
    assert s.kind == "circle" and s.params["r"] == 0.25
    curve = s.build_curve(128)
    assert curve.n_vertices == 128
    with pytest.raises(errors.ConfigError):
        parse_shape_string("blob:R=1")
    with pytest.raises(errors.ConfigError):
        parse_shape_string("circle:R")
    # JSON configs pass the same checks as the CLI strings
    for params in ({}, {"r": "abc"}, {"r": 0.25, "cx": float("inf")},
                   {"r": -0.1}, {"r": 0.25, "q": 1}):
        with pytest.raises(errors.ConfigError, match="shape"):
            _experiment(shape={"kind": "circle", "params": params})
    with pytest.raises(errors.ConfigError, match="unknown shape params fields"):
        _experiment(shape={"kind": "trig", "params": {"amplitud": 0.5}})
    # wave numbers are whole, and used as given
    with pytest.raises(errors.ConfigError, match=r"\['kx', 'ky'\] must be whole"):
        _experiment(shape={"kind": "trig", "params": {"kx": 1.5, "ky": 0.5}})
    cfg = _experiment(shape={"kind": "trig", "params": {"kx": 2, "ky": 3.0}})
    g = Grid(16)
    assert _initial_field(cfg, g).values.tobytes() == \
        trig_product_field(g, 0.5, 2, 3).values.tobytes()


def test_generation_experiment_trivial_fields():
    # constant alpha_plus: bounds hold, thresholds vacuous, m_hat = 0
    cfg = _experiment(shape={"kind": "trig",
                             "params": {"amplitude": 0.0, "offset": 1.0}})
    rep = generation_experiment(cfg)
    assert rep.passed
    assert rep.rows[0].m_hat == 0.0
    cfg = _experiment(shape={"kind": "trig",
                             "params": {"amplitude": 0.0, "offset": 0.0}})
    rep = generation_experiment(cfg)
    assert rep.passed


def test_generation_experiment_mini():
    cfg = _experiment()
    rep = generation_experiment(cfg)
    assert rep.passed
    row = rep.rows[0]
    assert row.bounds_ok and row.m_hat <= 10.0
    assert row.t_eps == pytest.approx(t_epsilon(cfg.model, 0.08), rel=1e-12)


def test_generation_with_nonlinear_anisotropic_diffusivity():
    # the generation theorem covers nonlinear anisotropic D: the propagation
    # model D(s) = A + B s^2; the 256^2 grid runs split into row blocks
    cfg = replace(_experiment(eps=[0.04, 0.028]), model=propagation_spec(0.04))
    rep = generation_experiment(cfg)
    assert [row.grid_n for row in rep.rows] == [128, 256]
    assert rep.passed
    assert all(row.bounds_ok and row.m_hat <= 10.0 for row in rep.rows)


def test_generation_ceiling_exceeded():
    cfg = _experiment(tol={"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 0.5})
    with pytest.raises(errors.CeilingExceeded):
        generation_experiment(cfg)


def test_propagation_sweep_short_list():
    cfg = _experiment(shape={"kind": "circle", "params": {"r": 0.25}},
                      eps=[0.08, 0.04], times={"t_end": 0.002,
                                               "checkpoints": [0.002]})
    rep = propagation_sweep(cfg)
    assert rep.order is None                     # needs >= 3 points for a fit
    assert len(rep.rows) == 2
    assert rep.rows[0].final_distance > rep.rows[1].final_distance
    assert all(row.band_fraction_outside == 0.0 for row in rep.rows)
    assert rep.passed


def test_propagation_sweep_uses_public_ansatz_and_one_distance_per_grid(monkeypatch):
    # every eps builds its initial data through tanh_ansatz_field, which a
    # tracer wraps by name; two eps on one grid share the two signed distances
    calls = {"tanh_ansatz_field": 0, "signed_distance": 0}
    for name in calls:
        def counting(*args, _inner=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(harness, name, counting)
    cfg = _experiment(shape={"kind": "circle", "params": {"r": 0.25}},
                      eps=[0.08, 0.07], times={"t_end": 0.001})
    assert cfg.grid_size_for(0.08) == cfg.grid_size_for(0.07) == 64
    propagation_sweep(cfg)
    assert calls == {"tanh_ansatz_field": 2, "signed_distance": 2}


def test_propagation_rejects_trig_shape():
    cfg = _experiment()          # trig shape
    with pytest.raises(errors.ConfigError):
        propagation_sweep(cfg)


def test_propagation_extinction_before_end():
    cfg = _experiment(shape={"kind": "circle", "params": {"r": 0.04}},
                      eps=[0.08], times={"t_end": 0.01, "checkpoints": [0.01]},
                      markers=64)
    with pytest.raises(errors.ExtinctionBeforeEnd):
        propagation_sweep(cfg)


def test_tanh_ansatz_field():
    spec = cubic_identity_model(0.04)
    grid = Grid(128)
    table = ProfileTable.build(spec, m_angles=8)
    d = signed_distance(circle_curve((0.5, 0.5), 0.25, 256), grid).values
    fld = tanh_ansatz_field(grid, spec, table, d)
    assert fld.values.max() <= 1.0 and fld.values.min() >= -1.0
    assert fld.values[64, 64] < -0.9             # deep low phase at center
    x, y = grid.cell_centers()
    d = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) - 0.25
    expect = np.tanh(d / (np.sqrt(2) * 0.04))
    assert np.abs(fld.values - expect).max() <= 5e-3


def test_field_dump_roundtrip(tmp_path):
    fld = trig_product_field(Grid(32))
    fld.t = 0.125
    # dotted prefixes (timestamped names) must survive unmangled
    write_field_dump(tmp_path / "field_t0.125000", fld, 0.02)
    assert (tmp_path / "field_t0.125000.f64").exists()
    back, eps = read_field_dump(tmp_path / "field_t0.125000")
    assert eps == 0.02
    assert back.t == 0.125
    assert np.array_equal(back.values, fld.values)
    raw = np.fromfile(tmp_path / "field_t0.125000.f64", dtype="<f8")
    assert raw[1] == fld.values[0, 1]            # row-major layout


def test_reports_are_deterministic(tmp_path):
    cfg = _experiment()
    rep1 = generation_experiment(cfg)
    rep2 = generation_experiment(cfg)
    write_report(rep1, tmp_path / "a")
    write_report(rep2, tmp_path / "b")
    assert (tmp_path / "a/report.json").read_bytes() == \
        (tmp_path / "b/report.json").read_bytes()
    assert (tmp_path / "a/report.csv").read_bytes() == \
        (tmp_path / "b/report.csv").read_bytes()
