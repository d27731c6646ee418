"""Every output check accepts a valid output and rejects a perturbed one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import numpy as np

import checks
import workloads
from phasefront import acsolver, mobility, model, profile
from tracer import Tracer

WELLS = (-1.0, 0.0, 1.0)


def _failed(results, prefix):
    return [c.name for c in results if not c.ok and c.name.startswith(prefix)]


def _circle(centre, r, m=256):
    th = 2.0 * np.pi * np.arange(m) / m
    return np.asarray(centre) + r * np.stack([np.cos(th), np.sin(th)], axis=1)


def _radius_field(n, centre, r):
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.hypot(xx - centre[0], yy - centre[1]) - r


# -- propagation ---------------------------------------------------------------

def _propagation_sample(eps_list=(0.04, 0.028, 0.02), offset=0.1):
    """Tanh fields whose contour sits offset*eps outside the front circle."""
    centre, r = (0.5, 0.5), 0.25
    fields = []
    for eps in eps_list:
        n = 128 if eps > 0.03 else 256
        fields.append(np.tanh((_radius_field(n, centre, r) - offset * eps) / eps))
    return eps_list, fields, [_circle(centre, r)] * len(eps_list)


def test_propagation_accepts_order_one_contours():
    eps, fields, fronts = _propagation_sample()
    assert all(c.ok for c in checks.check_propagation(eps, fields, fronts, WELLS, 0.1))


def test_propagation_rejects_contour_shifted_by_more_than_2h():
    eps, fields, fronts = _propagation_sample()
    h = 1.0 / fields[-1].shape[0]
    shifted = np.tanh((_radius_field(fields[-1].shape[0], (0.5, 0.5), 0.25)
                       - 2.5 * h) / eps[-1])
    results = checks.check_propagation(eps, fields[:-1] + [shifted], fronts, WELLS, 0.1)
    assert _failed(results, "hausdorff decreases")
    assert _failed(results, "convergence order")


def test_propagation_rejects_field_outside_the_wells():
    eps, fields, fronts = _propagation_sample()
    fields[0] = fields[0].copy()
    fields[0][3, 5] = 1.2
    assert _failed(checks.check_propagation(eps, fields, fronts, WELLS, 0.1),
                   "bounds eps=0.04")


# -- generation ----------------------------------------------------------------

def _generation_sample(n=128, eps=0.04, amplitude=0.5):
    x = (np.arange(n) + 0.5) / n
    u0 = amplitude * np.outer(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x))
    return u0, np.tanh(50.0 * u0)


def test_generation_accepts_symmetric_layer():
    u0, u = _generation_sample()
    assert all(c.ok for c in checks.check_generation((0.04,), [u0], [u], WELLS,
                                                     0.1, 10.0))


def test_generation_rejects_one_cell_with_its_sign_flipped():
    u0, u = _generation_sample()
    u = u.copy()
    u[10, 17] = -u[10, 17]
    results = checks.check_generation((0.04,), [u0], [u], WELLS, 0.1, 10.0)
    assert _failed(results, "symmetry") == ["symmetry eps=0.04"]


def test_generation_rejects_wide_layer_and_coarse_grid():
    u0, _ = _generation_sample(n=64)
    u = np.tanh(2.0 * u0)
    results = checks.check_generation((0.04,), [u0], [u], WELLS, 0.1, 10.0)
    assert _failed(results, "layer")
    assert _failed(results, "resolution")


# -- limiting flow ---------------------------------------------------------------

def _flow_sample(n=256, centre=(0.47, 0.52)):
    times = [2.5e-4, 5e-4]
    radii = [math.sqrt(0.25 ** 2 - 2 * t) for t in times]
    fronts = [_circle(centre, r) for r in radii]
    level_sets = [_radius_field(n, centre, r) for r in radii]
    return times, fronts, level_sets, np.array(centre), 1.0 / n


def test_limit_flow_accepts_matching_solvers():
    times, fronts, level_sets, centre, h = _flow_sample()
    results = checks.check_limit_flow(times, fronts, level_sets, centre, h, 1e-6)
    assert all(c.ok for c in results)


def test_limit_flow_rejects_contour_shifted_by_more_than_2h():
    times, fronts, level_sets, centre, h = _flow_sample()
    fronts[1] = fronts[1] + np.array([2.2 * h, 0.0])
    results = checks.check_limit_flow(times, fronts, level_sets, centre, h, 1e-6)
    assert "front vs level set t=0.0005" in _failed(results, "front vs level set")
    assert _failed(results, "centre fixed")


def test_limit_flow_rejects_growing_area():
    times, fronts, level_sets, centre, h = _flow_sample()
    results = checks.check_limit_flow(times, fronts[::-1], level_sets[::-1],
                                      centre, h, 1e-6)
    assert _failed(results, "area decreases")


# -- direction tables -------------------------------------------------------------

def _constant_sample():
    d = np.array([[1.3, 0.4], [0.4, 1.8]])
    info = {"name": "c", "constant": True, "amplitude": 1.0, "wells": WELLS,
            "d_coef": d[:, :, None]}
    thetas = 2.0 * np.pi * np.arange(16) / 16
    mu = np.array([checks.constant_d_mobility(d, th) for th in thetas])
    z = np.linspace(-12.0, 12.0, 2001)
    rows = np.array([checks.constant_d_profile(d, 1.0, th, z) for th in thetas[:4]])
    return info, thetas, mu, z, rows


def test_tables_constant_rejects_scaled_mu_and_shifted_row():
    info, thetas, mu, z, rows = _constant_sample()
    lam = np.ones(len(thetas))
    args = (z, rows, thetas[:4], [1.0], [0.5], True)
    assert all(c.ok for c in checks.check_tables(info, thetas, mu, lam, *args))
    assert _failed(checks.check_tables(info, thetas, 1.01 * mu, lam, *args),
                   "c mu = D")
    shifted = rows.copy()
    shifted[2] = np.concatenate([rows[2][:1], rows[2][:-1]])
    assert _failed(checks.check_tables(info, thetas, mu, lam, z, shifted,
                                       thetas[:4], [1.0], [0.5], True),
                   "c profiles = tanh")


def test_tables_nonlinear_rejects_shifted_row_and_broken_certificate():
    cfg = workloads.anisotropic_model(np.random.default_rng(3))
    spec = model.model_from_config(cfg)
    info = {"name": "n", "constant": False, "amplitude": 1.0,
            "wells": spec.reaction.roots,
            "d_coef": np.array(cfg["diffusivity"]["params"]["entries"])}
    thetas = 2.0 * np.pi * np.arange(8) / 8
    values = [mobility.mu_tensor(spec, (math.cos(t), math.sin(t))) for t in thetas]
    mu = np.array([v.mu for v in values])
    lam = np.array([v.lam for v in values])
    e, eta = (1.0, 0.0), (0.0, 1.0)
    form = mobility.tangential_form(spec, e, eta)
    bound = mobility.tangential_lower_bound(spec, e)
    prof = profile.solve_standing_wave(spec, (math.cos(0.3), math.sin(0.3)), h_z=2e-3)
    rows = prof.u0[None, :]

    def run(mu=mu, lam=lam, rows=rows, forms=(form,)):
        return checks.check_tables(info, thetas, mu, lam, prof.z, rows, [0.3],
                                   list(forms), [bound], True)

    assert all(c.ok for c in run())
    shifted = np.concatenate([rows[:, :1], rows[:, :-1]], axis=1)
    assert _failed(run(rows=shifted), "n profile U(0)")
    assert _failed(run(forms=(bound - 1e-3,)), "n tangential form")
    assert _failed(run(lam=-lam), "n lambda")
    broken = mu.copy()
    broken[1] *= 1.01
    assert _failed(run(mu=broken), "n mu(theta+pi)")


# -- tracer ----------------------------------------------------------------------

def test_tracer_counts_calls_where_they_happen_and_restores():
    import phasefront.harness as harness
    original = acsolver.step
    spec = model.cubic_identity_model(0.1)
    grid = acsolver.Grid(16)
    u0 = acsolver.trig_product_field(grid)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.simulate is acsolver.simulate
        dt = acsolver.stability_dt(spec, grid)
        harness.simulate(u0, spec, 5 * dt)
    finally:
        tracer.uninstall()
    assert acsolver.step is original
    metrics = tracer.metrics([1.0])
    assert metrics["acsolver.step.calls"] == 5
    assert metrics["acsolver.stability_dt.calls"] == 1 + 1 + 5
    assert metrics["acsolver.simulate.s"] >= metrics["acsolver.step.s"] > 0.0
    assert metrics["acsolver.step.alloc_bytes_per_cell"] > 0.0
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"acsolver.simulate", "acsolver.step"} <= names
