import dataclasses
import re

import numpy as np
import pytest

from helpers import (
    propagation_ellipse,
    propagation_spec,
    rotate_curve,
    rounded_square_curve,
    translate_curve,
    turning_number,
)

from phasefront import curves, errors
from phasefront.acsolver import Grid
from phasefront.curves import (
    circle_curve,
    curve_from_points,
    ellipse_curve,
    enclosed_area,
    geometry,
    hausdorff,
)
from phasefront.flow import (
    BAND_CELLS,
    SignedDistanceField,
    evolve_front,
    evolve_level_set,
    level_set_dt,
    reinitialize,
    signed_distance,
    step_front,
    step_level_set,
    zero_contour,
)
from phasefront.mobility import MU_LOOKUP_ANGLES, mu_tensor, tabulate_mobility
from phasefront.model import (
    ModelSpec,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    rotated_diagonal_diffusivity,
)


@pytest.fixture(scope="module")
def identity_mobility():
    return tabulate_mobility(cubic_identity_model(), 64)


@pytest.fixture(scope="module")
def diag_mobility():
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02)
    return tabulate_mobility(spec, 256)


# -- geometry ----------------------------------------------------------------

def test_circle_geometry():
    c = geometry(circle_curve((0.5, 0.5), 0.25, 256))
    assert np.abs(c.curvature - 4.0).max() <= 0.004
    radial = (c.vertices - 0.5) / np.linalg.norm(c.vertices - 0.5, axis=1)[:, None]
    assert np.abs(c.normals - radial).max() <= 1e-10
    assert turning_number(c) == pytest.approx(1.0, abs=1e-12)


def test_rounded_square_flats():
    c = geometry(rounded_square_curve((0.5, 0.5), 0.2, 0.05,
                                      n_per_side=32, n_per_corner=16))
    # blocks of 16 corner + 32 side vertices; spline curvature decays like
    # (2-sqrt(3))^k away from the corner arcs, so probe the flat centers
    centers = np.concatenate([np.arange(28, 37) + 48 * q for q in range(4)])
    assert np.abs(c.curvature[centers]).max() < 1e-6
    assert (np.abs(c.curvature) < 1e-3).sum() >= c.n_vertices // 3


def test_reversed_orientation_flips_curvature():
    c = geometry(circle_curve((0.5, 0.5), 0.25, 128))
    r = geometry(c.reversed())
    assert np.abs(r.curvature + 4.0).max() <= 0.004


def test_geometry_rejects_degenerate():
    with pytest.raises(errors.DegenerateCurve):
        geometry(curve_from_points(np.array([[0.2, 0.2], [0.8, 0.8], [0.5, 0.3]])))


# -- front tracking ----------------------------------------------------------

def test_front_circle_shrinks_by_the_radius_law(identity_mobility):
    cur = circle_curve((0.5, 0.5), 0.25, 256, h_target=2 * np.pi * 0.25 / 256)
    t, worst = 0.0, 0.0
    for _ in range(400):
        cur = step_front(cur, identity_mobility, 1e-5)
        t += 1e-5
        r = np.linalg.norm(cur.vertices - 0.5, axis=1)
        worst = max(worst, float(np.abs(r - np.sqrt(0.0625 - 2 * t)).max()))
    assert worst <= 1e-3


def test_front_isotropic_nonlinear_radius_law():
    dphi = [1.0, 0.0, 0.5]
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity([dphi, dphi]), 0.02)
    mob = tabulate_mobility(spec, 64)
    lam_tilde = mu_tensor(spec, (1.0, 0.0)).mu[0, 0]
    cur = circle_curve((0.5, 0.5), 0.25, 256, h_target=2 * np.pi * 0.25 / 256)
    t, worst = 0.0, 0.0
    for _ in range(300):
        cur = step_front(cur, mob, 1e-5)
        t += 1e-5
        r = np.linalg.norm(cur.vertices - 0.5, axis=1)
        worst = max(worst, float(np.abs(r - np.sqrt(0.0625 - 2 * lam_tilde * t)).max()))
    assert worst <= 1e-3


_CIRCLE = circle_curve((0.5, 0.5), 0.2, 256, h_target=2 * np.pi * 0.2 / 256)


@pytest.mark.parametrize("spec, curve", [
    (cubic_identity_model(), _CIRCLE),
    (ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02), _CIRCLE),
    (ModelSpec(cubic_reaction(), rotated_diagonal_diffusivity(0.7, [1.0, 1.8]), 0.02),
     _CIRCLE),
    (propagation_spec(), propagation_ellipse()),
], ids=["identity", "diag", "rotated-constant", "propagation-ellipse"])
def test_front_area_decay_rate(spec, curve):
    # dA/dt = -int w dtheta for any simple closed curve (2 pi for mu = I),
    # down to half the initial area
    mob = tabulate_mobility(spec, 256)
    rate = mob.area_rate()
    cur = curve
    a0 = enclosed_area(cur)
    areas = [a0]
    while areas[-1] > 0.5 * a0:
        cur = step_front(cur, mob, 1e-5)
        areas.append(enclosed_area(cur))
        assert abs(areas[-1] - a0 + rate * 1e-5 * (len(areas) - 1)) <= 1e-3
    # the mean rate over [2e-3, 4e-3]
    assert (areas[200] - areas[400]) / 2e-3 == pytest.approx(rate, rel=1e-3)


def test_front_equivariance_translation_and_rotation(identity_mobility):
    base = circle_curve((0.45, 0.52), 0.2, 128, h_target=0.01)
    # the shape is rotation-symmetric; build an asymmetric perturbation
    th = 2 * np.pi * np.arange(128) / 128
    wobble = 0.02 * np.cos(3 * th)
    pts = np.stack([0.45 + (0.2 + wobble) * np.cos(th),
                    0.52 + (0.2 + wobble) * np.sin(th)], axis=1)
    base = curve_from_points(pts, h_target=0.01)

    stepped = step_front(base, identity_mobility, 1e-5)
    shift = np.array([0.25, 0.125])
    moved = step_front(translate_curve(base, shift), identity_mobility, 1e-5)
    assert np.abs(moved.vertices - shift - stepped.vertices).max() <= 1e-8

    rot = step_front(rotate_curve(base, np.pi / 2), identity_mobility, 1e-5)
    back = rotate_curve(rot, -np.pi / 2)
    assert np.abs(back.vertices - stepped.vertices).max() <= 1e-8


def test_front_tangential_weights_positive(diag_mobility):
    cur = circle_curve((0.5, 0.5), 0.25, 128, h_target=0.012)
    for _ in range(20):
        cur = step_front(cur, diag_mobility, 1e-5)
        assert diag_mobility.tangential_weight(cur.normals).min() > 0.0


def test_step_front_fits_each_curve_state_once(identity_mobility, monkeypatch):
    cur = step_front(circle_curve((0.5, 0.5), 0.25, 128, h_target=0.012),
                     identity_mobility, 1e-5)
    fits, substeps = [], []
    fit, weight = curves._chord_fit, identity_mobility.tangential_weight
    monkeypatch.setattr(curves, "_chord_fit", lambda c: fits.append(c) or fit(c))
    monkeypatch.setattr(identity_mobility, "tangential_weight",
                        lambda n: substeps.append(n) or weight(n))
    step_front(cur, identity_mobility, 2e-4)
    assert len(substeps) >= 2
    # the refits of substeps 2..k, and the resample
    assert len(fits) == len(substeps)


def test_front_extinction_is_terminal(identity_mobility):
    cur = circle_curve((0.5, 0.5), 0.02, 64, h_target=0.005)
    with pytest.raises(errors.Extinction):
        for _ in range(10000):
            cur = step_front(cur, identity_mobility, 1e-5)


def test_evolve_front_failure_names_where_it_fired(identity_mobility):
    cur = circle_curve((0.5, 0.5), 0.02, 64, h_target=0.005)
    with pytest.raises(errors.Extinction) as info:
        evolve_front(cur, identity_mobility, 1e-3, dt=1e-5)
    where = re.search(r"at t = (\S+), step (\d+), \d+ markers$", str(info.value))
    # step k starts at t = (k - 1) dt
    assert float(where[1]) == pytest.approx((int(where[2]) - 1) * 1e-5)


def test_front_self_intersection_detected(identity_mobility):
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    eight = np.stack([0.5 + 0.2 * np.sin(2 * th) + 0.03 * np.cos(th),
                      0.5 + 0.12 * np.sin(th)], axis=1)
    with pytest.raises((errors.SelfIntersection, errors.DegenerateCurve)):
        step_front(curve_from_points(eight, h_target=0.02),
                   identity_mobility, 1e-5)


# -- signed distance ---------------------------------------------------------

def test_signed_distance_circle():
    g = Grid(256)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 512), g)
    x, y = g.cell_centers()
    exact = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) - 0.25
    band = np.abs(exact) < 8 * g.h
    assert np.abs(sdf.values - exact)[band].max() <= 1e-3
    assert sdf.values[128, 128] < 0.0           # interior is the low side
    near = np.abs(exact) < 0.1 * g.h
    assert np.abs(sdf.values[near]).max() <= 2 * 0.1 * g.h + 1e-4
    # exact everywhere up to the 512-gon's sagitta (4.7e-6)
    assert np.abs(sdf.values - exact).max() <= 1e-5


def test_signed_distance_inverted_orientation():
    g = Grid(128)
    c = circle_curve((0.5, 0.5), 0.25, 256).reversed()   # interior = high side
    sdf = signed_distance(c, g)
    assert sdf.values[64, 64] > 0.0


def test_signed_distance_gradient_after_reinit():
    g = Grid(128)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 256), g)
    sdf = reinitialize(sdf)
    d = sdf.values
    gx = (np.roll(d, -1, 0) - np.roll(d, 1, 0)) / (2 * g.h)
    gy = (np.roll(d, -1, 1) - np.roll(d, 1, 1)) / (2 * g.h)
    gn = np.hypot(gx, gy)
    band = np.abs(d) < 6 * g.h
    assert np.abs(gn[band] - 1.0).max() <= 0.05


# -- level set ---------------------------------------------------------------

def test_level_set_circle_radius_law(identity_mobility):
    g = Grid(128)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 256), g)
    hist = evolve_level_set(sdf, identity_mobility, 0.01)
    zc = zero_contour(hist[-1][1])
    r = np.linalg.norm(zc.vertices - 0.5, axis=1)
    assert np.abs(r - np.sqrt(0.0625 - 0.02)).max() <= 2 * g.h


def test_level_set_straight_line_stationary(identity_mobility):
    g = Grid(64)
    x, _ = g.cell_centers()
    # signed distance to the slab boundary {x=0.25} U {x=0.75}
    d = np.minimum(np.abs(x - 0.25), np.minimum(np.abs(x - 0.75),
                   np.minimum(np.abs(x + 0.25), np.abs(x - 1.25))))
    d = np.where((x > 0.25) & (x < 0.75), d, -d)
    cur = SignedDistanceField(g, d)
    dt = level_set_dt(identity_mobility, g)
    for _ in range(10000):
        cur = step_level_set(cur, identity_mobility, dt)
    zc = zero_contour(cur)
    xs = np.mod(zc.vertices[:, 0], 1.0)
    drift = np.minimum(np.abs(xs - 0.25), np.abs(xs - 0.75)).max()
    assert drift <= g.h


def test_level_set_matches_front_tracking_anisotropic(diag_mobility):
    g = Grid(128)
    c = circle_curve((0.5, 0.5), 0.25, 256, h_target=2 * np.pi * 0.25 / 256)
    front = evolve_front(c, diag_mobility, 0.005, dt=1e-5)[-1][1]
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 256), g)
    ls = evolve_level_set(sdf, diag_mobility, 0.005)[-1][1]
    assert hausdorff(front, zero_contour(ls)) <= 2 * g.h


def test_level_set_step_matches_tangential_hessian_reference(diag_mobility):
    # a quadratic bowl: not a distance function, so n.H tau != 0 off the axes
    g = Grid(64)
    x, y = g.cell_centers()
    d = ((x - 0.5) ** 2 + 2.0 * (y - 0.5) ** 2) / 0.6 - 0.1
    dt = level_set_dt(diag_mobility, g)
    out = step_level_set(SignedDistanceField(g, d), diag_mobility, dt)
    assert out.steps_taken == 1

    h = g.h
    gx = (np.roll(d, -1, 0) - np.roll(d, 1, 0)) / (2 * h)
    gy = (np.roll(d, -1, 1) - np.roll(d, 1, 1)) / (2 * h)
    dxx = (np.roll(d, -1, 0) - 2 * d + np.roll(d, 1, 0)) / h**2
    dyy = (np.roll(d, -1, 1) - 2 * d + np.roll(d, 1, 1)) / h**2
    dxy = (np.roll(np.roll(d, -1, 0), -1, 1) - np.roll(np.roll(d, -1, 0), 1, 1)
           - np.roll(np.roll(d, 1, 0), -1, 1) + np.roll(np.roll(d, 1, 0), 1, 1)) / (4 * h**2)
    gn = np.hypot(gx, gy)
    taux, tauy = -gy / gn, gx / gn
    # w at the angle of grad d, quantized down to the weight table's grid
    dtheta = 2 * np.pi / MU_LOOKUP_ANGLES
    k = (np.mod(np.arctan2(gy, gx), 2 * np.pi) // dtheta) % MU_LOOKUP_ANGLES
    theta_q = k.ravel() * dtheta
    tau_q = np.stack([-np.sin(theta_q), np.cos(theta_q)], axis=1)
    mu = diag_mobility.mu_of_angles(theta_q)
    w = np.einsum("vi,vij,vj->v", tau_q, mu, tau_q).reshape(d.shape)
    tht = taux**2 * dxx + 2 * taux * tauy * dxy + tauy**2 * dyy
    expected = d + dt * np.where(gn >= 0.5, w * tht, 0.0)
    assert np.abs(out.values - expected).max() <= 1e-12
    # the field is off the distance-function manifold where it matters
    band = np.abs(d) < 3 * h
    n_h_tau = (gx * (dxx * taux + dxy * tauy) + gy * (dxy * taux + dyy * tauy)) / gn
    assert np.abs(n_h_tau[band]).max() > 1.0


def test_banded_step_matches_every_cell_step(diag_mobility):
    g = Grid(128)
    sdf = signed_distance(ellipse_curve((0.47, 0.52), 0.25, 0.17, 256), g)
    dt = level_set_dt(diag_mobility, g)
    reinit = reinitialize(step_level_set(sdf, diag_mobility, dt))
    near = np.flatnonzero(np.abs(reinit.values) < 3 * g.h)
    assert np.isin(near, reinit.stencil[0]).all()
    assert np.abs(reinit.values).max() <= BAND_CELLS * g.h
    for field in (sdf, reinit):
        band = field.stencil[0]
        in_band = np.zeros(g.n**2, dtype=bool)
        in_band[band] = True
        assert 0 < band.size < g.n**2 // 4
        banded = step_level_set(field, diag_mobility, dt).values.ravel()
        every = step_level_set(SignedDistanceField(g, field.values), diag_mobility,
                               dt).values.ravel()
        inner = band[in_band[field.stencil].all(axis=0)]
        assert inner.size > band.size // 2
        assert banded[inner].tobytes() == every[inner].tobytes()
        assert banded[~in_band].tobytes() == field.values.ravel()[~in_band].tobytes()


def test_level_set_front_travels_past_the_band(identity_mobility):
    # the radius shrinks by 0.2, about 13h: farther than the band reaches
    g = Grid(64)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.3, 256), g)
    zc = zero_contour(evolve_level_set(sdf, identity_mobility, 0.04)[-1][1])
    r = np.linalg.norm(zc.vertices - 0.5, axis=1)
    assert np.abs(r - np.sqrt(0.09 - 0.08)).max() <= 2 * g.h


@pytest.mark.parametrize("factor", [4.0, 10.0])
def test_level_set_rejects_dt_above_its_bound(identity_mobility, factor):
    g = Grid(64)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.3, 128), g)
    bound = level_set_dt(identity_mobility, g)
    with pytest.raises(errors.CFLViolated) as info:
        evolve_level_set(sdf, identity_mobility, 100 * bound, dt=factor * bound)
    assert str(info.value) == (f"dt = {factor * bound:g} exceeds the level-set "
                               f"stability bound {bound:g} at t = 0, step 1, "
                               f"grid n = 64")
    with pytest.raises(errors.CFLViolated):
        step_level_set(sdf, identity_mobility, factor * bound)


def test_level_set_dt_reads_the_weight_table_once(diag_mobility, monkeypatch):
    g = Grid(64)
    bound = level_set_dt(diag_mobility, g)
    assert bound == g.h**2 / (8.0 * float(diag_mobility.weight_lookup()[0].max()))

    def reread(self):
        raise AssertionError("the weight table was read again")

    monkeypatch.setattr(type(diag_mobility), "weight_lookup", reread)
    assert level_set_dt(diag_mobility, g) == bound
    assert level_set_dt(diag_mobility, Grid(128)) == bound / 4.0


def test_level_set_gradient_degeneracy():
    g = Grid(64)
    x, _ = g.cell_centers()
    flat = SignedDistanceField(g, 0.01 * np.sin(2 * np.pi * x))
    mob = tabulate_mobility(cubic_identity_model(), 64)
    with pytest.raises(errors.GradientDegeneracy):
        step_level_set(flat, mob, level_set_dt(mob, g))


def test_evolve_level_set_failure_names_where_it_fired():
    g = Grid(64)
    x, _ = g.cell_centers()
    flat = SignedDistanceField(g, 0.01 * np.sin(2 * np.pi * x))
    mob = tabulate_mobility(cubic_identity_model(), 64)
    with pytest.raises(errors.GradientDegeneracy,
                       match=r"narrow band at t = 0, step 1, grid n = 64$"):
        evolve_level_set(flat, mob, 1e-4)


@pytest.mark.parametrize("t_end, dt, checkpoint", [
    (1.0, 1.0, 3.0), (1.0, 1.0, -1.0), (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0),
    (1.0, 1.0, np.nan), (1.0, np.nan, 1.0), (1.0, 0.0, 1.0), (1.0, -1.0, 1.0),
    (1.0, np.inf, 1.0),
], ids=["past-t_end", "negative", "nan-t_end", "inf-t_end", "nan-checkpoint",
        "nan-dt", "zero-dt", "negative-dt", "inf-dt"])
def test_level_set_rejects_checkpoints_outside_span(identity_mobility, t_end, dt,
                                                     checkpoint):
    g = Grid(32)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 64), g)
    bound = level_set_dt(identity_mobility, g)
    with pytest.raises(errors.ConfigError):
        evolve_level_set(sdf, identity_mobility, t_end * bound, dt=dt * bound,
                         checkpoints=[checkpoint * bound])


def test_zero_contour_requires_crossing():
    g = Grid(64)
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 64), g)
    with pytest.raises(errors.NoContour):
        zero_contour(SignedDistanceField(g, np.abs(sdf.values) + 0.1))


def test_signed_distance_field_is_frozen():
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 64), Grid(32))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sdf.values = np.zeros((32, 32))


def test_planar_reduction_matches_raw_hessian_form(diag_mobility):
    # V_n = -kappa tau.mu.tau against -mu_ij dn_j/dx_i computed from the
    # signed-distance Hessian on the grid
    g = Grid(256)
    x, y = g.cell_centers()
    d = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) - 0.25
    h = g.h
    dxx = (np.roll(d, -1, 0) - 2 * d + np.roll(d, 1, 0)) / h**2
    dyy = (np.roll(d, -1, 1) - 2 * d + np.roll(d, 1, 1)) / h**2
    dxy = (np.roll(np.roll(d, -1, 0), -1, 1) - np.roll(np.roll(d, -1, 0), 1, 1)
           - np.roll(np.roll(d, 1, 0), -1, 1) + np.roll(np.roll(d, 1, 0), 1, 1)) / (4 * h**2)
    gx = (np.roll(d, -1, 0) - np.roll(d, 1, 0)) / (2 * h)
    gy = (np.roll(d, -1, 1) - np.roll(d, 1, 1)) / (2 * h)
    near = np.abs(d) < h
    nx, ny = gx[near], gy[near]
    nn = np.hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    mu = diag_mobility.mu_of_angles(np.arctan2(ny, nx))
    hxx, hxy, hyy = dxx[near], dxy[near], dyy[near]
    # dn_j/dx_i = (H - (Hn) x n)_ij / |grad d|
    hn_x = hxx * nx + hxy * ny
    hn_y = hxy * nx + hyy * ny
    raw = (mu[:, 0, 0] * hxx + (mu[:, 0, 1] + mu[:, 1, 0]) * hxy
           + mu[:, 1, 1] * hyy
           - hn_x * (mu[:, 0, 0] * nx + mu[:, 0, 1] * ny)
           - hn_y * (mu[:, 1, 0] * nx + mu[:, 1, 1] * ny)) / nn
    v_raw = -raw
    taux, tauy = -ny, nx
    w = (mu[:, 0, 0] * taux**2 + (mu[:, 0, 1] + mu[:, 1, 0]) * taux * tauy
         + mu[:, 1, 1] * tauy**2)
    kappa = 1.0 / (d[near] + 0.25)
    v_planar = -kappa * w
    assert np.abs(v_raw - v_planar).max() <= 1e-3
