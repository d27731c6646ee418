import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from helpers import constant_d_mu_oracle, random_spd_polynomial_model, random_tangential_pair

from phasefront import errors
from phasefront.model import (
    ModelSpec,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    validate_model,
)
from phasefront.mobility import (
    MU_LOOKUP_ANGLES,
    lambda_e,
    mu_tensor,
    tabulate_mobility,
    tangential_form,
    tangential_lower_bound,
)

SQ2 = np.sqrt(2.0)


def diag12_model():
    return ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02)


def test_lambda_oracles():
    assert lambda_e(cubic_identity_model(), (1.0, 0.0)) == pytest.approx(
        2.0 * SQ2 / 3.0, abs=1e-10)
    assert lambda_e(diag12_model(), (0.0, 1.0)) == pytest.approx(4.0 / 3.0, abs=1e-10)
    spec4 = ModelSpec(cubic_reaction(), diagonal_diffusivity([4.0, 4.0]), 0.02)
    assert lambda_e(spec4, (1.0, 0.0)) == pytest.approx(
        2.0 * SQ2 * 2.0 / 3.0, abs=1e-10)


def test_mu_identity_is_identity():
    v = mu_tensor(cubic_identity_model(), (0.6, 0.8))
    assert np.allclose(v.mu1, np.eye(2), atol=1e-10)
    assert np.abs(v.mu2).max() <= 1e-10
    assert np.abs(v.mu - np.eye(2)).max() <= 1e-10
    assert np.allclose(v.mu, v.mu1 + v.mu2)


def test_mu_constant_diag_closed_form_random_directions():
    spec = diag12_model()
    dmat = np.diag([1.0, 2.0])
    rng = np.random.default_rng(42)
    for _ in range(32):
        th = rng.uniform(0.0, 2.0 * np.pi)
        e = np.array([np.cos(th), np.sin(th)])
        v = mu_tensor(spec, e)
        assert np.abs(v.mu - constant_d_mu_oracle(dmat, e)).max() <= 1e-6


def test_mu_three_dimensional_pointwise():
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0, 3.0]), 0.02)
    e = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    v = mu_tensor(spec, e)
    oracle = constant_d_mu_oracle(np.diag([1.0, 2.0, 3.0]), e)
    assert np.abs(v.mu - oracle).max() <= 1e-6


def test_isotropic_nonlinear_mu_is_scalar_identity():
    # D(s) = phi'(s) I with phi'(s) = 1 + s^2/2: motion must reduce to
    # V_n = -lambda_tilde * kappa, i.e. mu constant over directions
    dphi = [1.0, 0.0, 0.5]
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity([dphi, dphi]), 0.02)
    assert validate_model(spec).passed
    ref = mu_tensor(spec, (1.0, 0.0)).mu
    assert np.abs(ref - ref[0, 0] * np.eye(2)).max() <= 1e-10
    for th in np.linspace(0.1, 2.0 * np.pi, 9):
        e = np.array([np.cos(th), np.sin(th)])
        assert np.abs(mu_tensor(spec, e).mu - ref).max() <= 1e-8


def test_tangential_form_oracles():
    spec = diag12_model()
    assert tangential_form(cubic_identity_model(), (1.0, 0.0), (0.0, 1.0)) == \
        pytest.approx(2.0 * SQ2 / 3.0, abs=1e-10)
    assert tangential_form(spec, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(
        2.0 * (2.0 * SQ2 / 3.0), abs=1e-10)
    assert tangential_form(spec, (0.0, 1.0), (1.0, 0.0)) == pytest.approx(
        4.0 / 3.0, abs=1e-10)


def test_tangential_form_rejects_bad_pairs():
    spec = cubic_identity_model()
    with pytest.raises(errors.NotTangential):
        tangential_form(spec, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(errors.NotTangential):
        tangential_form(spec, (1.0, 0.0), (0.0, 2.0))


def test_tangential_positivity_random_models():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        spec = random_spd_polynomial_model(rng)
        assert validate_model(spec).passed
        e, eta = random_tangential_pair(rng)
        form = tangential_form(spec, e, eta)
        bound = tangential_lower_bound(spec, e)
        assert bound > 0.0
        assert form >= bound - 1e-8
        assert form > 1e-8


def test_unbalanced_model_flags_singular_endpoint():
    d = diagonal_diffusivity([1.0, [2.0, 1.0]])   # D22 = 2 + s breaks balance
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    with pytest.raises(errors.SingularEndpoint):
        mu_tensor(spec, (0.0, 1.0))


def test_tabulate_isotropic_constant():
    tab = tabulate_mobility(cubic_identity_model(), 64)
    assert np.abs(tab.mu_table - np.eye(2)).max() <= 1e-10
    assert np.ptp(tab.lam_table) <= 1e-12
    lam, mu = tab.lam_mu((0.3, np.sqrt(1 - 0.09)))
    assert lam == pytest.approx(2.0 * SQ2 / 3.0, abs=1e-10)
    assert np.abs(mu - np.eye(2)).max() <= 1e-10
    # w = 1 in every direction: the area law's rate is 2 pi
    assert tab.area_rate() == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_tabulate_midpoint_interpolation_error():
    spec = diag12_model()
    tab = tabulate_mobility(spec, 256)
    dmat = np.diag([1.0, 2.0])
    ths = 2.0 * np.pi * (np.arange(256) + 0.5) / 256.0
    worst = 0.0
    for th in ths:
        e = np.array([np.cos(th), np.sin(th)])
        _, mu = tab.lam_mu(e)
        worst = max(worst, np.abs(mu - constant_d_mu_oracle(dmat, e)).max())
    assert worst <= 1e-6


def test_tabulate_resolution_convergence():
    spec = diag12_model()
    t64 = tabulate_mobility(spec, 64)
    t256 = tabulate_mobility(spec, 256)
    ths = 2.0 * np.pi * np.arange(128) / 128.0 + 1e-3
    lam_gap = max(abs(t64.lam_mu(e)[0] - t256.lam_mu(e)[0])
                  for e in np.stack([np.cos(ths), np.sin(ths)], axis=1))
    worst = max(np.abs(t64.mu_of_angles(ths) - t256.mu_of_angles(ths)).max(),
                lam_gap)
    assert worst <= 1e-4


def test_table_spline_matches_five_scalar_splines():
    tab = tabulate_mobility(random_spd_polynomial_model(np.random.default_rng(11)), 64)
    th_ext = np.append(tab.thetas, 2.0 * np.pi)

    def scalar_spline(values):
        return CubicSpline(th_ext, np.append(values, values[0]), bc_type="periodic")

    ref_lam = scalar_spline(tab.lam_table)
    ref_mu = [[scalar_spline(tab.mu_table[:, i, j]) for j in range(2)]
              for i in range(2)]
    ths = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 512)
    mu = tab.mu_of_angles(ths)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(mu[..., i, j], ref_mu[i][j](ths))
    for th in ths[:64]:
        e = np.array([np.cos(th), np.sin(th)])
        lam, mu_e = tab.lam_mu(e)
        th_e = float(np.arctan2(e[1], e[0])) % (2.0 * np.pi)
        assert lam == float(ref_lam(th_e))
        assert np.array_equal(mu_e, [[float(ref_mu[i][j](th_e)) for j in range(2)]
                                     for i in range(2)])
    # the spline interpolates the table at the nodes
    assert np.array_equal(tab.mu_of_angles(tab.thetas), tab.mu_table)
    node_lams = [tab.lam_mu((np.cos(th), np.sin(th)))[0] for th in tab.thetas]
    assert np.abs(np.array(node_lams) - tab.lam_table).max() <= 1e-12


def test_weight_table_is_tangential_weight_at_its_nodes():
    tab = tabulate_mobility(random_spd_polynomial_model(np.random.default_rng(11)), 64)
    table, dtheta = tab.weight_lookup()
    assert dtheta == 2.0 * np.pi / MU_LOOKUP_ANGLES
    th = 2.0 * np.pi * np.arange(MU_LOOKUP_ANGLES) / MU_LOOKUP_ANGLES
    normals = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.array_equal(table, tab.tangential_weight(normals))
    # w = tau . mu tau with tau the left rotation of the normal
    taus = np.stack([-np.sin(th), np.cos(th)], axis=1)
    ref = np.einsum("vi,vij,vj->v", taus, tab.mu_of_angles(th), taus)
    assert np.abs(table - ref).max() <= 1e-12


def test_tabulate_preconditions():
    with pytest.raises(errors.ConfigError):
        tabulate_mobility(cubic_identity_model(), 32)
    spec3 = ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0, 3.0]), 0.02)
    with pytest.raises(errors.ConfigError):
        tabulate_mobility(spec3, 64)


def test_lambda_continuity():
    spec = diag12_model()
    ths = np.linspace(0.0, 2.0 * np.pi, 257)
    lams = np.array([lambda_e(spec, (np.cos(t), np.sin(t))) for t in ths])
    es = np.stack([np.cos(ths), np.sin(ths)], axis=1)
    steps = np.linalg.norm(np.diff(es, axis=0), axis=1)
    lip = np.abs(np.diff(lams)) / steps
    assert np.isfinite(lip).all()
    assert lip.max() < 10.0


def test_asymmetry_diagnostic_recorded():
    rng = np.random.default_rng(5)
    spec = random_spd_polynomial_model(rng)
    tab = tabulate_mobility(spec, 64)
    assert np.isfinite(tab.asymmetry)
    assert tab.asymmetry < 1.0


def test_mu_tensor_axis_direction_values():
    spec = diag12_model()
    v = mu_tensor(spec, (1.0, 0.0))
    assert v.lam == pytest.approx(2.0 * SQ2 / 3.0, abs=1e-10)
    tau = np.array([0.0, 1.0])
    assert tau @ v.mu @ tau == pytest.approx(2.0, abs=1e-8)
    assert tangential_form(spec, (1.0, 0.0), tau) == pytest.approx(
        2.0 * v.lam, abs=1e-8)
