import logging
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from helpers import rk4_standing_wave

from phasefront import errors, profile
from phasefront.model import (
    DirectionSection,
    ModelSpec,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    polynomial_diffusivity,
    rotated_diagonal_diffusivity,
)
from phasefront.profile import (
    ProfileTable,
    direction_derivative_profile,
    linearized_residual,
    second_order_residual,
    solvability_residual,
    solve_linearized,
    solve_standing_wave,
)

SQ2 = np.sqrt(2.0)
E1 = (1.0, 0.0)


@pytest.fixture(scope="module")
def identity_profile():
    return solve_standing_wave(cubic_identity_model(), E1, z_max=12.0, h_z=1e-3)


@pytest.fixture(scope="module")
def diag_model():
    return ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02)


def test_standing_wave_matches_tanh(identity_profile):
    prof = identity_profile
    assert np.abs(prof.u0 - np.tanh(prof.z / SQ2)).max() <= 1e-6
    assert prof.u0[prof.i_zero] == 0.0
    assert np.all(np.diff(prof.u0) >= 0.0)
    assert np.all((prof.u0 > -1.0) & (prof.u0 < 1.0))


def test_standing_wave_slope_identity(identity_profile):
    prof = identity_profile
    # U0_z = sqrt(W)/a pointwise (type invariant)
    direct = prof.section.sqrt_w(prof.u0) / prof.section.a(prof.u0)
    assert np.abs(prof.u0z - direct).max() <= 1e-8


def test_standing_wave_rescaled_width(diag_model):
    # a_e = 2 along e = (0,1): profile is tanh(z/2)
    prof = solve_standing_wave(diag_model, (0.0, 1.0), z_max=12.0, h_z=1e-3)
    assert np.abs(prof.u0 - np.tanh(prof.z / 2.0)).max() <= 1e-6


def test_interior_ode_residual(identity_profile):
    res = second_order_residual(identity_profile)
    m = len(res)
    core = res[int(0.05 * m):int(0.95 * m)]
    assert np.abs(core).max() <= 1e-8


def test_tail_is_log_linear(identity_profile):
    prof = identity_profile
    assert prof.decay_r2 >= 0.99
    assert prof.decay_rate == pytest.approx(SQ2, rel=1e-3)


def test_grid_preconditions(monkeypatch):
    spec = cubic_identity_model()
    with pytest.raises(errors.ConfigError):
        solve_standing_wave(spec, E1, z_max=5.0)
    with pytest.raises(errors.ConfigError):
        solve_standing_wave(spec, E1, h_z=0.05)

    # the table checks its grid before it builds a section or marches
    def no_section(*args, **kwargs):
        raise AssertionError("table built a section on a rejected grid")

    monkeypatch.setattr(DirectionSection, "__init__", no_section)
    with pytest.raises(errors.ConfigError):
        ProfileTable.build(spec, m_angles=4, z_max=5.0)
    with pytest.raises(errors.ConfigError):
        ProfileTable.build(spec, m_angles=4, h_z=0.05)


def test_solvability_residual_values(identity_profile):
    prof = identity_profile
    # g = U0_z integrates sqrt(W) over the well: the line tension value
    assert solvability_residual(prof, prof.u0z) == pytest.approx(
        2.0 * SQ2 / 3.0, abs=1e-8)
    assert solvability_residual(prof, np.zeros_like(prof.z)) == 0.0


def _d11_flux_derivative(prof):
    """(D11(U0) U0_z)_z via the analytic chain rule of the slope function."""
    sec = prof.section
    du = 1e-6
    slope = lambda u: sec.sqrt_w(u) / sec.a(u)
    d11 = prof.spec.diffusivity.entry(0, 0)
    flux = lambda u: d11(u) * slope(u)
    return (flux(prof.u0 + du) - flux(prof.u0 - du)) / (2 * du) * prof.u0z


def test_equipotential_rhs_is_solvable(identity_profile):
    g = _d11_flux_derivative(identity_profile)
    assert abs(solvability_residual(identity_profile, g)) <= 1e-8


def test_solve_linearized_zero_rhs(identity_profile):
    psi = solve_linearized(identity_profile, np.zeros_like(identity_profile.z))
    assert np.abs(psi).max() == 0.0


def test_solve_linearized_not_solvable(identity_profile):
    with pytest.raises(errors.NotSolvable):
        solve_linearized(identity_profile, identity_profile.u0z)


def _bvp_oracle(prof, g):
    """Second-order collocation solve of (a psi)_zz + f' psi = g, psi(0)=0.

    Independent of the closed-form path: assembles the tridiagonal system with
    Dirichlet values from the far-field balance psi = g/f' and the z=0 row
    replaced by the normalization.
    """
    z, u0 = prof.z, prof.u0
    m = len(z)
    h = prof.h_z
    c = prof.section.a(u0)
    fp = prof.spec.reaction.f_prime(u0)
    main = np.empty(m)
    lower = np.empty(m - 1)
    upper = np.empty(m - 1)
    rhs = np.array(g, dtype=float)
    main[1:-1] = -2.0 * c[1:-1] / h**2 + fp[1:-1]
    lower[:-1] = c[:-2] / h**2
    upper[1:] = c[2:] / h**2
    # far-field rows: psi = g / f'
    main[0] = main[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    rhs[0] = g[0] / fp[0]
    rhs[-1] = g[-1] / fp[-1]
    # normalization row
    i0 = prof.i_zero
    main[i0] = 1.0
    lower[i0 - 1] = 0.0
    upper[i0] = 0.0
    rhs[i0] = 0.0
    mat = sparse.diags([lower, main, upper], [-1, 0, 1], format="csc")
    return spsolve(mat, rhs)


def test_solve_linearized_against_bvp_oracle(identity_profile):
    prof = identity_profile
    g = _d11_flux_derivative(prof)
    psi = solve_linearized(prof, g)
    assert psi[prof.i_zero] == 0.0
    assert np.isfinite(psi).all()
    oracle = _bvp_oracle(prof, g)
    assert np.abs(psi - oracle).max() <= 1e-5
    res = linearized_residual(prof, psi, g)
    assert np.abs(res).max() <= 1e-5


def test_solve_linearized_mobility_style_rhs(diag_model):
    # G = mu*U0_z - D11(U0)U0_z with the constant chosen as the weighted
    # average that makes it solvable by construction
    prof = solve_standing_wave(diag_model, (0.0, 1.0), z_max=12.0, h_z=1e-3)
    az = prof.sqrt_w_values()
    d11 = prof.spec.diffusivity.entry(0, 0)(prof.u0)
    mu11 = np.trapezoid(d11 * az * prof.u0z, prof.z) / np.trapezoid(az * prof.u0z, prof.z)
    g = (mu11 - d11) * prof.u0z
    assert abs(solvability_residual(prof, g)) <= 1e-8
    psi = solve_linearized(prof, g)
    assert np.isfinite(psi).all()
    assert np.abs(linearized_residual(prof, psi, g)).max() <= 1e-5


def test_inner_singularity_detected():
    # long grid freezes the tail; a bounded odd RHS keeps the inner integral
    # alive where the denominator underflows
    prof = solve_standing_wave(cubic_identity_model(), E1, z_max=20.0, h_z=2e-3)
    with pytest.raises(errors.InnerSingularity):
        solve_linearized(prof, np.sin(prof.z))


def test_direction_derivative_isotropic_is_zero(identity_profile):
    for j in (0, 1):
        assert np.abs(direction_derivative_profile(
            cubic_identity_model(), identity_profile, j)).max() == 0.0


def test_direction_derivative_orthogonal_axis(diag_model):
    prof = solve_standing_wave(diag_model, E1, z_max=12.0, h_z=1e-3)
    assert np.abs(direction_derivative_profile(diag_model, prof, 1)).max() == 0.0


def test_direction_derivative_matches_sphere_fd(diag_model):
    e = np.array([1.0, 1.0]) / SQ2
    h = 1e-4

    def u_of(e_):
        e_ = e_ / np.linalg.norm(e_)
        return solve_standing_wave(diag_model, e_, z_max=12.0, h_z=2e-3).u0

    ep, em = e.copy(), e.copy()
    ep[0] += h
    em[0] -= h
    fd = (u_of(ep) - u_of(em)) / (2 * h)
    prof = solve_standing_wave(diag_model, e, z_max=12.0, h_z=2e-3)
    analytic = direction_derivative_profile(diag_model, prof, 0)
    assert np.abs(analytic - fd).max() <= 1e-4 * np.abs(fd).max()


def test_direction_derivative_satisfies_linearized_equation(diag_model):
    e = np.array([1.0, 1.0]) / SQ2
    prof = solve_standing_wave(diag_model, e, z_max=12.0, h_z=1e-3)
    phi = direction_derivative_profile(diag_model, prof, 0)
    # RHS: -(tan_grad_a_0(U0) U0_z)_z by 4th-order differences
    F = prof.section.tan_grad_a(prof.u0)[0] * prof.u0z
    h = prof.h_z
    rhs = np.zeros_like(F)
    rhs[2:-2] = -(-F[4:] + 8 * F[3:-1] - 8 * F[1:-3] + F[:-4]) / (12 * h)
    res = linearized_residual(prof, phi, rhs)
    core = res[2:-2]
    assert np.abs(core).max() <= 1e-4


def test_direction_derivative_decay_envelope(diag_model):
    # |U_{0e_j}| <= C (U0 - a-)(a+ - U0) (|ln(U0-a-)| + |ln(a+-U0)|)
    e = np.array([1.0, 1.0]) / SQ2
    prof = solve_standing_wave(diag_model, e, z_max=12.0, h_z=1e-3)
    phi = np.abs(direction_derivative_profile(diag_model, prof, 0))
    gap_lo = np.clip(prof.u0 + 1.0, 1e-300, None)
    gap_hi = np.clip(1.0 - prof.u0, 1e-300, None)
    envelope = gap_lo * gap_hi * (np.abs(np.log(gap_lo)) + np.abs(np.log(gap_hi)))
    mask = envelope > 1e-12
    ratio = phi[mask] / envelope[mask]
    assert ratio.max() < 10.0


def test_profile_table_isotropic_and_anisotropic(diag_model):
    iso = ProfileTable.build(cubic_identity_model(), m_angles=8)
    assert iso.u0.shape[0] == 8
    assert all(row.tobytes() == iso.u0[0].tobytes() for row in iso.u0)
    z = np.linspace(-6, 6, 101)
    vals = iso.evaluate(np.full_like(z, 1.234), z)
    assert np.abs(vals - np.tanh(z / SQ2)).max() <= 1e-5

    tab = ProfileTable.build(diag_model, m_angles=16)
    # along theta = pi/2 the profile is tanh(z/2)
    vals = tab.evaluate(np.full_like(z, np.pi / 2), z)
    assert np.abs(vals - np.tanh(z / 2.0)).max() <= 1e-5


@pytest.mark.parametrize("diffusivity", [
    diagonal_diffusivity([1.0, 2.0]),
    rotated_diagonal_diffusivity(0.7, [1.0, 1.8]),
    polynomial_diffusivity([[[1.2, 0.0, 0.1], [0.2, 0.0, 0.05]],
                            [[0.2, 0.0, 0.05], [0.9, 0.0, -0.05]]]),
], ids=["diag", "rotated-constant", "polynomial-cross"])
def test_table_rows_match_scalar_march(diffusivity):
    spec = ModelSpec(cubic_reaction(), diffusivity, 0.02)
    am, ap = spec.reaction.alpha_minus, spec.reaction.alpha_plus
    tab = ProfileTable.build(spec, m_angles=16)
    for th, row in zip(tab.thetas, tab.u0):
        e = (np.cos(th), np.sin(th))
        prof = solve_standing_wave(spec, e, h_z=2e-3)
        assert row.tobytes() == prof.u0.tobytes()
        # the RK4 reference freezes its step once t^2 q < W_FREEZE; past
        # that node the row must lie between the reference and the well
        ref = rk4_standing_wave(spec, e, h_z=2e-3)
        t = (ref - am) * (ap - ref)
        live = t * t * np.polynomial.polynomial.polyval(ref, prof.section.q_coef) >= profile.W_FREEZE
        assert np.abs(row - ref)[live].max() <= 1e-12
        well = np.where(tab.z > 0.0, ap, am)[~live]
        assert np.all((row[~live] - ref[~live]) * (well - ref[~live]) >= 0.0)
        assert np.all((well - row[~live]) * (well - ref[~live]) >= 0.0)
    assert tab.z.tobytes() == prof.z.tobytes()


@pytest.mark.parametrize("patched_ac, exc", [
    # a_e(u) = 1 - 2u turns negative above u = 1/2, so only panel nodes on
    # the z > 0 half-line of the patched direction see it
    ((1.0, -2.0), errors.NotElliptic),
    # a_e = 1e4 slows both half-lines; the z > 0 lane is named first
    ((1e4, 0.0), errors.ToleranceFailure),
], ids=["stall", "short"])
def test_table_failure_names_its_lane(monkeypatch, patched_ac, exc):
    spec = cubic_identity_model()
    thetas = 2.0 * np.pi * np.arange(8) / 8
    bad = np.array([np.cos(thetas[3]), np.sin(thetas[3])])
    construct = DirectionSection.__init__

    def patched(self, *args, **kwargs):
        # identity D: a_e = 1 in every row; the row of the bad direction
        # gets the patched (ascending) a_e coefficients
        construct(self, *args, **kwargs)
        a_coef = np.zeros(self.a_coef.shape[:-1] + (2,))
        a_coef[..., 0] = self.a_coef[..., 0]
        a_coef[np.all(self.e == bad, axis=-1)] = patched_ac
        self.a_coef = a_coef

    monkeypatch.setattr(DirectionSection, "__init__", patched)
    with pytest.raises(exc) as info:
        ProfileTable.build(spec, m_angles=8)
    assert f"z > 0 half-line of theta={thetas[3]:.15g}" in str(info.value)


def test_unconverged_inversion_names_direction_and_z(monkeypatch):
    # a nonconstant rate makes the linear start miss; without Newton steps
    # the residual check must fire
    spec = ModelSpec(cubic_reaction(), polynomial_diffusivity(
        [[[1.2, 0.0, 0.1], [0.2, 0.0, 0.05]],
         [[0.2, 0.0, 0.05], [0.9, 0.0, -0.05]]]), 0.02)
    monkeypatch.setattr(profile, "NEWTON_STEPS", 0)
    with pytest.raises(errors.ToleranceFailure,
                       match=r"missed z=\S+ by \S+ on direction \["):
        solve_standing_wave(spec, E1)
    with pytest.raises(errors.ToleranceFailure, match=r"missed z=\S+ by \S+ on theta=0"):
        ProfileTable.build(spec, m_angles=4)


def test_solvers_log_one_record_per_call(caplog):
    spec = cubic_identity_model()
    pattern = (r"standing waves: {} directions, {} z nodes, 800 panels, "
               r"max Newton residual = \S+, wall = \S+ s")
    with caplog.at_level(logging.DEBUG, logger="phasefront.profile"):
        ProfileTable.build(spec, m_angles=4)
        solve_standing_wave(spec, E1, z_max=10.0)
    table, wave = caplog.records
    assert re.fullmatch(pattern.format(4, 12001), table.getMessage())
    assert re.fullmatch(pattern.format(1, 20001), wave.getMessage())
