from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from helpers import PolynomialSection, quad_gk

from phasefront import errors, model
from phasefront.model import (
    DirectionSection,
    ModelSpec,
    ReactionSpec,
    a_e,
    big_a_e,
    check_unit,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    grad_e_a,
    grad_e_w,
    identity_diffusivity,
    model_from_config,
    polynomial_diffusivity,
    rotated_diagonal_diffusivity,
    shifted_cubic_reaction,
    validate_model,
    w_e,
)

SQ2 = np.sqrt(2.0)


def diag12_model(eps=0.02):
    return ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), eps)


def test_validate_cubic_identity_passes():
    rep = validate_model(cubic_identity_model())
    assert rep.passed
    # odd f against constant D: the balance integral is exactly zero
    assert np.abs(rep.equipotential_residuals).max() < 1e-12
    assert rep.ellipticity_min > 0.99


def test_validate_shifted_cubic_with_stale_roots_reports_nonbistable():
    # f has roots away from (-1, 0, 1); claiming the cubic roots must fail
    stale = ReactionSpec(Polynomial([0.1, 1.0, 0.0, -1.0]), -1.0, 0.0, 1.0)
    spec = ModelSpec(stale, identity_diffusivity(2), 0.02)
    rep = validate_model(spec)
    assert not rep.passed
    assert rep.failures[0][0] == "non-bistable"
    assert abs(rep.root_residuals[1] - 0.1) < 1e-14
    with pytest.raises(errors.NonBistable):
        rep.raise_if_failed()


def test_validate_shifted_cubic_with_refreshed_roots():
    # with roots recomputed the sign structure holds, but the well balance
    # against constant D is broken
    spec = ModelSpec(shifted_cubic_reaction(0.1), identity_diffusivity(2), 0.02)
    rep = validate_model(spec)
    assert not rep.passed
    assert any(code == "equipotential" for code, _ in rep.failures)


def test_validate_s_dependent_entry_breaks_equipotential():
    # D22(s) = 3 + s stays >= 1 on the validation range [-2, 2]
    d = diagonal_diffusivity([1.0, [3.0, 1.0]])
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    rep = validate_model(spec)
    assert not rep.passed
    assert [code for code, _ in rep.failures] == ["equipotential"]
    # int_{-1}^{1} s (s - s^3) ds = 2/3 - 2/5 = 4/15
    assert abs(rep.equipotential_residuals[1, 1] - 4.0 / 15.0) < 1e-12
    with pytest.raises(errors.EquipotentialViolated):
        rep.raise_if_failed()


@pytest.mark.parametrize("entries", [[1.0, -1e-9], [1.0, 0.0], [1.0, [2.0, 1.0]]],
                         ids=["negative", "zero", "zero-at-range-end"])
def test_validate_flags_zero_or_negative_eigenvalue(entries):
    # the last one is D22(s) = 2 + s, which vanishes at s = -2, the lower end
    # of the validation range; every direction off e2 still sees a positive form
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity(entries), 0.02)
    rep = validate_model(spec)
    assert not rep.passed
    assert rep.failures[0][0] == "not-elliptic"
    assert "minimum eigenvalue of D(s)" in rep.failures[0][1]
    assert (rep.ellipticity_min, rep.ellipticity_max) == (spec.c_lower, spec.c_upper)
    assert rep.ellipticity_min <= 0.0
    with pytest.raises(errors.NotElliptic):
        rep.raise_if_failed()


def test_validate_indefinite_matrix_not_elliptic():
    d = polynomial_diffusivity([[[0.1], [0.0]], [[0.0], [-0.2]]])
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    rep = validate_model(spec)
    assert not rep.passed
    assert any(code == "not-elliptic" for code, _ in rep.failures)


def test_a_e_values():
    spec = cubic_identity_model()
    assert a_e(spec, (1.0, 0.0), 0.37) == pytest.approx(1.0, abs=1e-15)
    spec2 = diag12_model()
    assert a_e(spec2, (0.0, 1.0), -0.4) == pytest.approx(2.0, abs=1e-15)
    e = np.array([1.0, 1.0]) / SQ2
    assert a_e(spec2, e, 0.8) == pytest.approx(1.5, abs=1e-12)


def test_a_e_rejects_non_unit_direction():
    with pytest.raises(errors.NotUnit):
        a_e(cubic_identity_model(), (1.0, 1.0), 0.0)


@pytest.mark.parametrize("e", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0)],
                         ids=["nan", "half-nan", "inf"])
def test_check_unit_rejects_non_finite_direction(e):
    with pytest.raises(errors.NotUnit):
        check_unit(e)


@pytest.mark.parametrize("e", [(1.0,), (1.0, 0.0, 0.0)], ids=["short", "long"])
def test_direction_section_rejects_wrong_dimension(e):
    with pytest.raises(errors.NotUnit):
        DirectionSection(cubic_identity_model(), e)


@pytest.mark.parametrize("fn", [a_e, grad_e_a], ids=["a_e", "grad_e_a"])
@pytest.mark.parametrize("e", [(1.0,), (1.0, 0.0, 0.0)], ids=["short", "long"])
def test_section_functions_reject_wrong_dimension(fn, e):
    with pytest.raises(errors.NotUnit):
        fn(cubic_identity_model(), e, 0.3)


def test_big_a_and_w_identity_closed_forms():
    spec = cubic_identity_model()
    e = (1.0, 0.0)
    for s in (-0.75, -0.2, 0.0, 0.33, 0.9, 1.0):
        assert big_a_e(spec, e, s) == pytest.approx(s + 1.0, abs=1e-10)
        assert w_e(spec, e, s) == pytest.approx((1 - s * s) ** 2 / 2.0, abs=1e-10)
    assert w_e(spec, e, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert big_a_e(spec, e, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_w_scales_with_constant_a():
    spec = diag12_model()
    assert w_e(spec, (0.0, 1.0), 0.0) == pytest.approx(1.0, abs=1e-12)
    # endpoints vanish for the balanced model
    assert abs(w_e(spec, (0.0, 1.0), 1.0)) < 1e-10


def test_grad_e_a_values():
    spec = cubic_identity_model()
    e = np.array([0.6, 0.8])
    assert np.allclose(grad_e_a(spec, e, 0.1), 2 * e, atol=1e-15)
    spec2 = diag12_model()
    assert np.allclose(grad_e_a(spec2, (1.0, 0.0), -0.3), [2.0, 0.0], atol=1e-15)


def test_grad_e_w_orthogonal_component_vanishes():
    spec = diag12_model()
    for s in (-0.5, 0.0, 0.7):
        g = grad_e_w(spec, (1.0, 0.0), s)
        assert abs(g[1]) < 1e-12


def _sample_specs():
    return [
        cubic_identity_model(),
        diag12_model(),
        ModelSpec(cubic_reaction(),
                  rotated_diagonal_diffusivity(0.7, [1.0, [1.5, 0.0, 0.2]]), 0.02),
        ModelSpec(cubic_reaction(),
                  polynomial_diffusivity([[[1.2, 0.0, 0.1], [0.2]],
                                          [[0.2], [0.9, 0.0, -0.05]]]), 0.02),
    ]


def test_a_e_within_ellipticity_bounds():
    rng = np.random.default_rng(7)
    for spec in _sample_specs():
        assert validate_model(spec).passed
        lo, hi = spec.validation_range
        for _ in range(100):
            e = rng.normal(size=2)
            e /= np.linalg.norm(e)
            s = rng.uniform(lo, hi)
            val = a_e(spec, e, s)
            assert spec.c_lower - 1e-12 <= val <= spec.c_upper + 1e-12


def test_w_two_quadrature_routes_agree():
    # exact polynomial w_e against an independent QUADPACK integral of -2 a_e f
    rng = np.random.default_rng(3)
    for spec in _sample_specs():
        e = rng.normal(size=2)
        e /= np.linalg.norm(e)
        r = spec.reaction
        for s in rng.uniform(-1.0, 1.0, size=6):
            gk = -2.0 * quad_gk(lambda t: a_e(spec, e, t) * r.f(t),
                                r.alpha_minus, float(s))
            assert w_e(spec, e, float(s)) == pytest.approx(gk, abs=1e-9)


def _sphere_fd(fn, e, h=1e-5):
    """Central finite difference of fn over spherically projected perturbations."""
    out = []
    for i in range(len(e)):
        ep = np.array(e, dtype=float)
        em = np.array(e, dtype=float)
        ep[i] += h
        em[i] -= h
        out.append((fn(ep / np.linalg.norm(ep)) - fn(em / np.linalg.norm(em))) / (2 * h))
    return np.asarray(out)


def test_grad_e_a_matches_projected_finite_differences():
    rng = np.random.default_rng(11)
    for spec in _sample_specs():
        e = rng.normal(size=2)
        e /= np.linalg.norm(e)
        s = rng.uniform(-0.9, 0.9)
        fd = _sphere_fd(lambda ee: a_e(spec, ee, s), e)
        proj = np.eye(2) - np.outer(e, e)
        analytic = proj @ grad_e_a(spec, e, s)
        assert np.linalg.norm(fd - analytic) <= 1e-6 * max(1.0, np.linalg.norm(analytic))


def test_direction_section_stable_forms():
    spec = cubic_identity_model()
    sec = DirectionSection(spec, (1.0, 0.0))
    s = np.linspace(-1, 1, 101)
    assert np.allclose(sec.sqrt_w(s), (1 - s * s) / SQ2, atol=1e-12)
    # tangential gradients vanish identically for the isotropic matrix
    assert np.allclose(sec.tan_grad_a(s), 0.0, atol=1e-14)
    assert np.allclose(sec.tan_ratio(s), 0.0, atol=1e-14)


SECTION_MODELS = {
    "diag": diag12_model(),
    "rotated-constant": ModelSpec(
        cubic_reaction(), rotated_diagonal_diffusivity(0.7, [1.0, 1.8]), 0.02),
    "polynomial-cross": ModelSpec(
        cubic_reaction(), polynomial_diffusivity([[[1.2, 0.0, 0.1], [0.2, 0.0, 0.03]],
                                                  [[0.2, 0.0, 0.03], [0.9, 0.0, -0.05]]]),
        0.02),
    "diag-3d": ModelSpec(
        cubic_reaction(), diagonal_diffusivity([1.0, [2.0, 0.0, 0.3], 3.0]), 0.02),
}
SECTION_COEFS = ("a", "w", "q", "grad_a", "grad_w", "tan_grad_a", "tan_grad_q")
# F of each tangential form: e . grad_e F = 2F for F quadratic in e, so the
# tangential gradient is the ambient one less 2F e, and its rounding is
# relative to the ambient size, bounded by |tangential| + 2|F|
TANGENTIAL_OF = {"tan_grad_a": "a", "tan_grad_q": "q"}


def _reference_coef(ref, name):
    """(rows, width) coefficients of a PolynomialSection form, zero-padded."""
    polys = getattr(ref, name + "_polys", None) or [getattr(ref, name + "_poly")]
    out = np.zeros((len(polys), max(len(p.coef) for p in polys)))
    for i, p in enumerate(polys):
        out[i, :len(p.coef)] = p.coef
    return out


def _assert_close(new, ref, what, normal=0.0):
    """new within 1e-14 of ref, relative to |ref| + normal, the rows zero-padded."""
    new, ref = np.atleast_2d(new), np.atleast_2d(ref)
    width = max(new.shape[-1], ref.shape[-1])
    new = np.pad(new, [(0, 0), (0, width - new.shape[-1])])
    ref = np.pad(ref, [(0, 0), (0, width - ref.shape[-1])])
    err = np.abs(new - ref).max()
    assert err <= 1e-14 * (np.abs(ref).max() + normal), f"{what}: {err:.3e}"


@pytest.mark.parametrize("spec", SECTION_MODELS.values(), ids=SECTION_MODELS.keys())
def test_direction_section_matches_polynomial_reference(spec):
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(64, spec.diffusivity.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    stack = DirectionSection(spec, dirs)
    s = np.linspace(-1.0, 1.0, 101)
    for j, e in enumerate(dirs):
        alone = DirectionSection(spec, e)
        ref = PolynomialSection(spec, e)
        for name in SECTION_COEFS:
            coef = getattr(alone, name + "_coef")
            # a row of the stack is the section of its direction alone
            assert getattr(stack, name + "_coef")[j].tobytes() == coef.tobytes(), name
            normal = 0.0
            if name in TANGENTIAL_OF:
                normal = 2.0 * np.abs(_reference_coef(ref, TANGENTIAL_OF[name])).max()
            _assert_close(coef, _reference_coef(ref, name), name, normal)
        _assert_close(alone.a(s), ref.a(s), "a")
        _assert_close(alone.w(s), ref.w(s), "w")
        _assert_close(alone.sqrt_w(s), ref.sqrt_w(s), "sqrt_w")
        _assert_close(alone.tan_grad_a(s), ref.tan_grad_a(s), "tan_grad_a",
                      2.0 * np.abs(ref.a(s)).max())
        _assert_close(alone.tan_ratio(s), ref.tan_ratio(s), "tan_ratio", 2.0)


def test_direction_section_rejects_unbalanced_model():
    d = diagonal_diffusivity([1.0, [2.0, 1.0]])
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    with pytest.raises(errors.EquipotentialViolated):
        DirectionSection(spec, (0.0, 1.0))


def test_direction_section_builds_no_coefficient_map(monkeypatch):
    # the maps are the model's; a section only contracts e with them
    spec = SECTION_MODELS["polynomial-cross"]

    def no_poly_algebra(*args, **kwargs):
        raise AssertionError("a section must not build coefficient maps")

    poly = SimpleNamespace(**vars(model.P))
    for name in ("polydiv", "polyint", "polyfromroots"):
        setattr(poly, name, no_poly_algebra)
    monkeypatch.setattr(model, "P", poly)
    theta = 2.0 * np.pi * np.arange(64) / 64
    DirectionSection(spec, (0.6, 0.8))
    DirectionSection(spec, np.stack([np.cos(theta), np.sin(theta)], axis=-1))


def test_model_from_config_and_unknown_fields():
    cfg = {
        "reaction": {"kind": "cubic", "coeffs": []},
        "diffusivity": {"kind": "diag", "params": {"entries": [1.0, 2.0]}},
        "epsilon": 0.02,
    }
    spec = model_from_config(cfg)
    assert spec.reaction.roots == (-1.0, 0.0, 1.0)
    assert spec.c_upper == pytest.approx(2.0)

    with pytest.raises(errors.ConfigError):
        model_from_config({**cfg, "extra": 1})
    bad = dict(cfg)
    bad["reaction"] = {"kind": "cubic", "coeffs": [], "oops": True}
    with pytest.raises(errors.ConfigError):
        model_from_config(bad)
    bad = dict(cfg)
    bad["diffusivity"] = {"kind": "diag", "params": {"entries": [1, 2], "junk": 0}}
    with pytest.raises(errors.ConfigError):
        model_from_config(bad)
