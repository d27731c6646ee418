"""Reaction term, diffusivity tensor, structural validation, and the derived
direction-dependent section functions.

All supported reaction and diffusivity descriptors are polynomial in the order
parameter s, so the section functions

    a_e(s) = e . D(s) e,
    A_e(s) = int_{a-}^{s} a_e,
    W_e(s) = -2 int_{a-}^{s} a_e f,

and their e-gradients have exact polynomial representations.
:class:`DirectionSection` carries these forms, including the deflated ratios
that make the endpoint behaviour of the mobility integrands numerically
benign; the public ``big_a_e``/``w_e``/``grad_e_w`` operations evaluate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (
    ConfigError,
    EquipotentialViolated,
    NegativeW,
    NonBistable,
    NotElliptic,
    NotUnit,
)

_UNIT_TOL = 1e-9
# relative remainder above which W_e is taken not to vanish doubly at a well
_DEFLATE_TOL = 1e-6


def _as_poly(coeffs) -> Polynomial:
    if isinstance(coeffs, Polynomial):
        return coeffs
    if np.isscalar(coeffs):
        return Polynomial([float(coeffs)])
    return Polynomial(np.asarray(coeffs, dtype=float))


def check_unit(e) -> np.ndarray:
    """Return e as a float vector, raising NotUnit if it is off the sphere."""
    e = np.asarray(e, dtype=float)
    if not abs(np.linalg.norm(e) - 1.0) <= _UNIT_TOL:
        raise NotUnit(f"direction {e} has |e| = {np.linalg.norm(e):.12f}")
    return e


def _integ_from(p: Polynomial, lower: float) -> Polynomial:
    prim = p.integ()
    return prim - prim(lower)


# ---------------------------------------------------------------------------
# reaction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReactionSpec:
    """Bistable reaction term with stable roots alpha_minus/alpha_plus and an
    unstable middle root alpha_mid."""

    poly: Polynomial
    alpha_minus: float
    alpha_mid: float
    alpha_plus: float

    def f(self, u):
        return self.poly(u)

    def f_prime(self, u):
        return self.poly.deriv()(u)

    def f_second(self, u):
        return self.poly.deriv(2)(u)

    @property
    def nu(self) -> float:
        return float(self.poly.deriv()(self.alpha_mid))

    @property
    def eta0(self) -> float:
        return min(self.alpha_plus - self.alpha_mid, self.alpha_mid - self.alpha_minus)

    @property
    def roots(self) -> tuple[float, float, float]:
        return (self.alpha_minus, self.alpha_mid, self.alpha_plus)

    def max_abs_f_prime(self, lo: float, hi: float) -> float:
        """Exact max of |f'| over [lo, hi] via the critical points of f'."""
        fp = self.poly.deriv()
        candidates = [lo, hi]
        for r in fp.deriv().roots():
            if abs(r.imag) < 1e-12 and lo <= r.real <= hi:
                candidates.append(float(r.real))
        return max(abs(float(fp(c))) for c in candidates)


def _three_real_roots(p: Polynomial) -> tuple[float, float, float]:
    roots = [float(r.real) for r in p.roots() if abs(r.imag) < 1e-9]
    roots = sorted(set(np.round(roots, 14)))
    if len(roots) != 3:
        raise NonBistable(f"expected 3 simple real roots, found {roots}")
    return roots[0], roots[1], roots[2]


def cubic_reaction(amplitude: float = 1.0) -> ReactionSpec:
    """f(u) = amplitude * (u - u^3) with roots (-1, 0, 1)."""
    p = Polynomial([0.0, amplitude, 0.0, -amplitude])
    return ReactionSpec(p, -1.0, 0.0, 1.0)


def shifted_cubic_reaction(shift: float) -> ReactionSpec:
    p = Polynomial([shift, 1.0, 0.0, -1.0])
    rm, r0, rp = _three_real_roots(p)
    return ReactionSpec(p, rm, r0, rp)


def polynomial_reaction(coeffs: Sequence[float]) -> ReactionSpec:
    p = _as_poly(list(coeffs))
    rm, r0, rp = _three_real_roots(p)
    return ReactionSpec(p, rm, r0, rp)


def reaction_from_config(cfg: dict) -> ReactionSpec:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    coeffs = cfg.pop("coeffs", [])
    if cfg:
        raise ConfigError(f"unknown reaction fields: {sorted(cfg)}")
    if kind == "cubic":
        return cubic_reaction(*([float(coeffs[0])] if coeffs else []))
    if kind == "shifted-cubic":
        if len(coeffs) != 1:
            raise ConfigError("shifted-cubic takes a single shift coefficient")
        return shifted_cubic_reaction(float(coeffs[0]))
    if kind == "poly":
        return polynomial_reaction(coeffs)
    raise ConfigError(f"unknown reaction kind {kind!r}")


# ---------------------------------------------------------------------------
# diffusivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusivitySpec:
    """Symmetric matrix D(s) with polynomial entries."""

    entries: tuple[tuple[Polynomial, ...], ...]
    dim: int
    c_lower: float | None = None
    c_upper: float | None = None

    def __post_init__(self):
        n = self.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ConfigError("diffusivity entry matrix shape does not match dim")
        for i in range(n):
            for j in range(i + 1, n):
                di, dj = self.entries[i][j], self.entries[j][i]
                if not np.allclose(di.coef, dj.coef, rtol=0, atol=1e-14):
                    raise ConfigError("diffusivity entries are not symmetric")

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def d_matrix(self, s):
        """D(s); shape (N, N) for scalar s, (N, N) + s.shape for arrays."""
        s = np.asarray(s, dtype=float)
        out = np.empty((self.dim, self.dim) + s.shape)
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = self.entries[i][j](s)
        return out

    def eig_bounds(self, lo: float, hi: float, n_samples: int = 1024):
        """Sampled (min, max) eigenvalues of D(s) over [lo, hi]."""
        s = np.linspace(lo, hi, n_samples)
        mats = np.moveaxis(self.d_matrix(s), -1, 0)
        eigs = np.linalg.eigvalsh(mats)
        return float(eigs.min()), float(eigs.max())


def identity_diffusivity(dim: int = 2) -> DiffusivitySpec:
    one, zero = Polynomial([1.0]), Polynomial([0.0])
    rows = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
    return DiffusivitySpec(rows, dim)


def diagonal_diffusivity(entries: Sequence) -> DiffusivitySpec:
    dim = len(entries)
    zero = Polynomial([0.0])
    rows = tuple(tuple(_as_poly(entries[i]) if i == j else zero for j in range(dim))
                 for i in range(dim))
    return DiffusivitySpec(rows, dim)


def rotated_diagonal_diffusivity(angle: float, entries: Sequence) -> DiffusivitySpec:
    """R(angle) diag(p1, p2) R(angle)^T with polynomial diagonal entries (2-D)."""
    if len(entries) != 2:
        raise ConfigError("rotation-conjugated diffusivity is 2-D only")
    p1, p2 = _as_poly(entries[0]), _as_poly(entries[1])
    c, s = np.cos(angle), np.sin(angle)
    d11 = p1 * (c * c) + p2 * (s * s)
    d22 = p1 * (s * s) + p2 * (c * c)
    d12 = (p1 - p2) * (c * s)
    return DiffusivitySpec(((d11, d12), (d12, d22)), 2)


def polynomial_diffusivity(entry_coeffs: Sequence[Sequence]) -> DiffusivitySpec:
    dim = len(entry_coeffs)
    rows = tuple(tuple(_as_poly(entry_coeffs[i][j]) for j in range(dim))
                 for i in range(dim))
    return DiffusivitySpec(rows, dim)


def diffusivity_from_config(cfg: dict) -> DiffusivitySpec:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    params = dict(cfg.pop("params", {}))
    if cfg:
        raise ConfigError(f"unknown diffusivity fields: {sorted(cfg)}")

    def take(name, default=None, required=False):
        if required and name not in params:
            raise ConfigError(f"diffusivity kind {kind!r} needs param {name!r}")
        return params.pop(name, default)

    if kind == "identity":
        spec = identity_diffusivity(int(take("dim", 2)))
    elif kind == "diag":
        spec = diagonal_diffusivity(take("entries", required=True))
    elif kind == "rotation-conjugated-diag":
        spec = rotated_diagonal_diffusivity(float(take("angle", required=True)),
                                            take("entries", required=True))
    elif kind == "poly":
        spec = polynomial_diffusivity(take("entries", required=True))
    else:
        raise ConfigError(f"unknown diffusivity kind {kind!r}")
    if params:
        raise ConfigError(f"unknown diffusivity params: {sorted(params)}")
    return spec


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Full model: reaction + diffusivity + interface width epsilon."""

    reaction: ReactionSpec
    diffusivity: DiffusivitySpec
    epsilon: float
    c_lower: float = field(init=False)
    c_upper: float = field(init=False)

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        lo, hi = self.validation_range
        cl, cu = self.diffusivity.c_lower, self.diffusivity.c_upper
        if cl is None or cu is None:
            cl, cu = self.diffusivity.eig_bounds(lo, hi)
        object.__setattr__(self, "c_lower", cl)
        object.__setattr__(self, "c_upper", cu)

    @property
    def validation_range(self) -> tuple[float, float]:
        r = self.reaction
        return (r.alpha_minus - 1.0, r.alpha_plus + 1.0)

    def with_epsilon(self, epsilon: float) -> "ModelSpec":
        return ModelSpec(self.reaction, self.diffusivity, epsilon)


def model_from_config(cfg: dict) -> ModelSpec:
    cfg = dict(cfg)
    try:
        reaction = reaction_from_config(cfg.pop("reaction"))
        diffusivity = diffusivity_from_config(cfg.pop("diffusivity"))
        epsilon = float(cfg.pop("epsilon"))
    except KeyError as exc:
        raise ConfigError(f"model config missing field {exc}") from exc
    if cfg:
        raise ConfigError(f"unknown model fields: {sorted(cfg)}")
    return ModelSpec(reaction, diffusivity, epsilon)


def cubic_identity_model(epsilon: float = 0.02) -> ModelSpec:
    return ModelSpec(cubic_reaction(), identity_diffusivity(2), epsilon)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    passed: bool
    root_residuals: tuple[float, float, float]
    sign_values: tuple[float, float, float]       # f'(a-), f'(a), f'(a+)
    ellipticity_min: float
    ellipticity_max: float
    equipotential_residuals: np.ndarray           # (N, N)
    failures: list[tuple[str, str]]

    def raise_if_failed(self) -> None:
        if self.passed:
            return
        code, msg = self.failures[0]
        exc = {"non-bistable": NonBistable,
               "not-elliptic": NotElliptic,
               "equipotential": EquipotentialViolated}[code]
        raise exc(msg)


def validate_model(spec: ModelSpec, n_samples: int = 1024, tol: float = 1e-8,
                   n_directions: int = 256, seed: int = 0) -> ValidationReport:
    """Check the bistable, ellipticity, and equipotential conditions.

    Sampling is deterministic: s on a uniform grid over the validation range,
    directions from a seeded generator.
    """
    r, d = spec.reaction, spec.diffusivity
    failures: list[tuple[str, str]] = []

    root_res = tuple(abs(float(r.f(a))) for a in r.roots)
    if max(root_res) > tol:
        failures.append(("non-bistable",
                         f"root residuals {root_res} exceed tol {tol:g}"))
    if not (r.alpha_minus < r.alpha_mid < r.alpha_plus):
        failures.append(("non-bistable", "roots are not ordered"))
    signs = (float(r.f_prime(r.alpha_minus)), float(r.f_prime(r.alpha_mid)),
             float(r.f_prime(r.alpha_plus)))
    if not (signs[0] < 0.0 and signs[1] > 0.0 and signs[2] < 0.0):
        failures.append(("non-bistable", f"f' signs at roots are {signs}"))

    lo, hi = spec.validation_range
    s_grid = np.linspace(lo, hi, n_samples)
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=(n_directions, d.dim))
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    dmats = np.moveaxis(d.d_matrix(s_grid), -1, 0)          # (n_samples, N, N)
    forms = np.einsum("sij,ki,kj->sk", dmats, eta, eta)
    ell_min, ell_max = float(forms.min()), float(forms.max())
    if ell_min <= 0.0:
        failures.append(("not-elliptic",
                         f"sampled quadratic form reaches {ell_min:.3e}"))

    am, ap = r.alpha_minus, r.alpha_plus
    equi = np.empty((d.dim, d.dim))
    for i in range(d.dim):
        for j in range(d.dim):
            prod = d.entry(i, j) * r.poly
            prim = prod.integ()
            equi[i, j] = float(prim(ap) - prim(am))
    if np.abs(equi).max() > tol:
        failures.append(("equipotential",
                         f"max equipotential residual {np.abs(equi).max():.3e} > {tol:g}"))

    return ValidationReport(
        passed=not failures,
        root_residuals=root_res,
        sign_values=signs,
        ellipticity_min=ell_min,
        ellipticity_max=ell_max,
        equipotential_residuals=equi,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# section functions
# ---------------------------------------------------------------------------

def a_e(spec: ModelSpec, e, s):
    """e . D(s) e for a unit direction e."""
    val = DirectionSection(spec, e, check=False).a(np.asarray(s, dtype=float))
    return float(val) if np.ndim(val) == 0 else val


def big_a_e(spec: ModelSpec, e, s: float) -> float:
    """A_e(s): integral of a_e from alpha_minus, exact."""
    sec = DirectionSection(spec, e, check=False)
    return float(_integ_from(sec.a_poly, spec.reaction.alpha_minus)(s))


def w_e(spec: ModelSpec, e, s: float, tol: float = 1e-10) -> float:
    """W_e(s) = -2 int a_e f from alpha_minus, exact.

    Raises NegativeW if W_e(s) < -tol for s strictly between the wells.
    """
    r = spec.reaction
    val = float(DirectionSection(spec, e, check=False).w(s))
    if r.alpha_minus < s < r.alpha_plus and val < -tol:
        raise NegativeW(f"W_e({s}) = {val:.3e} < 0 inside the well interval")
    return val


def grad_e_a(spec: ModelSpec, e, s):
    """Ambient gradient d a_e / d e_i = 2 (D(s) e)_i, analytic."""
    s = np.asarray(s, dtype=float)
    return np.stack([g(s) for g in DirectionSection(spec, e, check=False).grad_a_polys])


def grad_e_w(spec: ModelSpec, e, s: float) -> np.ndarray:
    """Ambient gradient of W_e at s: -2 int grad_e_a * f, exact."""
    sec = DirectionSection(spec, e, check=False)
    return np.array([float(g(s)) for g in sec.grad_w_polys])


# ---------------------------------------------------------------------------
# per-direction polynomial cache
# ---------------------------------------------------------------------------

def _deflate(p: Polynomial, roots: Sequence[float]) -> tuple[Polynomial, float]:
    """Divide out (s - r) for each r, returning quotient and max remainder."""
    q = p
    worst = 0.0
    for r in roots:
        q, rem = divmod(q, Polynomial([-r, 1.0]))
        if rem.coef.size:
            worst = max(worst, abs(float(rem.coef[0])))
    return q, worst


class DirectionSection:
    """Exact polynomial forms of a_e, W_e and their e-gradients for one e.

    The deflated quotients q = W_e / ((s-a-)^2 (a+-s)^2) and the analogous
    quotients of the tangential W-gradients stay smooth and sign-definite
    through the double roots at the wells, so ratios like grad W_e / W_e are
    evaluated without cancellation.
    """

    def __init__(self, spec: ModelSpec, e, *, check: bool = True):
        e = check_unit(e)
        self.spec = spec
        self.e = e
        r, d = spec.reaction, spec.diffusivity
        n = d.dim
        if e.shape != (n,):
            raise NotUnit(f"direction {e} is not a unit {n}-vector")
        self.alpha_minus, self.alpha_plus = r.alpha_minus, r.alpha_plus

        a_poly = Polynomial([0.0])
        for i in range(n):
            for j in range(n):
                a_poly = a_poly + (e[i] * e[j]) * d.entry(i, j)
        self.a_poly = a_poly
        self.w_poly = -2.0 * _integ_from(a_poly * r.poly, r.alpha_minus)

        self.grad_a_polys = []
        self.grad_w_polys = []
        for i in range(n):
            g = Polynomial([0.0])
            for j in range(n):
                g = g + (2.0 * e[j]) * d.entry(i, j)
            self.grad_a_polys.append(g)
            self.grad_w_polys.append(-2.0 * _integ_from(g * r.poly, r.alpha_minus))

        proj = np.eye(n) - np.outer(e, e)
        self.tan_grad_a_polys = [sum((proj[i, k] * self.grad_a_polys[k]
                                      for k in range(n)), Polynomial([0.0]))
                                 for i in range(n)]
        self.tan_grad_w_polys = [sum((proj[i, k] * self.grad_w_polys[k]
                                      for k in range(n)), Polynomial([0.0]))
                                 for i in range(n)]

        ends = [r.alpha_minus, r.alpha_minus, r.alpha_plus, r.alpha_plus]
        scale = max(1e-30, float(np.abs(self.w_poly.coef).max()))
        self.q_poly, rem = _deflate(self.w_poly, ends)
        if check and rem > _DEFLATE_TOL * scale:
            raise EquipotentialViolated(
                f"W_e does not vanish doubly at the wells (residual {rem:.3e}); "
                "model fails the equipotential condition")
        self.tan_grad_q_polys = []
        for g in self.tan_grad_w_polys:
            gq, grem = _deflate(g, ends)
            if check and grem > _DEFLATE_TOL * max(scale, float(np.abs(g.coef).max()) if g.coef.size else 0.0):
                raise EquipotentialViolated(
                    f"tangential W-gradient residual {grem:.3e} at the wells")
            self.tan_grad_q_polys.append(gq)

        if check:
            ss = np.linspace(r.alpha_minus, r.alpha_plus, 513)
            qv = self.q_poly(ss)
            if qv.min() <= 0.0:
                raise NegativeW(
                    f"deflated well potential reaches {qv.min():.3e} <= 0")

    # -- evaluations (vectorized over s) --------------------------------------

    def a(self, s):
        return self.a_poly(s)

    def w(self, s):
        return self.w_poly(s)

    def sqrt_w(self, s):
        """sqrt(W_e) in the stable factored form, >= 0 on [a-, a+]."""
        s = np.asarray(s, dtype=float)
        t = (s - self.alpha_minus) * (self.alpha_plus - s)
        return np.abs(t) * np.sqrt(np.maximum(self.q_poly(s), 0.0))

    def tan_grad_a(self, s):
        return np.stack([g(np.asarray(s, dtype=float)) for g in self.tan_grad_a_polys])

    def tan_ratio(self, s):
        """Tangential grad W_e / W_e via the deflated quotients; finite at the wells."""
        s = np.asarray(s, dtype=float)
        qv = self.q_poly(s)
        return np.stack([g(s) / qv for g in self.tan_grad_q_polys])

    # -- fast scalar path for the profile integrator --------------------------

    def slope_coefficients(self):
        """(q, a) coefficient tuples (highest power first) for Horner loops."""
        return (tuple(self.q_poly.coef[::-1]), tuple(self.a_poly.coef[::-1]),
                self.alpha_minus, self.alpha_plus)
