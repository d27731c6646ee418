"""Reaction term, diffusivity tensor, structural validation, and the derived
direction-dependent section functions.

All supported reaction and diffusivity descriptors are polynomial in the order
parameter s, so the section functions

    a_e(s) = e . D(s) e,
    A_e(s) = int_{a-}^{s} a_e,
    W_e(s) = -2 int_{a-}^{s} a_e f,

and their e-gradients have exact polynomial representations: contractions of
e with the coefficient tensor of D, then three fixed coefficient maps (to W,
and to the quotient and remainder of W by (s-a-)^2 (a+-s)^2).
:class:`DirectionSection` holds these coefficient arrays for one direction or
a stack of them; the public ``a_e``/``w_e``/... operations evaluate one.

Everything that depends only on (f, D) is computed once per model: the
diffusivity keeps its coefficient tensor, and :class:`ModelSpec` holds the
eigenvalue extremes of D(s) on the validation grid and the three coefficient
maps. :func:`validate_model` reads the same extremes for its ellipticity check
and applies the W map to D's tensor for the equipotential residuals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

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
W_TOL = 1e-10               # w_e raises NegativeW below -W_TOL between the wells
S_SAMPLES = 1024            # s samples of the eigenvalue extremes of D(s)


def _as_poly(coeffs) -> Polynomial:
    if isinstance(coeffs, Polynomial):
        return coeffs
    if np.isscalar(coeffs):
        return Polynomial([float(coeffs)])
    return Polynomial(np.asarray(coeffs, dtype=float))


def config_object(value, name: str) -> dict:
    """A copy of the config value ``name``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def config_fields(value, name: str, required, optional: dict) -> dict:
    """The fields of the config object ``name``: a JSON object holding every
    field of ``required`` and no field outside ``required`` and ``optional``.

    ``optional`` maps each optional field to its default, filled in where
    the field is absent; a None default leaves an absent field out.
    """
    cfg = config_object(value, name)
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{name} is missing field {key!r}")
    if unknown := cfg.keys() - set(required) - optional.keys():
        raise ConfigError(f"{name}: unknown {name} fields {sorted(unknown)}")
    return {**{k: v for k, v in optional.items() if v is not None}, **cfg}


def config_kind(value, name: str, kinds) -> str:
    """``value``, the kind of the config object ``name``, one of ``kinds``."""
    if not isinstance(value, str) or value not in kinds:
        raise ConfigError(f"unknown {name} kind {value!r}")
    return value


def config_params(value, name: str, kinds: dict) -> tuple[str, dict]:
    """The kind and the params of the {"kind", "params"} config object
    ``name``; ``kinds`` maps each kind to the (required, optional) fields of
    its params, as :func:`config_fields` takes them."""
    cfg = config_fields(value, name, ("kind",), {"params": {}})
    kind = config_kind(cfg["kind"], name, kinds)
    return kind, config_fields(cfg["params"], f"{name} params", *kinds[kind])


def config_number(value, name: str, *, whole: bool = False):
    """The config value ``name``, which must be a finite number (not a
    bool), as a float, or as an int when ``whole`` asks for a whole one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if not whole:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def config_numbers(value, name: str) -> tuple[float, ...]:
    """The config value ``name``, which must be a list of finite numbers,
    as floats."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(config_number(x, f"{name}[{i}]") for i, x in enumerate(value))


def _config_list(value, name: str, item=config_number) -> tuple:
    """The config value ``name``, a nonempty list, with item(x, name[i])
    applied to each element x."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
    return tuple(item(x, f"{name}[{i}]") for i, x in enumerate(value))


def _config_entry(value, name: str):
    """A diffusivity entry: a finite number or a nonempty list of them, the
    ascending coefficients of a polynomial in s."""
    if isinstance(value, (list, tuple)):
        return _config_list(value, name)
    return config_number(value, name)


def check_unit(e) -> np.ndarray:
    """Return e as a float array of directions along its last axis, raising
    NotUnit for the first one that is off the sphere."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    norm = np.linalg.norm(e, axis=-1)
    off = np.flatnonzero(~(np.abs(norm - 1.0) <= _UNIT_TOL))
    if off.size:
        raise NotUnit(f"direction {e.reshape(-1, e.shape[-1])[off[0]]} has "
                      f"|e| = {norm.flat[off[0]]:.12f}")
    return e


def _horner(coef: np.ndarray, s):
    """Values at s of ascending coefficients along the last axis of coef;
    shape coef.shape[:-1] + s.shape."""
    s = np.asarray(s, dtype=float)
    c = coef.reshape(coef.shape[:-1] + (1,) * s.ndim + coef.shape[-1:])
    out = c[..., -1] + 0.0 * s
    for k in range(coef.shape[-1] - 2, -1, -1):
        out = out * s + c[..., k]
    return out


def _apply(x: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """sum_k x[..., k] (outer) maps[k], one product per k in a fixed order.

    Only elementwise products and sums, so a row of a stacked x comes out
    with the same bytes as that row alone (a matmul would not).
    """
    return sum(np.multiply.outer(x[..., k], maps[k]) for k in range(len(maps)))


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
    cfg = config_fields(cfg, "reaction", ("kind",), {"coeffs": []})
    kind = config_kind(cfg["kind"], "reaction", ("cubic", "shifted-cubic", "poly"))
    coeffs = config_numbers(cfg["coeffs"], "reaction coeffs")
    if kind == "cubic":
        return cubic_reaction(*coeffs[:1])
    if kind == "shifted-cubic":
        if len(coeffs) != 1:
            raise ConfigError("shifted-cubic takes a single shift coefficient")
        return shifted_cubic_reaction(coeffs[0])
    return polynomial_reaction(coeffs)


# ---------------------------------------------------------------------------
# diffusivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusivitySpec:
    """Symmetric matrix D(s) with polynomial entries."""

    entries: tuple[tuple[Polynomial, ...], ...]
    dim: int
    # (N, N, p) ascending coefficients of the entries, zero-padded
    coef: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ConfigError("diffusivity entry matrix shape does not match dim")
        for i in range(n):
            for j in range(i + 1, n):
                di, dj = self.entries[i][j], self.entries[j][i]
                if not np.allclose(di.coef, dj.coef, rtol=0, atol=1e-14):
                    raise ConfigError("diffusivity entries are not symmetric")
        p = max(len(c.coef) for row in self.entries for c in row)
        object.__setattr__(self, "coef", np.array(
            [[np.pad(c.coef, (0, p - len(c.coef))) for c in row]
             for row in self.entries]))

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def d_matrix(self, s):
        """D(s); shape (N, N) for scalar s, (N, N) + s.shape for arrays."""
        return _horner(self.coef, s)

    def eigenvalues(self, s) -> np.ndarray:
        """Ascending eigenvalues of D(s); shape s.shape + (N,)."""
        return np.linalg.eigvalsh(np.moveaxis(self.d_matrix(s), (0, 1), (-2, -1)))


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
    rows = tuple(tuple(_as_poly(c) for c in row) for row in entry_coeffs)
    return DiffusivitySpec(rows, len(rows))


# each diffusivity kind's required params and its optional ones with defaults
_DIFFUSIVITY_PARAMS = {
    "identity": ((), {"dim": 2}),
    "diag": (("entries",), {}),
    "rotation-conjugated-diag": (("angle", "entries"), {}),
    "poly": (("entries",), {}),
}


def diffusivity_from_config(cfg: dict) -> DiffusivitySpec:
    kind, params = config_params(cfg, "diffusivity", _DIFFUSIVITY_PARAMS)

    def entries(item=_config_entry):
        return _config_list(params["entries"], "diffusivity entries", item)

    if kind == "identity":
        return identity_diffusivity(
            config_number(params["dim"], "diffusivity dim", whole=True))
    if kind == "diag":
        return diagonal_diffusivity(entries())
    if kind == "rotation-conjugated-diag":
        return rotated_diagonal_diffusivity(
            config_number(params["angle"], "diffusivity angle"), entries())
    return polynomial_diffusivity(entries(
        lambda row, name: _config_list(row, name, _config_entry)))


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Full model: reaction + diffusivity + interface width epsilon.

    Construction derives what depends only on (f, D): c_lower/c_upper, the
    extreme eigenvalues of D(s) on S_SAMPLES points of the validation range,
    and the three coefficient maps of every DirectionSection. Row k of
    ``w_map`` holds W of a_e = s^k; rows k of ``q_map``/``rem_map`` hold the
    quotient and remainder of s^k by (s-a-)^2 (a+-s)^2.
    """

    reaction: ReactionSpec
    diffusivity: DiffusivitySpec
    epsilon: float
    c_lower: float = field(init=False)
    c_upper: float = field(init=False)
    w_map: np.ndarray = field(init=False, compare=False, repr=False)
    q_map: np.ndarray = field(init=False, compare=False, repr=False)
    rem_map: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        r, d = self.reaction, self.diffusivity
        eigs = d.eigenvalues(np.linspace(*self.validation_range, S_SAMPLES))
        object.__setattr__(self, "c_lower", float(eigs.min()))
        object.__setattr__(self, "c_upper", float(eigs.max()))

        f, am, ap = r.poly.coef, r.alpha_minus, r.alpha_plus
        p = d.coef.shape[-1]
        size = p + len(f)
        eye = np.eye(size)
        w_rows = [-2.0 * P.polyint(P.polymul(eye[k, :p], f), lbnd=am) for k in range(p)]
        wells = P.polyfromroots([am, am, ap, ap])
        div = [P.polydiv(u, wells) for u in eye]
        object.__setattr__(self, "w_map", np.array(
            [np.pad(c, (0, size - len(c))) for c in w_rows]))
        object.__setattr__(self, "q_map", np.array(
            [np.pad(q, (0, size - 4 - len(q))) for q, _ in div]))
        object.__setattr__(self, "rem_map", np.array(
            [np.pad(rem, (0, 4 - len(rem))) for _, rem in div]))

    @property
    def validation_range(self) -> tuple[float, float]:
        r = self.reaction
        return (r.alpha_minus - 1.0, r.alpha_plus + 1.0)

    def with_epsilon(self, epsilon: float) -> "ModelSpec":
        return ModelSpec(self.reaction, self.diffusivity, epsilon)


def model_from_config(cfg: dict) -> ModelSpec:
    cfg = config_fields(cfg, "model", ("reaction", "diffusivity", "epsilon"), {})
    return ModelSpec(reaction_from_config(cfg["reaction"]),
                     diffusivity_from_config(cfg["diffusivity"]),
                     config_number(cfg["epsilon"], "model epsilon"))


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


def validate_model(spec: ModelSpec, tol: float = 1e-8) -> ValidationReport:
    """Check the bistable, ellipticity, and equipotential conditions.

    The ellipticity extremes are the model's c_lower/c_upper: the exact
    extreme eigenvalues of D(s) on S_SAMPLES points of the validation range,
    with no sampling of directions. The equipotential residuals
    int_{a-}^{a+} D_ij f are -1/2 times the W map of D's coefficient tensor
    at alpha_plus.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol!r}")
    r = spec.reaction
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

    if spec.c_lower <= 0.0:
        lo, hi = spec.validation_range
        failures.append(("not-elliptic",
                         f"minimum eigenvalue of D(s) on [{lo:g}, {hi:g}] "
                         f"is {spec.c_lower:.3e}"))

    equi = -0.5 * _horner(_apply(spec.diffusivity.coef, spec.w_map), r.alpha_plus)
    if np.abs(equi).max() > tol:
        failures.append(("equipotential",
                         f"max equipotential residual {np.abs(equi).max():.3e} > {tol:g}"))

    return ValidationReport(
        passed=not failures,
        root_residuals=root_res,
        sign_values=signs,
        ellipticity_min=spec.c_lower,
        ellipticity_max=spec.c_upper,
        equipotential_residuals=equi,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# section functions
# ---------------------------------------------------------------------------

def a_e(spec: ModelSpec, e, s):
    """e . D(s) e for a unit direction e."""
    val = DirectionSection(spec, e, check=False).a(s)
    return float(val) if np.ndim(val) == 0 else val


def big_a_e(spec: ModelSpec, e, s: float) -> float:
    """A_e(s): integral of a_e from alpha_minus, exact."""
    sec = DirectionSection(spec, e, check=False)
    return float(_horner(P.polyint(sec.a_coef, lbnd=sec.alpha_minus, axis=-1), s))


def w_e(spec: ModelSpec, e, s: float) -> float:
    """W_e(s) = -2 int a_e f from alpha_minus, exact.

    Raises NegativeW if W_e(s) < -W_TOL for s strictly between the wells.
    """
    r = spec.reaction
    val = float(DirectionSection(spec, e, check=False).w(s))
    if r.alpha_minus < s < r.alpha_plus and val < -W_TOL:
        raise NegativeW(f"W_e({s}) = {val:.3e} < 0 inside the well interval")
    return val


def grad_e_a(spec: ModelSpec, e, s):
    """Ambient gradient d a_e / d e_i = 2 (D(s) e)_i, analytic."""
    return _horner(DirectionSection(spec, e, check=False).grad_a_coef, s)


def grad_e_w(spec: ModelSpec, e, s: float) -> np.ndarray:
    """Ambient gradient of W_e at s: -2 int grad_e_a * f, exact."""
    return _horner(DirectionSection(spec, e, check=False).grad_w_coef, s)


# ---------------------------------------------------------------------------
# coefficient arrays over a stack of directions
# ---------------------------------------------------------------------------

class DirectionSection:
    """Exact coefficients of a_e, W_e and their e-gradients for a unit
    direction e of shape (n,) or a stack of directions of shape (..., n).

    Each ``*_coef`` array holds ascending powers of s on its last axis, after
    the leading axes of e and, for gradients, the component axis i. The
    quotients q = W_e / ((s-a-)^2 (a+-s)^2) and tan_grad_q of the tangential
    W-gradients stay smooth and sign-definite through the double roots at the
    wells, so ratios like grad W_e / W_e are evaluated without cancellation.
    A row of a stack equals, byte for byte, the section of its direction.
    """

    def __init__(self, spec: ModelSpec, e, *, check: bool = True):
        e = check_unit(e)
        r, d = spec.reaction, spec.diffusivity
        n = d.dim
        if e.shape[-1:] != (n,):
            raise NotUnit(f"direction {e} is not a unit {n}-vector")
        self.e = e
        am, ap = self.alpha_minus, self.alpha_plus = r.alpha_minus, r.alpha_plus
        w_map, q_map, rem_map = spec.w_map, spec.q_map, spec.rem_map

        # D e, then a_e = e . D e and its sphere-tangential gradient
        de = _apply(e, d.coef.swapaxes(0, 1))
        self.grad_a_coef = 2.0 * de
        self.a_coef = sum(e[..., i, None] * de[..., i, :] for i in range(n))
        # e . grad a_e = 2 a_e, so the tangential part drops 2 a_e e
        normal = e[..., None] * (2.0 * self.a_coef)[..., None, :]
        self.tan_grad_a_coef = self.grad_a_coef - normal
        self.w_coef = _apply(self.a_coef, w_map)
        self.grad_w_coef = _apply(self.grad_a_coef, w_map)
        tan_grad_w = _apply(self.tan_grad_a_coef, w_map)
        self.q_coef = _apply(self.w_coef, q_map)
        self.tan_grad_q_coef = _apply(tan_grad_w, q_map)
        if not check:
            return

        scale = np.maximum(np.abs(self.w_coef).max(axis=-1), 1e-30)
        rem = np.abs(_apply(self.w_coef, rem_map)).max(axis=-1)
        self.raise_first(rem > _DEFLATE_TOL * scale, EquipotentialViolated, rem,
                         "W_e does not vanish doubly at the wells (residual {:.3e}); "
                         "model fails the equipotential condition")
        tan_rem = np.abs(_apply(tan_grad_w, rem_map)).max(axis=-1)
        tan_scale = np.maximum(scale[..., None], np.abs(tan_grad_w).max(axis=-1))
        self.raise_first((tan_rem > _DEFLATE_TOL * tan_scale).any(axis=-1),
                         EquipotentialViolated, tan_rem.max(axis=-1),
                         "tangential W-gradient residual {:.3e} at the wells")
        q_min = _horner(self.q_coef, np.linspace(am, ap, 513)).min(axis=-1)
        self.raise_first(q_min <= 0.0, NegativeW, q_min,
                         "deflated well potential reaches {:.3e} <= 0")

    def raise_first(self, bad: np.ndarray, exc: type, values: np.ndarray,
                    message: str) -> None:
        """Raise exc for the first direction flagged in bad, naming it and
        formatting its entry of values into message; both have the shape of
        the leading axes of e."""
        if bad.any():
            j = np.flatnonzero(bad)[0]
            e = self.e.reshape(-1, self.e.shape[-1])[j]
            raise exc(message.format(values.reshape(-1)[j]) + f" (direction {e})")

    # -- evaluations, shape (...) [+ (n,)] + s.shape --------------------------

    def a(self, s):
        return _horner(self.a_coef, s)

    def w(self, s):
        return _horner(self.w_coef, s)

    def sqrt_w(self, s):
        """sqrt(W_e) in the stable factored form, >= 0 on [a-, a+]."""
        s = np.asarray(s, dtype=float)
        t = (s - self.alpha_minus) * (self.alpha_plus - s)
        return np.abs(t) * np.sqrt(np.maximum(_horner(self.q_coef, s), 0.0))

    def tan_grad_a(self, s):
        return _horner(self.tan_grad_a_coef, s)

    def tan_ratio(self, s):
        """Tangential grad W_e / W_e via the deflated quotients; finite at the wells."""
        s = np.asarray(s, dtype=float)
        qv = np.expand_dims(_horner(self.q_coef, s), -1 - s.ndim)
        return _horner(self.tan_grad_q_coef, s) / qv
