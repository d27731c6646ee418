"""Direction-dependent mobility tensor of the limiting curvature flow.

For a unit direction e the tensor splits as mu = mu1 + mu2 with

    lambda(e)         = int sqrt(W_e(s)) ds,
    lambda mu1_ij(e)  = int D_ij(s) sqrt(W_e(s)) ds,
    lambda mu2_ij(e)  = -(1/2) int dW_i(s) d(a_e/sqrt(W_e))_j(s) ds,

integrated over the well interval. The e-derivatives entering mu2 are the
sphere-tangential ones (ambient gradients projected by I - e e^T); see the
model module for why the integrand is evaluated in the deflated form

    sqrt(W_e) * R_i * (da_j - a_e R_j / 2),    R = grad W_e / W_e,

which is smooth through the double roots of W_e at the wells.

In 2-D the limiting flow V = -sum_ij mu_ij(n) d_i n_j reduces to
V_n = -kappa w(n) with the scalar tangential weight

    w(n) = tau . mu(n) tau,    tau = (-n_y, n_x),

and ``MobilityTensor.tangential_weight`` is the one place that forms it.
``mu_tensor`` serves a stack of directions with one stacked section and one
``gauss_adaptive_vec`` call; ``tabulate_mobility`` makes that call once for
all its equispaced angles and fits one vector-valued periodic cubic spline
through them; ``weight_lookup`` tabulates w densely for the level-set step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ConfigError,
    EquipotentialViolated,
    NegativeW,
    NotTangential,
    SingularEndpoint,
)
from .model import DirectionSection, ModelSpec, check_unit
from .quadrature import gauss_adaptive, gauss_adaptive_vec


class MobilityValues(NamedTuple):
    """Each field has the leading shape (...) of the directions (..., n)."""

    lam: float | np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    mu: np.ndarray


def _section(spec: ModelSpec, e) -> DirectionSection:
    try:
        return DirectionSection(spec, e)
    except (EquipotentialViolated, NegativeW) as exc:
        raise SingularEndpoint(f"mobility integrand is not integrable: {exc}") from exc


def lambda_e(spec: ModelSpec, e) -> float:
    """Line tension lambda(e) = int sqrt(W_e(s)) ds > 0."""
    sec = _section(spec, e)
    return gauss_adaptive(sec.sqrt_w, sec.alpha_minus, sec.alpha_plus)


def mu_tensor(spec: ModelSpec, e) -> MobilityValues:
    """Evaluate (lambda, mu1, mu2, mu) at a unit direction or a stack of them."""
    sec = _section(spec, e)
    d = spec.diffusivity
    n = d.dim
    lead = sec.e.shape[:-1]

    def stacked(s: np.ndarray) -> np.ndarray:
        # rows per direction: sqrt(W), D_ij sqrt(W), sqrt(W) R_i (da_j - a R_j / 2)
        sw = sec.sqrt_w(s)[..., None, None, :]
        ratio = sec.tan_ratio(s)
        right = sec.tan_grad_a(s) - 0.5 * sec.a(s)[..., None, :] * ratio
        rows = np.concatenate([
            sw[..., 0, :],
            (d.d_matrix(s) * sw).reshape(lead + (n * n, len(s))),
            (sw * ratio[..., :, None, :] * right[..., None, :, :]).reshape(
                lead + (n * n, len(s)))], axis=-2)
        return rows.reshape(-1, len(s))

    vals = gauss_adaptive_vec(stacked, sec.alpha_minus, sec.alpha_plus)
    vals = vals.reshape(lead + (1 + 2 * n * n,))
    lam = vals[..., 0]
    sec.raise_first(lam <= 0.0, SingularEndpoint, lam,
                    "lambda(e) = {:.3e} is not positive")
    mu1 = vals[..., 1:1 + n * n].reshape(lead + (n, n)) / lam[..., None, None]
    mu2 = -0.5 * vals[..., 1 + n * n:].reshape(lead + (n, n)) / lam[..., None, None]
    return MobilityValues(lam[()], mu1, mu2, mu1 + mu2)


def tangential_form(spec: ModelSpec, e, eta) -> float:
    """Quadratic form eta . (lambda mu)(e) eta for a unit tangent eta."""
    e = check_unit(e)
    eta = np.asarray(eta, dtype=float)
    if abs(np.linalg.norm(eta) - 1.0) > 1e-9:
        raise NotTangential(f"|eta| = {np.linalg.norm(eta):.12f} is not 1")
    if abs(float(np.dot(e, eta))) > 1e-9:
        raise NotTangential(f"e . eta = {float(np.dot(e, eta)):.3e} is not 0")
    vals = mu_tensor(spec, e)
    return float(vals.lam * eta @ vals.mu @ eta)


def tangential_lower_bound(spec: ModelSpec, e) -> float:
    """Certified lower bound int min_eig(D(s)) sqrt(W_e(s)) ds for the form."""
    sec = _section(spec, e)

    def integrand(s: np.ndarray) -> np.ndarray:
        return spec.diffusivity.eigenvalues(s)[..., 0] * sec.sqrt_w(s)

    return gauss_adaptive(integrand, sec.alpha_minus, sec.alpha_plus)


# ---------------------------------------------------------------------------
# tabulated tensor
# ---------------------------------------------------------------------------

# angles of the dense quantized weight table that serves the level-set step
MU_LOOKUP_ANGLES = 16384


@dataclass
class MobilityTensor:
    """Angle-tabulated (2-D) tensor theta -> (lambda, mu).

    One periodic cubic spline in the angle carries the stacked columns
    [lambda, mu11, mu12, mu21, mu22]; ``tangential_weight`` contracts it into
    the flow law and a dense table of that weight (``weight_lookup``) serves
    the level-set step. ``mu_tensor`` and ``tangential_form`` remain the exact
    per-direction evaluators.
    """

    thetas: np.ndarray
    lam_table: np.ndarray
    mu_table: np.ndarray                      # (m, 2, 2)
    _spline: CubicSpline

    def lam_mu(self, e) -> tuple[float, np.ndarray]:
        """Spline-interpolated (lambda, mu) at the unit direction e."""
        e = check_unit(e)
        vals = self._spline(float(np.arctan2(e[1], e[0])) % (2.0 * np.pi))
        return float(vals[0]), vals[1:].reshape(2, 2)

    def mu_of_angles(self, theta: np.ndarray) -> np.ndarray:
        """Spline-interpolated mu(theta); shape theta.shape + (2, 2)."""
        th = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)
        return self._spline(th)[..., 1:].reshape(th.shape + (2, 2))

    def tangential_weight(self, normals: np.ndarray) -> np.ndarray:
        """w = tau . mu(n) tau for unit normals of shape (k, 2); shape (k,)."""
        taus = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
        mu = self.mu_of_angles(np.arctan2(normals[:, 1], normals[:, 0]))
        return np.einsum("vi,vij,vj->v", taus, mu, taus)

    def weight_lookup(self) -> tuple[np.ndarray, float]:
        """(w at the MU_LOOKUP_ANGLES angles k * dtheta, dtheta)."""
        return self._dense

    @cached_property
    def _dense(self) -> tuple[np.ndarray, float]:
        th = 2.0 * np.pi * np.arange(MU_LOOKUP_ANGLES) / MU_LOOKUP_ANGLES
        normals = np.stack([np.cos(th), np.sin(th)], axis=1)
        return self.tangential_weight(normals), 2.0 * np.pi / MU_LOOKUP_ANGLES

    @cached_property
    def max_weight(self) -> float:
        """The largest entry of the ``weight_lookup`` table."""
        return float(self.weight_lookup()[0].max())

    def area_rate(self) -> float:
        """int_0^{2 pi} w(theta) dtheta over ``weight_lookup``: the constant
        rate at which V_n = -kappa w(n) shrinks the area of any simple closed
        curve, since kappa ds = dtheta and the turning number is 1."""
        w, dtheta = self.weight_lookup()
        return float(w.sum() * dtheta)

    @property
    def asymmetry(self) -> float:
        """Diagnostic: max |mu - mu^T| entry over the table."""
        return float(np.abs(self.mu_table
                            - self.mu_table.transpose(0, 2, 1)).max())


def tabulate_mobility(spec: ModelSpec, m_angles: int = 256) -> MobilityTensor:
    """Evaluate the tensor at equispaced angles and fit one periodic spline."""
    if spec.diffusivity.dim != 2:
        raise ConfigError("angular tabulation is 2-D only")
    if m_angles < 64:
        raise ConfigError("m_angles must be at least 64")
    thetas = 2.0 * np.pi * np.arange(m_angles) / m_angles
    v = mu_tensor(spec, np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))

    th_ext = np.concatenate([thetas, [2.0 * np.pi]])
    stacked = np.column_stack([v.lam, v.mu.reshape(m_angles, 4)])
    spline = CubicSpline(th_ext, np.vstack([stacked, stacked[:1]]),
                         bc_type="periodic", axis=0)
    return MobilityTensor(thetas=thetas, lam_table=v.lam, mu_table=v.mu,
                          _spline=spline)
