"""Standing-wave profile in the stretched variable and the linearized problem.

The profile solves (a_e(U) U_z)_z + f(U) = 0 with U(0) = alpha and limits at
the stable roots. Via the first integral A_e(U)_z = sqrt(W_e(U)) this reduces
to the monotone first-order equation

    dU/dz = sqrt(W_e(U)) / a_e(U),   W_e = t^2 q,   t = (U - a-)(a+ - U).

The log-odds xi = log((U - a-)/(a+ - U)) maps (a-, a+) onto the whole line,
with dU/dxi = t/(a+ - a-), so U(xi) is a logistic in closed form and

    z(xi) = int_{xi_mid}^{xi} a_e(U) / ((a+ - a-) sqrt(q(U))) dxi,

xi_mid the log-odds of alpha_mid. The integrand is smooth, bounded and
positive on the whole line (the section's ``NegativeW`` check keeps q > 0),
so fixed Gauss-Legendre panels in xi, shared by every direction, give z at
the panel edges, and within a panel the closed-form integral of the rate's
interpolant gives z(xi). Each grid node is then found by Newton on that
integral from a linear start, and U0 is the logistic at its xi.

:func:`solve_standing_wave` (one direction) and :class:`ProfileTable` (an
angle grid) run the same solver, one direction at a time, so a table row
equals the one-direction profile along its angle.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import (
    ConfigError,
    InnerSingularity,
    NotElliptic,
    NotSolvable,
    ToleranceFailure,
)
from .model import DirectionSection, ModelSpec, _horner, check_unit
from .quadrature import cumulative_trapezoid_from

_log = logging.getLogger(__name__)

W_FREEZE = 1e-16            # W_e below which solve_linearized drops a cell

PANEL_ORDER = 8             # Gauss-Legendre nodes per panel
PANEL_WIDTH = 0.1           # panel width in xi
XI_SPAN = 40.0              # panels cover xi_mid +- XI_SPAN; nodes past them
                            # take the end value, within ulps of a well
NEWTON_STEPS = 3
NEWTON_TOL = 1e-12          # |z(xi) - z| allowed after the last step, times max(1, |z|)
SOLVABLE_TOL = 1e-6         # |solvability integral| solve_linearized accepts

_GL_X, _GL_W = legendre.leggauss(PANEL_ORDER)
# column i: ascending powers of x of int_{-1}^x L_i, L_i the Lagrange basis
# polynomial of node i, taken through its Legendre coefficients, which the
# node rule gives exactly (it integrates degree 2 PANEL_ORDER - 1)
_PANEL_INT = np.stack([legendre.leg2poly(c) for c in legendre.legint(
    (np.arange(PANEL_ORDER)[:, None] + 0.5)
    * legendre.legvander(_GL_X, PANEL_ORDER - 1).T * _GL_W, lbnd=-1.0).T], axis=1)


@dataclass
class WaveProfile:
    """Tabulated standing wave for one direction e."""

    e: np.ndarray
    z: np.ndarray
    u0: np.ndarray
    u0z: np.ndarray
    decay_rate: float
    decay_r2: float
    section: DirectionSection
    spec: ModelSpec

    @property
    def h_z(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def i_zero(self) -> int:
        return len(self.z) // 2

    def sqrt_w_values(self) -> np.ndarray:
        """(A_e(U0))_z = sqrt(W_e(U0)) on the grid."""
        return self.section.sqrt_w(self.u0)


def _z_grid(z_max: float, h_z: float) -> np.ndarray:
    """The symmetric grid of 2n+1 nodes, n = round(z_max / h_z)."""
    if not 10.0 <= z_max < np.inf:
        raise ConfigError(f"z_max must be finite and at least 10, got {z_max!r}")
    if not 0.0 < h_z <= 1e-2:
        raise ConfigError(f"h_z must be positive and at most 1e-2, got {h_z!r}")
    n = int(round(z_max / h_z))
    return (np.arange(2 * n + 1) - n) * h_z


def _logistic(xi: np.ndarray, am: float, ap: float) -> np.ndarray:
    """U at log-odds xi, measured from the nearer well so both tails keep
    their digits."""
    ex = np.exp(-np.abs(xi))
    s = (ap - am) * ex / (1.0 + ex)
    return np.where(xi < 0.0, am + s, ap - s)


def _poly(c: np.ndarray, p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and x-derivative at each x[i] of the polynomial whose ascending
    coefficients are column p[i] of c."""
    v, d = c[-1][p], 0.0
    for ck in c[-2::-1]:
        d = d * x + v
        v = v * x + ck[p]
    return v, d


def _invert(zp: np.ndarray, half: int, z: np.ndarray):
    """Panel p, local x in [-1, 1] and residual |z(xi) - z| of each node of z,
    from the (degree, panels) coefficients zp of z - z(left edge) in x and
    the middle edge index half, where z = 0."""
    inc = zp.sum(axis=0)
    z_edges = np.concatenate([-np.cumsum(inc[:half][::-1])[::-1], [0.0],
                              np.cumsum(inc[half:])])
    # past the last edge U is at its well to rounding: clamp
    z = np.clip(z, z_edges[0], z_edges[-1])
    p = np.minimum(np.searchsorted(z_edges, z, side="right") - 1, len(inc) - 1)
    target = z - z_edges[p]
    x = 2.0 * target / inc[p] - 1.0
    for _ in range(NEWTON_STEPS):
        v, d = _poly(zp, p, x)
        x -= (v - target) / d
    return p, x, np.abs(_poly(zp, p, x)[0] - target)


def _standing_waves(spec: ModelSpec, sec: DirectionSection, z: np.ndarray,
                    names: list[str]) -> np.ndarray:
    """U0 on the grid z along each direction of sec, one row per direction;
    names[j] names direction j in errors.

    Every direction shares the panels in xi; each is solved alone, which
    keeps the working set at one direction's panels and nodes.
    """
    start = time.perf_counter()
    r = spec.reaction
    am, ap = r.alpha_minus, r.alpha_plus
    half = int(round(XI_SPAN / PANEL_WIDTH))
    xi_edges = (math.log((r.alpha_mid - am) / (ap - r.alpha_mid))
                + PANEL_WIDTH * np.arange(-half, half + 1))
    u_nodes = _logistic(xi_edges[:-1, None] + 0.5 * PANEL_WIDTH * (_GL_X + 1.0), am, ap)
    a_coef = sec.a_coef.reshape(-1, sec.a_coef.shape[-1])
    q_coef = sec.q_coef.reshape(-1, sec.q_coef.shape[-1])
    gap = 0.1 * (ap - am)
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(z))
    rows = np.empty((len(names), len(z)))
    worst = 0.0
    for j, name in enumerate(names):
        a = _horner(a_coef[j], u_nodes)
        if (a <= 0.0).any():
            side = "z > 0" if (a[half:] <= 0.0).any() else "z < 0"
            raise NotElliptic(f"a_e <= 0 at a panel node on the {side} "
                              f"half-line of {name}")
        # z - z(left edge) on each panel as a polynomial in x in [-1, 1]
        rate = (0.5 * PANEL_WIDTH / (ap - am)) * a / np.sqrt(_horner(q_coef[j], u_nodes))
        p, x, res = _invert(_PANEL_INT @ rate.T, half, z)
        miss = ~(res <= tol)
        if miss.any():
            k = int(np.flatnonzero(miss)[0])
            raise ToleranceFailure(
                f"Newton inversion of z(xi) missed z={z[k]:+.6g} by {res[k]:.3e} "
                f"on {name}")
        worst = max(worst, float(res.max()))
        rows[j] = row = _logistic(xi_edges[p] + 0.5 * PANEL_WIDTH * (x + 1.0), am, ap)
        if ap - row[-1] > gap or row[0] - am > gap:
            k = -1 if ap - row[-1] > gap else 0
            raise ToleranceFailure(
                f"profile did not approach the wells by z={z[k]:+g} on the "
                f"{'z > 0' if k else 'z < 0'} half-line of {name} "
                f"(endpoint {row[k]:.4f})")
    _log.debug("standing waves: %d directions, %d z nodes, %d panels, "
               "max Newton residual = %.3g, wall = %.3f s", len(names), len(z),
               2 * half, worst, time.perf_counter() - start)
    return rows


def solve_standing_wave(spec: ModelSpec, e, z_max: float = 12.0,
                        h_z: float = 1e-3) -> WaveProfile:
    """Standing-wave profile U0(z; e) on the symmetric grid [-z_max, z_max]."""
    z = _z_grid(z_max, h_z)
    e = check_unit(e)
    sec = DirectionSection(spec, e)
    [u0] = _standing_waves(spec, sec, z, [f"direction {e}"])
    u0z = sec.sqrt_w(u0) / sec.a(u0)
    lam, r2 = _fit_decay(z, u0, spec.reaction.alpha_plus)
    return WaveProfile(e=e, z=z, u0=u0, u0z=u0z, decay_rate=lam, decay_r2=r2,
                       section=sec, spec=spec)


def _fit_decay(z: np.ndarray, u0: np.ndarray, alpha_plus: float):
    """Log-linear fit of the upper tail alpha_plus - U0 on z in [Z/2, Z]."""
    zmax = z[-1]
    mask = (z >= 0.5 * zmax) & (alpha_plus - u0 > 0.0)
    if mask.sum() < 8:
        return float("nan"), 0.0
    x = z[mask]
    y = np.log(alpha_plus - u0[mask])
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-coef[0]), r2


def second_order_residual(profile: WaveProfile) -> np.ndarray:
    """Residual of (a_e(U0) U0_z)_z + f(U0) by 4th-order central differences."""
    g = profile.section.a(profile.u0) * profile.u0z
    h = profile.h_z
    dg = np.full_like(g, np.nan)
    dg[2:-2] = (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * h)
    res = dg + profile.spec.reaction.f(profile.u0)
    return res[2:-2]


def _g_values(profile: WaveProfile, g) -> np.ndarray:
    vals = g(profile.z) if callable(g) else np.asarray(g, dtype=float)
    if vals.shape != profile.z.shape:
        raise ConfigError("right-hand side g does not match the profile grid")
    return vals


def solvability_residual(profile: WaveProfile, g) -> float:
    """Trapezoidal value of int g(z) (A_e(U0))_z dz over the grid."""
    gv = _g_values(profile, g)
    return float(np.trapezoid(gv * profile.sqrt_w_values(), profile.z))


def solve_linearized(profile: WaveProfile, g) -> np.ndarray:
    """Bounded solution psi of (a_e(U0) psi)_zz + f'(U0) psi = g, psi(0) = 0.

    Evaluates the closed-form double integral; on the right half the inner
    integral is rewritten as minus the tail so the product with the growing
    1/(A_z)^2 factor stays controlled.
    """
    gv = _g_values(profile, g)
    residual = solvability_residual(profile, gv)
    if abs(residual) > SOLVABLE_TOL:
        raise NotSolvable(
            f"solvability integral {residual:.6e} exceeds {SOLVABLE_TOL:g}")

    z = profile.z
    az = profile.sqrt_w_values()
    left_cum = cumulative_trapezoid_from(gv * az, z, 0)
    total = left_cum[-1]
    inner = left_cum - np.where(z >= 0.0, total, 0.0)

    denom = az * az
    dead = denom < W_FREEZE
    if np.any(dead):
        if np.any(np.abs(inner[dead]) > 1e-10 * max(1.0, np.abs(inner).max())):
            raise InnerSingularity(
                "profile tail froze before the inner integral vanished")
    integrand = np.zeros_like(inner)
    np.divide(inner, denom, out=integrand, where=~dead)
    outer = cumulative_trapezoid_from(integrand, z, profile.i_zero)
    return profile.u0z * outer


def direction_derivative_profile(spec: ModelSpec, profile: WaveProfile,
                                 j: int) -> np.ndarray:
    """Tangential derivative of the profile along direction axis j.

    Uses the closed form -U_{0e_j} = U0_z * int_alpha^{U0} d/de_j (a_e/sqrt(W_e)),
    with the s-integral substituted back to the z variable, which removes the
    endpoint log singularity: the integrand becomes
    (grad_a_j - a * (grad W / W)_j / 2) / a evaluated along the profile.
    """
    sec = profile.section
    u0 = profile.u0
    vals = (sec.tan_grad_a(u0)[j] - sec.a(u0) * sec.tan_ratio(u0)[j] / 2.0) / sec.a(u0)
    integral = cumulative_trapezoid_from(vals, profile.z, profile.i_zero)
    return -profile.u0z * integral


def linearized_residual(profile: WaveProfile, psi: np.ndarray, g) -> np.ndarray:
    """FD residual of (a_e(U0) psi)_zz + f'(U0) psi - g on the interior grid."""
    gv = _g_values(profile, g)
    h = profile.h_z
    prod = profile.section.a(profile.u0) * psi
    d2 = np.full_like(prod, np.nan)
    d2[1:-1] = (prod[2:] - 2.0 * prod[1:-1] + prod[:-2]) / (h * h)
    res = d2 + profile.spec.reaction.f_prime(profile.u0) * psi - gv
    return res[1:-1]


# ---------------------------------------------------------------------------
# angular table for composed initial data
# ---------------------------------------------------------------------------

@dataclass
class ProfileTable:
    """Profiles tabulated over equispaced directions, for fast composition."""

    thetas: np.ndarray
    z: np.ndarray
    u0: np.ndarray          # (n_angles, n_z)

    @classmethod
    def build(cls, spec: ModelSpec, m_angles: int = 64, z_max: float = 12.0,
              h_z: float = 2e-3) -> "ProfileTable":
        """Rows U0(z; (cos theta, sin theta)) on m_angles equispaced angles."""
        z = _z_grid(z_max, h_z)
        thetas = 2.0 * np.pi * np.arange(m_angles) / m_angles
        sec = DirectionSection(spec, np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))
        return cls(thetas, z, _standing_waves(spec, sec, z,
                                              [f"theta={th:.15g}" for th in thetas]))

    def evaluate(self, theta, z):
        """Bilinear lookup u0(theta, z), clamping z beyond the table range."""
        theta = np.asarray(theta, dtype=float)
        z = np.asarray(z, dtype=float)
        nz = len(self.z)
        h = float(self.z[1] - self.z[0])
        pos = (z - self.z[0]) / h
        iz = np.clip(np.floor(pos).astype(int), 0, nz - 2)
        tz = np.clip(pos - iz, 0.0, 1.0)
        m = len(self.thetas)
        dth = 2.0 * np.pi / m
        posa = np.mod(theta, 2.0 * np.pi) / dth
        ia = np.floor(posa).astype(int) % m
        ta = posa - np.floor(posa)
        ib = (ia + 1) % m
        v00 = self.u0[ia, iz]
        v01 = self.u0[ia, iz + 1]
        v10 = self.u0[ib, iz]
        v11 = self.u0[ib, iz + 1]
        return ((1 - ta) * ((1 - tz) * v00 + tz * v01)
                + ta * ((1 - tz) * v10 + tz * v11))
