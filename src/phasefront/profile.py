"""Standing-wave profile in the stretched variable and the linearized problem.

The profile solves (a_e(U) U_z)_z + f(U) = 0 with U(0) = alpha and limits at
the stable roots. Via the first integral A_e(U)_z = sqrt(W_e(U)) this reduces
to the monotone first-order equation

    dU/dz = sqrt(W_e(U)) / a_e(U),

which is integrated by RK4 in both directions; the endpoint roots of W_e are
handled by freezing the step once W_e drops below 1e-16.

:func:`solve_standing_wave` is the one-direction path: a scalar Python march
per half-line. :class:`ProfileTable` marches every direction of its angle grid
at once, each half-line of each angle one lane of a numpy vector, with the
same arithmetic per lane and Horner columns from one stacked section whose
rows equal the one-direction sections, so its rows equal the one-direction
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InnerSingularity,
    NotSolvable,
    StallNearRoot,
    ToleranceFailure,
)
from .model import DirectionSection, ModelSpec, check_unit
from .quadrature import cumulative_trapezoid_from

W_FREEZE = 1e-16


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


def _make_slope(section: DirectionSection):
    qc, ac = section.q_coef[::-1].tolist(), section.a_coef[::-1].tolist()
    am, ap = section.alpha_minus, section.alpha_plus

    def slope(u: float) -> float:
        if u <= am or u >= ap:
            return 0.0
        t = (u - am) * (ap - u)
        q = 0.0
        for c in qc:
            q = q * u + c
        if q <= 0.0:
            return 0.0
        w = t * t * q
        if w < W_FREEZE:
            return 0.0
        a = 0.0
        for c in ac:
            a = a * u + c
        return t * math.sqrt(q) / a

    return slope


def _integrate_half(slope, u_start: float, h: float, n: int, sign: float,
                    lo: float, hi: float) -> np.ndarray:
    """RK4 march of u' = sign * slope(u) for n steps; clamps to [lo, hi]."""
    out = np.empty(n + 1)
    out[0] = u = u_start
    hs = sign * h
    for k in range(1, n + 1):
        k1 = slope(u)
        k2 = slope(u + 0.5 * hs * k1)
        k3 = slope(u + 0.5 * hs * k2)
        k4 = slope(u + hs * k3)
        u_new = u + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if sign * (u_new - u) < 0.0:
            raise StallNearRoot(
                f"non-monotone step at u={u:.15g} (direction {sign:+.0f})")
        u = min(max(u_new, lo), hi)
        out[k] = u
    return out


def _z_grid(z_max: float, h_z: float) -> tuple[int, np.ndarray]:
    """Half-line step count n and the symmetric grid of 2n+1 nodes."""
    if not 10.0 <= z_max < np.inf:
        raise ConfigError(f"z_max must be finite and at least 10, got {z_max!r}")
    if not 0.0 < h_z <= 1e-2:
        raise ConfigError(f"h_z must be positive and at most 1e-2, got {h_z!r}")
    n = int(round(z_max / h_z))
    return n, (np.arange(2 * n + 1) - n) * h_z


def solve_standing_wave(spec: ModelSpec, e, z_max: float = 12.0,
                        h_z: float = 1e-3) -> WaveProfile:
    """Standing-wave profile U0(z; e) on the symmetric grid [-z_max, z_max]."""
    n, z = _z_grid(z_max, h_z)
    e = check_unit(e)
    sec = DirectionSection(spec, e)
    r = spec.reaction
    slope = _make_slope(sec)

    up = _integrate_half(slope, r.alpha_mid, h_z, n, +1.0,
                         r.alpha_minus, r.alpha_plus)
    dn = _integrate_half(slope, r.alpha_mid, h_z, n, -1.0,
                         r.alpha_minus, r.alpha_plus)
    u0 = np.concatenate([dn[::-1], up[1:]])
    gap = 0.1 * (r.alpha_plus - r.alpha_minus)
    if (r.alpha_plus - u0[-1]) > gap or (u0[0] - r.alpha_minus) > gap:
        raise ToleranceFailure(
            f"profile did not approach the wells by z_max={z_max} "
            f"(endpoints {u0[0]:.4f}, {u0[-1]:.4f})")
    u0z = sec.sqrt_w(u0) / sec.a(u0)

    lam, r2 = _fit_decay(z, u0, r.alpha_plus)
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


def solve_linearized(profile: WaveProfile, g,
                     solvable_tol: float = 1e-6) -> np.ndarray:
    """Bounded solution psi of (a_e(U0) psi)_zz + f'(U0) psi = g, psi(0) = 0.

    Evaluates the closed-form double integral; on the right half the inner
    integral is rewritten as minus the tail so the product with the growing
    1/(A_z)^2 factor stays controlled.
    """
    gv = _g_values(profile, g)
    residual = solvability_residual(profile, gv)
    if abs(residual) > solvable_tol:
        raise NotSolvable(
            f"solvability integral {residual:.6e} exceeds {solvable_tol:g}")

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

def _march_directions(spec: ModelSpec, thetas: np.ndarray, h_z: float,
                      n: int) -> np.ndarray:
    """Profiles along (cos theta, sin theta) for every theta; (m, 2n+1).

    One RK4 march moves 2m lanes in lockstep: lane j < m runs the z > 0
    half-line of thetas[j], lane m + j its z < 0 half-line. Each lane carries
    its own step sign * h_z and Horner columns, and the arithmetic per lane
    is that of ``_make_slope`` and ``_integrate_half``, so row j equals
    ``solve_standing_wave`` along thetas[j].
    """
    r = spec.reaction
    am, ap = r.alpha_minus, r.alpha_plus
    m = len(thetas)
    lanes = 2 * m
    sec = DirectionSection(spec, np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))
    qc = np.tile(sec.q_coef.T[::-1], 2)      # (degree+1, lanes), high first
    ac = np.tile(sec.a_coef.T[::-1], 2)
    sign = np.repeat([1.0, -1.0], m)
    hs = sign * h_z
    half = 0.5 * hs
    sixth = hs / 6.0

    def lane_name(j):
        side = "z > 0" if sign[j] > 0.0 else "z < 0"
        return f"the {side} half-line of theta={thetas[j % m]:.15g}"

    def slope(u):
        t = (u - am) * (ap - u)
        q = np.zeros(lanes)
        for c in qc:
            q = q * u + c
        a = np.zeros(lanes)
        for c in ac:
            a = a * u + c
        # the scalar freeze rules: t > 0 holds exactly for u inside the
        # wells, and W = t*t*q >= W_FREEZE > 0 needs q > 0
        live = (t > 0.0) & (t * t * q >= W_FREEZE)
        num = t * np.sqrt(q, out=np.zeros(lanes), where=live)
        return np.divide(num, a, out=np.zeros(lanes), where=live)

    # each lane writes straight into its row, so no second copy of the
    # table is held
    u0 = np.empty((m, 2 * n + 1))
    u0[:, n] = r.alpha_mid
    u = np.full(lanes, r.alpha_mid)
    for k in range(1, n + 1):
        k1 = slope(u)
        k2 = slope(u + half * k1)
        k3 = slope(u + half * k2)
        k4 = slope(u + hs * k3)
        u_new = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stalled = sign * (u_new - u) < 0.0
        if stalled.any():
            j = int(np.flatnonzero(stalled)[0])
            raise StallNearRoot(
                f"non-monotone step {k} from u={u[j]:.15g} at "
                f"z={(k - 1) * hs[j]:+.6g} on {lane_name(j)}")
        u = np.minimum(np.maximum(u_new, am), ap)
        u0[:, n + k] = u[:m]
        u0[:, n - k] = u[m:]

    gap = 0.1 * (ap - am)
    short = np.where(sign > 0.0, ap - u, u - am) > gap
    if short.any():
        j = int(np.flatnonzero(short)[0])
        raise ToleranceFailure(
            f"profile did not approach the wells by z={n * hs[j]:+g} "
            f"on {lane_name(j)} (endpoint {u[j]:.4f})")
    return u0


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
        n, z = _z_grid(z_max, h_z)
        thetas = 2.0 * np.pi * np.arange(m_angles) / m_angles
        return cls(thetas, z, _march_directions(spec, thetas, h_z, n))

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
