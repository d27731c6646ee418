"""Front tracking and level-set evolution of the limiting anisotropic flow.

Both solvers realize one law, the planar form of V = -sum_ij mu_ij(n) d_i n_j:

    V_n = -kappa w(n),    w(n) = tau . mu(n) tau,    tau = (-n_y, n_x),

with the weight w from ``MobilityTensor.tangential_weight``. The front
tracker moves markers along their normals by it. The level-set route starts
from the signed torus distance to the front, exact at every cell centre
(``curves.points_to_curve_distance``, a periodic k-d tree query), and
advances it with

    d_t = w(n) tau^T (grad^2 d) tau,    n = grad d / |grad d|,

reading w from a dense angle table and reinitializing every
``REINIT_EVERY`` steps so |grad d| stays near one in the band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .acsolver import Grid
from .curves import (
    FrontCurve,
    curve_length,
    enclosed_area,
    geometry,
    is_simple,
    marching_squares,
    points_to_curve_distance,
    resample,
)
from .errors import (
    Blowup,
    ConfigError,
    DegenerateCurve,
    Extinction,
    GradientDegeneracy,
    NoContour,
    PhasefrontError,
    SelfIntersection,
)
from .mobility import MobilityTensor

FRONT_CFL = 0.15
EXTINCTION_CELLS = 4.0
REINIT_EVERY = 25           # level-set steps between reinitializations
REINIT_ITERATIONS = 20      # relaxation sweeps per reinitialization


# ---------------------------------------------------------------------------
# front tracking
# ---------------------------------------------------------------------------

def step_front(curve: FrontCurve, mobility: MobilityTensor, dt: float) -> FrontCurve:
    """Advance the front by dt, substepping to honor the marker CFL bound.

    Each substep satisfies dt_sub <= FRONT_CFL * (min spacing)^2 / max(w)
    (the spline curvature operator is stiffer than a 3-point stencil, hence
    the margin below 1/6); redistribution to near-uniform arclength and the
    topology checks run once per outer step. The returned curve carries its
    normals and curvature, which the next step's first substep reuses.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    cur = curve
    remaining = dt
    while remaining > 1e-18:
        if cur.normals is None or cur.curvature is None:
            cur = geometry(cur, checked=False)
        seg = np.linalg.norm(np.diff(cur.closed_loop(), axis=0), axis=1)
        weights = mobility.tangential_weight(cur.normals)
        wmax = float(np.abs(weights).max())
        bound = FRONT_CFL * float(seg.min()) ** 2 / max(wmax, 1e-300)
        sub = min(remaining, bound)
        vn = -cur.curvature * weights
        cur = replace(cur, vertices=cur.vertices + sub * vn[:, None] * cur.normals,
                      normals=None, curvature=None)
        remaining -= sub

    target = max(8, int(round(curve_length(cur) / cur.h_target)))
    cur = resample(cur, target)
    if cur.is_contractible and \
            abs(enclosed_area(cur)) < EXTINCTION_CELLS * cur.h_target**2:
        raise Extinction(
            f"front area {enclosed_area(cur):.3e} below the resolvable minimum")
    if not is_simple(cur):
        raise SelfIntersection("front crossed itself (topology change)")
    return geometry(cur, checked=False)


def _march(state, advance, t_end: float, dt: float, checkpoints, where) -> list:
    """(t, state) at each checkpoint and t_end, marching advance(state, h) in
    steps h <= dt that land exactly on them. A step's error is re-raised as
    its own type, naming t, the step index and where(state) before it."""
    targets = sorted(set(float(c) for c in (checkpoints or [])) | {float(t_end)})
    if targets[0] < 0.0 or targets[-1] > t_end:
        raise ConfigError("checkpoints must lie in [0, t_end]")
    out, t, steps = [], 0.0, 0
    for target in targets:
        while t < target - 1e-14:
            sub = min(dt, target - t)
            steps += 1
            try:
                state = advance(state, sub)
            except PhasefrontError as exc:
                raise type(exc)(f"{exc} at t = {t:g}, step {steps}, "
                                f"{where(state)}") from exc
            t += sub
        out.append((target, state))
    return out


def evolve_front(curve: FrontCurve, mobility: MobilityTensor, t_end: float,
                 dt: float, checkpoints=None) -> list[tuple[float, FrontCurve]]:
    """March to t_end in outer steps of dt, landing exactly on checkpoints."""
    return _march(curve, lambda c, h: step_front(c, mobility, h), t_end, dt,
                  checkpoints, lambda c: f"{c.n_vertices} markers")


# ---------------------------------------------------------------------------
# signed distance construction
# ---------------------------------------------------------------------------

@dataclass
class SignedDistanceField:
    """Signed distance samples: positive outside the front (high-phase side)."""

    grid: Grid
    values: np.ndarray
    steps_taken: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ConfigError("field shape does not match the grid")

    def copy(self) -> "SignedDistanceField":
        return SignedDistanceField(self.grid, self.values.copy(), self.steps_taken)


def _inside_mask(curve: FrontCurve, grid: Grid) -> np.ndarray:
    """Even-odd interior test in the lifted planar frame of the curve."""
    loop = curve.closed_loop()
    extent = loop.max(axis=0) - loop.min(axis=0)
    if extent.max() >= 0.95:
        raise DegenerateCurve("curve spans nearly the whole torus; "
                              "interior is ill-defined")
    x0, y0 = loop.min(axis=0)
    n, h = grid.n, grid.h
    centers = (np.arange(n) + 0.5) * h
    xl = x0 + np.mod(centers - x0, 1.0)
    yl = y0 + np.mod(centers - y0, 1.0)

    a, b = loop[:-1], loop[1:]
    inside = np.zeros((n, n), dtype=bool)
    for j in range(n):
        y = yl[j]
        hit = (a[:, 1] <= y) != (b[:, 1] <= y)
        if not hit.any():
            continue
        aa, bb = a[hit], b[hit]
        xs = aa[:, 0] + (y - aa[:, 1]) * (bb[:, 0] - aa[:, 0]) / (bb[:, 1] - aa[:, 1])
        xs.sort()
        inside[:, j] = (np.searchsorted(xs, xl) % 2).astype(bool)
    return inside


def signed_distance(curve: FrontCurve, grid: Grid) -> SignedDistanceField:
    """Exact torus distance from every cell centre to the front, signed by side.

    The sign follows the curve orientation: positive on the high-phase side
    (the geometric interior is the low-phase side for a standard front).
    """
    if curve.n_vertices < 3 or not is_simple(curve):
        raise DegenerateCurve("need a simple closed curve")
    x, y = grid.cell_centers()
    dist = points_to_curve_distance(np.stack([x.ravel(), y.ravel()], axis=1),
                                    curve).reshape(x.shape)
    inside = _inside_mask(curve, grid)
    interior_sign = -1.0 if enclosed_area(curve) > 0.0 else 1.0
    values = np.where(inside, interior_sign * dist, -interior_sign * dist)
    return SignedDistanceField(grid, values)


# ---------------------------------------------------------------------------
# level-set evolution
# ---------------------------------------------------------------------------

def reinitialize(sdf: SignedDistanceField) -> SignedDistanceField:
    """Godunov upwind relaxation of |grad d| = 1 with a subcell interface fix.

    Cells whose stencil straddles the zero set relax toward the local linear
    distance estimate instead (Russo-Smereka), which keeps the zero crossing
    pinned across repeated reinitializations.
    """
    h = sdf.grid.h
    d0 = sdf.values
    d = d0.copy()
    sgn = d0 / np.sqrt(d0 * d0 + h * h)
    dtau = 0.5 * h

    d0xp = np.roll(d0, -1, axis=0)
    d0xm = np.roll(d0, 1, axis=0)
    d0yp = np.roll(d0, -1, axis=1)
    d0ym = np.roll(d0, 1, axis=1)
    interface = ((d0 * d0xp < 0.0) | (d0 * d0xm < 0.0)
                 | (d0 * d0yp < 0.0) | (d0 * d0ym < 0.0))
    grad0 = np.hypot((d0xp - d0xm) / (2.0 * h), (d0yp - d0ym) / (2.0 * h))
    target = d0 / np.maximum(grad0, 1e-8)          # linear distance estimate

    for _ in range(REINIT_ITERATIONS):
        dxm = (d - np.roll(d, 1, axis=0)) / h
        dxp = (np.roll(d, -1, axis=0) - d) / h
        dym = (d - np.roll(d, 1, axis=1)) / h
        dyp = (np.roll(d, -1, axis=1) - d) / h
        pos = np.sqrt(np.maximum(np.maximum(dxm, 0.0) ** 2, np.minimum(dxp, 0.0) ** 2)
                      + np.maximum(np.maximum(dym, 0.0) ** 2, np.minimum(dyp, 0.0) ** 2))
        neg = np.sqrt(np.maximum(np.minimum(dxm, 0.0) ** 2, np.maximum(dxp, 0.0) ** 2)
                      + np.maximum(np.minimum(dym, 0.0) ** 2, np.maximum(dyp, 0.0) ** 2))
        grad = np.where(sgn >= 0.0, pos, neg)
        bulk = d - dtau * sgn * (grad - 1.0)
        pinned = d - dtau / h * (np.sign(d0) * np.abs(d) - target)
        d = np.where(interface, pinned, bulk)
    return SignedDistanceField(sdf.grid, d, sdf.steps_taken)


def level_set_dt(mobility: MobilityTensor, grid: Grid) -> float:
    weights, _ = mobility.weight_lookup()
    return grid.h**2 / (8.0 * max(float(weights.max()), 1e-12))


def step_level_set(sdf: SignedDistanceField, mobility: MobilityTensor,
                   dt: float) -> SignedDistanceField:
    """One explicit update of d_t = w(n) tau^T (grad^2 d) tau.

    tau = (-d_y, d_x) / |grad d| and w is read from the weight table at the
    quantized angle of grad d. Cells with |grad d| < 1/2 are held fixed; in
    the band |d| < 3h they raise GradientDegeneracy.
    """
    h = sdf.grid.h
    d = sdf.values
    dxp = np.roll(d, -1, axis=0)
    dxm = np.roll(d, 1, axis=0)
    dyp = np.roll(d, -1, axis=1)
    dym = np.roll(d, 1, axis=1)
    gx = (dxp - dxm) / (2.0 * h)
    gy = (dyp - dym) / (2.0 * h)
    g2 = gx * gx + gy * gy
    ok = g2 >= 0.25
    if np.any((np.abs(d) < 3.0 * h) & ~ok):
        raise GradientDegeneracy("|grad d| < 0.5 inside the narrow band")

    table, dtheta = mobility.weight_lookup()
    theta = np.arctan2(gy, gx)
    np.mod(theta, 2.0 * np.pi, out=theta)
    theta /= dtheta
    idx = theta.astype(int)
    idx %= len(table)
    w = np.take(table, idx)

    inv_h2 = 1.0 / (h * h)
    dxx = (dxp - 2.0 * d + dxm) * inv_h2
    dyy = (dyp - 2.0 * d + dym) * inv_h2
    dxy = (np.roll(gx, -1, axis=1) - np.roll(gx, 1, axis=1)) / (2.0 * h)
    # tau^T H tau with tau = (-gy, gx) / |grad d|; the floor on |grad d|^2
    # only reaches cells that are held fixed
    rhs = w * (gy * gy * dxx - 2.0 * gx * gy * dxy + gx * gx * dyy) / np.maximum(g2, 0.25)
    new = d + dt * np.where(ok, rhs, 0.0)
    if not np.isfinite(new).all():
        raise Blowup("level-set update produced non-finite values")
    out = SignedDistanceField(sdf.grid, new, sdf.steps_taken + 1)
    if out.steps_taken % REINIT_EVERY == 0:
        out = reinitialize(out)
    return out


def evolve_level_set(sdf: SignedDistanceField, mobility: MobilityTensor,
                     t_end: float, dt: float | None = None,
                     checkpoints=None) -> list[tuple[float, SignedDistanceField]]:
    """March to t_end in steps of dt (default ``level_set_dt``), landing
    exactly on checkpoints."""
    if dt is None:
        dt = level_set_dt(mobility, sdf.grid)
    history = _march(sdf, lambda d, h: step_level_set(d, mobility, h), t_end, dt,
                     checkpoints, lambda d: f"grid n = {d.grid.n}")
    return [(t, d.copy()) for t, d in history]


def zero_contour(sdf: SignedDistanceField) -> FrontCurve:
    loops = marching_squares(sdf.values, sdf.grid.h, 0.0)
    if not loops:
        raise NoContour("signed distance field has no zero crossing")
    return max(loops, key=lambda c: c.n_vertices)
