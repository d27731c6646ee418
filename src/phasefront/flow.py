"""Front tracking and level-set evolution of the limiting anisotropic flow.

Both solvers realize one law, the planar form of V = -sum_ij mu_ij(n) d_i n_j:

    V_n = -kappa w(n),    w(n) = tau . mu(n) tau,    tau = (-n_y, n_x),

with the weight w from ``MobilityTensor.tangential_weight``. The front
tracker moves markers along their normals by it and fits one spline per
curve state, which gives that state's normals and curvature. The level-set
route starts from the signed torus distance to the front, exact at every
cell centre (``curves.points_to_curve_distance``, a periodic k-d tree
query), and advances it with

    d_t = w(n) tau^T (grad^2 d) tau,    n = grad d / |grad d|,

reading w from a dense angle table and reinitializing every
``REINIT_EVERY`` steps so |grad d| stays near one in the band.

The level set is local (Adalsteinsson & Sethian 1995; Peng et al. 1999):
a frozen ``SignedDistanceField`` carries the flat indices of its band cells
and of their periodic neighbours, and a step gathers the stencil from them
and scatters the update into a copy, leaving every other cell as it was.
``signed_distance`` puts the band at |d| < ``BAND_CELLS`` h; a field built
by hand has every cell in its band. Each reinitialization relaxes the band
plus one ring of cells around it, clamps d to +-``BAND_CELLS`` h and rebuilds
the band from the result, so the band follows the front.
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
    CFLViolated,
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
BAND_CELLS = 12             # level-set band half-width |d| < BAND_CELLS * h


# ---------------------------------------------------------------------------
# front tracking
# ---------------------------------------------------------------------------

def step_front(curve: FrontCurve, mobility: MobilityTensor, dt: float) -> FrontCurve:
    """Advance the front by dt, substepping to honor the marker CFL bound.

    Each substep satisfies dt_sub <= FRONT_CFL * (min spacing)^2 / max(w)
    (the spline curvature operator is stiffer than a 3-point stencil, hence
    the margin below 1/6); redistribution to near-uniform arclength and the
    topology checks run once per outer step. Each curve state is fitted once:
    substeps 2..k refit the moved markers, and the redistribution's fit gives
    the returned curve its normals and curvature, which the next step's first
    substep reuses.
    """
    if not 0.0 < dt < np.inf:
        raise ConfigError("dt must be finite and positive")
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
    return cur


def _march(state, advance, t_end: float, dt: float, checkpoints, where) -> list:
    """(t, state) at each checkpoint and t_end, marching advance(state, h) in
    steps h <= dt that land exactly on them. A step's error is re-raised as
    its own type, naming t, the step index and where(state) before it."""
    if not 0.0 < dt < np.inf:
        raise ConfigError(f"dt must be finite and positive, got {dt:g}")
    targets = sorted(set(float(c) for c in (checkpoints or [])) | {float(t_end)})
    if not np.isfinite(targets).all():
        raise ConfigError("t_end and checkpoints must be finite")
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

@dataclass(frozen=True)
class SignedDistanceField:
    """Signed distance samples: positive outside the front (high-phase side).

    ``stencil`` (9, m) holds flat indices into ``values``: row 0 the m band
    cells the level set updates, rows 1-8 their periodic neighbours in the
    order of ``_stencil``. Without one, every cell is in the band. The field
    is frozen, so its band cannot go stale: new values make a new field, and
    every step and reinitialization returns one on a fresh array.
    """

    grid: Grid
    values: np.ndarray
    steps_taken: int = 0
    stencil: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ConfigError("field shape does not match the grid")
        if self.stencil is None:
            object.__setattr__(self, "stencil",
                               _stencil(np.arange(self.grid.n ** 2), self.grid.n))


def _stencil(cells: np.ndarray, n: int) -> np.ndarray:
    """Flat indices (9, m) of cells (i, j) = divmod(cell, n) and of their
    periodic neighbours: centre, +x, -x, +y, -y, (+x, +y), (-x, +y),
    (+x, -y), (-x, -y); x runs along axis 0."""
    i, j = np.divmod(cells, n)
    ip, im = (i + 1) % n * n, (i - 1) % n * n
    jp, jm = (j + 1) % n, (j - 1) % n
    return np.stack([cells, ip + j, im + j, cells - j + jp, cells - j + jm,
                     ip + jp, im + jp, ip + jm, im + jm])


def _banded(grid: Grid, values: np.ndarray, steps_taken: int = 0) -> SignedDistanceField:
    """The field with its band at |d| < BAND_CELLS * h."""
    band = np.flatnonzero(np.abs(values) < BAND_CELLS * grid.h)
    return SignedDistanceField(grid, values, steps_taken, _stencil(band, grid.n))


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
    Every value is exact; the band is |d| < BAND_CELLS * h.
    """
    if curve.n_vertices < 3 or not is_simple(curve):
        raise DegenerateCurve("need a simple closed curve")
    x, y = grid.cell_centers()
    dist = points_to_curve_distance(np.stack([x.ravel(), y.ravel()], axis=1),
                                    curve).reshape(x.shape)
    inside = _inside_mask(curve, grid)
    interior_sign = -1.0 if enclosed_area(curve) > 0.0 else 1.0
    values = np.where(inside, interior_sign * dist, -interior_sign * dist)
    return _banded(grid, values)


# ---------------------------------------------------------------------------
# level-set evolution
# ---------------------------------------------------------------------------

def reinitialize(sdf: SignedDistanceField) -> SignedDistanceField:
    """Godunov upwind relaxation of |grad d| = 1 with a subcell interface fix.

    Cells whose stencil straddles the zero set relax toward the local linear
    distance estimate instead (Russo-Smereka), which keeps the zero crossing
    pinned across repeated reinitializations.

    The relaxation runs on the band plus one ring of cells around it, the
    cells its stencil reaches, so cells the front approaches re-enter the
    band; all other cells keep their values. d is then clamped to
    +-BAND_CELLS * h everywhere and the band rebuilt as |d| < BAND_CELLS * h,
    which holds every cell the step's |d| < 3h degeneracy check looks at.
    """
    grid, h = sdf.grid, sdf.grid.h
    reached = np.zeros(grid.n ** 2, dtype=bool)
    reached[sdf.stencil] = True
    c, xp, xm, yp, ym = _stencil(np.flatnonzero(reached), grid.n)[:5]
    d = sdf.values.flatten()
    d0, d0xp, d0xm, d0yp, d0ym = d[c], d[xp], d[xm], d[yp], d[ym]
    sgn = d0 / np.sqrt(d0 * d0 + h * h)
    dtau = 0.5 * h

    interface = ((d0 * d0xp < 0.0) | (d0 * d0xm < 0.0)
                 | (d0 * d0yp < 0.0) | (d0 * d0ym < 0.0))
    grad0 = np.hypot((d0xp - d0xm) / (2.0 * h), (d0yp - d0ym) / (2.0 * h))
    target = d0 / np.maximum(grad0, 1e-8)          # linear distance estimate

    for _ in range(REINIT_ITERATIONS):
        dc = d[c]
        dxm = (dc - d[xm]) / h
        dxp = (d[xp] - dc) / h
        dym = (dc - d[ym]) / h
        dyp = (d[yp] - dc) / h
        pos = np.sqrt(np.maximum(np.maximum(dxm, 0.0) ** 2, np.minimum(dxp, 0.0) ** 2)
                      + np.maximum(np.maximum(dym, 0.0) ** 2, np.minimum(dyp, 0.0) ** 2))
        neg = np.sqrt(np.maximum(np.minimum(dxm, 0.0) ** 2, np.maximum(dxp, 0.0) ** 2)
                      + np.maximum(np.minimum(dym, 0.0) ** 2, np.maximum(dyp, 0.0) ** 2))
        grad = np.where(sgn >= 0.0, pos, neg)
        bulk = dc - dtau * sgn * (grad - 1.0)
        pinned = dc - dtau / h * (np.sign(d0) * np.abs(dc) - target)
        d[c] = np.where(interface, pinned, bulk)
    np.clip(d, -BAND_CELLS * h, BAND_CELLS * h, out=d)
    return _banded(grid, d.reshape(grid.n, grid.n), sdf.steps_taken)


def level_set_dt(mobility: MobilityTensor, grid: Grid) -> float:
    """The explicit step's stability bound h^2 / (8 max w)."""
    return grid.h**2 / (8.0 * max(mobility.max_weight, 1e-12))


def step_level_set(sdf: SignedDistanceField, mobility: MobilityTensor,
                   dt: float) -> SignedDistanceField:
    """One explicit update of d_t = w(n) tau^T (grad^2 d) tau on the band.

    tau = (-d_y, d_x) / |grad d| and w is read from the weight table at the
    quantized angle of grad d. Cells with |grad d| < 1/2 are held fixed; in
    |d| < 3h they raise GradientDegeneracy. dt above ``level_set_dt`` raises
    CFLViolated.
    """
    bound = level_set_dt(mobility, sdf.grid)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolated(f"dt = {dt:g} exceeds the level-set stability bound "
                          f"{bound:g}")
    h = sdf.grid.h
    d, dxp, dxm, dyp, dym, dpp, dmp, dpm, dmm = np.take(sdf.values, sdf.stencil)
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
    # the centred y-difference of the centred gx
    dxy = ((dpp - dmp) / (2.0 * h) - (dpm - dmm) / (2.0 * h)) / (2.0 * h)
    # tau^T H tau with tau = (-gy, gx) / |grad d|; the floor on |grad d|^2
    # only reaches cells that are held fixed
    rhs = w * (gy * gy * dxx - 2.0 * gx * gy * dxy + gx * gx * dyy) / np.maximum(g2, 0.25)
    d += dt * np.where(ok, rhs, 0.0)
    if not np.isfinite(d).all():
        raise Blowup("level-set update produced non-finite values")
    new = sdf.values.copy()
    np.put(new, sdf.stencil[0], d)
    out = SignedDistanceField(sdf.grid, new, sdf.steps_taken + 1, sdf.stencil)
    if out.steps_taken % REINIT_EVERY == 0:
        out = reinitialize(out)
    return out


def evolve_level_set(sdf: SignedDistanceField, mobility: MobilityTensor,
                     t_end: float, dt: float | None = None,
                     checkpoints=None) -> list[tuple[float, SignedDistanceField]]:
    """March to t_end in steps of dt (default ``level_set_dt``), landing
    exactly on checkpoints. A dt above ``level_set_dt`` raises CFLViolated
    at the first step."""
    if dt is None:
        dt = level_set_dt(mobility, sdf.grid)
    return _march(sdf, lambda d, h: step_level_set(d, mobility, h), t_end, dt,
                  checkpoints, lambda d: f"grid n = {d.grid.n}")


def zero_contour(sdf: SignedDistanceField) -> FrontCurve:
    loops = marching_squares(sdf.values, sdf.grid.h, 0.0)
    if not loops:
        raise NoContour("signed distance field has no zero crossing")
    return max(loops, key=lambda c: c.n_vertices)
