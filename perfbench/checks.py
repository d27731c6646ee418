"""Output checks computed apart from the program.

Each check takes plain arrays (fields, polylines, tables) and returns a list
of ``Check`` results. Contours, distances, areas, profiles and mobility
oracles are computed here with numpy alone; no phasefront function is called,
so a fault in the program cannot hide itself by also breaking its checker.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# query points per block in ``points_to_segments``, to bound its temporaries
DISTANCE_CHUNK = 512
# smallest fitted order of the phase-field contour's distance to the front
ORDER_MIN = 0.8
# round-off allowed in the generation symmetries
SYMMETRY_TOL = 1e-12
# constant-D oracles: mu = D - g g^T and profile rows = tanh
MU_TOL = 1e-8
TANH_TOL = 1e-6
# finite-difference residual of the nonlinear profile ODE
RESIDUAL_TOL = 1e-4


# ---------------------------------------------------------------------------
# geometry on the unit torus
# ---------------------------------------------------------------------------

def level_segments(values: np.ndarray, h: float, level: float) -> np.ndarray:
    """Segments (k, 2, 2) of the level set of a periodic cell-centred field.

    Crossings are linear interpolants on cell edges. A cell with two crossed
    edges gives one segment; a saddle cell gives two, paired by the sign of
    the cell mean.
    """
    v = [values, np.roll(values, -1, 0), np.roll(np.roll(values, -1, 0), -1, 1),
         np.roll(values, -1, 1)]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    n0, n1 = values.shape
    ii, jj = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    base = np.stack([ii, jj], axis=-1) + 0.5
    crossed, points = [], []
    for k in range(4):
        a, b = v[k], v[(k + 1) % 4]
        crossed.append((a > level) != (b > level))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossed[-1], (level - a) / (b - a), 0.0)
        points.append((base + corners[k]
                       + t[..., None] * (corners[(k + 1) % 4] - corners[k])) * h)
    crossed = np.stack(crossed, axis=-1)
    points = np.stack(points, axis=-2)                  # (n0, n1, 4, 2)
    count = crossed.sum(axis=-1)

    two = count == 2
    edge_idx = np.argsort(~crossed[two], axis=-1, kind="stable")[:, :2]
    pts = points[two]
    segs = [np.stack([pts[np.arange(len(pts)), edge_idx[:, 0]],
                      pts[np.arange(len(pts)), edge_idx[:, 1]]], axis=1)]
    four = count == 4
    if four.any():
        pts = points[four]
        centre_high = sum(x[four] for x in v) > 4.0 * level
        # the contour cuts off the two corners whose state differs from the
        # centre's; corner k lies between edges k - 1 and k
        cut0 = (values[four] > level) != centre_high
        first = np.where(cut0[:, None], [3, 0], [0, 1])
        second = np.where(cut0[:, None], [1, 2], [2, 3])
        rows = np.arange(len(pts))
        for pair in (first, second):
            segs.append(np.stack([pts[rows, pair[:, 0]], pts[rows, pair[:, 1]]],
                                 axis=1))
    return np.concatenate(segs, axis=0)


def polyline_segments(vertices: np.ndarray) -> np.ndarray:
    """Segments (m, 2, 2) of the closed polyline through the vertices."""
    v = np.asarray(vertices, dtype=float)
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)


def points_to_segments(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Minimum-image torus distance from each point to the nearest segment.

    Segments must be short against the period, so the image nearest to the
    segment's first end serves the whole segment.
    """
    a = segs[:, 0]
    d = segs[:, 1] - segs[:, 0]
    len2 = np.maximum(np.einsum("sk,sk->s", d, d), 1e-300)
    out = np.empty(len(points))
    for s in range(0, len(points), DISTANCE_CHUNK):
        rel = points[s:s + DISTANCE_CHUNK, None, :] - a[None]
        rel -= np.round(rel)
        t = np.clip(np.einsum("psk,sk->ps", rel, d) / len2, 0.0, 1.0)
        diff = rel - t[..., None] * d[None]
        dist2 = np.einsum("psk,psk->ps", diff, diff).min(axis=1)
        out[s:s + DISTANCE_CHUNK] = np.sqrt(dist2)
    return out


def hausdorff_segments(segs_a: np.ndarray, segs_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two segment sets, vertex to segment."""
    return float(max(points_to_segments(segs_a[:, 0], segs_b).max(),
                     points_to_segments(segs_b[:, 0], segs_a).max()))


def shoelace(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed area and area centroid of a closed polygon."""
    p = np.asarray(vertices, dtype=float)
    q = np.roll(p, -1, axis=0)
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    area = 0.5 * float(cross.sum())
    centroid = ((p + q) * cross[:, None]).sum(axis=0) / (6.0 * area)
    return area, centroid


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def check_propagation(eps_list, fields, fronts, wells, eta_p) -> list[Check]:
    """O(eps) convergence of the phase-field contour to the front reference.

    ``fields[k]`` is the final phase field for ``eps_list[k]`` and
    ``fronts[k]`` the front-tracking vertices at the same time; ``wells`` is
    (alpha_minus, alpha_mid, alpha_plus).
    """
    am, amid, ap = wells
    dists = []
    out = []
    for eps, u, front in zip(eps_list, fields, fronts):
        h = 1.0 / u.shape[0]
        dists.append(hausdorff_segments(level_segments(u, h, amid),
                                        polyline_segments(front)))
        lo, hi = float(u.min()), float(u.max())
        out.append(Check(f"bounds eps={eps:g}",
                         lo >= am - eta_p and hi <= ap + eta_p,
                         f"u in [{lo:.4f}, {hi:.4f}], allowed "
                         f"[{am - eta_p:g}, {ap + eta_p:g}]"))
    dists = np.array(dists)
    order = float(np.polyfit(np.log(eps_list), np.log(dists), 1)[0])
    out.append(Check("hausdorff decreases with eps",
                     bool(np.all(np.diff(dists) < 0.0)),
                     "distances " + ", ".join(f"{d:.3e}" for d in dists)))
    out.append(Check("convergence order", order >= ORDER_MIN,
                     f"fitted order {order:.3f} (>= {ORDER_MIN})"))
    return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def layer_constant(u0: np.ndarray, u: np.ndarray, wells, eta_g: float,
                   eps: float) -> float:
    """Smallest M such that every cell with |u0 - alpha| >= M eps sits within
    eta_g of the well on its side."""
    am, amid, ap = wells
    bad_hi = (u0 > amid) & (u < ap - eta_g)
    bad_lo = (u0 < amid) & (u > am + eta_g)
    worst = np.concatenate([(u0[bad_hi] - amid), (amid - u0[bad_lo]), [0.0]])
    return float(worst.max() / eps)


def check_generation(eps_list, initial, fields, wells, eta_g: float,
                     ceiling: float) -> list[Check]:
    """Symmetry, bounds, layer width and resolution of generation runs.

    The data is odd under x -> x + 1/2 and symmetric under transposition; the
    cubic reaction is odd and the diffusivity is the identity, so the scheme
    keeps both symmetries to round-off.
    """
    am, _, ap = wells
    out = []
    for eps, u0, u in zip(eps_list, initial, fields):
        n = u.shape[0]
        shift = float(np.abs(np.roll(u, n // 2, axis=0) + u).max())
        transpose = float(np.abs(u - u.T).max())
        out.append(Check(f"symmetry eps={eps:g}",
                         shift <= SYMMETRY_TOL and transpose <= SYMMETRY_TOL,
                         f"|u(x+1/2,y)+u| = {shift:.1e}, |u-u^T| = {transpose:.1e}"))
        lo, hi = float(u.min()), float(u.max())
        out.append(Check(f"bounds eps={eps:g}",
                         lo >= am - eta_g and hi <= ap + eta_g,
                         f"u in [{lo:.4f}, {hi:.4f}]"))
        m_hat = layer_constant(u0, u, wells, eta_g, eps)
        out.append(Check(f"layer eps={eps:g}", m_hat <= ceiling,
                         f"M-hat {m_hat:.3f} (<= {ceiling:g})"))
        out.append(Check(f"resolution eps={eps:g}", 1.0 / n <= eps / 4.0,
                         f"h = 1/{n}"))
    return out


# ---------------------------------------------------------------------------
# limiting flow
# ---------------------------------------------------------------------------

def check_limit_flow(times, fronts, level_sets, centre, h: float,
                     centre_tol: float) -> list[Check]:
    """Front tracking against the level set at each checkpoint.

    ``fronts[k]`` are front vertices and ``level_sets[k]`` signed-distance
    samples at ``times[k]``; ``centre`` is the initial centre of symmetry.
    """
    out = []
    areas = []
    for t, front, d in zip(times, fronts, level_sets):
        dist = hausdorff_segments(polyline_segments(front),
                                  level_segments(d, h, 0.0))
        out.append(Check(f"front vs level set t={t:g}", dist <= 2.0 * h,
                         f"Hausdorff {dist:.3e} (<= 2h = {2 * h:.3e})"))
        area, centroid = shoelace(front)
        areas.append(area)
        shift = float(np.linalg.norm(centroid - centre))
        out.append(Check(f"centre fixed t={t:g}", shift <= centre_tol,
                         f"centroid moved {shift:.2e} (<= {centre_tol:g})"))
    out.append(Check("area decreases", bool(np.all(np.diff(areas) < 0.0)),
                     "areas " + ", ".join(f"{a:.6f}" for a in areas)))
    return out


# ---------------------------------------------------------------------------
# direction tables
# ---------------------------------------------------------------------------

def constant_d_profile(dmat: np.ndarray, amplitude: float, theta: float,
                       z: np.ndarray) -> np.ndarray:
    """tanh(z / sqrt(2 a/k)) solves a U'' + k (U - U^3) = 0 with a = e.De."""
    e = np.array([math.cos(theta), math.sin(theta)])
    a = float(e @ dmat @ e)
    return np.tanh(z * math.sqrt(amplitude / (2.0 * a)))


def constant_d_mobility(dmat: np.ndarray, theta: float) -> np.ndarray:
    """mu(e) = D - g g^T with g = (I - e e^T) D e / sqrt(e.De)."""
    e = np.array([math.cos(theta), math.sin(theta)])
    g = (np.eye(2) - np.outer(e, e)) @ (dmat @ e) / math.sqrt(float(e @ dmat @ e))
    return dmat - np.outer(g, g)


def profile_residual(z: np.ndarray, u: np.ndarray, a_coef: np.ndarray,
                     f_coef: np.ndarray) -> float:
    """Max |(a(U) U_z)_z + f(U)| by central differences on the interior.

    ``a_coef`` and ``f_coef`` are ascending polynomial coefficients in U.
    """
    h = float(z[1] - z[0])
    uz = np.gradient(u, h)
    flux = np.polynomial.polynomial.polyval(u, a_coef) * uz
    res = np.gradient(flux, h) + np.polynomial.polynomial.polyval(u, f_coef)
    return float(np.abs(res[2:-2]).max())


def check_tables(model: dict, thetas, mu, lam, z, rows, row_thetas,
                 forms, bounds, valid: bool) -> list[Check]:
    """Checks for one model's mobility table, profile table and certificate.

    ``model`` holds ``name``, ``constant``, ``amplitude``, ``wells`` and the
    ascending coefficient arrays ``d_coef`` of shape (2, 2, k); ``mu`` is
    (m, 2, 2) at ``thetas``; ``rows`` are profiles at ``row_thetas``.
    """
    name = model["name"]
    out = [Check(f"{name} validates", bool(valid), "validate_model passed")]
    d_coef = np.asarray(model["d_coef"], dtype=float)
    amplitude = model["amplitude"]
    am, amid, ap = model["wells"]
    i_zero = len(z) // 2
    out.append(Check(f"{name} lambda > 0", bool(np.all(lam > 0.0)),
                     f"min lambda {float(np.min(lam)):.4f}"))
    if model["constant"]:
        dmat = d_coef[:, :, 0]
        err_mu = max(float(np.abs(m - constant_d_mobility(dmat, th)).max())
                     for th, m in zip(thetas, mu))
        err_u = max(float(np.abs(row - constant_d_profile(dmat, amplitude, th, z)).max())
                    for th, row in zip(row_thetas, rows))
        out.append(Check(f"{name} mu = D - g g^T", err_mu <= MU_TOL,
                         f"max error {err_mu:.1e} (<= {MU_TOL:g})"))
        out.append(Check(f"{name} profiles = tanh", err_u <= TANH_TOL,
                         f"max error {err_u:.1e} (<= {TANH_TOL:g})"))
        return out

    m = len(thetas)
    sym = float(np.abs(mu - np.roll(mu, m // 2, axis=0)).max())
    out.append(Check(f"{name} mu(theta+pi) = mu(theta)", sym <= MU_TOL,
                     f"max difference {sym:.1e} (<= {MU_TOL:g})"))
    gap = float(np.min(np.asarray(forms) - np.asarray(bounds)))
    out.append(Check(f"{name} tangential form >= bound", gap >= 0.0,
                     f"min(form - bound) {gap:.3e}"))
    f_coef = amplitude * np.array([0.0, 1.0, 0.0, -1.0])
    worst_res, worst_pin = 0.0, 0.0
    for th, row in zip(row_thetas, rows):
        e = np.array([math.cos(th), math.sin(th)])
        a_coef = np.einsum("i,ijk,j->k", e, d_coef, e)
        worst_res = max(worst_res, profile_residual(z, row, a_coef, f_coef))
        worst_pin = max(worst_pin, abs(float(row[i_zero]) - amid))
    out.append(Check(f"{name} profile ODE residual", worst_res <= RESIDUAL_TOL,
                     f"max residual {worst_res:.2e} (<= {RESIDUAL_TOL:g})"))
    out.append(Check(f"{name} profile U(0) = alpha", worst_pin <= 1e-12,
                     f"max |U(0) - alpha| {worst_pin:.1e}"))
    return out
