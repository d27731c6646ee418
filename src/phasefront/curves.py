"""Closed front curves on the unit torus: geometry, contouring, metrics.

Orientation convention: traversal keeps the high-phase side (u > level) on
the right, so the outward normal is the right-hand rotation (t_y, -t_x) of
the unit tangent and a contractible front enclosing a low-phase region runs
counterclockwise (positive shoelace area) with curvature +1/R on a circle.

Vertices are stored unwrapped (continuous coordinates, possibly outside
[0,1)); ``wraps`` records the net winding for non-contractible contours.

Curves come out of their builders complete. ``marching_squares`` directs
every cell segment as it makes it, so each loop is one walk of a successor
map and needs no orientation pass. ``geometry`` and ``resample`` read normals
and curvature off the periodic chord-length spline they fit, so a resampled
curve needs no refit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from .errors import DegenerateCurve

MIN_VERTICES = 8            # fewest vertices the periodic chord fit takes


@dataclass
class FrontCurve:
    """Oriented closed polyline (implicitly closed: last connects to first)."""

    vertices: np.ndarray                 # (m, 2), unwrapped
    h_target: float
    wraps: tuple[int, int] = (0, 0)
    normals: np.ndarray | None = None
    curvature: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise DegenerateCurve("vertices must have shape (m, 2)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_contractible(self) -> bool:
        return self.wraps == (0, 0)

    def wrapped_vertices(self) -> np.ndarray:
        return np.mod(self.vertices, 1.0)

    def closed_loop(self) -> np.ndarray:
        """Vertices with the closing point appended (unwrapped)."""
        end = self.vertices[0] + np.asarray(self.wraps, dtype=float)
        return np.vstack([self.vertices, end])

    def reversed(self) -> "FrontCurve":
        return replace(self, vertices=self.vertices[::-1].copy(),
                       wraps=(-self.wraps[0], -self.wraps[1]),
                       normals=None, curvature=None)


def curve_from_points(points, h_target: float | None = None) -> FrontCurve:
    pts = np.asarray(points, dtype=float)
    if h_target is None:
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        h_target = float(np.median(seg))
    return FrontCurve(pts, h_target)


def circle_curve(center, r: float, n: int, h_target: float | None = None) -> FrontCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    pts = np.asarray(center, dtype=float) + r * np.stack([np.cos(th), np.sin(th)], axis=1)
    return curve_from_points(pts, h_target)


def ellipse_curve(center, a: float, b: float, n: int) -> FrontCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    pts = np.asarray(center, dtype=float) + np.stack([a * np.cos(th), b * np.sin(th)], axis=1)
    return curve_from_points(pts)


# ---------------------------------------------------------------------------
# lengths, areas, geometry
# ---------------------------------------------------------------------------

def curve_length(curve: FrontCurve) -> float:
    loop = curve.closed_loop()
    return float(np.linalg.norm(np.diff(loop, axis=0), axis=1).sum())


def enclosed_area(curve: FrontCurve) -> float:
    """Signed shoelace area (contractible curves only)."""
    if not curve.is_contractible:
        raise DegenerateCurve("area is undefined for torus-wrapping contours")
    p = curve.vertices
    q = np.roll(p, -1, axis=0)
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def _chord_fit(curve: FrontCurve):
    """Periodic chord-length spline of a closed curve less its winding ramp.

    Returns (spline, t, w): the curve at chord parameter s in [0, t[-1]] is
    spline(s) + (s / t[-1]) w with w = curve.wraps, so the periodic spline
    sees matched endpoints on wrapping contours too; w = 0 when contractible.
    """
    loop = curve.closed_loop()
    step = np.diff(loop, axis=0)
    if np.any(np.all(np.abs(step) < 1e-15, axis=1)):
        raise DegenerateCurve("repeated consecutive vertices")
    t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(step, axis=1))])
    w = np.asarray(curve.wraps, dtype=float)
    spline = CubicSpline(t, loop - np.outer(t / t[-1], w), bc_type="periodic",
                         axis=0)
    return spline, t, w


def _frame(spline, s: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Unit outward normals and curvature of a ``_chord_fit`` at parameters s."""
    d1 = spline(s, 1) + w / t[-1]
    d2 = spline(s, 2)
    speed = np.linalg.norm(d1, axis=1)
    if speed.min() <= 0.0:
        raise DegenerateCurve("vanishing parameterization speed")
    kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    tau = d1 / speed[:, None]
    return np.stack([tau[:, 1], -tau[:, 0]], axis=1), kappa


def geometry(curve: FrontCurve) -> FrontCurve:
    """Fill unit outward normals and curvature from the periodic chord fit.

    Contractible and wrapping curves share one fit (``_chord_fit``); fewer
    than MIN_VERTICES or repeated consecutive vertices raise DegenerateCurve.
    Simplicity is not tested here: callers run ``is_simple`` when they need it.
    """
    if curve.n_vertices < MIN_VERTICES:
        raise DegenerateCurve(f"need >= {MIN_VERTICES} vertices, have {curve.n_vertices}")
    spline, t, w = _chord_fit(curve)
    normals, kappa = _frame(spline, t[:-1], t, w)
    return replace(curve, normals=normals, curvature=kappa)


def resample(curve: FrontCurve, n_vertices: int) -> FrontCurve:
    """Near-uniform chord-length resampling of the periodic fit.

    Keeps vertex 0 and the winding ``wraps``, and carries the fit's normals
    and curvature at the new vertices, as ``geometry`` would read them off
    the same fit; repeated consecutive vertices raise ``DegenerateCurve``.
    """
    if n_vertices < MIN_VERTICES:
        raise DegenerateCurve(f"resampling below {MIN_VERTICES} vertices")
    spline, t, w = _chord_fit(curve)
    targets = np.linspace(0.0, t[-1], n_vertices, endpoint=False)
    pts = spline(targets) + np.outer(targets / t[-1], w)
    normals, kappa = _frame(spline, targets, t, w)
    return replace(curve, vertices=pts, normals=normals, curvature=kappa)


# ---------------------------------------------------------------------------
# intersection / distances
# ---------------------------------------------------------------------------

def _orient(p, q, r):
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
        - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])


@lru_cache(maxsize=8)
def _nonadjacent_pairs(m: int) -> np.ndarray:
    """Mask of segment pairs i < j that share no vertex on an m-segment loop."""
    idx = np.arange(m)
    gap = idx[None, :] - idx[:, None]
    mask = (gap > 1) & (gap < m - 1)
    mask.flags.writeable = False
    return mask


def is_simple(curve: FrontCurve) -> bool:
    """Segment-pair intersection test (unwrapped coords, bbox prefilter)."""
    loop = curve.closed_loop()
    a = loop[:-1]
    b = loop[1:]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    overlap = ((lo[:, None, 0] <= hi[None, :, 0]) & (hi[:, None, 0] >= lo[None, :, 0])
               & (lo[:, None, 1] <= hi[None, :, 1]) & (hi[:, None, 1] >= lo[None, :, 1]))
    overlap &= _nonadjacent_pairs(len(a))
    cand = np.argwhere(overlap)
    for i, j in cand:
        d1 = _orient(a[i], b[i], a[j])
        d2 = _orient(a[i], b[i], b[j])
        d3 = _orient(a[j], b[j], a[i])
        d4 = _orient(a[j], b[j], b[i])
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
            return False
        if d1 == 0 and d2 == 0:   # collinear overlap within the bbox filter
            return False
    return True


# points per block of candidate pairs; bounds the flat candidate arrays
_CHUNK = 4096


def _wrap(x: np.ndarray) -> np.ndarray:
    """Coordinates mod 1, strictly inside [0, 1) (mod of -tiny rounds to 1.0)."""
    out = np.mod(x, 1.0)
    out[out >= 1.0] = 0.0
    return out


def points_to_curve_distance(points: np.ndarray, curve: FrontCurve) -> np.ndarray:
    """Exact torus distance from each point to the closed polyline.

    A periodic k-d tree over the vertices gives each point its nearest vertex
    at distance r0. The closest point of the curve lies on some segment within
    half that segment's length of one of its endpoints, so every vertex that
    can own it lies within r0 + Lmax/2 (Lmax the longest segment). Exact
    point-to-segment distances to the two segments leaving each such vertex,
    taken from the image of the point nearest that vertex, give the minimum;
    that image is the one nearest the curve wherever the distance is below
    0.5 - Lmax/2.
    """
    pts = _wrap(np.asarray(points, dtype=float))
    loop = curve.closed_loop()
    verts = _wrap(loop[:-1])
    d = np.diff(loop, axis=0)                      # true segment vectors
    # segment k leaves vertex k along +d[k]; vertex k also starts the
    # segment back to vertex k-1, along -d[k-1]
    legs = np.stack([d, -np.roll(d, 1, axis=0)], axis=1)          # (m, 2, 2)
    leg_len2 = np.maximum(np.einsum("vlk,vlk->vl", legs, legs), 1e-300)
    reach = 0.5 * float(np.sqrt(leg_len2.max()))
    tree = cKDTree(verts, boxsize=1.0)
    r0, _ = tree.query(pts)
    out = np.empty(len(pts))
    for s in range(0, len(pts), _CHUNK):
        p = pts[s:s + _CHUNK]
        near = tree.query_ball_point(p, r0[s:s + _CHUNK] + reach)
        counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
        cand = np.fromiter(chain.from_iterable(near), dtype=np.intp,
                           count=int(counts.sum()))
        owner = np.repeat(np.arange(len(p)), counts)
        rel = p[owner] - verts[cand]
        rel -= np.round(rel)                       # image nearest the vertex
        leg = legs[cand]                           # (c, 2, 2)
        tpar = np.einsum("ck,clk->cl", rel, leg) / leg_len2[cand]
        np.clip(tpar, 0.0, 1.0, out=tpar)
        diff = rel[:, None, :] - tpar[..., None] * leg
        dist2 = np.einsum("clk,clk->cl", diff, diff).min(axis=1)
        best = np.full(len(p), np.inf)
        np.minimum.at(best, owner, dist2)
        out[s:s + _CHUNK] = np.sqrt(best)
    return out


def hausdorff(curve_a: FrontCurve, curve_b: FrontCurve) -> float:
    """Symmetric torus Hausdorff distance, vertex-to-segment resolution."""
    d_ab = points_to_curve_distance(curve_a.wrapped_vertices(), curve_b).max()
    d_ba = points_to_curve_distance(curve_b.wrapped_vertices(), curve_a).max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# marching squares on the periodic grid
# ---------------------------------------------------------------------------

def marching_squares(values: np.ndarray, h: float, level: float) -> list[FrontCurve]:
    """Extract level-set loops of a periodic cell-centered field.

    Returns closed loops oriented with the high side (values > level) on the
    right of travel. Walking the boundary of cell (i, j) counterclockwise,
    through corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), a crossed edge
    is an entry where the walk goes from low to high and an exit where it
    goes from high to low; each segment runs from its cell's entry to its
    exit, high side on the right. In a saddle cell the midpoint rule picks
    the next exit when the cell centre is low and the previous one when it is
    high. Every crossed edge is the exit of one cell and the entry of its
    neighbour, so a loop is one walk of the successor map entry -> exit.
    """
    n0, n1 = values.shape
    high = values > level
    corner = np.stack([high, np.roll(high, -1, axis=0),
                       np.roll(high, (-1, -1), axis=(0, 1)),
                       np.roll(high, -1, axis=1)], axis=-1).reshape(-1, 4)
    ahead = np.roll(corner, -1, axis=1)        # the corner after each edge
    cell, pos = np.nonzero(~corner & ahead)    # entries, in cell order
    if not len(cell):
        return []

    # the exit from entry pos: the first high -> low edge after it on the
    # walk, or in a saddle cell with a high centre the one before it
    exits = corner[cell] & ~ahead[cell]
    after = exits[np.arange(len(cell))[:, None], (pos[:, None] + [1, 2, 3]) % 4]
    step = 1 + np.argmax(after, axis=1)
    saddle = np.flatnonzero(exits.sum(axis=1) == 2)
    i, j = np.divmod(cell[saddle], n1)
    ip, jp = (i + 1) % n0, (j + 1) % n1
    centre_high = (values[i, j] + values[ip, j]
                   + values[ip, jp] + values[i, jp]) > 4.0 * level
    step[saddle[centre_high]] = 3
    entry, exit_ = _edge_ids(cell, pos, n0, n1), _edge_ids(cell, (pos + step) % 4, n0, n1)
    slot = np.empty(2 * n0 * n1, dtype=np.intp)
    slot[entry] = np.arange(len(entry))
    successor = slot[exit_].tolist()

    # each entry's crossing on its edge from corner (i, j) along the axis
    axis, flat = np.divmod(entry, n0 * n1)
    i, j = np.divmod(flat, n1)
    frac = (level - values[i, j]) / (values[(i + 1 - axis) % n0, (j + axis) % n1]
                                     - values[i, j])
    origin = 0.5 * h                               # the first cell centre
    points = (origin + np.stack([i + frac * (1 - axis), j + frac * axis], axis=1) * h) % 1.0

    seen = bytearray(len(entry))
    loops = []
    for start in range(len(entry)):
        loop, k = [], start
        while not seen[k]:
            seen[k] = 1
            loop.append(k)
            k = successor[k]
        if loop:
            loops.append(_unwrapped_loop(points[loop], h))
    return loops


def _edge_ids(cell: np.ndarray, pos: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """Ids of the edges at walk positions pos of flat cells: id i*n1 + j is the
    edge (i, j) -> (i+1, j) and n0*n1 + i*n1 + j the edge (i, j) -> (i, j+1)."""
    i, j = np.divmod(cell, n1)
    i = np.where(pos == 1, (i + 1) % n0, i)
    j = np.where(pos == 2, (j + 1) % n1, j)
    return (pos % 2) * (n0 * n1) + i * n1 + j


def _unwrapped_loop(points: np.ndarray, h: float) -> FrontCurve:
    """The closed loop through points in [0, 1), lifted by whole periods so
    that each step is the minimum-image one."""
    lift = -np.round(np.roll(points, -1, axis=0) - points)
    verts = points + np.concatenate([[[0.0, 0.0]], np.cumsum(lift[:-1], axis=0)])
    wraps = tuple(int(w) for w in lift.sum(axis=0))
    return FrontCurve(verts, h_target=h, wraps=wraps)
