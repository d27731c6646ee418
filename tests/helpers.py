"""Shared oracle helpers for the test suite."""

import glob
import math
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from phasefront.acsolver import Grid, ScalarField
from phasefront.curves import FrontCurve, curve_from_points, ellipse_curve
from phasefront.errors import EquipotentialViolated, NegativeW, NotUnit, QuadratureFailure
from phasefront.model import (
    _DEFLATE_TOL,
    DirectionSection,
    ModelSpec,
    check_unit,
    cubic_reaction,
    polynomial_diffusivity,
)
from phasefront.profile import W_FREEZE


def process_alive(pid: int) -> bool:
    """Whether the process exists and is not a zombie, from /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def live_children(pid="self") -> list[int]:
    """Pids of the live children of a process (of this one by default),
    read from /proc/<pid>/task/*/children; empty where /proc has none."""
    found = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            found += [int(c) for c in Path(path).read_text().split()]
        except OSError:
            continue
    return sorted(c for c in found if process_alive(c))


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def propagation_spec(epsilon: float = 0.02) -> ModelSpec:
    """The benchmark's propagation model at seed 1: D(s) = A + B s^2."""
    phi = 1.6079350561067187
    a = _rot(phi) @ np.diag([1.0, 1.6]) @ _rot(phi).T
    b = _rot(phi + 0.6) @ np.diag([0.08, -0.04]) @ _rot(phi + 0.6).T
    entries = [[[a[i, j], 0.0, b[i, j]] for j in range(2)] for i in range(2)]
    return ModelSpec(cubic_reaction(), polynomial_diffusivity(entries), epsilon)


def propagation_ellipse(markers: int = 256) -> FrontCurve:
    """The benchmark's propagation ellipse at seed 1."""
    return ellipse_curve((0.5450463696325936, 0.4644159612719634), 0.25, 0.17,
                         markers)


def random_spd_polynomial_model(rng, epsilon: float = 0.02) -> ModelSpec:
    """Random validated model: D(s) = A + B s^2 with A, A+4B SPD.

    Even entries against the odd cubic reaction keep the well balance exact,
    and min-eig concavity along the segment A + t B, t in [0, 4], makes
    endpoint checks sufficient for ellipticity on the validation range.
    """
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    a = q @ np.diag(rng.uniform(0.5, 2.0, 2)) @ q.T
    b = rng.normal(size=(2, 2))
    b = 0.5 * (b + b.T)
    lam_min = float(np.linalg.eigvalsh(a)[0])
    b *= 0.05 * lam_min / max(float(np.abs(np.linalg.eigvalsh(b)).max()), 1e-12)
    entries = [[[a[i, j], 0.0, b[i, j]] for j in range(2)] for i in range(2)]
    amp = float(rng.uniform(0.5, 2.0))
    return ModelSpec(cubic_reaction(amp), polynomial_diffusivity(entries), epsilon)


def random_tangential_pair(rng):
    th = rng.uniform(0.0, 2.0 * np.pi)
    e = np.array([np.cos(th), np.sin(th)])
    eta = np.array([-np.sin(th), np.cos(th)])
    if rng.random() < 0.5:
        eta = -eta
    return e, eta


def constant_d_mu_oracle(dmat: np.ndarray, e) -> np.ndarray:
    """Closed-form mu for constant D with sphere-tangential d(sqrt a_e)."""
    e = np.asarray(e, dtype=float)
    a = float(e @ dmat @ e)
    proj = np.eye(len(e)) - np.outer(e, e)
    g = proj @ (dmat @ e) / np.sqrt(a)
    return dmat - np.outer(g, g)


def quad_gk(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod (QUADPACK) integral of a scalar callable on [a, b]."""
    if a == b:
        return 0.0
    value, abserr, info, *rest = quad(f, a, b, epsabs=tol, epsrel=1e-12,
                                      full_output=True)
    if rest:  # quad appends an explanation message on failure
        raise QuadratureFailure(f"quadrature did not converge on [{a}, {b}]: {rest[0]}")
    if abserr > max(tol, 1e-10 * abs(value)) * 1e3:
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.3e} too large on [{a}, {b}]")
    return value


_OFFSETS = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)


def brute_force_curve_distance(points: np.ndarray, curve: FrontCurve,
                               chunk: int = 4096) -> np.ndarray:
    """Torus distance from each point to the closed polyline (min-image).

    Every point against every segment in all nine neighbouring images.
    """
    pts = np.mod(np.asarray(points, dtype=float), 1.0)
    loop = np.mod(curve.closed_loop(), 1.0)
    a = loop[:-1]
    d = curve.closed_loop()[1:] - curve.closed_loop()[:-1]   # true segment vectors
    seg_len2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    out = np.empty(len(pts))
    for s in range(0, len(pts), chunk):
        p = pts[s:s + chunk]
        best = np.full(len(p), np.inf)
        for off in _OFFSETS:
            rel = p[:, None, :] - (a[None, :, :] + off)      # (np, ns, 2)
            tpar = np.clip(np.einsum("psk,sk->ps", rel, d) / seg_len2, 0.0, 1.0)
            diff = rel - tpar[..., None] * d[None, :, :]
            dist2 = np.einsum("psk,psk->ps", diff, diff)
            best = np.minimum(best, dist2.min(axis=1))
        out[s:s + chunk] = np.sqrt(best)
    return out


# ---------------------------------------------------------------------------
# test-only initial data and curve transforms
# ---------------------------------------------------------------------------

def softstep_circle_field(grid: Grid, spec: ModelSpec, center, r: float,
                          width: float) -> ScalarField:
    """Step-softened disk: low phase inside the circle, high outside."""
    x, y = grid.cell_centers()
    d = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2) - r
    rct = spec.reaction
    mid = 0.5 * (rct.alpha_plus + rct.alpha_minus)
    half = 0.5 * (rct.alpha_plus - rct.alpha_minus)
    return ScalarField(grid, mid + half * np.tanh(d / width))


def rounded_square_curve(center, half: float, corner_r: float, n_per_side: int = 32,
                         n_per_corner: int = 16) -> FrontCurve:
    """Axis-aligned square with circular corner fillets, counterclockwise."""
    cx, cy = center
    f = half - corner_r
    pts = []
    corners = [(cx + f, cy + f, 0.0), (cx - f, cy + f, 0.5 * np.pi),
               (cx - f, cy - f, np.pi), (cx + f, cy - f, 1.5 * np.pi)]
    for i, (qx, qy, th0) in enumerate(corners):
        for t in np.linspace(0, 0.5 * np.pi, n_per_corner, endpoint=False):
            pts.append((qx + corner_r * np.cos(th0 + t), qy + corner_r * np.sin(th0 + t)))
        nxt = corners[(i + 1) % 4]
        start = np.array([qx + corner_r * np.cos(th0 + 0.5 * np.pi),
                          qy + corner_r * np.sin(th0 + 0.5 * np.pi)])
        stop = np.array([nxt[0] + corner_r * np.cos(nxt[2]),
                         nxt[1] + corner_r * np.sin(nxt[2])])
        for t in np.linspace(0.0, 1.0, n_per_side, endpoint=False):
            pts.append(tuple(start + t * (stop - start)))
    return curve_from_points(np.array(pts))


def translate_curve(curve: FrontCurve, vec) -> FrontCurve:
    return replace(curve, vertices=curve.vertices + np.asarray(vec, dtype=float),
                   normals=None, curvature=None)


def rotate_curve(curve: FrontCurve, angle: float, center=(0.5, 0.5)) -> FrontCurve:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    ctr = np.asarray(center, dtype=float)
    return replace(curve, vertices=(curve.vertices - ctr) @ rot.T + ctr,
                   normals=None, curvature=None)


def turning_number(curve: FrontCurve) -> float:
    loop = curve.closed_loop()
    d = np.diff(loop, axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    turns = np.diff(np.concatenate([ang, ang[:1]]))
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(turns) / (2.0 * np.pi))


# ---------------------------------------------------------------------------
# reference section: one direction, numpy Polynomial arithmetic
# ---------------------------------------------------------------------------

def _integ_from(p: Polynomial, lower: float) -> Polynomial:
    prim = p.integ()
    return prim - prim(lower)


def _deflate(p: Polynomial, roots: Sequence[float]) -> tuple[Polynomial, float]:
    """Divide out (s - r) for each r, returning quotient and max remainder."""
    q = p
    worst = 0.0
    for r in roots:
        q, rem = divmod(q, Polynomial([-r, 1.0]))
        if rem.coef.size:
            worst = max(worst, abs(float(rem.coef[0])))
    return q, worst


class PolynomialSection:
    """Reference section: exact ``Polynomial`` forms of a_e, W_e and their
    e-gradients for one e, built one direction at a time.

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


# ---------------------------------------------------------------------------
# reference standing wave: scalar RK4 march of dU/dz = sqrt(W_e(U)) / a_e(U)
# ---------------------------------------------------------------------------

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
            raise AssertionError(
                f"non-monotone step at u={u:.15g} (direction {sign:+.0f})")
        u = min(max(u_new, lo), hi)
        out[k] = u
    return out


def rk4_standing_wave(spec: ModelSpec, e, z_max: float = 12.0,
                      h_z: float = 2e-3) -> np.ndarray:
    """U0 on the symmetric grid of 2n+1 nodes by RK4 from U0(0) = alpha_mid.

    The march freezes its step where W_e = t^2 q drops below ``W_FREEZE``,
    so past that node the row stays put short of the well.
    """
    r = spec.reaction
    n = int(round(z_max / h_z))
    slope = _make_slope(DirectionSection(spec, e))
    up = _integrate_half(slope, r.alpha_mid, h_z, n, +1.0,
                         r.alpha_minus, r.alpha_plus)
    dn = _integrate_half(slope, r.alpha_mid, h_z, n, -1.0,
                         r.alpha_minus, r.alpha_plus)
    return np.concatenate([dn[::-1], up[1:]])
