"""Shared oracle helpers for the test suite."""

import numpy as np
from scipy.integrate import quad

from phasefront.curves import FrontCurve
from phasefront.errors import QuadratureFailure
from phasefront.model import (
    ModelSpec,
    cubic_reaction,
    polynomial_diffusivity,
)


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
