"""Quadrature helpers for the mobility and profile modules.

An order-doubling Gauss-Legendre scheme integrates the vectorized mobility
integrands (which are smooth after endpoint deflation), and a cumulative
trapezoid rule integrates sampled profiles. The model's section functions are
polynomial and need no quadrature.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure

ABS_TOL = 1e-10
START_ORDER = 48
MAX_ORDER = 1536


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_adaptive(f, a: float, b: float) -> float:
    """Integrate a vectorized scalar callable; the one-row ``gauss_adaptive_vec``.

    The integrand must accept an ndarray of abscissae. An empty interval
    integrates to 0.0.
    """
    if a == b:
        return 0.0
    return float(gauss_adaptive_vec(lambda x: f(x)[np.newaxis], a, b)[0])


def gauss_adaptive_vec(f, a: float, b: float) -> np.ndarray:
    """Order-doubling Gauss-Legendre for a stacked family of integrands.

    ``f(x)`` must return shape (k, len(x)); the result has shape (k,).
    Convergence is declared when two consecutive orders agree within
    ``ABS_TOL`` (absolute) in every component.
    """
    if a == b:
        raise QuadratureFailure("empty integration interval")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    order = START_ORDER
    x, w = _gl_nodes(order)
    prev = half * (f(mid + half * x) @ w)
    while order < MAX_ORDER:
        order *= 2
        x, w = _gl_nodes(order)
        cur = half * (f(mid + half * x) @ w)
        if np.abs(cur - prev).max() <= ABS_TOL:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"Gauss-Legendre doubling did not reach tol={ABS_TOL:g} by order {MAX_ORDER}")


def cumulative_trapezoid_from(y: np.ndarray, x: np.ndarray, i0: int) -> np.ndarray:
    """Cumulative trapezoid integral of samples y(x) anchored at index i0.

    Returns F with F[i] = integral from x[i0] to x[i]; F[i0] == 0 exactly.
    """
    dx = np.diff(x)
    seg = 0.5 * (y[1:] + y[:-1]) * dx
    csum = np.concatenate(([0.0], np.cumsum(seg)))
    return csum - csum[i0]
