"""Explicit finite-difference solver for the bistable reaction-diffusion
problem in divergence form on the periodic unit torus.

Scheme: forward Euler; diagonal fluxes use face-centered diffusivity evaluated
at the arithmetic mean of the adjacent cell values, cross terms use
cell-centered diffusivity with centered mixed differences, and the reaction
is pointwise. Every flux term telescopes over the torus, so the reaction-free
scheme conserves mass to round-off.

One scheme path serves every diffusivity: a constant entry is a degree-0
polynomial, whose face value is a scalar factor. ``simulate`` and
``ordering_check`` march a per-run stepper that computes the stability bound
and the Horner coefficients once and works on preallocated buffers; ``step``
is the CFL-checked single-step wrapper around the same stepper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import FrontCurve, marching_squares
from .errors import Blowup, CFLViolated, ConfigError, NoContour
from .model import ModelSpec

CFL_REACTION_SAFETY = 0.2


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with cell centers at ((i+1/2)h, (j+1/2)h)."""

    n: int

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"grid size must be a power of two >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def cell_centers(self):
        x = (np.arange(self.n) + 0.5) * self.h
        return np.meshgrid(x, x, indexing="ij")


@dataclass
class ScalarField:
    """Order-parameter samples on the grid at one time."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ConfigError("field shape does not match the grid")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.t)


def mass(fld: ScalarField) -> float:
    return float(fld.values.sum()) * fld.grid.h**2


def stability_dt(spec: ModelSpec, grid: Grid) -> float:
    """Explicit-step bound: min of the diffusion and reaction restrictions."""
    r = spec.reaction
    lo = r.alpha_minus - r.eta0
    hi = r.alpha_plus + r.eta0
    f_lip = r.max_abs_f_prime(lo, hi)
    dt_diff = grid.h**2 / (4.0 * 2 * spec.c_upper)
    dt_react = CFL_REACTION_SAFETY * spec.epsilon**2 / f_lip
    return min(dt_diff, dt_react)


def _descending(poly) -> np.ndarray:
    """Horner coefficients of a Polynomial, highest degree first, with the
    vanishing high-degree coefficients dropped."""
    return poly.trim().coef[::-1]


def _horner(coefs: np.ndarray, x: np.ndarray, out: np.ndarray):
    """Evaluate the polynomial at x into out; degree 0 gives its scalar.

    Zero coefficients add nothing and are skipped.
    """
    if coefs.size == 1:
        return coefs[0]
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        if c:
            out += c
        out *= x
    if coefs[-1]:
        out += coefs[-1]
    return out


def _periodic(op, u: np.ndarray, p: int, q: int, out: np.ndarray) -> np.ndarray:
    """out[i] = op(u[i + p], u[i + q]) along axis 0 with periodic wrap, for
    offsets p, q in {-1, 0, 1}: the interior is one slice operation and the
    at most two wrapped rows are done one by one."""
    n = u.shape[0]
    lo, hi = max(0, -p, -q), max(0, p, q)
    op(u[lo + p:n - hi + p], u[lo + q:n - hi + q], out=out[lo:n - hi])
    for i in (*range(lo), *range(n - hi, n)):
        op(u[(i + p) % n], u[(i + q) % n], out=out[i])
    return out


class _Stepper:
    """Forward-Euler march of one (spec, grid, reaction) on preallocated
    buffers: the stability bound and the Horner coefficients are computed
    once, the field and the right-hand side ping-pong between two buffers,
    and every stencil is a periodic slice difference written in place."""

    def __init__(self, fld: ScalarField, spec: ModelSpec, *,
                 reaction: bool = True):
        grid = fld.grid
        self.grid = grid
        self.eps = spec.epsilon
        self.dt_max = stability_dt(spec, grid)
        d = spec.diffusivity
        self.d11 = _descending(d.entry(0, 0))
        self.d22 = _descending(d.entry(1, 1))
        d12 = _descending(d.entry(0, 1))
        self.d12 = d12 if d12.size > 1 or d12[0] != 0.0 else None
        self.f = _descending(spec.reaction.poly) if reaction else None
        self.inv_h2 = 1.0 / (grid.h * grid.h)
        n = grid.n
        self.u = np.array(fld.values, dtype=float)
        self.a, self.b, self.c, self.rhs = (np.empty((n, n)) for _ in range(4))
        self.t = fld.t
        self.step_index = 0

    def _where(self) -> str:
        return (f"t = {self.t:g}, step {self.step_index}, "
                f"eps = {self.eps:g}, grid n = {self.grid.n}")

    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.u.copy(), self.t)

    def _flux_divergence(self, coefs, axis: int) -> None:
        """Add to rhs the flux D(face mean) (u(+1) - u) minus the same flux
        one cell back, along axis; axis 0 starts rhs afresh."""
        u, a, b, c, rhs = (x if axis == 0 else x.T
                           for x in (self.u, self.a, self.b, self.c, self.rhs))
        face = b
        if coefs.size > 1:
            _periodic(np.add, u, 0, 1, face)
            face *= 0.5
        flux = _periodic(np.subtract, u, 1, 0, a)
        flux *= _horner(coefs, face, c)
        if axis == 0:
            _periodic(np.subtract, flux, 0, -1, rhs)
        else:
            rhs += flux
            rhs[1:] -= flux[:-1]
            rhs[:1] -= flux[-1:]

    def advance(self, dt: float) -> None:
        """One forward-Euler step of length dt."""
        self.step_index += 1
        if dt > self.dt_max * (1.0 + 1e-9):
            raise CFLViolated(
                f"dt = {dt:g} exceeds the stability bound {self.dt_max:g} "
                f"at {self._where()}")
        u, a, b, c, rhs = self.u, self.a, self.b, self.c, self.rhs
        self._flux_divergence(self.d11, 0)
        self._flux_divergence(self.d22, 1)
        rhs *= self.inv_h2
        if self.d12 is not None:
            d12 = _horner(self.d12, u, c)
            _periodic(np.subtract, u.T, 1, -1, b.T)
            b *= d12                                # gx = D12(u) * 2h u_y
            _periodic(np.subtract, b, 1, -1, a)
            _periodic(np.subtract, u, 1, -1, b)
            b *= d12                                # gy = D12(u) * 2h u_x
            a += _periodic(np.subtract, b.T, 1, -1, c.T).T
            a *= 0.25 * self.inv_h2
            rhs += a
        if self.f is not None:
            react = _horner(self.f, u, c)
            react /= self.eps**2
            rhs += react
        rhs *= dt
        new = np.add(u, rhs, out=rhs)
        self.t += dt
        if not (np.isfinite(new.min()) and np.isfinite(new.max())):
            raise Blowup(f"non-finite value at {self._where()}")
        self.u, self.rhs = new, u


def step(fld: ScalarField, spec: ModelSpec, dt: float, *,
         reaction: bool = True) -> ScalarField:
    """One forward-Euler step; raises CFLViolated/Blowup on contract breaks."""
    stepper = _Stepper(fld, spec, reaction=reaction)
    stepper.advance(dt)
    return ScalarField(fld.grid, stepper.u, stepper.t)


def simulate(u0: ScalarField, spec: ModelSpec, t_end: float,
             snapshot_times=None, *, reaction: bool = True) -> list[ScalarField]:
    """March to t_end with the stability step, landing exactly on snapshots."""
    targets = sorted(set(float(s) for s in (snapshot_times or [])) | {float(t_end)})
    if not np.isfinite(targets).all():
        raise ConfigError("t_end and snapshot times must be finite")
    if t_end < 0.0:
        raise ConfigError("t_end must be nonnegative")
    if not np.isfinite(u0.values).all():
        raise Blowup(f"initial data is not finite (eps = {spec.epsilon:g}, "
                     f"grid n = {u0.grid.n})")
    if targets[0] < 0.0 or targets[-1] > t_end:
        raise ConfigError("snapshot times must lie in [0, t_end]")

    stepper = _Stepper(u0, spec, reaction=reaction)
    out = []
    for target in targets:
        while stepper.t < target - 1e-14:
            stepper.advance(min(stepper.dt_max, target - stepper.t))
        stepper.t = target
        out.append(stepper.field())
    return out


def extract_level_set(fld: ScalarField, level: float) -> list[FrontCurve]:
    """Marching-squares contours of the field, longest loop first."""
    loops = marching_squares(fld.values, fld.grid.h, level)
    if not loops:
        raise NoContour(f"level {level:g} is not crossed")
    return sorted(loops, key=lambda c: -c.n_vertices)


def ordering_check(u_low: ScalarField, u_high: ScalarField, spec: ModelSpec,
                   t_end: float, tol: float = 1e-8):
    """March both fields in lockstep; report the worst comparison violation."""
    if u_low.grid.n != u_high.grid.n:
        raise ConfigError("fields live on different grids")
    violation = float(np.max(u_low.values - u_high.values))
    if violation > 0.0:
        raise ConfigError("u_low must not exceed u_high initially")
    lo = _Stepper(u_low, spec)
    hi = _Stepper(u_high, spec)
    t = 0.0
    while t < t_end - 1e-14:
        dt = min(lo.dt_max, t_end - t)
        lo.advance(dt)
        hi.advance(dt)
        t += dt
        violation = max(violation, float(np.max(lo.u - hi.u)))
    return violation <= tol, violation


# ---------------------------------------------------------------------------
# initial data generators
# ---------------------------------------------------------------------------

def trig_product_field(grid: Grid, amplitude: float = 0.5, kx: int = 1,
                       ky: int = 1, offset: float = 0.0) -> ScalarField:
    x, y = grid.cell_centers()
    vals = offset + amplitude * np.cos(2 * np.pi * kx * x) * np.cos(2 * np.pi * ky * y)
    return ScalarField(grid, vals)


def random_smooth_field(grid: Grid, rng, amplitude: float = 0.5,
                        max_mode: int = 3, offset: float = 0.0) -> ScalarField:
    """Random low-mode trigonometric polynomial with sup-norm <= amplitude."""
    x, y = grid.cell_centers()
    vals = np.zeros_like(x)
    for kx in range(max_mode + 1):
        for ky in range(max_mode + 1):
            if kx == 0 and ky == 0:
                continue
            amp = rng.normal()
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            vals += (amp * np.cos(2 * np.pi * kx * x + px)
                     * np.cos(2 * np.pi * ky * y + py))
    sup = np.abs(vals).max()
    if sup > 0:
        vals *= amplitude / sup
    return ScalarField(grid, offset + vals)


# ---------------------------------------------------------------------------
# field dumps: raw little-endian float64, row-major, with a JSON sidecar
# ---------------------------------------------------------------------------

def write_field_dump(prefix, fld: ScalarField, epsilon: float) -> None:
    prefix = str(Path(prefix))
    fld.values.astype("<f8").tofile(prefix + ".f64")
    sidecar = {"n": fld.grid.n, "h": fld.grid.h, "t": fld.t, "epsilon": epsilon}
    with open(prefix + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def read_field_dump(prefix) -> tuple[ScalarField, float]:
    prefix = str(Path(prefix))
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    n = int(meta["n"])
    values = np.fromfile(prefix + ".f64", dtype="<f8").reshape(n, n)
    return ScalarField(Grid(n), values, float(meta["t"])), float(meta["epsilon"])
