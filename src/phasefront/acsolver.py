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
is the CFL-checked single-step wrapper around the same stepper. The stepper
splits the grid into row blocks, one per usable CPU but none under
ROWS_PER_BLOCK rows, and steps them on threads with one kernel; numpy
releases the interpreter lock inside the slice operations, and every cell
sees the same arithmetic however the rows are split.
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import FrontCurve, marching_squares
from .errors import Blowup, CFLViolated, ConfigError, NoContour
from .model import ModelSpec

CFL_REACTION_SAFETY = 0.2
# A grid is split into row blocks of at least this many rows, one per usable
# CPU. Smaller blocks lose more to the thread handoff than they gain: on a
# 2-core machine a 128^2 step split in two took 0.26 ms against 0.18 ms whole.
ROWS_PER_BLOCK = 128

_log = logging.getLogger(__name__)


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


def _flux_factor(poly):
    """Horner coefficients of a diagonal entry of D, or None when the entry
    is the constant 1: a flux times 1.0 is the same flux, bit for bit."""
    coefs = _descending(poly)
    return None if coefs.size == 1 and coefs[0] == 1.0 else coefs


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


def _periodic_cols(op, v: np.ndarray, p: int, q: int,
                   out: np.ndarray) -> np.ndarray:
    """out[:, j] = op(v[:, j + p], v[:, j + q]) with periodic wrap in j, for
    offsets p, q in {-1, 0, 1}: the interior is one slice operation and the
    at most two wrapped columns are done one by one."""
    n = v.shape[1]
    lo, hi = max(0, -p, -q), max(0, p, q)
    op(v[:, lo + p:n - hi + p], v[:, lo + q:n - hi + q], out=out[:, lo:n - hi])
    for j in (*range(lo), *range(n - hi, n)):
        op(v[:, (j + p) % n], v[:, (j + q) % n], out=out[:, j])
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_count(n: int) -> int:
    """One block per usable CPU, but no block under ROWS_PER_BLOCK rows."""
    return max(1, min(_usable_cpus(), n // ROWS_PER_BLOCK))


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The executor that runs every row block past the caller's own, created
    on first use and shared by every stepper of the process."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1),
                                       thread_name_prefix="phasefront-rows")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: start afresh."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


class _Stepper:
    """Forward-Euler march of one (spec, grid, reaction) on preallocated
    buffers.

    The stability bound and the Horner coefficients are computed once. The
    field lives in an (n+2) x n buffer whose first and last rows are ghost
    copies of rows n-1 and 0, so every row block reads its one-row halo as a
    plain slice. One kernel steps a block of rows into the second buffer;
    the caller runs the first block and the shared pool the others, joined
    once per step, after which the ghost rows are refreshed and the two
    buffers swap. A block no worker has started by the time the caller is
    done is taken back and stepped by the caller. Each block owns three work
    arrays of its rows plus the halo. A grid under 2 * ROWS_PER_BLOCK rows
    is one block on the caller.
    """

    def __init__(self, fld: ScalarField, spec: ModelSpec, *,
                 reaction: bool = True):
        grid = fld.grid
        self.grid = grid
        self.eps = spec.epsilon
        self.dt_max = stability_dt(spec, grid)
        d = spec.diffusivity
        self.d11 = _flux_factor(d.entry(0, 0))
        self.d22 = _flux_factor(d.entry(1, 1))
        d12 = _descending(d.entry(0, 1))
        self.d12 = d12 if d12.size > 1 or d12[0] != 0.0 else None
        self.f = _descending(spec.reaction.poly) if reaction else None
        self.inv_h2 = 1.0 / (grid.h * grid.h)
        n = grid.n
        self.buf, self.spare = np.empty((n + 2, n)), np.empty((n + 2, n))
        self.buf[1:-1] = fld.values
        self._refresh_ghosts(self.buf)
        k = _block_count(n)
        edges = [n * i // k for i in range(k + 1)]
        self.blocks = [(r0, r1, *(np.empty((r1 - r0 + 2, n)) for _ in range(3)))
                       for r0, r1 in zip(edges[:-1], edges[1:])]
        self.t = fld.t
        self.step_index = 0

    @property
    def u(self) -> np.ndarray:
        """The field: a view of the buffer without its ghost rows."""
        return self.buf[1:-1]

    @staticmethod
    def _refresh_ghosts(buf: np.ndarray) -> None:
        buf[0] = buf[-2]
        buf[-1] = buf[1]

    def _where(self) -> str:
        return (f"t = {self.t:g}, step {self.step_index}, "
                f"eps = {self.eps:g}, grid n = {self.grid.n}")

    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.u.copy(), self.t)

    def _kernel(self, block, buf: np.ndarray, new: np.ndarray, dt: float):
        """Step rows r0..r1-1 of the field in buf into the same rows of new
        and return their min and max.

        v holds the block's rows with one halo row on each side, so v[k] is
        field row r0 - 1 + k; the axis-0 flux is taken on the m + 1 faces
        between them and the cross term's x-derivative on all m + 2 rows.
        """
        r0, r1, a, b, c = block
        m = r1 - r0
        v = buf[r0:r1 + 2]
        mid = v[1:-1]
        rhs = new[r0 + 1:r1 + 1]

        flux = np.subtract(v[1:], v[:-1], out=a[:m + 1])
        if self.d11 is not None:
            face = b[:m + 1]
            if self.d11.size > 1:
                np.add(v[:-1], v[1:], out=face)
                face *= 0.5
            flux *= _horner(self.d11, face, c[:m + 1])
        np.subtract(flux[1:], flux[:-1], out=rhs)

        flux = _periodic_cols(np.subtract, mid, 1, 0, a[:m])
        if self.d22 is not None:
            face = b[:m]
            if self.d22.size > 1:
                _periodic_cols(np.add, mid, 0, 1, face)
                face *= 0.5
            flux *= _horner(self.d22, face, c[:m])
        rhs += flux
        rhs[:, 1:] -= flux[:, :-1]
        rhs[:, :1] -= flux[:, -1:]
        rhs *= self.inv_h2

        if self.d12 is not None:
            d12 = _horner(self.d12, v, c)
            gx = _periodic_cols(np.subtract, v, 1, -1, b)
            gx *= d12                               # gx = D12(u) * 2h u_y
            cross = np.subtract(gx[2:], gx[:-2], out=a[:m])
            gy = np.subtract(v[2:], v[:-2], out=b[:m])
            gy *= d12[1:-1] if np.ndim(d12) else d12  # gy = D12(u) * 2h u_x
            cross += _periodic_cols(np.subtract, gy, 1, -1, c[:m])
            cross *= 0.25 * self.inv_h2
            rhs += cross
        if self.f is not None:
            react = _horner(self.f, mid, c[:m])
            react /= self.eps**2
            rhs += react
        rhs *= dt
        np.add(mid, rhs, out=rhs)
        return rhs.min(), rhs.max()

    def advance(self, dt: float) -> None:
        """One forward-Euler step of length dt."""
        self.step_index += 1
        if dt > self.dt_max * (1.0 + 1e-9):
            raise CFLViolated(
                f"dt = {dt:g} exceeds the stability bound {self.dt_max:g} "
                f"at {self._where()}")
        buf, new = self.buf, self.spare
        first, *rest = self.blocks
        # workers run in a copy of the caller's context, so np.errstate holds
        futures = [_pool().submit(contextvars.copy_context().run,
                                  self._kernel, block, buf, new, dt)
                   for block in rest]
        try:
            ranges = [self._kernel(first, buf, new, dt)]
            # a block no worker has started yet is stepped here instead
            ranges += [self._kernel(block, buf, new, dt) if f.cancel()
                       else f.result() for block, f in zip(rest, futures)]
        except BaseException:
            for f in futures:   # no block may still write once this returns
                if not f.cancel():
                    f.exception()
            raise
        self.t += dt
        if not all(math.isfinite(x) for r in ranges for x in r):
            raise Blowup(f"non-finite value at {self._where()}")
        self._refresh_ghosts(new)
        self.buf, self.spare = new, buf


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

    start = time.perf_counter()
    stepper = _Stepper(u0, spec, reaction=reaction)
    out = []
    for target in targets:
        while stepper.t < target - 1e-14:
            stepper.advance(min(stepper.dt_max, target - stepper.t))
        stepper.t = target
        out.append(stepper.field())
    _log.debug("simulate: grid n = %d, row blocks = %d, steps = %d, "
               "dt_max = %g, wall = %.3f s", u0.grid.n, len(stepper.blocks),
               stepper.step_index, stepper.dt_max, time.perf_counter() - start)
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
    if not np.isfinite(t_end):
        raise ConfigError("t_end must be finite")
    if t_end < 0.0:
        raise ConfigError("t_end must be nonnegative")
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
