"""Explicit finite-difference solver for the bistable reaction-diffusion
problem in divergence form on the periodic unit torus.

Scheme: forward Euler; diagonal fluxes use face-centered diffusivity evaluated
at the arithmetic mean of the adjacent cell values, cross terms use
cell-centered diffusivity with centered mixed differences, and the reaction
is pointwise. Every flux term telescopes over the torus, so the reaction-free
scheme conserves mass to round-off.

One scheme path serves every diffusivity: a constant entry is a degree-0
polynomial, whose face value is a scalar factor. A ``Stepper`` holds one
march, with the stability bound and the Horner coefficients computed once and
the field in preallocated buffers, and ``step(stepper, dt)`` takes its every
CFL-checked step, in ``simulate``, ``ordering_check`` and any other march.
The kernel writes u + dt/h^2 (flux divergence) + cross + dt/eps^2 f(u) with
the scalings carried by the coefficients: dt/h^2 scales the divergence once,
the D12 coefficients carry dt/(4h^2), those of f carry dt/eps^2, and those of
D11 and D22 are taken at the sum of the two face values, c_k/2^k, which is
exact.
The stepper splits the grid into row blocks, one per usable CPU but none
under ROWS_PER_BLOCK rows, and steps them with one kernel: the caller runs
the first block and a forked worker process each other one, on field buffers
in shared memory. Threads would not do: the kernel's numpy operations on a
block hold the interpreter lock for much of their time, so two threads
stepped a 256^2 grid no faster than one. Each block is stepped in chunks of
at most CHUNK_CELLS cells, whose work arrays stay in the core's L2 cache.
Every cell sees the same arithmetic however the rows are split or chunked. A
worker only records numpy's error flags; the caller steps a flagged block
again under its own ``np.errstate``, so numpy acts on the errors as in the
one-block march.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import math
import mmap
import os
import signal
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import FrontCurve, marching_squares
from .errors import Blowup, CFLViolated, ConfigError, NoContour, WorkerLost
from .model import ModelSpec

CFL_REACTION_SAFETY = 0.2
# A grid is split into row blocks of at least this many rows, one per usable
# CPU. Smaller blocks lose more to the handoff than they gain: on a 2-core
# machine a 128^2 step split across two processes took 0.185 ms against
# 0.155 ms whole, the difference being the pipe round trip.
ROWS_PER_BLOCK = 128
# A row block is stepped in chunks of at most this many cells (256 KiB per
# work array), so that a chunk's five arrays (its field rows, its new rows
# and three work arrays) stay in a 2 MiB L2 cache instead of streaming from
# L3. On a 2-core machine a 512^2 step split in two blocks took 20-31% less
# time in 64-row chunks than unchunked and 7-9% less than in 128-row ones,
# while 64-row chunks stepped a split 256^2 grid 17-24% slower than one
# 128-row chunk per block, which this budget keeps.
CHUNK_CELLS = 2**15
ORDERING_TOL = 1e-8         # largest u_low - u_high ordering_check accepts
RANDOM_MAX_MODE = 3         # highest wave number of random_smooth_field

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
    """Horner coefficients of a diagonal entry of D as a polynomial in the
    sum of the two cell values at a face, or None when the entry is the
    constant 1: a flux times 1.0 is the same flux, bit for bit.

    The degree-k coefficient is c_k/2^k. Scaling by a power of two is exact,
    so Horner on the sum gives the bits Horner on the mean gave.
    """
    coefs = _descending(poly)
    if coefs.size == 1 and coefs[0] == 1.0:
        return None
    return coefs * 0.5 ** np.arange(coefs.size - 1, -1, -1)


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
    offsets p, q in {-1, 0, 1}, on C-contiguous v and out of one shape that
    share no memory.

    One operation over the flattened rows does every column, the at most two
    wrapped ones with a neighbour row's values, and those are then done
    again one by one. A strided 2-D slice operation instead took twice as
    long and allocated numpy's iterator buffers on every call.
    """
    n = v.shape[1]
    lo, hi = max(0, -p, -q), max(0, p, q)
    flat, end = np.reshape(v, -1, copy=False), v.size - hi
    op(flat[lo + p:end + p], flat[lo + q:end + q],
       out=np.reshape(out, -1, copy=False)[lo:end])
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


# One command to a worker: the parity of the buffer that holds the field and
# dt. One reply: the block's min and max and the numpy error flags its step
# raised, as numpy's error callback reports them.
_COMMAND = struct.Struct("<Bd")
_REPLY = struct.Struct("<ddB")
_FLAG_BITS = {"divide": 1, "over": 2, "under": 4, "invalid": 8}


def _read_exact(fd: int, size: int) -> bytes:
    """size bytes from fd, or fewer if the writing end closed first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


class _RowWorker:
    """A forked process that runs serve(command fd, reply fd) and exits.

    The child keeps its two pipe ends and the standard streams and closes
    every other descriptor, so no worker holds another's pipes: each sees
    end-of-file on its commands once its caller's end closes. It ignores
    SIGINT, since the caller ends it, and prints no traceback of its own.
    """

    def __init__(self, serve):
        cmd_r, self.cmd = os.pipe()
        self.reply, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (cmd_r, self.cmd, self.reply, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                gc.freeze()     # the caller's objects are never finalized here
                lo, hi = sorted((cmd_r, reply_w))
                os.closerange(3, lo)
                os.closerange(lo + 1, hi)
                os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
                serve(cmd_r, reply_w)
                code = 0
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(reply_w)

    def close(self) -> None:
        """Kill and reap the worker: between steps it holds nothing to flush."""
        os.close(self.cmd)
        os.close(self.reply)
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


class Stepper:
    """Forward-Euler march of one (spec, grid, reaction) on preallocated
    buffers; ``step(stepper, dt)`` takes each step.

    The stability bound dt_max and the Horner coefficients are computed
    once; the coefficients scaled by dt are derived again, in each process,
    only when dt changes, as at the landing step before a snapshot. The
    field lives in an (n+2) x n buffer whose first and last rows are ghost
    copies of rows n-1 and 0, so every row block reads its one-row halo as a
    plain slice. One kernel steps a block of rows into the second buffer,
    ``chunk_rows`` rows at a time through one set of work arrays. The caller
    steps the first block. Each other block has a worker process, forked
    when the stepper is built, that shares the two field buffers through one
    anonymous shared mapping and keeps its own work arrays. Per step the
    caller sends every worker one command, reads one reply, steps again any
    block whose error flags meet a mode it does not ignore, and then
    refreshes the ghost rows and swaps the buffers. A grid under
    2 * ROWS_PER_BLOCK rows and a system without os.fork run as one block on
    the caller. Closing the stepper, or leaving its ``with`` block, ends its
    workers. ``u`` views the field, ``field()`` copies it out at time ``t``
    and ``step_index`` counts the steps.
    """

    def __init__(self, fld: ScalarField, spec: ModelSpec, *, reaction: bool = True):
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
        self._dt = None         # the dt self._scaled_coefs were derived for
        n = grid.n
        k = _block_count(n) if hasattr(os, "fork") else 1
        edges = [n * i // k for i in range(k + 1)]
        self.rows = list(zip(edges[:-1], edges[1:]))
        self.chunk_rows = min(max(1, CHUNK_CELLS // n),
                              max(r1 - r0 for r0, r1 in self.rows))
        shape = (2, n + 2, n)
        if k > 1:   # anonymous and MAP_SHARED: the workers see every write
            self._pair = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                                       dtype=float).reshape(shape)
        else:
            self._pair = np.empty(shape)
        self._parity = 0            # the field is in self._pair[self._parity]
        self._pair[0, 1:-1] = fld.values
        self._refresh_ghosts(self._pair[0])
        self._block = self._work_block(self.rows[0])
        self.t = fld.t
        self.step_index = 0
        self.reply_wait = 0.0
        self.workers = []
        try:
            for rows in self.rows[1:]:
                self.workers.append(_RowWorker(
                    lambda cmd, reply, rows=rows: self._serve(rows, cmd, reply)))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Stepper":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End the workers. The field buffers stay mapped for as long as an
        array views them."""
        while self.workers:
            self.workers.pop().close()

    @property
    def u(self) -> np.ndarray:
        """The field: a view of the buffer without its ghost rows."""
        return self._pair[self._parity, 1:-1]

    @staticmethod
    def _refresh_ghosts(buf: np.ndarray) -> None:
        buf[0] = buf[-2]
        buf[-1] = buf[1]

    def _where(self) -> str:
        return (f"t = {self.t:g}, step {self.step_index}, "
                f"eps = {self.eps:g}, grid n = {self.grid.n}")

    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.u.copy(), self.t)

    def _work_block(self, rows) -> tuple:
        """The kernel's block: rows r0..r1-1 and three work arrays of one
        chunk's rows plus the halo."""
        r0, r1 = rows
        shape = (min(self.chunk_rows, r1 - r0) + 2, self.grid.n)
        return (r0, r1, *(np.empty(shape) for _ in range(3)))

    def _scaled(self, dt: float) -> tuple:
        """alpha = dt/h^2, the D12 coefficients times alpha/4 and the f
        coefficients times dt/eps^2, derived again only when dt changes."""
        if dt != self._dt:
            alpha = dt * self.inv_h2
            self._scaled_coefs = (
                alpha,
                None if self.d12 is None else self.d12 * (0.25 * alpha),
                None if self.f is None else self.f * (dt / self.eps**2))
            self._dt = dt
        return self._scaled_coefs

    def _kernel(self, block, buf: np.ndarray, new: np.ndarray, dt: float):
        """Step rows r0..r1-1 of the field in buf into the same rows of new,
        chunk by chunk, and return their min and max. np.minimum and
        np.maximum fold the chunks' extremes, carrying a NaN through where
        the builtins would drop it."""
        r0, r1 = block[:2]
        coefs = self._scaled(dt)
        rows = self.chunk_rows
        lo = hi = None
        for c0 in range(r0, r1, rows):
            rhs = self._step_rows(block, c0, min(c0 + rows, r1), buf, new, *coefs)
            lo = rhs.min() if lo is None else np.minimum(lo, rhs.min())
            hi = rhs.max() if hi is None else np.maximum(hi, rhs.max())
        return lo, hi

    def _step_rows(self, block, r0: int, r1: int, buf: np.ndarray,
                   new: np.ndarray, alpha: float, d12, f) -> np.ndarray:
        """Write u + alpha (flux divergence) + cross + dt/eps^2 f(u) for rows
        r0..r1-1 of the field in buf into the same rows of new, with the
        block's work arrays, and return that view. d12 and f are the
        dt-scaled coefficients.

        v holds the rows with one halo row on each side, so v[k] is field
        row r0 - 1 + k; the axis-0 flux is taken on the m + 1 faces between
        them and the cross term's x-derivative on all m + 2 rows.
        """
        a, b, c = block[2:]
        m = r1 - r0
        v = buf[r0:r1 + 2]
        mid = v[1:-1]
        rhs = new[r0 + 1:r1 + 1]

        flux = np.subtract(v[1:], v[:-1], out=a[:m + 1])
        if self.d11 is not None:
            face = b[:m + 1]                        # twice the face value
            if self.d11.size > 1:
                np.add(v[:-1], v[1:], out=face)
            flux *= _horner(self.d11, face, c[:m + 1])
        np.subtract(flux[1:], flux[:-1], out=rhs)

        flux = _periodic_cols(np.subtract, mid, 1, 0, a[:m])
        if self.d22 is not None:
            face = b[:m]
            if self.d22.size > 1:
                _periodic_cols(np.add, mid, 0, 1, face)
            flux *= _horner(self.d22, face, c[:m])
        rhs += _periodic_cols(np.subtract, flux, 0, -1, b[:m])
        rhs *= alpha

        if d12 is not None:
            d12 = _horner(d12, v, c[:m + 2])        # alpha/4 D12(u)
            gx = _periodic_cols(np.subtract, v, 1, -1, b[:m + 2])
            gx *= d12                               # gx = alpha/4 D12(u) 2h u_y
            cross = np.subtract(gx[2:], gx[:-2], out=a[:m])
            gy = np.subtract(v[2:], v[:-2], out=b[:m])
            gy *= d12[1:-1] if np.ndim(d12) else d12  # gy = alpha/4 D12(u) 2h u_x
            cross += _periodic_cols(np.subtract, gy, 1, -1, c[:m])
            rhs += cross
        if f is not None:
            rhs += _horner(f, mid, c[:m])
        np.add(mid, rhs, out=rhs)
        return rhs

    def _serve(self, rows, cmd: int, reply: int) -> None:
        """A worker's loop: step its block on every command until the
        caller's end of the command pipe closes. numpy hands every
        floating-point error to a callback that records its flag bits."""
        block = self._work_block(rows)
        flags = 0

        def record(kind: str, flag: int) -> None:
            nonlocal flags
            flags |= flag

        np.seterrcall(record)
        np.seterr(all="call")
        while command := _read_exact(cmd, _COMMAND.size):
            parity, dt = _COMMAND.unpack(command)
            flags = 0
            lo, hi = self._kernel(block, self._pair[parity],
                                  self._pair[1 - parity], dt)
            os.write(reply, _REPLY.pack(lo, hi, flags))  # atomic: under PIPE_BUF

    def _lost(self, worker: _RowWorker) -> WorkerLost:
        return WorkerLost(f"row-block worker {worker.pid} exited at {self._where()}")

    def _gather(self) -> list:
        """Every worker's (min, max, flags) for this step."""
        start = time.perf_counter()
        replies = []
        for worker in self.workers:
            reply = _read_exact(worker.reply, _REPLY.size)
            if len(reply) < _REPLY.size:
                raise self._lost(worker)
            replies.append(_REPLY.unpack(reply))
        self.reply_wait += time.perf_counter() - start
        return replies


def step(stepper: Stepper, dt: float) -> None:
    """One forward-Euler step of length dt of the stepper's field. Raises
    CFLViolated, Blowup or WorkerLost naming the t, step, eps and grid at
    which it fired."""
    stepper.step_index += 1
    if dt > stepper.dt_max * (1.0 + 1e-9):
        raise CFLViolated(
            f"dt = {dt:g} exceeds the stability bound {stepper.dt_max:g} "
            f"at {stepper._where()}")
    buf, new = stepper._pair[stepper._parity], stepper._pair[1 - stepper._parity]
    command = _COMMAND.pack(stepper._parity, dt)
    for worker in stepper.workers:
        try:
            os.write(worker.cmd, command)   # atomic: under PIPE_BUF
        except OSError as exc:
            raise stepper._lost(worker) from exc
    try:
        ranges = [stepper._kernel(stepper._block, buf, new, dt)]
    except BaseException:
        # no block may still write once this returns; the caller's own
        # error is the one raised
        with contextlib.suppress(Exception):
            stepper._gather()
        raise
    for rows, (lo, hi, flags) in zip(stepper.rows[1:], stepper._gather()):
        if flags and any(mode != "ignore" and flags & _FLAG_BITS[kind]
                         for kind, mode in np.geterr().items()):
            # the kernel reads only buf, so stepping the worker's rows
            # again writes the bytes it wrote, and numpy warns, raises
            # or calls back as the caller's errstate says
            lo, hi = stepper._kernel(stepper._work_block(rows), buf, new, dt)
        ranges.append((lo, hi))
    stepper.t += dt
    if not all(math.isfinite(x) for r in ranges for x in r):
        raise Blowup(f"non-finite value at {stepper._where()}")
    stepper._refresh_ghosts(new)
    stepper._parity ^= 1


def simulate(u0: ScalarField, spec: ModelSpec, t_end: float,
             snapshot_times=None) -> list[ScalarField]:
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
    out = []
    with Stepper(u0, spec) as stepper:
        for target in targets:
            while stepper.t < target - 1e-14:
                step(stepper, min(stepper.dt_max, target - stepper.t))
            stepper.t = target
            out.append(stepper.field())
    _log.debug("simulate: grid n = %d, row blocks = %d, rows per chunk = %d, "
               "workers = %d, steps = %d, dt_max = %g, reply wait = %.3f s, "
               "wall = %.3f s",
               u0.grid.n, len(stepper.rows), stepper.chunk_rows,
               len(stepper.rows) - 1,
               stepper.step_index, stepper.dt_max, stepper.reply_wait,
               time.perf_counter() - start)
    return out


def extract_level_set(fld: ScalarField, level: float) -> list[FrontCurve]:
    """Marching-squares contours of the field, longest loop first."""
    loops = marching_squares(fld.values, fld.grid.h, level)
    if not loops:
        raise NoContour(f"level {level:g} is not crossed")
    return sorted(loops, key=lambda c: -c.n_vertices)


def ordering_check(u_low: ScalarField, u_high: ScalarField, spec: ModelSpec,
                   t_end: float):
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
    with Stepper(u_low, spec) as lo, Stepper(u_high, spec) as hi:
        t = 0.0
        while t < t_end - 1e-14:
            dt = min(lo.dt_max, t_end - t)
            step(lo, dt)
            step(hi, dt)
            t += dt
            violation = max(violation, float(np.max(lo.u - hi.u)))
    return violation <= ORDERING_TOL, violation


# ---------------------------------------------------------------------------
# initial data generators
# ---------------------------------------------------------------------------

def trig_product_field(grid: Grid, amplitude: float = 0.5, kx: int = 1,
                       ky: int = 1, offset: float = 0.0) -> ScalarField:
    x, y = grid.cell_centers()
    vals = offset + amplitude * np.cos(2 * np.pi * kx * x) * np.cos(2 * np.pi * ky * y)
    return ScalarField(grid, vals)


def random_smooth_field(grid: Grid, rng, amplitude: float = 0.5) -> ScalarField:
    """Random low-mode trigonometric polynomial with sup-norm <= amplitude."""
    x, y = grid.cell_centers()
    vals = np.zeros_like(x)
    for kx in range(RANDOM_MAX_MODE + 1):
        for ky in range(RANDOM_MAX_MODE + 1):
            if kx == 0 and ky == 0:
                continue
            amp = rng.normal()
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            vals += (amp * np.cos(2 * np.pi * kx * x + px)
                     * np.cos(2 * np.pi * ky * y + py))
    sup = np.abs(vals).max()
    if sup > 0:
        vals *= amplitude / sup
    return ScalarField(grid, vals)


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
