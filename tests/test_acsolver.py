import contextlib
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    live_children,
    process_alive,
    propagation_ellipse,
    propagation_spec,
    softstep_circle_field,
)

from phasefront import acsolver, errors
from phasefront.acsolver import (
    Grid,
    ScalarField,
    Stepper,
    extract_level_set,
    mass,
    ordering_check,
    random_smooth_field,
    simulate,
    stability_dt,
    step,
    trig_product_field,
)
from phasefront.curves import enclosed_area
from phasefront.harness import tanh_ansatz_field
from phasefront.mobility import tabulate_mobility
from phasefront.model import (
    ModelSpec,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    polynomial_diffusivity,
    rotated_diagonal_diffusivity,
)
from phasefront.profile import ProfileTable


def _roll_step(u, spec, dt, h):
    """Reference forward-Euler step of the face-averaged scheme, by np.roll."""
    d = spec.diffusivity
    uxp, uxm = np.roll(u, -1, 0), np.roll(u, 1, 0)
    uyp, uym = np.roll(u, -1, 1), np.roll(u, 1, 1)
    flux_x = d.entry(0, 0)(0.5 * (u + uxp)) * (uxp - u)
    flux_y = d.entry(1, 1)(0.5 * (u + uyp)) * (uyp - u)
    rhs = (flux_x - np.roll(flux_x, 1, 0) + flux_y - np.roll(flux_y, 1, 1)) / h**2
    d12 = d.entry(0, 1)(u)
    gx = d12 * (uyp - uym)
    gy = d12 * (uxp - uxm)
    rhs += (np.roll(gx, -1, 0) - np.roll(gx, 1, 0)
            + np.roll(gy, -1, 1) - np.roll(gy, 1, 1)) / (4 * h**2)
    rhs += spec.reaction.f(u) / spec.epsilon**2
    return u + dt * rhs


def _march(fld, spec, dt, steps, *, reaction=True):
    """fld after the given number of steps of dt through one Stepper."""
    with Stepper(fld, spec, reaction=reaction) as stepper:
        for _ in range(steps):
            step(stepper, dt)
        return stepper.field()


def test_grid_power_of_two():
    assert Grid(256).h == 1.0 / 256
    assert Grid(64).h * 64 == 1.0
    with pytest.raises(errors.ConfigError):
        Grid(100)


def test_stability_dt_formula():
    spec = cubic_identity_model(0.02)
    # diffusion-limited at this resolution: h^2 / (4 N C_D)
    assert stability_dt(spec, Grid(256)) == pytest.approx(1.0 / (8 * 256**2), rel=1e-12)
    # reaction-limited when the grid is coarse: 0.2 eps^2 / max|f'| on the
    # widened range [-2, 2], where max|1 - 3u^2| = 11
    coarse = stability_dt(spec, Grid(8))
    assert coarse == pytest.approx(0.2 * 0.02**2 / 11.0, rel=1e-12)
    # quadratic law in h
    assert stability_dt(spec, Grid(512)) == pytest.approx(
        stability_dt(spec, Grid(256)) / 4.0, rel=1e-12)


def test_step_requires_stable_dt():
    spec = cubic_identity_model(0.02)
    g = Grid(64)
    fld = trig_product_field(g)
    with pytest.raises(errors.CFLViolated,
                       match=r"at t = 0, step 1, eps = 0\.02, grid n = 64"), \
            Stepper(fld, spec) as stepper:
        step(stepper, 10 * stability_dt(spec, g))


POLYNOMIAL_CROSS = polynomial_diffusivity([[[1.0, 0.0, 0.2], [0.3, 0.1, 0.05]],
                                           [[0.3, 0.1, 0.05], [1.5, 0.0, -0.1]]])


@pytest.mark.parametrize("diffusivity", [
    diagonal_diffusivity([1.0, 1.0]),
    rotated_diagonal_diffusivity(0.4, [1.0, 2.5]),
    POLYNOMIAL_CROSS,
], ids=["identity", "rotated-constant", "polynomial-cross"])
def test_step_matches_roll_reference(diffusivity, monkeypatch):
    spec = ModelSpec(cubic_reaction(), diffusivity, 0.05)
    g = Grid(32)
    fld = random_smooth_field(g, np.random.default_rng(6), amplitude=0.9)
    dt = stability_dt(spec, g)
    ref = fld.values
    with Stepper(fld, spec) as one_block:
        assert len(one_block.rows) == 1
        for _ in range(200):
            step(one_block, dt)
            ref = _roll_step(ref, spec, dt, g.h)
        assert np.abs(one_block.u - ref).max() <= 1e-13

        # the same march split into row blocks, even and uneven, or stepped
        # in uneven chunks of 7 rows (7, 7, 7, 7, 4 of one block; 7, 3 and
        # 7, 4 of three), is byte-equal
        for blocks, rows, chunk_rows in [(2, 16, 32), (3, 10, 32), (1, 32, 7),
                                         (2, 16, 7), (3, 10, 7)]:
            _split(monkeypatch, blocks, rows, chunk_rows * g.n)
            split = _march(fld, spec, dt, 200)
            assert split.values.tobytes() == one_block.u.tobytes()


def _split(monkeypatch, blocks, rows, chunk_cells=acsolver.CHUNK_CELLS):
    """Make every grid of at least blocks * rows rows run as that many row
    blocks, whatever the machine's CPU count, each stepped in chunks of at
    most chunk_cells cells."""
    monkeypatch.setattr(acsolver, "_usable_cpus", lambda: blocks)
    monkeypatch.setattr(acsolver, "ROWS_PER_BLOCK", rows)
    monkeypatch.setattr(acsolver, "CHUNK_CELLS", chunk_cells)


def test_alternating_dt_matches_roll_reference(monkeypatch):
    # the landing step before a snapshot is shorter: each process derives
    # the dt-scaled coefficients again whenever dt changes
    spec = ModelSpec(cubic_reaction(), POLYNOMIAL_CROSS, 0.05)
    g = Grid(32)
    fld = random_smooth_field(g, np.random.default_rng(8), amplitude=0.9)
    dt = stability_dt(spec, g)
    dts = [dt, dt / 3, dt] * 40
    ref = fld.values
    with Stepper(fld, spec) as one_block:
        for d in dts:
            step(one_block, d)
            ref = _roll_step(ref, spec, d, g.h)
        assert np.abs(one_block.u - ref).max() <= 1e-13
        _split(monkeypatch, 2, 16, 7 * g.n)
        with Stepper(fld, spec) as split:
            assert len(split.workers) == 1 and split.chunk_rows == 7
            for d in dts:
                step(split, d)
            assert split.u.tobytes() == one_block.u.tobytes()


def test_simulate_computes_stability_bound_once(monkeypatch):
    real = acsolver.stability_dt
    calls = []

    def counting(spec, grid):
        calls.append(grid.n)
        return real(spec, grid)

    monkeypatch.setattr(acsolver, "stability_dt", counting)
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    t_end = 50 * real(spec, g)
    snaps = simulate(trig_product_field(g), spec, t_end, snapshot_times=[0.5 * t_end])
    assert len(snaps) == 2
    assert calls == [16]


def test_blowup_names_where_it_fired():
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    dt = stability_dt(spec, g)
    u0 = np.zeros((16, 16))
    u0[3, 5] = 1e30
    with np.errstate(over="ignore", invalid="ignore"):
        ref, first_bad = u0, None
        for k in range(1, 20):
            ref = _roll_step(ref, spec, dt, g.h)
            if not np.isfinite(ref).all():
                first_bad = k
                break
        assert first_bad is not None and first_bad > 1
        with pytest.raises(errors.Blowup) as info:
            simulate(ScalarField(g, u0), spec, 20 * dt)
    m = re.search(r"t = (\S+), step (\d+), eps = (\S+), grid n = (\d+)",
                  str(info.value))
    assert m, str(info.value)
    assert int(m.group(2)) == first_bad
    assert float(m.group(1)) == pytest.approx(first_bad * dt, rel=1e-5)
    assert float(m.group(3)) == 0.05
    assert int(m.group(4)) == 16


def test_nan_in_any_chunk_raises_blowup(monkeypatch):
    _split(monkeypatch, 1, 16, 3 * 16)
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    u0 = np.zeros((16, 16))
    u0[10, 5] = np.nan          # rows 9-11 turn NaN: the fourth of six chunks
    with Stepper(ScalarField(g, u0), spec) as stepper, \
            pytest.raises(errors.Blowup, match="step 1,"):
        step(stepper, stability_dt(spec, g))


def test_split_stepper_keeps_its_checks(monkeypatch):
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    dt = stability_dt(spec, g)
    u0 = np.zeros((16, 16))
    u0[10, 5] = 1e30              # rows 8-11: the third of four blocks

    def blowup_message():
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(errors.Blowup) as info:
                simulate(ScalarField(g, u0), spec, 20 * dt)
        return str(info.value)

    one_block = blowup_message()
    _split(monkeypatch, 4, 4)
    assert acsolver._block_count(16) == 4
    # worker blocks run under the caller's errstate, so no RuntimeWarning
    assert blowup_message() == one_block
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        simulate(ScalarField(g, u0), spec, 20 * dt)
    with pytest.raises(errors.CFLViolated,
                       match=r"at t = 0, step 1, eps = 0\.05, grid n = 16"), \
            Stepper(trig_product_field(g), spec) as stepper:
        assert len(stepper.workers) == 3
        step(stepper, 10 * dt)


def test_split_simulate_leaves_no_processes_or_descriptors(monkeypatch):
    _split(monkeypatch, 2, 16)
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    t_end = 3 * stability_dt(spec, g)
    simulate(trig_product_field(g), spec, t_end)
    fds = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        simulate(trig_product_field(g), spec, t_end)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # not even a zombie is left
    assert len(os.listdir("/proc/self/fd")) <= fds


def test_no_worker_outlives_a_run(monkeypatch):
    _split(monkeypatch, 2, 16)
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    dt = stability_dt(spec, g)
    fld = random_smooth_field(g, np.random.default_rng(2), amplitude=0.9)
    snaps = simulate(fld, spec, 5 * dt, snapshot_times=[2 * dt])
    assert live_children() == []

    u0 = np.zeros((32, 32))
    u0[20, 5] = 1e30
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(errors.Blowup):
        simulate(ScalarField(g, u0), spec, 20 * dt)
    assert live_children() == []

    with pytest.raises(errors.CFLViolated), Stepper(fld, spec) as stepper:
        assert len(stepper.workers) == 1
        step(stepper, 10 * dt)
    assert live_children() == []

    assert ordering_check(fld, ScalarField(g, fld.values + 0.1), spec, 5 * dt)[0]
    assert live_children() == []

    # of two live steppers, neither worker holds the other's pipe ends
    with Stepper(fld, spec) as lo, Stepper(fld, spec) as hi:
        for stepper in (lo, hi):
            step(stepper, dt)       # a worker that replied has closed the rest
            fds = os.listdir(f"/proc/{stepper.workers[0].pid}/fd")
            assert len([fd for fd in fds if int(fd) > 2]) == 2
    assert live_children() == []

    # returned fields own their values; a view of a closed stepper's buffer
    # keeps that buffer mapped
    with Stepper(fld, spec) as stepper:
        for _ in range(5):
            step(stepper, dt)
        view = stepper.u
    del stepper
    assert view.tobytes() == snaps[-1].values.tobytes()
    monkeypatch.undo()              # the split run equals the one-block march
    assert snaps[-1].values.tobytes() == _march(fld, spec, dt, 5).values.tobytes()


def test_worker_warnings_reach_the_caller(monkeypatch):
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    dt = stability_dt(spec, g)
    u0 = np.zeros((16, 16))
    u0[10, 5] = 1e200             # rows 8-11: the third of four blocks

    tiny = np.zeros((16, 16))
    tiny[10, 5] = 1e-310          # subnormal: its square underflows

    def caught_warnings():
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="warn", invalid="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(errors.Blowup):
                simulate(ScalarField(g, u0), spec, 20 * dt)
        return sorted({(w.category, str(w.message)) for w in caught})

    def callback_kinds():
        kinds = []
        with warnings.catch_warnings(), np.errstate(
                over="call", invalid="ignore", call=lambda kind, flag: kinds.append(kind)):
            warnings.simplefilter("error")      # no RuntimeWarning either
            with pytest.raises(errors.Blowup):
                simulate(ScalarField(g, u0), spec, 20 * dt)
        return sorted(set(kinds))

    def underflow_error():
        with np.errstate(under="raise"), pytest.raises(FloatingPointError) as info:
            simulate(ScalarField(g, tiny), spec, 20 * dt)
        return str(info.value)

    one_block = caught_warnings()
    assert one_block and all(c is RuntimeWarning for c, _ in one_block)
    one_block_calls = callback_kinds()
    assert one_block_calls == ["overflow"]
    assert underflow_error() == "underflow encountered in multiply"
    _split(monkeypatch, 4, 4)
    assert caught_warnings() == one_block
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            simulate(ScalarField(g, u0), spec, 20 * dt)
    # a worker's flags make the caller step its block again under the
    # caller's own errstate, callback included
    assert callback_kinds() == one_block_calls
    assert underflow_error() == "underflow encountered in multiply"
    # a flag whose mode is 'ignore' steps no block again: the caller runs
    # only its own block
    caller, real_kernel = os.getpid(), Stepper._kernel
    rows_stepped = []

    def kernel(self, block, *args):
        if os.getpid() == caller:
            rows_stepped.append(block[:2])
        return real_kernel(self, block, *args)

    monkeypatch.setattr(Stepper, "_kernel", kernel)
    with np.errstate(under="ignore"):
        split = simulate(ScalarField(g, tiny), spec, 2 * dt)[-1]
    assert rows_stepped == [(0, 4), (0, 4)]
    monkeypatch.undo()              # the real kernel, on one block
    with np.errstate(under="ignore"):
        one_block = _march(ScalarField(g, tiny), spec, dt, 2)
    assert split.values.tobytes() == one_block.values.tobytes()


def test_killed_worker_raises_where_it_fired(monkeypatch):
    _split(monkeypatch, 2, 16)
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    dt = stability_dt(spec, g)
    caller = os.getpid()
    real_kernel = Stepper._kernel

    def stopping_step(stepper, dt):
        if stepper.step_index == 3:     # the worker cannot reply to step 4
            os.kill(stepper.workers[0].pid, signal.SIGSTOP)
        step(stepper, dt)

    def kernel(self, block, buf, new, dt):
        # the caller's block runs once the workers have their command, so
        # the worker dies with step 4 in flight
        if os.getpid() == caller and self.step_index == 4:
            os.kill(self.workers[0].pid, signal.SIGKILL)
        return real_kernel(self, block, buf, new, dt)

    # simulate looks step up by its module name
    monkeypatch.setattr(acsolver, "step", stopping_step)
    monkeypatch.setattr(Stepper, "_kernel", kernel)
    with pytest.raises(errors.WorkerLost,
                       match=r"exited at t = \S+, step 4, eps = 0\.05, grid n = 32"):
        simulate(trig_product_field(g), spec, 20 * dt)
    monkeypatch.setattr(acsolver, "step", step)
    monkeypatch.setattr(Stepper, "_kernel", real_kernel)

    # a worker that died between steps fails the next command
    with Stepper(trig_product_field(g), spec) as stepper:
        step(stepper, dt)
        pid = stepper.workers[0].pid
        os.kill(pid, signal.SIGKILL)
        while process_alive(pid):
            time.sleep(0.01)
        with pytest.raises(errors.WorkerLost, match=r"step 2, eps = 0\.05"):
            step(stepper, dt)


def _simulate_split_grid(fld, spec, t_end, expected):
    if simulate(fld, spec, t_end)[-1].values.tobytes() != expected:
        raise SystemExit(1)


def test_forked_child_runs_its_own_split(monkeypatch):
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    dt = stability_dt(spec, g)
    fld = trig_product_field(g)
    other = random_smooth_field(g, np.random.default_rng(7), amplitude=0.9)
    # the one-block marches the split runs must equal
    expected = _march(fld, spec, dt, 2).values.tobytes()
    other_expected = _march(other, spec, dt, 20).values.tobytes()
    _split(monkeypatch, 2, 16)
    with Stepper(fld, spec) as stepper:
        step(stepper, dt)
        child = multiprocessing.get_context("fork").Process(
            target=_simulate_split_grid, args=(other, spec, 20 * dt, other_expected))
        child.start()
        child.join(timeout=30)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive and child.exitcode == 0
        step(stepper, dt)
        assert stepper.u.tobytes() == expected


_ENDLESS_RUN = """
import sys
from phasefront import acsolver
from phasefront.acsolver import Grid, simulate, trig_product_field
from phasefront.model import cubic_identity_model

acsolver._usable_cpus = lambda: 2
acsolver.ROWS_PER_BLOCK = 32
try:
    simulate(trig_product_field(Grid(64)), cubic_identity_model(0.05), 1e3)
except KeyboardInterrupt:
    print("interrupted")
"""


def _start_endless_run():
    """A python process in its own session that marches a split 64^2 grid
    for ever, and the pid of its one worker."""
    src = Path(acsolver.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", _ENDLESS_RUN], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    deadline = time.monotonic() + 30
    while not (workers := live_children(proc.pid)):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(f"no worker started: {proc.communicate()}")
        time.sleep(0.05)
    time.sleep(0.2)             # well into the march
    return proc, workers


def test_worker_exits_when_its_caller_is_killed():
    proc, workers = _start_endless_run()
    assert len(workers) == 1
    proc.kill()
    proc.wait()         # not communicate(): a stuck worker holds the pipes
    proc.stdout.close()
    proc.stderr.close()
    deadline = time.monotonic() + 5
    while process_alive(workers[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not process_alive(workers[0])
    finally:            # an orphan is no child of this process: end it here
        if process_alive(workers[0]):
            os.kill(workers[0], signal.SIGKILL)


def test_ctrl_c_ends_the_worker_quietly():
    proc, workers = _start_endless_run()
    os.killpg(proc.pid, signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=30)
    finally:            # the worker too, had it outlived its caller
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert out == "interrupted\n" and err == ""
    assert not process_alive(workers[0])


def test_simulate_logs_one_record_per_run(caplog, monkeypatch):
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    t_end = 10 * stability_dt(spec, g)
    with caplog.at_level(logging.DEBUG, logger="phasefront.acsolver"):
        simulate(trig_product_field(g), spec, t_end, snapshot_times=[0.5 * t_end])
        monkeypatch.setattr(acsolver, "CHUNK_CELLS", 5 * 16)
        simulate(trig_product_field(g), spec, t_end)
    first, chunked = (r.getMessage() for r in caplog.records)
    assert re.fullmatch(r"simulate: grid n = 16, row blocks = 1, "
                        r"rows per chunk = 16, workers = 0, steps = 10, "
                        r"dt_max = \S+, reply wait = 0\.000 s, wall = \S+ s", first)
    assert "row blocks = 1, rows per chunk = 5, workers = 0" in chunked


def test_constant_equilibria_are_fixed_points(monkeypatch):
    spec = cubic_identity_model(0.02)
    g = Grid(64)
    dt = stability_dt(spec, g)
    hi = ScalarField(g, np.full((64, 64), 1.0))
    assert np.abs(_march(hi, spec, dt, 1).values - 1.0).max() == 0.0
    mid = ScalarField(g, np.zeros((64, 64)))
    assert np.abs(_march(mid, spec, dt, 100).values).max() == 0.0

    # so are the wells and 0 of a polynomial D with cross terms, split into
    # row blocks stepped in uneven chunks
    _split(monkeypatch, 2, 16, 5 * 32)
    spec = ModelSpec(cubic_reaction(), POLYNOMIAL_CROSS, 0.05)
    g = Grid(32)
    for well in (-1.0, 0.0, 1.0):
        fld = ScalarField(g, np.full((32, 32), well))
        assert np.abs(_march(fld, spec, stability_dt(spec, g), 20).values
                      - well).max() == 0.0


def test_flat_interface_quasi_stationary():
    eps = 0.02
    spec = cubic_identity_model(eps)
    g = Grid(128)
    x, _ = g.cell_centers()
    u0 = ScalarField(g, np.tanh((x - 0.5) / (np.sqrt(2) * eps)))
    final = simulate(u0, spec, 10 * eps**2)[-1]
    curvesets = extract_level_set(final, 0.0)
    # the contour nearest x = 0.5 (the seam also carries a transition)
    drift = min(np.abs(c.vertices[:, 0] - 0.5).max() for c in curvesets
                if np.abs(c.wrapped_vertices()[:, 0] - 0.5).min() < 0.25)
    assert drift <= 2 * g.h


def test_simulate_snapshots_and_degenerate_cases():
    spec = cubic_identity_model(0.02)
    g = Grid(64)
    u0 = trig_product_field(g)
    only = simulate(u0, spec, 0.0)
    assert len(only) == 1 and only[0].t == 0.0
    assert np.array_equal(only[0].values, u0.values)

    hi = ScalarField(g, np.full((64, 64), 1.0))
    snaps = simulate(hi, spec, 1e-4, snapshot_times=[5e-5, 1e-4])
    assert [s.t for s in snaps] == [5e-5, 1e-4]
    for s in snaps:
        assert np.abs(s.values - 1.0).max() == 0.0


def test_simulate_circle_radius_law():
    eps = 0.02
    spec = cubic_identity_model(eps)
    g = Grid(256)
    u0 = softstep_circle_field(g, spec, (0.5, 0.5), 0.25, np.sqrt(2) * eps)
    final = simulate(u0, spec, 0.01)[-1]
    cont = extract_level_set(final, 0.0)[0]
    radii = np.linalg.norm(cont.vertices - 0.5, axis=1)
    assert np.abs(radii - np.sqrt(0.0625 - 0.02)).max() <= 5e-3


def test_simulate_anisotropic_area_law():
    # dA/dt = -int w dtheta for V_n = -kappa w(n), on the propagation model
    # D(s) = A + B s^2 and its ellipse. mu2, the part of the mobility that
    # comes from the nonlinear diffusion, is 2.7% of this rate: the error
    # must fall with eps and be at most half of that at eps 0.02
    spec0 = propagation_spec()
    rate = tabulate_mobility(spec0, 256).area_rate()
    table = ProfileTable.build(spec0, m_angles=64)
    errs = []
    for eps, n in [(0.04, 128), (0.028, 256), (0.02, 256)]:
        spec = spec0.with_epsilon(eps)
        u0 = tanh_ansatz_field(Grid(n), spec, table, propagation_ellipse())
        snaps = simulate(u0, spec, 4e-3, snapshot_times=[2e-3])
        a1, a2 = (enclosed_area(extract_level_set(s, spec.reaction.alpha_mid)[0])
                  for s in snaps)
        errs.append(abs((a1 - a2) / 2e-3 / rate - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1.35e-2


def test_extract_level_set_cases():
    g = Grid(64)
    x, _ = g.cell_centers()
    lin = ScalarField(g, x - 0.5)
    loops = extract_level_set(lin, 0.0)
    vertical = [c for c in loops if np.abs(c.vertices[:, 0] - 0.5).max() < 1e-12]
    assert vertical and vertical[0].wraps[1] != 0

    eps = 0.05
    spec = cubic_identity_model(eps)
    rad = softstep_circle_field(g, spec, (0.5, 0.5), 0.25, np.sqrt(2) * eps)
    cont = extract_level_set(rad, 0.0)[0]
    r = np.linalg.norm(cont.vertices - 0.5, axis=1)
    assert np.abs(r - 0.25).max() <= g.h

    flat = ScalarField(g, np.full((64, 64), 1.0))
    with pytest.raises(errors.NoContour):
        extract_level_set(flat, 0.0)


def test_mass_conserved_without_reaction():
    d = diagonal_diffusivity([[1.0, 0.0, 0.3], [2.0, 0.0, -0.2]])
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    g = Grid(64)
    fld = random_smooth_field(g, np.random.default_rng(0), amplitude=0.8)
    m0 = mass(fld)
    dt = stability_dt(spec, g)
    with Stepper(fld, spec, reaction=False) as stepper:
        for _ in range(200):
            step(stepper, dt)
            assert abs(mass(stepper.field()) - m0) <= 1e-12


def test_mass_conserved_with_cross_terms():
    d = polynomial_diffusivity([[[1.0, 0.0, 0.2], [0.3]],
                                [[0.3], [1.5, 0.0, -0.1]]])
    spec = ModelSpec(cubic_reaction(), d, 0.02)
    g = Grid(32)
    fld = random_smooth_field(g, np.random.default_rng(1), amplitude=0.7)
    m0 = mass(fld)
    dt = stability_dt(spec, g)
    assert abs(mass(_march(fld, spec, dt, 100, reaction=False)) - m0) <= 1e-12


def test_xy_symmetry_preserved():
    spec = cubic_identity_model(0.05)
    g = Grid(64)
    x, y = g.cell_centers()
    u0 = ScalarField(g, 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
                     + 0.2 * np.cos(2 * np.pi * (x + y)))
    assert np.abs(u0.values - u0.values.T).max() == 0.0
    cur = _march(u0, spec, stability_dt(spec, g), 200)
    assert np.abs(cur.values - cur.values.T).max() <= 1e-13


def test_invariant_region():
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    eta = 0.25
    fld = random_smooth_field(g, np.random.default_rng(3), amplitude=1.0 + eta)
    assert fld.values.max() <= 1.0 + eta and fld.values.min() >= -1.0 - eta
    dt = stability_dt(spec, g)
    with Stepper(fld, spec) as stepper:
        for _ in range(2000):
            step(stepper, dt)
            assert stepper.u.max() <= 1.0 + eta + 1e-12
            assert stepper.u.min() >= -1.0 - eta - 1e-12


def test_ordering_identical_and_shifted():
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    base = random_smooth_field(g, np.random.default_rng(4), amplitude=0.4)
    ok, viol = ordering_check(base, base.copy(), spec, 20 * stability_dt(spec, g))
    assert ok and viol == 0.0

    shifted = ScalarField(g, base.values + 0.1)
    ok, viol = ordering_check(base, shifted, spec, 20 * stability_dt(spec, g))
    assert ok and viol <= 1e-8


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -1e-4])
def test_ordering_rejects_bad_t_end(t_end):
    spec = cubic_identity_model(0.05)
    g = Grid(16)
    lo = ScalarField(g, np.full((16, 16), -0.5))
    hi = ScalarField(g, np.full((16, 16), 0.5))
    with pytest.raises(errors.ConfigError, match="t_end"):
        ordering_check(lo, hi, spec, t_end)


def test_ordering_random_pairs():
    spec = cubic_identity_model(0.05)
    g = Grid(32)
    rng = np.random.default_rng(5)
    dt = stability_dt(spec, g)
    for _ in range(5):
        lo = random_smooth_field(g, rng, amplitude=0.5)
        gap = 0.3 * (1.0 + np.sin(2 * np.pi * g.cell_centers()[0]))
        hi = ScalarField(g, lo.values + gap * 0.1)
        ok, viol = ordering_check(lo, hi, spec, 50 * dt)
        assert ok, viol
