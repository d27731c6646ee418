"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The phase-field sweeps (criteria 6-8) dominate the runtime
(tens of minutes total).
"""

import math
import time

import numpy as np
import pytest

from helpers import constant_d_mu_oracle, random_spd_polynomial_model, random_tangential_pair

from phasefront.acsolver import (
    Grid,
    ScalarField,
    Stepper,
    mass,
    ordering_check,
    random_smooth_field,
    stability_dt,
    step,
)
from phasefront.config import experiment_from_dict
from phasefront.curves import circle_curve, hausdorff
from phasefront.errors import NotSolvable
from phasefront.flow import (
    evolve_front,
    evolve_level_set,
    signed_distance,
    step_front,
    zero_contour,
)
from phasefront.harness import (
    generation_experiment,
    propagation_sweep,
    reaction_trajectory,
    solve_reaction_ode,
)
from phasefront.mobility import lambda_e, mu_tensor, tabulate_mobility, tangential_form
from phasefront.model import (
    ModelSpec,
    cubic_identity_model,
    cubic_reaction,
    diagonal_diffusivity,
    validate_model,
)
from phasefront.profile import solve_linearized, solvability_residual, solve_standing_wave

SQ2 = math.sqrt(2.0)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_standing_wave_exactness():
    spec = cubic_identity_model()
    t0 = time.perf_counter()
    prof = solve_standing_wave(spec, (1.0, 0.0), z_max=10.0, h_z=1e-3)
    elapsed = time.perf_counter() - t0
    err = float(np.abs(prof.u0 - np.tanh(prof.z / SQ2)).max())
    _verdict("criterion 1 (standing wave)",
             err <= 1e-6 and elapsed < 1.0,
             f"max|U0 - tanh(z/sqrt 2)| = {err:.3e} (tol 1e-6), "
             f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_mobility_oracles():
    t0 = time.perf_counter()
    spec = cubic_identity_model()
    lam_err = abs(lambda_e(spec, (1.0, 0.0)) - 2.0 * SQ2 / 3.0)
    mu_err = float(np.abs(mu_tensor(spec, (0.6, 0.8)).mu - np.eye(2)).max())
    diag = ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02)
    dmat = np.diag([1.0, 2.0])
    rng = np.random.default_rng(7)
    closed_err = 0.0
    for _ in range(32):
        th = rng.uniform(0.0, 2.0 * np.pi)
        e = np.array([np.cos(th), np.sin(th)])
        closed_err = max(closed_err, float(np.abs(
            mu_tensor(diag, e).mu - constant_d_mu_oracle(dmat, e)).max()))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 2 (mobility oracles)",
             lam_err <= 1e-8 and mu_err <= 1e-6 and closed_err <= 1e-6
             and elapsed < 5.0,
             f"|lambda - 2sqrt2/3| = {lam_err:.2e} (1e-8), "
             f"|mu - I| = {mu_err:.2e} (1e-6), "
             f"closed-form err (32 dirs) = {closed_err:.2e} (1e-6), "
             f"runtime {elapsed:.1f}s (< 5s)")


def test_criterion_03_ellipticity_certificate():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = math.inf
    for _ in range(200):
        spec = random_spd_polynomial_model(rng)
        assert validate_model(spec).passed
        e, eta = random_tangential_pair(rng)
        worst = min(worst, tangential_form(spec, e, eta))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 3 (ellipticity certificate)",
             worst > 1e-8 and elapsed < 30.0,
             f"min tangential form over 200 models = {worst:.3e} (> 1e-8), "
             f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_04_linearized_solver():
    t0 = time.perf_counter()
    spec = cubic_identity_model()
    prof = solve_standing_wave(spec, (1.0, 0.0), z_max=12.0, h_z=1e-3)
    # solvable RHS: the flux derivative whose balance integral cancels
    sec = prof.section
    du = 1e-6
    slope = lambda u: sec.sqrt_w(u) / sec.a(u)
    g = (slope(prof.u0 + du) - slope(prof.u0 - du)) / (2 * du) * prof.u0z
    res = abs(solvability_residual(prof, g))
    psi = solve_linearized(prof, g)
    h = prof.h_z
    prod = sec.a(prof.u0) * psi
    d2 = (prod[2:] - 2 * prod[1:-1] + prod[:-2]) / (h * h)
    eq_res = float(np.abs(d2 + spec.reaction.f_prime(prof.u0[1:-1]) * psi[1:-1]
                          - g[1:-1]).max())
    raised = False
    try:
        solve_linearized(prof, prof.u0z)
    except NotSolvable:
        raised = True
    elapsed = time.perf_counter() - t0
    _verdict("criterion 4 (linearized solver)",
             res <= 1e-8 and psi[prof.i_zero] == 0.0 and eq_res <= 1e-5
             and raised and elapsed < 2.0,
             f"solvable residual = {res:.2e} (1e-8), psi(0) = {psi[prof.i_zero]}, "
             f"equation residual = {eq_res:.2e} (1e-5), "
             f"NotSolvable raised = {raised}, runtime {elapsed:.1f}s (< 2s)")


def test_criterion_05_front_tracking_circle():
    mob = tabulate_mobility(cubic_identity_model(), 64)
    cur = circle_curve((0.5, 0.5), 0.25, 256, h_target=2 * np.pi * 0.25 / 256)
    t0 = time.perf_counter()
    t, worst = 0.0, 0.0
    for _ in range(2000):
        cur = step_front(cur, mob, 1e-5)
        t += 1e-5
        r = np.linalg.norm(cur.vertices - 0.5, axis=1)
        worst = max(worst, float(np.abs(r - math.sqrt(0.0625 - 2 * t)).max()))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 5 (front tracking)",
             worst <= 1e-3 and elapsed < 10.0,
             f"max|R - sqrt(R0^2 - 2t)| = {worst:.2e} (1e-3) up to t=0.02, "
             f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_06_cross_solver_agreement():
    t0 = time.perf_counter()
    spec = ModelSpec(cubic_reaction(), diagonal_diffusivity([1.0, 2.0]), 0.02)
    mob = tabulate_mobility(spec, 256)
    grid = Grid(256)
    front = evolve_front(circle_curve((0.5, 0.5), 0.25, 256,
                                      h_target=2 * np.pi * 0.25 / 256),
                         mob, 0.01, dt=1e-5)[-1][1]
    sdf = signed_distance(circle_curve((0.5, 0.5), 0.25, 512), grid)
    ls = evolve_level_set(sdf, mob, 0.01)[-1][1]
    dist = hausdorff(front, zero_contour(ls))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 6 (cross-solver agreement)",
             dist <= 2 * grid.h and elapsed < 120.0,
             f"Hausdorff(front, level set) = {dist:.2e} (tol 2h = {2 * grid.h:.2e}), "
             f"runtime {elapsed:.0f}s (< 120s)")


def test_criterion_07_generation():
    cfg = experiment_from_dict({
        "model": {"reaction": {"kind": "cubic"},
                  "diffusivity": {"kind": "identity"}, "epsilon": 0.04},
        "grid": {"n": 64},
        "eps": [0.04, 0.02, 0.01],
        "shape": {"kind": "trig", "params": {"amplitude": 0.5}},
        "times": {"t_end": 0.01},
        "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10},
    })
    t0 = time.perf_counter()
    rep = generation_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and all(r.grid_n >= 4.0 / r.eps for r in rep.rows)
    detail = ", ".join(f"eps={r.eps}: n={r.grid_n} "
                       f"u in ({r.u_min:.3f},{r.u_max:.3f}) m_hat={r.m_hat:.2f}"
                       for r in rep.rows)
    _verdict("criterion 7 (generation)", ok,
             f"{detail}; all bounds within eta_g=0.1, M-hat <= 10, "
             f"runtime {elapsed:.0f}s")


def test_criterion_08_propagation():
    cfg = experiment_from_dict({
        "model": {"reaction": {"kind": "cubic"},
                  "diffusivity": {"kind": "identity"}, "epsilon": 0.02},
        "grid": {"n": 64},
        "eps": [0.02, 0.014, 0.01],
        "shape": {"kind": "circle", "params": {"r": 0.25}},
        "times": {"t_end": 0.01, "checkpoints": [0.01]},
        "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10},
    })
    t0 = time.perf_counter()
    rep = propagation_sweep(cfg)
    elapsed = time.perf_counter() - t0
    dists = [r.final_distance for r in rep.rows]
    hs = [1.0 / r.grid_n for r in rep.rows]
    ok = (rep.monotone and rep.order is not None and rep.order >= 0.8
          and all(r.bounds_ok for r in rep.rows)
          and all(r.band_fraction_outside == 0.0 for r in rep.rows)
          and all(h <= e / 4.0 for h, e in zip(hs, cfg.eps_list)))
    _verdict("criterion 8 (propagation)", ok,
             f"distances = {['%.2e' % d for d in dists]} (decreasing={rep.monotone}), "
             f"order p = {rep.order:.2f} (>= 0.8), band C_p = "
             f"{['%.2f' % r.band_c for r in rep.rows]}, "
             f"runtime {elapsed:.0f}s")


def test_criterion_09_scheme_properties():
    t0 = time.perf_counter()
    spec = cubic_identity_model(0.05)
    grid = Grid(32)
    dt = stability_dt(spec, grid)
    eta = 0.25

    fld = random_smooth_field(grid, np.random.default_rng(3), amplitude=1.0 + eta)
    lo0, hi0 = -1.0 - eta, 1.0 + eta
    invariant_ok = True
    with Stepper(fld, spec) as stepper:
        for _ in range(10000):
            step(stepper, dt)
            if stepper.u.min() < lo0 - 1e-12 or stepper.u.max() > hi0 + 1e-12:
                invariant_ok = False
                break

    fld = random_smooth_field(grid, np.random.default_rng(4), amplitude=0.8)
    m0 = mass(fld)
    mass_ok = True
    with Stepper(fld, spec, reaction=False) as stepper:
        for _ in range(200):
            step(stepper, dt)
            if abs(mass(stepper.field()) - m0) > 1e-12:
                mass_ok = False
                break

    rng = np.random.default_rng(5)
    worst_violation = 0.0
    for _ in range(20):
        base = random_smooth_field(grid, rng, amplitude=0.5)
        gap = rng.uniform(0.0, 0.2) * (1.0 + np.sin(2 * np.pi * grid.cell_centers()[0]
                                                    + rng.uniform(0, 2 * np.pi)))
        hi = ScalarField(grid, base.values + gap)
        _, viol = ordering_check(base, hi, spec, 50 * dt)
        worst_violation = max(worst_violation, viol)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 9 (scheme properties)",
             invariant_ok and mass_ok and worst_violation <= 1e-8,
             f"invariant region over 1e4 steps: {invariant_ok}, "
             f"mass drift <= 1e-12/step: {mass_ok}, "
             f"ordering violation (20 pairs) = {worst_violation:.2e} (1e-8), "
             f"runtime {elapsed:.0f}s")


def test_criterion_10_reaction_ode():
    t0 = time.perf_counter()
    spec = cubic_identity_model()
    taus = np.linspace(0.05, 5.0, 50)
    xis = np.linspace(-0.95, 0.95, 50)
    worst = 0.0
    for tau, (y, _, _) in zip(taus, reaction_trajectory(spec, xis, taus)):
        et = math.exp(tau)
        closed = xis * et / np.sqrt(1.0 + xis * xis * (et * et - 1.0))
        worst = max(worst, float(np.abs(y - closed).max()))
    _, dy = solve_reaction_ode(spec, 0.0, 3.0)
    lin_err = abs(dy - math.exp(3.0))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 10 (reaction clock)",
             worst <= 1e-8 and lin_err <= 1e-6,
             f"50x50 closed-form error = {worst:.2e} (1e-8), "
             f"|Y_xi(tau, alpha) - e^(nu tau)| = {lin_err:.2e} (1e-6), "
             f"runtime {elapsed:.1f}s")
