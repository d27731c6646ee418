"""The four benchmark workloads: seeded inputs, one round of work, checks.

A workload object is built once per process from the seed, inside the timed
set-up. ``run_round`` is the measured unit: every round repeats the same
operations on the same inputs. ``check`` verifies the outputs of a round with
the computations in ``checks``.

Inputs depend on the seed only through quantities the work does not scale
with (frame angles, centres, amplitudes), so the work per round, and with it
the timing, stays close across seeds.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

import checks
# program functions are looked up on their modules at call time, so the
# tracer's wrappers see every call
from phasefront import curves, flow, harness, mobility, model, profile
from phasefront.acsolver import Grid
from phasefront.config import experiment_from_dict

# propagation and limit_flow share one model, shape and end time
PROPAGATION_EPS = (0.04, 0.028, 0.02)
FLOW_T_END = 1e-3
FLOW_MARKERS = 256
LIMIT_FLOW_GRID = 256
LIMIT_FLOW_CHECKPOINTS = 4
GENERATION_EPS = (0.04, 0.02, 0.01)
TABLE_ANGLES = 256
PROFILE_ANGLES = 64
CERTIFICATE_DIRECTIONS = 16


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _poly_entries(a: np.ndarray, b: np.ndarray) -> list:
    """Config entries of D(s) = A + B s^2 (ascending coefficients)."""
    return [[[float(a[i, j]), 0.0, float(b[i, j])] for j in range(2)]
            for i in range(2)]


def anisotropic_model(rng) -> dict:
    """Model config with D(s) = A + B s^2, A off-diagonal, both frames seeded.

    The eigenvalues of A and B and the angle between their frames are fixed,
    so the spectrum of D(s), and with it the stable step, is the same for
    every seed. Even entries against the odd cubic keep the well balance
    exact.
    """
    phi = float(rng.uniform(0.0, math.pi))
    a = _rot(phi) @ np.diag([1.0, 1.6]) @ _rot(phi).T
    b = _rot(phi + 0.6) @ np.diag([0.08, -0.04]) @ _rot(phi + 0.6).T
    return {"reaction": {"kind": "cubic"},
            "diffusivity": {"kind": "poly", "params": {"entries": _poly_entries(a, b)}},
            "epsilon": PROPAGATION_EPS[0]}


def flow_experiment(rng) -> dict:
    """Experiment config of the propagation model on a seeded ellipse."""
    model = anisotropic_model(rng)
    cx, cy = (float(c) for c in rng.uniform(0.45, 0.55, size=2))
    return {"model": model, "grid": {"n": 32}, "eps": list(PROPAGATION_EPS),
            "shape": {"kind": "ellipse",
                      "params": {"a": 0.25, "b": 0.17, "cx": cx, "cy": cy}},
            "times": {"t_end": FLOW_T_END, "checkpoints": [FLOW_T_END]},
            "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10},
            "markers": FLOW_MARKERS}


@contextmanager
def capture(module, name: str, sink: list):
    """Append every return value of ``module.name`` to ``sink`` meanwhile."""
    inner = getattr(module, name)

    def recording(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, recording)
    try:
        yield sink
    finally:
        setattr(module, name, inner)


class Workload:
    name = ""
    ops_per_round = 1

    def run_round(self):
        raise NotImplementedError

    def check(self, outputs) -> list[checks.Check]:
        raise NotImplementedError


class Propagation(Workload):
    """``harness.propagation_sweep`` over three eps, two on one grid."""

    name = "propagation"
    ops_per_round = len(PROPAGATION_EPS)

    def __init__(self, seed: int):
        self.cfg = experiment_from_dict(flow_experiment(np.random.default_rng(seed)))
        model.validate_model(self.cfg.model).raise_if_failed()

    def run_round(self):
        fields, fronts = [], []
        with capture(harness, "simulate", fields), \
                capture(harness, "evolve_front", fronts):
            report = harness.propagation_sweep(self.cfg)
        return report, [snaps[-1].values for snaps in fields], fronts[0][-1][1]

    def check(self, outputs):
        _, fields, front = outputs
        r = self.cfg.model.reaction
        return checks.check_propagation(
            self.cfg.eps_list, fields, [front.vertices] * len(fields),
            r.roots, self.cfg.eta_p)


class Generation(Workload):
    """``harness.generation_experiment`` on identity D and trig data."""

    name = "generation"
    ops_per_round = len(GENERATION_EPS)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        amplitude = float(rng.uniform(0.4, 0.6)) * float(rng.choice([-1.0, 1.0]))
        self.cfg = experiment_from_dict({
            "model": {"reaction": {"kind": "cubic"},
                      "diffusivity": {"kind": "identity"},
                      "epsilon": GENERATION_EPS[0]},
            "grid": {"n": 64}, "eps": list(GENERATION_EPS),
            "shape": {"kind": "trig", "params": {"amplitude": amplitude}},
            "times": {"t_end": 0.01},
            "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10}})
        self.amplitude = amplitude
        model.validate_model(self.cfg.model).raise_if_failed()

    def run_round(self):
        fields = []
        with capture(harness, "simulate", fields):
            report = harness.generation_experiment(self.cfg)
        return report, [snaps[-1].values for snaps in fields]

    def check(self, outputs):
        _, fields = outputs
        initial = []
        for u in fields:
            x = (np.arange(u.shape[0]) + 0.5) / u.shape[0]
            initial.append(self.amplitude * np.outer(np.cos(2 * np.pi * x),
                                                     np.cos(2 * np.pi * x)))
        return checks.check_generation(
            self.cfg.eps_list, initial, fields, self.cfg.model.reaction.roots,
            self.cfg.eta_g, self.cfg.m0_ceiling)


class LimitFlow(Workload):
    """Front tracking against the level set of the propagation ellipse."""

    name = "limit_flow"
    ops_per_round = 2

    def __init__(self, seed: int):
        self.cfg = experiment_from_dict(flow_experiment(np.random.default_rng(seed)))
        model.validate_model(self.cfg.model).raise_if_failed()
        self.curve = self.cfg.shape.build_curve(self.cfg.markers)
        self.grid = Grid(LIMIT_FLOW_GRID)
        self.times = [FLOW_T_END * (k + 1) / LIMIT_FLOW_CHECKPOINTS
                      for k in range(LIMIT_FLOW_CHECKPOINTS)]

    def run_round(self):
        mob = mobility.tabulate_mobility(self.cfg.model, TABLE_ANGLES)
        fronts = flow.evolve_front(self.curve, mob, FLOW_T_END, dt=1e-5,
                                   checkpoints=self.times)
        sdf = flow.signed_distance(self.curve, self.grid)
        level_sets = flow.evolve_level_set(sdf, mob, FLOW_T_END,
                                           checkpoints=self.times)
        dists = [curves.hausdorff(front, flow.zero_contour(ls))
                 for (_, front), (_, ls) in zip(fronts, level_sets)]
        return ([f.vertices for _, f in fronts], [ls.values for _, ls in level_sets],
                dists)

    def check(self, outputs):
        fronts, level_sets, _ = outputs
        params = self.cfg.shape.params
        centre = np.array([params["cx"], params["cy"]])
        return checks.check_limit_flow(self.times, fronts, level_sets, centre,
                                       self.grid.h, centre_tol=1e-3 * self.grid.h)


class Tables(Workload):
    """Validation, mobility table, profile table and certificate per model."""

    name = "tables"
    kinds = ("constant", "nonlinear", "nonlinear")
    ops_per_round = len(kinds)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.models = []
        for k, kind in enumerate(self.kinds):
            if kind == "constant":
                angle = float(rng.uniform(0.0, math.pi))
                ratio = float(rng.uniform(1.5, 2.5))
                cfg = {"reaction": {"kind": "cubic"},
                       "diffusivity": {"kind": "rotation-conjugated-diag",
                                       "params": {"angle": angle,
                                                  "entries": [1.0, ratio]}},
                       "epsilon": 0.02}
                d = _rot(angle) @ np.diag([1.0, ratio]) @ _rot(angle).T
                d_coef = d[:, :, None]
            else:
                cfg = anisotropic_model(rng)
                d_coef = np.array(cfg["diffusivity"]["params"]["entries"])
            spec = model.model_from_config(cfg)
            self.models.append((spec, {
                "name": f"{kind}-{k}", "constant": kind == "constant",
                "amplitude": 1.0, "wells": spec.reaction.roots,
                "d_coef": d_coef}))
        th = 2.0 * np.pi * (np.arange(CERTIFICATE_DIRECTIONS) + 0.5) / CERTIFICATE_DIRECTIONS
        self.cert_dirs = [((math.cos(t), math.sin(t)), (-math.sin(t), math.cos(t)))
                          for t in th]

    def run_round(self):
        results = []
        for spec, _ in self.models:
            report = model.validate_model(spec)
            mob = mobility.tabulate_mobility(spec, TABLE_ANGLES)
            table = profile.ProfileTable.build(spec, m_angles=PROFILE_ANGLES)
            forms = [mobility.tangential_form(spec, e, eta)
                     for e, eta in self.cert_dirs]
            bounds = [mobility.tangential_lower_bound(spec, e)
                      for e, _ in self.cert_dirs]
            results.append((report, mob, table, forms, bounds))
        return results

    def check(self, outputs):
        out = []
        for (_, info), (report, mob, table, forms, bounds) in zip(self.models, outputs):
            out += checks.check_tables(
                info, mob.thetas, mob.mu_table, mob.lam_table, table.z, table.u0,
                table.thetas, forms, bounds, report.passed)
        return out


WORKLOADS = {w.name: w for w in (Propagation, Generation, LimitFlow, Tables)}
