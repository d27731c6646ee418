"""Desk-scale experiments: the reaction-clock checks, interface generation,
and propagation sweeps against the limiting flow.

The generation window is t_eps = eps^2 |ln eps| / nu, after which the solution
must sit within eta_g of the stable phases away from an O(eps) layer; the
propagation sweep measures the Hausdorff distance between the extracted
phase-field contour and the front-tracking reference over a decreasing list
of eps and fits the convergence order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .acsolver import (
    Grid,
    ScalarField,
    extract_level_set,
    landing_steps,
    landing_times,
    simulate,
    trig_product_field,
)
from .config import ExperimentConfig, ensure_out_dir
from .curves import FrontCurve, hausdorff
from .errors import (
    Blowup,
    CeilingExceeded,
    ConfigError,
    Extinction,
    ExtinctionBeforeEnd,
)
from .flow import evolve_front, signed_distance
from .mobility import tabulate_mobility
from .model import ModelSpec
from .profile import ProfileTable

LEMMA_TAU_MAX = 5.0
LEMMA_N_TAU = 40
LEMMA_XI_SPAN = 1.5
LEMMA_N_XI = 41
LEMMA_CEILING = 100.0
REACTION_DT = 1e-3          # RK4 step of the reaction clock
ORDER_THRESHOLD = 0.8       # least fitted convergence order a sweep passes with


def t_epsilon(spec: ModelSpec, eps: float) -> float:
    """Generation time scale eps^2 |ln eps| / nu."""
    return eps * eps * abs(math.log(eps)) / spec.reaction.nu


# ---------------------------------------------------------------------------
# reaction clock Y' = f(Y)
# ---------------------------------------------------------------------------

def solve_reaction_ode(spec: ModelSpec, xi, tau: float):
    """RK4 on Y' = f(Y) jointly with the variational equations.

    Returns (Y, Y_xi) at time tau (shape follows xi). Blowup is raised if Y
    is not finite or leaves the bistable region by a wide margin (possible
    only for far-out initial values).
    """
    y, dy, _ = reaction_trajectory(spec, xi, [tau])[0]
    return (float(y[0]), float(dy[0])) if np.ndim(xi) == 0 else (y, dy)


def reaction_trajectory(spec: ModelSpec, xi, tau_list):
    """(Y, Y_xi, Y_xixi) at each tau of tau_list, in the order asked, from
    one joint RK4 march in steps of REACTION_DT that lands on the distinct
    taus in increasing order. Blowup names the tau and the step at which Y
    left the bistable region."""
    taus = [float(tau) for tau in tau_list]
    r = spec.reaction
    cf = r.poly.coef[::-1]
    cfp = r.poly.deriv().coef[::-1]
    cfpp = r.poly.deriv(2).coef[::-1]
    big = 10.0 * (abs(r.alpha_plus) + abs(r.alpha_minus) + 1.0)

    def rhs(y, dy, d2y):
        fpv = np.polyval(cfp, y)
        return (np.polyval(cf, y), fpv * dy,
                np.polyval(cfpp, y) * dy * dy + fpv * d2y)

    y = np.atleast_1d(np.asarray(xi, dtype=float)).copy()
    dy = np.ones_like(y)
    d2y = np.zeros_like(y)
    t, steps = 0.0, 0
    captures = {}
    for target in landing_times(max(taus, default=0.0), taus):
        for h in landing_steps(t, target, REACTION_DT):
            a1, b1, c1 = rhs(y, dy, d2y)
            a2, b2, c2 = rhs(y + 0.5 * h * a1, dy + 0.5 * h * b1, d2y + 0.5 * h * c1)
            a3, b3, c3 = rhs(y + 0.5 * h * a2, dy + 0.5 * h * b2, d2y + 0.5 * h * c2)
            a4, b4, c4 = rhs(y + h * a3, dy + h * b3, d2y + h * c3)
            y = y + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
            dy = dy + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            d2y = d2y + (h / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4)
            t += h
            steps += 1
            if not np.abs(y).max() <= big:      # nan fails too
                raise Blowup(f"reaction trajectory left the bistable region "
                             f"at tau = {t:g}, step {steps}")
        captures[target] = (y, dy, d2y)
    return [tuple(a.copy() for a in captures[tau]) for tau in taus]


@dataclass
class GenerationLemmaReport:
    c_slope: float          # fit of Y_xi <= C e^{nu tau}
    c_curvature: float      # fit of |Y_xixi / Y_xi| <= C (e^{nu tau} - 1)
    c_threshold: float      # smallest C making the eps-threshold items hold
    c_hat: float
    eta: float
    eps_list: tuple[float, ...]
    bounds_ok: bool
    thresholds_ok: bool
    passed: bool


def check_generation_lemma(spec: ModelSpec, eta: float = 0.1,
                           eps_list=(0.04, 0.02, 0.01)) -> GenerationLemmaReport:
    """Fit the minimal constants of the reaction-clock estimates and verify
    the eps-threshold statements for the configured eps list."""
    r = spec.reaction
    if not (0.0 < eta < r.eta0):
        raise ConfigError(f"eta must lie in (0, {r.eta0}), got {eta}")
    nu = r.nu
    xi = np.linspace(r.alpha_mid - LEMMA_XI_SPAN, r.alpha_mid + LEMMA_XI_SPAN,
                     LEMMA_N_XI)
    taus = np.linspace(0.05, LEMMA_TAU_MAX, LEMMA_N_TAU)
    c_slope = 0.0
    c_curv = 0.0
    for tau, (y, dy, d2y) in zip(taus, reaction_trajectory(spec, xi, taus)):
        c_slope = max(c_slope, float((dy * np.exp(-nu * tau)).max()))
        ratio = np.abs(d2y) / np.maximum(dy, 1e-300)
        c_curv = max(c_curv, float(ratio.max() / (np.exp(nu * tau) - 1.0)))

    # threshold constants: Y_xi > 0 makes Y monotone in xi, so for each eps
    # read the crossing off a fine grid of candidates xi = alpha +- C eps.
    # RK4 acts on each start alone, so they and the xi grid share one march.
    c_grid = np.linspace(0.0, LEMMA_CEILING, 2049)
    c_threshold = 0.0
    bounds_ok = True
    for eps in eps_list:
        tau = abs(math.log(eps)) / nu
        starts = np.concatenate([r.alpha_mid + c_grid * eps,
                                 r.alpha_mid - c_grid * eps, xi])
        y_end, _, _ = reaction_trajectory(spec, starts, [tau])[0]
        y_hi, y_lo, y = np.split(y_end, [c_grid.size, 2 * c_grid.size])
        ok_hi = y_hi >= r.alpha_plus - eta
        ok_lo = y_lo <= r.alpha_minus + eta
        if not (ok_hi.any() and ok_lo.any()):
            c_threshold = math.inf
            break
        c_threshold = max(c_threshold, float(c_grid[np.argmax(ok_hi)]),
                          float(c_grid[np.argmax(ok_lo)]))
        if np.any(y > r.alpha_plus + eta) or np.any(y < r.alpha_minus - eta):
            bounds_ok = False
    finite = all(map(math.isfinite, (c_slope, c_curv, c_threshold)))
    return GenerationLemmaReport(
        c_slope=c_slope, c_curvature=c_curv, c_threshold=c_threshold,
        c_hat=max(c_slope, c_curv, c_threshold) if finite else math.inf,
        eta=eta, eps_list=tuple(eps_list), bounds_ok=bounds_ok,
        thresholds_ok=math.isfinite(c_threshold),
        passed=finite and bounds_ok)


# ---------------------------------------------------------------------------
# generation experiment
# ---------------------------------------------------------------------------

@dataclass
class GenerationRow:
    eps: float
    grid_n: int
    t_eps: float
    u_min: float
    u_max: float
    bounds_ok: bool
    m_hat: float
    within_ceiling: bool


@dataclass
class GenerationReport:
    rows: list[GenerationRow]
    eta_g: float
    ceiling: float
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": "generation", "eta_g": self.eta_g,
                "ceiling": self.ceiling, "passed": self.passed,
                "rows": [asdict(r) for r in self.rows]}


def _initial_field(cfg: ExperimentConfig, grid: Grid) -> ScalarField:
    shape = cfg.shape
    if shape.kind == "trig":    # its params are trig_product_field's
        return trig_product_field(grid, **shape.params)
    raise ConfigError(f"shape kind {shape.kind!r} does not define a smooth "
                      "initial field; use 'trig' for generation runs")


def generation_experiment(cfg: ExperimentConfig) -> GenerationReport:
    """Run the phase solver to the generation time for each eps and read off
    the layer-width constant m_hat, which must lie below the configured
    ceiling."""
    spec0 = cfg.model
    r = spec0.reaction
    rows = []
    for eps in cfg.eps_list:
        spec = spec0.with_epsilon(eps)
        grid = Grid(cfg.grid_size_for(eps))
        u0 = _initial_field(cfg, grid)
        t_eps = t_epsilon(spec, eps)
        final = simulate(u0, spec, t_eps)[-1]
        u_min = float(final.values.min())
        u_max = float(final.values.max())
        bounds_ok = (u_min >= r.alpha_minus - cfg.eta_g - 1e-12
                     and u_max <= r.alpha_plus + cfg.eta_g + 1e-12)

        # m_hat: max |u0 - alpha|/eps over cells ending on the wrong side
        wrong = np.where(u0.values >= r.alpha_mid,
                         final.values < r.alpha_plus - cfg.eta_g,
                         final.values > r.alpha_minus + cfg.eta_g)
        m_hat = float(np.abs(u0.values[wrong] - r.alpha_mid).max(initial=0.0)) / eps
        within = m_hat < cfg.m0_ceiling
        rows.append(GenerationRow(eps, grid.n, t_eps, u_min, u_max, bounds_ok,
                                  m_hat if within else math.inf, within))

    passed = all(row.bounds_ok and row.within_ceiling for row in rows)
    report = GenerationReport(rows=rows, eta_g=cfg.eta_g,
                              ceiling=cfg.m0_ceiling, passed=passed)
    if any(not row.within_ceiling for row in rows):
        raise CeilingExceeded(report)
    return report


# ---------------------------------------------------------------------------
# propagation sweep
# ---------------------------------------------------------------------------

def tanh_ansatz_field(grid: Grid, spec: ModelSpec, table: ProfileTable,
                      d: np.ndarray) -> ScalarField:
    """Composed initial data u0(x) = U0(d(x)/eps; n(x)) via the profile
    table, from the signed distance d of the curve on grid."""
    h = grid.h
    gx = (np.roll(d, -1, 0) - np.roll(d, 1, 0)) / (2 * h)
    gy = (np.roll(d, -1, 1) - np.roll(d, 1, 1)) / (2 * h)
    theta = np.arctan2(gy, gx)
    vals = table.evaluate(theta.ravel(), (d / spec.epsilon).ravel())
    return ScalarField(grid, vals.reshape(d.shape))


@dataclass
class PropagationRow:
    eps: float
    grid_n: int
    distances: list[float]          # per checkpoint
    final_distance: float
    bounds_ok: bool
    band_c: float                   # fitted band-width constant
    band_fraction_outside: float    # violations outside the fitted band


@dataclass
class ConvergenceReport:
    rows: list[PropagationRow]
    checkpoints: tuple[float, ...]
    order: float | None
    monotone: bool
    eta_p: float
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": "propagation", "checkpoints": list(self.checkpoints),
                "order": self.order, "monotone": self.monotone,
                "eta_p": self.eta_p, "passed": self.passed,
                "rows": [asdict(r) for r in self.rows]}


def propagation_sweep(cfg: ExperimentConfig) -> ConvergenceReport:
    """Phase-field contours against the front-tracking flow at each time."""
    if not cfg.shape.is_curve:
        raise ConfigError("propagation needs a geometric shape (circle/ellipse)")
    spec0 = cfg.model
    r = spec0.reaction
    gamma0 = cfg.shape.build_curve(cfg.markers)
    mobility = tabulate_mobility(spec0, 256)
    try:
        fronts = dict(evolve_front(gamma0, mobility, cfg.t_end, dt=1e-5,
                                   checkpoints=cfg.checkpoints))
    except Extinction as exc:
        raise ExtinctionBeforeEnd(
            f"reference flow went extinct before t_end={cfg.t_end}") from exc

    table = ProfileTable.build(spec0, m_angles=64)
    # signed distances of gamma0 and of the final front, per grid size:
    # several eps may share a grid
    d0, d_end = {}, {}
    rows = []
    for eps in cfg.eps_list:
        spec = spec0.with_epsilon(eps)
        grid = Grid(cfg.grid_size_for(eps))
        if grid.n not in d0:
            d0[grid.n] = signed_distance(gamma0, grid).values
            d_end[grid.n] = signed_distance(fronts[cfg.t_end], grid).values
        u0 = tanh_ansatz_field(grid, spec, table, d0[grid.n])
        snaps = simulate(u0, spec, cfg.t_end, snapshot_times=cfg.checkpoints)
        dists = []
        for snap in snaps:
            contour = extract_level_set(snap, r.alpha_mid)[0]
            dists.append(hausdorff(contour, fronts[snap.t]))
        final = snaps[-1]
        u_min, u_max = float(final.values.min()), float(final.values.max())
        bounds_ok = (u_min >= r.alpha_minus - cfg.eta_p - 1e-12
                     and u_max <= r.alpha_plus + cfg.eta_p + 1e-12)

        dref = d_end[grid.n]
        viol = np.where(
            dref >= 0.0,
            np.abs(final.values - r.alpha_plus) > cfg.eta_p,
            np.abs(final.values - r.alpha_minus) > cfg.eta_p)
        band_c = float(np.abs(dref[viol]).max() / eps) if viol.any() else 0.0
        outside = viol & (np.abs(dref) > band_c * eps * (1.0 + 1e-12))
        rows.append(PropagationRow(
            eps=eps, grid_n=grid.n, distances=[float(d) for d in dists],
            final_distance=float(dists[-1]), bounds_ok=bounds_ok,
            band_c=band_c,
            band_fraction_outside=float(outside.mean())))

    finals = np.array([row.final_distance for row in rows])
    eps_arr = np.array(cfg.eps_list)
    monotone = bool(np.all(np.diff(finals) < 0.0))
    order = None
    if len(rows) >= 3 and np.all(finals > 0.0):
        slope = np.polyfit(np.log(eps_arr), np.log(finals), 1)[0]
        order = float(slope)
    passed = (monotone and all(row.bounds_ok for row in rows)
              and all(row.band_fraction_outside == 0.0 for row in rows)
              and (order is None or order >= ORDER_THRESHOLD))
    return ConvergenceReport(rows=rows, checkpoints=cfg.checkpoints,
                             order=order, monotone=monotone, eta_p=cfg.eta_p,
                             passed=passed)


# ---------------------------------------------------------------------------
# report writers (deterministic byte output)
# ---------------------------------------------------------------------------

def write_report(report, out_dir) -> None:
    out = ensure_out_dir(out_dir)
    data = report.to_dict()
    with open(out / "report.json", "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(out / "report.csv", "w", newline="") as fh:
        rows = data["rows"]
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


def write_curve_csv(path, curve: FrontCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in curve.wrapped_vertices():
            writer.writerow([repr(float(x)), repr(float(y))])
