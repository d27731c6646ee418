"""Command-line interface.

Exit codes: 0 success/pass, 2 experiment or numerical failure, 3 config error
(including unknown flags).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .acsolver import Grid, ScalarField, extract_level_set, simulate, write_field_dump
from .config import (
    ensure_out_dir,
    experiment_from_dict,
    load_config,
    load_model,
    parse_shape_string,
)
from .errors import CeilingExceeded, ConfigError, PhasefrontError
from .flow import evolve_front, evolve_level_set, signed_distance, zero_contour
from .harness import (
    GenerationReport,
    generation_experiment,
    propagation_sweep,
    tanh_ansatz_field,
    write_curve_csv,
    write_report,
)
from .mobility import tabulate_mobility
from .model import validate_model
from .profile import ProfileTable, solve_standing_wave

EXIT_OK = 0
EXIT_EXPERIMENT = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="phasefront",
                description="Bistable phase fields with anisotropic diffusion "
                            "and the matching curvature flow.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the structural model conditions")
    v.add_argument("--config", required=True)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--out", default=None)

    pr = sub.add_parser("profile", help="standing-wave profile to CSV")
    pr.add_argument("--config", required=True)
    pr.add_argument("--e", default="1,0", help="direction vector, comma separated")
    pr.add_argument("--zmax", type=float, default=12.0)
    pr.add_argument("--hz", type=float, default=1e-3)
    pr.add_argument("--out", required=True)

    mo = sub.add_parser("mobility", help="tabulated mobility tensor to CSV")
    mo.add_argument("--config", required=True)
    mo.add_argument("--angles", type=int, default=256)
    mo.add_argument("--out", required=True)

    si = sub.add_parser("simulate", help="run the phase-field solver")
    si.add_argument("--config", required=True)
    si.add_argument("--grid", type=int, default=256)
    si.add_argument("--eps", type=float, default=None)
    si.add_argument("--tend", type=float, required=True)
    si.add_argument("--snapshots", default="", help="comma separated times")
    si.add_argument("--shape", default="circle:R=0.25")
    si.add_argument("--out-prefix", required=True)

    fl = sub.add_parser("flow", help="evolve the limiting curvature flow")
    fl.add_argument("--mode", choices=("front", "levelset"), required=True)
    fl.add_argument("--config", required=True)
    fl.add_argument("--shape", default="circle:R=0.25")
    fl.add_argument("--tend", type=float, required=True)
    fl.add_argument("--grid", type=int, default=256)
    fl.add_argument("--markers", type=int, default=256)
    fl.add_argument("--dt", type=float, default=1e-5)
    fl.add_argument("--angles", type=int, default=256)
    fl.add_argument("--out", required=True)

    co = sub.add_parser("converge", help="propagation sweep over eps")
    co.add_argument("--config", required=True)
    co.add_argument("--eps", default=None, help="override eps list, comma separated")
    co.add_argument("--out", default=None)

    ge = sub.add_parser("generation", help="interface generation experiment")
    ge.add_argument("--config", required=True)
    ge.add_argument("--eps", default=None, help="override eps list, comma separated")
    ge.add_argument("--out", default=None)
    return p


def _floats(text: str, flag: str) -> list[float]:
    """Comma separated numbers of a flag; empty items are skipped."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} takes comma separated numbers, got {text!r}") from exc


def _experiment_config(args):
    cfg = load_config(args.config)
    if getattr(args, "eps", None):
        cfg["eps"] = _floats(str(args.eps), "--eps")
    if getattr(args, "out", None):
        cfg["out"] = args.out
    return experiment_from_dict(cfg)


def _cmd_validate(args) -> int:
    spec = load_model(args.config)
    rep = validate_model(spec, tol=args.tol)
    payload = {
        "passed": rep.passed,
        "root_residuals": list(rep.root_residuals),
        "f_prime_at_roots": list(rep.sign_values),
        "ellipticity_min": rep.ellipticity_min,
        "ellipticity_max": rep.ellipticity_max,
        "equipotential_max": float(np.abs(rep.equipotential_residuals).max()),
        "failures": [list(f) for f in rep.failures],
    }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        out = ensure_out_dir(args.out)
        (out / "validation.json").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if rep.passed else EXIT_EXPERIMENT


def _cmd_profile(args) -> int:
    spec = load_model(args.config)
    e = np.array(_floats(args.e, "--e"))
    norm = float(np.linalg.norm(e))
    if len(e) != spec.diffusivity.dim or not 0.0 < norm < np.inf:
        raise ConfigError(f"--e must be a nonzero finite {spec.diffusivity.dim}-vector, "
                          f"got {args.e!r}")
    e = e / norm
    prof = solve_standing_wave(spec, e, z_max=args.zmax, h_z=args.hz)
    with open(args.out, "w") as fh:
        fh.write("z,u0,u0z\n")
        for z, u, uz in zip(prof.z, prof.u0, prof.u0z):
            fh.write(f"{float(z)!r},{float(u)!r},{float(uz)!r}\n")
    return EXIT_OK


def _cmd_mobility(args) -> int:
    spec = load_model(args.config)
    tab = tabulate_mobility(spec, args.angles)
    with open(args.out, "w") as fh:
        fh.write("theta,lambda,mu11,mu12,mu21,mu22\n")
        for k, th in enumerate(tab.thetas):
            m = [float(v) for v in tab.mu_table[k].ravel()]
            fh.write(f"{float(th)!r},{float(tab.lam_table[k])!r},"
                     f"{m[0]!r},{m[1]!r},{m[2]!r},{m[3]!r}\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    snaps = _floats(args.snapshots, "--snapshots")
    spec = load_model(args.config)
    if args.eps is not None:
        spec = spec.with_epsilon(args.eps)
    grid = Grid(args.grid)
    shape = parse_shape_string(args.shape)
    if not shape.is_curve:
        raise ConfigError("simulate builds its initial data from a curve shape")
    table = ProfileTable.build(spec, m_angles=64)
    u0 = tanh_ansatz_field(grid, spec, table, shape.build_curve(512))
    fields = simulate(u0, spec, args.tend, snapshot_times=snaps)
    for fld in fields:
        prefix = f"{args.out_prefix}_t{fld.t:.6f}"
        write_field_dump(prefix, fld, spec.epsilon)
        try:
            contour = extract_level_set(fld, spec.reaction.alpha_mid)[0]
            write_curve_csv(prefix + "_contour.csv", contour)
        except PhasefrontError:
            pass
    return EXIT_OK


def _cmd_flow(args) -> int:
    spec = load_model(args.config)
    shape = parse_shape_string(args.shape)
    curve = shape.build_curve(args.markers)
    mobility = tabulate_mobility(spec, args.angles)
    if args.mode == "front":
        final = evolve_front(curve, mobility, args.tend, dt=args.dt)[-1][1]
        write_curve_csv(args.out, final)
        return EXIT_OK
    grid = Grid(args.grid)
    sdf = signed_distance(curve, grid)
    final = evolve_level_set(sdf, mobility, args.tend)[-1][1]
    write_curve_csv(args.out, zero_contour(final))
    dump = ScalarField(grid, final.values, args.tend)
    write_field_dump(args.out.rsplit(".", 1)[0] + "_d", dump, spec.epsilon)
    return EXIT_OK


def _emit_report(report, out_dir) -> None:
    """Write report.json/report.csv into out_dir, if given, and print the JSON."""
    if out_dir:
        write_report(report, out_dir)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")


def _cmd_converge(args) -> int:
    cfg = _experiment_config(args)
    report = propagation_sweep(cfg)
    _emit_report(report, cfg.out_dir)
    return EXIT_OK if report.passed else EXIT_EXPERIMENT


def _cmd_generation(args) -> int:
    cfg = _experiment_config(args)
    try:
        report = generation_experiment(cfg)
    except CeilingExceeded as exc:
        if isinstance(exc.args[0], GenerationReport):
            _emit_report(exc.args[0], cfg.out_dir)
        return EXIT_EXPERIMENT
    _emit_report(report, cfg.out_dir)
    return EXIT_OK if report.passed else EXIT_EXPERIMENT


_COMMANDS = {
    "validate": _cmd_validate,
    "profile": _cmd_profile,
    "mobility": _cmd_mobility,
    "simulate": _cmd_simulate,
    "flow": _cmd_flow,
    "converge": _cmd_converge,
    "generation": _cmd_generation,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except PhasefrontError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_EXPERIMENT


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
