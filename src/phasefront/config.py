"""Experiment configuration: strict JSON schema with unknown fields rejected."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acsolver import landing_times
from .curves import MIN_VERTICES, FrontCurve, circle_curve, ellipse_curve
from .errors import ConfigError
from .model import (
    ModelSpec,
    config_fields,
    config_number,
    config_numbers,
    config_object,
    config_params,
    model_from_config,
)


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    params: dict

    def build_curve(self, n_vertices: int = 512) -> FrontCurve:
        if n_vertices < MIN_VERTICES:
            raise ConfigError(f"markers must be at least {MIN_VERTICES}, got {n_vertices}")
        p = self.params
        center = (p.get("cx", 0.5), p.get("cy", 0.5))
        if self.kind == "circle":
            return circle_curve(center, p["r"], n_vertices,
                                h_target=2 * np.pi * p["r"] / n_vertices)
        if self.kind == "ellipse":
            return ellipse_curve(center, p["a"], p["b"], n_vertices)
        raise ConfigError(f"shape kind {self.kind!r} does not define a curve")

    @property
    def is_curve(self) -> bool:
        return self.kind in ("circle", "ellipse")


# each shape kind's required params, which are sizes and must be positive,
# and its optional ones, which have no default here
_SHAPE_PARAMS = {
    "circle": (("r",), {"cx": None, "cy": None}),
    "ellipse": (("a", "b"), {"cx": None, "cy": None}),
    "trig": ((), {"amplitude": None, "kx": None, "ky": None, "offset": None}),
}


def _shape_from_dict(cfg: dict) -> ShapeSpec:
    """The shape of a CLI string or a JSON config, its params as floats:
    every param a finite JSON number, radii and semi-axes positive, wave
    numbers whole."""
    kind, params = config_params(cfg, "shape", _SHAPE_PARAMS)
    params = {key: config_number(val, f"shape param {key!r}")
              for key, val in params.items()}
    if small := [key for key in _SHAPE_PARAMS[kind][0] if params[key] <= 0.0]:
        raise ConfigError(f"shape {kind!r} params {small} must be positive")
    if fractional := sorted(key for key in {"kx", "ky"} & params.keys()
                            if not params[key].is_integer()):
        raise ConfigError(f"shape {kind!r} params {fractional} must be whole numbers")
    return ShapeSpec(kind, params)


def parse_shape_string(text: str) -> ShapeSpec:
    """Parse CLI shape strings like ``circle:R=0.25`` or ``trig:amplitude=0.5``."""
    kind, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ConfigError(f"malformed shape parameter {item!r}")
            key = {"R": "r"}.get(key.strip(), key.strip().lower())
            try:
                params[key] = float(val)
            except ValueError:
                raise ConfigError(f"shape param {key!r} must be a number, "
                                  f"got {val!r}") from None
    return _shape_from_dict({"kind": kind.strip().lower(), "params": params})


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    grid_n: int
    eps_list: tuple[float, ...]
    shape: ShapeSpec
    t_end: float
    checkpoints: tuple[float, ...]
    eta_g: float
    eta_p: float
    m0_ceiling: float
    out_dir: str | None = None
    markers: int = field(default=512)

    def __post_init__(self):
        if not self.eps_list:
            raise ConfigError("epsilon list must not be empty")
        if any(e <= 0 for e in self.eps_list):
            raise ConfigError("epsilon values must be positive")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        eta0 = self.model.reaction.eta0
        if not (0.0 < self.eta_g < eta0):
            raise ConfigError(f"eta_g must lie in (0, {eta0}), got {self.eta_g}")
        if not (0.0 < self.eta_p < eta0):
            raise ConfigError(f"eta_p must lie in (0, {eta0}), got {self.eta_p}")
        landing_times(self.t_end, self.checkpoints)

    def grid_size_for(self, eps: float) -> int:
        """Smallest power of two with h <= eps/4, at least the configured floor."""
        need = max(self.grid_n, int(np.ceil(4.0 / eps)))
        n = 8
        while n < need:
            n *= 2
        return n


def experiment_from_dict(cfg: dict) -> ExperimentConfig:
    """The experiment of a JSON config. ``eps`` defaults to the model's
    epsilon and ``times.checkpoints`` to [t_end]."""
    cfg = config_fields(cfg, "config", ("model",), {
        "grid": {"n": 64}, "eps": None,
        "shape": {"kind": "circle", "params": {"r": 0.25}},
        "times": {"t_end": 0.01}, "tol": {}, "out": None, "markers": 512})
    model = model_from_config(cfg["model"])
    grid = config_fields(cfg["grid"], "grid", (), {"n": 64})
    grid_n = config_number(grid["n"], "grid.n", whole=True)
    eps_list = config_numbers(cfg.get("eps", [model.epsilon]), "eps")
    shape = _shape_from_dict(cfg["shape"])
    times = config_fields(cfg["times"], "times", ("t_end",), {"checkpoints": None})
    t_end = config_number(times["t_end"], "times.t_end")
    checkpoints = config_numbers(times.get("checkpoints", [t_end]),
                                 "times.checkpoints")
    tol = config_fields(cfg["tol"], "tol", (),
                        {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10.0})
    return ExperimentConfig(
        model=model, grid_n=grid_n, eps_list=eps_list, shape=shape, t_end=t_end,
        checkpoints=checkpoints, eta_g=config_number(tol["eta_g"], "tol.eta_g"),
        eta_p=config_number(tol["eta_p"], "tol.eta_p"),
        m0_ceiling=config_number(tol["m0_ceiling"], "tol.m0_ceiling"),
        out_dir=cfg.get("out"),
        markers=config_number(cfg["markers"], "markers", whole=True))


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return config_object(json.load(fh), "config")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_model(path) -> ModelSpec:
    """Model from either a bare model object or a full experiment config."""
    cfg = load_config(path)
    if "model" in cfg:
        cfg = cfg["model"]
    return model_from_config(cfg)


def ensure_out_dir(out_dir) -> Path:
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p
