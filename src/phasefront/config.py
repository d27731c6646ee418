"""Experiment configuration: strict JSON schema with unknown fields rejected."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import FrontCurve, circle_curve, ellipse_curve
from .errors import ConfigError
from .model import (
    ModelSpec,
    config_number,
    config_numbers,
    config_object,
    model_from_config,
)


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    params: dict

    def build_curve(self, n_vertices: int = 512) -> FrontCurve:
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
# and its optional ones
_SHAPE_PARAMS = {
    "circle": ({"r"}, {"cx", "cy"}),
    "ellipse": ({"a", "b"}, {"cx", "cy"}),
    "trig": (set(), {"amplitude", "kx", "ky", "offset"}),
}


def _finite_param(key: str, val) -> float:
    try:
        x = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"shape param {key!r} must be a number, got {val!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"shape param {key!r} must be finite, got {val!r}")
    return x


def _shape_from_dict(cfg: dict) -> ShapeSpec:
    """The shape of a CLI string or a JSON config, its params as floats:
    every required param present, every param a finite number, radii and
    semi-axes positive, wave numbers whole."""
    cfg = config_object(cfg, "shape")
    kind = cfg.pop("kind", None)
    params = config_object(cfg.pop("params", {}), "shape params")
    if cfg:
        raise ConfigError(f"unknown shape fields: {sorted(cfg)}")
    if kind not in _SHAPE_PARAMS:
        raise ConfigError(f"unknown shape kind {kind!r}")
    required, optional = _SHAPE_PARAMS[kind]
    if missing := required - params.keys():
        raise ConfigError(f"shape {kind!r} is missing params {sorted(missing)}")
    if unknown := params.keys() - required - optional:
        raise ConfigError(f"shape {kind!r} has unknown params {sorted(unknown)}")
    params = {key: _finite_param(key, val) for key, val in params.items()}
    if small := sorted(key for key in required if params[key] <= 0.0):
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
            params[key] = val
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
        if any(e <= 0 for e in self.eps_list):
            raise ConfigError("epsilon values must be positive")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        eta0 = self.model.reaction.eta0
        if not (0.0 < self.eta_g < eta0):
            raise ConfigError(f"eta_g must lie in (0, {eta0}), got {self.eta_g}")
        if not (0.0 < self.eta_p < eta0):
            raise ConfigError(f"eta_p must lie in (0, {eta0}), got {self.eta_p}")
        if not np.isfinite((self.t_end, *self.checkpoints)).all():
            raise ConfigError("t_end and checkpoints must be finite")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be nonnegative")
        if any(c < 0.0 or c > self.t_end for c in self.checkpoints):
            raise ConfigError("checkpoints must lie in [0, t_end]")

    def grid_size_for(self, eps: float) -> int:
        """Smallest power of two with h <= eps/4, at least the configured floor."""
        need = max(self.grid_n, int(np.ceil(4.0 / eps)))
        n = 8
        while n < need:
            n *= 2
        return n


def experiment_from_dict(cfg: dict) -> ExperimentConfig:
    cfg = config_object(cfg, "config")

    def take(name, default=None, required=False):
        if required and name not in cfg:
            raise ConfigError(f"config is missing field {name!r}")
        return cfg.pop(name, default)

    model = model_from_config(take("model", required=True))
    grid = config_object(take("grid", {"n": 64}), "grid")
    grid_n = config_number(grid.pop("n", 64), "grid.n", whole=True)
    if grid:
        raise ConfigError(f"unknown grid fields: {sorted(grid)}")
    eps_list = config_numbers(take("eps", [model.epsilon]), "eps")
    shape = _shape_from_dict(take("shape", {"kind": "circle",
                                            "params": {"r": 0.25}}))
    times = config_object(take("times", {"t_end": 0.01}), "times")
    if "t_end" not in times:
        raise ConfigError("times is missing field 't_end'")
    t_end = config_number(times.pop("t_end"), "times.t_end")
    checkpoints = config_numbers(times.pop("checkpoints", [t_end]),
                                 "times.checkpoints")
    if times:
        raise ConfigError(f"unknown times fields: {sorted(times)}")
    tol = config_object(take("tol", {}), "tol")
    eta_g = config_number(tol.pop("eta_g", 0.1), "tol.eta_g")
    eta_p = config_number(tol.pop("eta_p", 0.1), "tol.eta_p")
    m0_ceiling = config_number(tol.pop("m0_ceiling", 10.0), "tol.m0_ceiling")
    if tol:
        raise ConfigError(f"unknown tol fields: {sorted(tol)}")
    out_dir = take("out", None)
    markers = config_number(take("markers", 512), "markers", whole=True)
    if cfg:
        raise ConfigError(f"unknown config fields: {sorted(cfg)}")
    return ExperimentConfig(model=model, grid_n=grid_n, eps_list=eps_list,
                            shape=shape, t_end=t_end, checkpoints=checkpoints,
                            eta_g=eta_g, eta_p=eta_p, m0_ceiling=m0_ceiling,
                            out_dir=out_dir, markers=markers)


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
