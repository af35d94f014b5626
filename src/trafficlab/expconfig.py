"""Experiment configuration: one YAML document drives the whole pipeline.

Nested sections map onto the per-module config dataclasses; anything left
out takes that dataclass's default, and unknown keys are rejected rather
than ignored.  The resolved document (defaults filled in) is echoed into
every output directory so a run can be reproduced from the echo alone.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .features import WindowConfig
from .incidents import IncidentPlanConfig
from .microsim import SimConfig
from .models import TreeEnsembleConfig
from . import netgen, open_text


class ConfigError(ValueError):
    pass


_WINDOW_KEYS = {"window_s": "window", "stride_s": "stride",
                "label_mode": "label_mode"}
# the simulator seed comes from each day's (seed, day) stream, and the
# learner's objective from the sub-model being trained; neither is a key
_SIM_KEYS = set(SimConfig.__dataclass_fields__) - {"seed"}
_MODEL_KEYS = set(TreeEnsembleConfig.__dataclass_fields__) - {"objective"}


@dataclass
class ExperimentConfig:
    network: str = "grid4x4"
    counts: str = "city_counts"
    out_dir: str = "runs/experiment"
    days: int = 31
    day_seconds: int = 86400
    bin_seconds: int = 900
    seed: int = 0
    sensors: list | None = None     # node ids; None means every sensor site
    sensor_range_m: float = 50.0
    staleness_s: float = 1800.0
    threshold: float = 0.5
    demand_params: str | None = None  # pre-fit params file, skips fitting
    window: dict = field(default_factory=dict)
    incidents: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    entry_weights: dict = field(default_factory=dict)
    exit_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.days < 1:
            raise ConfigError("days must be at least 1")
        if self.day_seconds < 1:
            raise ConfigError("day_seconds must be positive")
        if self.bin_seconds < 1 or self.day_seconds % self.bin_seconds:
            raise ConfigError("bin_seconds must divide day_seconds")
        if self.staleness_s <= 0:
            raise ConfigError("staleness_s must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        _check_keys(self.window, set(_WINDOW_KEYS), "window")
        _check_keys(self.incidents,
                    set(IncidentPlanConfig.__dataclass_fields__), "incidents")
        _check_keys(self.sim, _SIM_KEYS, "sim")
        _check_keys(self.model, _MODEL_KEYS, "model")
        # constructing each config validates the override values early
        self.window_config()
        self.incident_config()
        self.sim_config(0)
        self.model_config()

    def window_config(self) -> WindowConfig:
        kw = {_WINDOW_KEYS[k]: v for k, v in self.window.items()}
        return WindowConfig(**kw)

    def incident_config(self) -> IncidentPlanConfig:
        kw = dict(self.incidents)
        for key in ("minor_duration_s", "severe_duration_s"):
            if key in kw:
                kw[key] = tuple(kw[key])
        return IncidentPlanConfig(**kw)

    def sim_config(self, seed: int) -> SimConfig:
        return SimConfig(seed=seed, **self.sim)

    def model_config(self) -> TreeEnsembleConfig:
        kw = dict(self.model)
        kw.setdefault("seed", self.seed)
        return TreeEnsembleConfig(**kw)

    def network_path(self) -> str:
        return _resolve_input(self.network, ".net")

    def counts_path(self) -> str:
        return _resolve_input(self.counts, ".csv")

    def resolved_dict(self) -> dict:
        doc = {}
        for name in self.__dataclass_fields__:
            val = getattr(self, name)
            doc[name] = dict(val) if isinstance(val, dict) else val
        doc["window"] = {k: getattr(self.window_config(), v)
                         for k, v in _WINDOW_KEYS.items()}
        inc = self.incident_config()
        doc["incidents"] = {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in
                            ((f, getattr(inc, f))
                             for f in inc.__dataclass_fields__)}
        sim = self.sim_config(0)
        doc["sim"] = {f: getattr(sim, f) for f in _SIM_KEYS}
        mdl = self.model_config()
        doc["model"] = {f: getattr(mdl, f) for f in _MODEL_KEYS}
        return doc


def _check_keys(d: dict, allowed: set, section: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in {section!r}: {', '.join(sorted(unknown))}")


def _resolve_input(name: str, suffix: str) -> str:
    """A config input is either a real path or the stem of a bundled
    fixture (grid4x4, highway8, city_counts)."""
    if os.path.exists(name):
        return name
    bundled = str(netgen.bundled_path(name if name.endswith(suffix)
                                      else name + suffix))
    if os.path.exists(bundled):
        return bundled
    raise ConfigError(f"input {name!r} is neither a file nor a bundled "
                      "fixture")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open_text(path, ConfigError) as fh:
        try:
            doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}" if mark else str(path)
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{where}: {problem}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    allowed = set(ExperimentConfig.__dataclass_fields__)
    _check_keys(doc, allowed, "config")
    doc.update(overrides or {})
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def echo_config(cfg: ExperimentConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_used.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.resolved_dict(), fh, sort_keys=True)
    return path
