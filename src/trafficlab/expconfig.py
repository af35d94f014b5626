"""Experiment configuration: one YAML document drives the whole pipeline.

Nested sections map onto the per-module config dataclasses; anything left
out takes that dataclass's default, and unknown keys are rejected rather
than ignored.  The resolved document (defaults filled in) is echoed into
every output directory so a run can be reproduced from the echo alone.
"""
from __future__ import annotations

import math
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


# each nested section's keys, mapped to the names of their config fields
_WINDOW_KEYS = {"window_s": "window", "stride_s": "stride",
                "label_mode": "label_mode"}
_INCIDENT_KEYS = {f: f for f in IncidentPlanConfig.__dataclass_fields__}
# the simulator seed comes from each day's (seed, day) stream, and the
# learner's objective from the sub-model being trained; neither is a key
_SIM_KEYS = {f: f for f in SimConfig.__dataclass_fields__ if f != "seed"}
_MODEL_KEYS = {f: f for f in TreeEnsembleConfig.__dataclass_fields__
               if f != "objective"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (top-level keys, test of each value, what the test asks for)
_KINDS = ((("network", "counts", "out_dir"),
           lambda v: isinstance(v, str), "a string"),
          (("days", "day_seconds", "bin_seconds", "seed"), _is_int,
           "an integer"),
          (("sensor_range_m", "staleness_s", "threshold"), _is_number,
           "a number"),
          (("entry_weights", "exit_weights"),
           lambda v: isinstance(v, dict) and all(
               isinstance(k, str) and _is_number(w) for k, w in v.items()),
           "a mapping of node ids to numbers"))


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
    window: dict = field(default_factory=dict)
    incidents: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    entry_weights: dict = field(default_factory=dict)
    exit_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        for names, test, what in _KINDS:
            for name in names:
                if not test(getattr(self, name)):
                    raise ConfigError(f"{name} must be {what}, not "
                                      f"{getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")
        if self.days < 1:
            raise ConfigError("days must be at least 1")
        if self.day_seconds < 1:
            raise ConfigError("day_seconds must be positive")
        if self.bin_seconds < 1 or self.day_seconds % self.bin_seconds:
            raise ConfigError("bin_seconds must divide day_seconds")
        if not self.staleness_s > 0:  # NaN included
            raise ConfigError("staleness_s must be positive")
        if not 0 < self.sensor_range_m < math.inf:
            raise ConfigError("sensor_range_m must be positive and finite")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        if self.sensors is not None and not (
                isinstance(self.sensors, list)
                and all(isinstance(s, str) for s in self.sensors)):
            raise ConfigError("sensors must be a list of node ids, not "
                              f"{self.sensors!r}")
        for section, cls, keys in (
                ("window", WindowConfig, _WINDOW_KEYS),
                ("incidents", IncidentPlanConfig, _INCIDENT_KEYS),
                ("sim", SimConfig, _SIM_KEYS),
                ("model", TreeEnsembleConfig, _MODEL_KEYS)):
            _check_section(getattr(self, section), cls, keys, section)
        if self.model.get("seed", 0) < 0:
            raise ConfigError("model.seed must not be negative")
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


def _check_section(d: dict, cls, keys: dict, section: str) -> None:
    """A nested section's keys must be among `keys`, and each value of the
    kind of its field's default in `cls`: an integer, a number, a string or
    a pair of numbers."""
    _check_keys(d, set(keys), section)
    for key, value in d.items():
        default = cls.__dataclass_fields__[keys[key]].default
        if isinstance(default, int):
            ok, what = _is_int(value), "an integer"
        elif isinstance(default, float):
            ok, what = _is_number(value), "a number"
        elif isinstance(default, str):
            ok, what = isinstance(value, str), "a string"
        else:
            ok, what = (isinstance(value, (list, tuple)) and len(value) == 2
                        and all(map(_is_number, value))), "a pair of numbers"
        if not ok:
            raise ConfigError(f"{section}.{key} must be {what}, not "
                              f"{value!r}")


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
    try:
        _check_keys(doc, set(ExperimentConfig.__dataclass_fields__), "config")
        doc.update(overrides or {})
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def echo_config(cfg: ExperimentConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_used.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.resolved_dict(), fh, sort_keys=True)
    return path
