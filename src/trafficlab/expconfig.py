"""Experiment configuration: one YAML document drives the whole pipeline.

Each nested section is its module's config object, built once when the
config is constructed: `window` is a `WindowConfig`, `incidents` an
`IncidentPlanConfig`, `sim` a `SimConfig` and `model` a
`TreeEnsembleConfig`.  A section's keys are the field names of its class,
except `sim.seed` (each day's simulator seed comes from its (seed, day)
stream) and `model.objective` (each sub-model sets its own); `model.seed`
defaults to the top-level `seed`.  One kind rule, taken from each field's
default, checks the top level and every section, and each range check
lives in the dataclass that owns the setting.  Anything left out takes its
default, and unknown keys are rejected rather than ignored.  The resolved
document (defaults filled in) is echoed into every output directory so a
run can be reproduced from the echo alone.
"""
from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import yaml

from .features import WindowConfig
from .incidents import IncidentPlanConfig
from .microsim import SimConfig
from .models import TreeEnsembleConfig
from . import is_number, kind_fault, netgen, open_text, write_lines


class ConfigError(ValueError):
    pass


# the one field of a section that is not a key: the simulator seed comes
# from each day's (seed, day) stream, the objective from the sub-model
_DERIVED = {"sim": "seed", "model": "objective"}


def _check_kinds(values: dict, cls, prefix: str = "") -> None:
    """Each value must be of the kind of its field's default in `cls`
    (`kind_fault`).  A field with no such default (`sensors`, the weights,
    the sections) has its own check."""
    for key, value in values.items():
        what = kind_fault(value, cls.__dataclass_fields__[key].default)
        if what:
            raise ConfigError(f"{prefix}{key} must be {what}, not {value!r}")


def _section(name: str, value, cls, **defaults):
    """The config object of section `name`, built from its mapping."""
    _check_keys(value, set(cls.__dataclass_fields__) - {_DERIVED.get(name)},
                name)
    _check_kinds(value, cls, name + ".")
    return cls(**{**defaults, **{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in value.items()}})


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
    # each section is given as a mapping and built into its config object
    window: WindowConfig = field(default_factory=dict)
    incidents: IncidentPlanConfig = field(default_factory=dict)
    sim: SimConfig = field(default_factory=dict)
    model: TreeEnsembleConfig = field(default_factory=dict)
    entry_weights: dict = field(default_factory=dict)
    exit_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_kinds(vars(self), ExperimentConfig)
        for name in ("entry_weights", "exit_weights"):
            w = getattr(self, name)
            if not (isinstance(w, dict) and all(
                    isinstance(k, str) and is_number(v)
                    for k, v in w.items())):
                raise ConfigError(f"{name} must be a mapping of node ids to "
                                  f"numbers, not {w!r}")
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
        self.window = _section("window", self.window, WindowConfig)
        self.incidents = _section("incidents", self.incidents,
                                  IncidentPlanConfig)
        self.sim = _section("sim", self.sim, SimConfig)
        self.model = _section("model", self.model, TreeEnsembleConfig,
                              seed=self.seed)

    def network_path(self) -> str:
        return _resolve_input(self.network, ".net")

    def counts_path(self) -> str:
        return _resolve_input(self.counts, ".csv")

    def resolved_dict(self) -> dict:
        doc = dataclasses.asdict(self, dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v for k, v in items})
        for section, derived in _DERIVED.items():
            del doc[section][derived]
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
    try:
        _check_keys(doc, set(ExperimentConfig.__dataclass_fields__), "config")
        doc.update(overrides or {})
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def echo_config(cfg: ExperimentConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_used.yaml")
    write_lines(path, yaml.safe_dump(cfg.resolved_dict(),
                                     sort_keys=True).splitlines())
    return path
