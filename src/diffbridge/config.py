"""Run configuration.

A run is fully described by its RunConfig: domain pair, schedule, bridge
settings, model source, and per-command parameters, all serializable to
JSON.  Re-running any command with the same config and tool version
reproduces the primary outputs byte for byte.  ``RunConfig.from_dict``
is the one way in from JSON: the CLI reads the config file and sets
its flags' fields on the JSON object before that one call, so files
and flags meet the same checks.

The ``train`` section is the library's TrainConfig; ``train`` imports it
from here.  The manifest a command writes is the CLI's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bridge import BridgeConfig
from .domains import DomainPair, default_gmm_pair, make_texture_pair
from .schedule import NoiseSchedule, linear_schedule
from .softlabel import HighpassSpec


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is finite as a float: JSON gives ints of any size."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_SCALAR_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _check_scalars(spec, section: str = "") -> None:
    """ValueError naming the first scalar field of spec with a wrong type.

    The field annotations say the type: "int" takes an int but not a
    bool, "float" a finite int or float, "str" a string, and "X | None"
    also None.  Other fields are left to their own checks.
    """
    for f in fields(spec):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(spec, f.name)
        if kind not in _SCALAR_CHECKS or (optional == "None" and value is None):
            continue
        what, ok = _SCALAR_CHECKS[kind]
        if not ok(value):
            raise ValueError(f"{section}{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ScheduleSpec:
    steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        _check_scalars(self, "schedule.")

    def build(self) -> NoiseSchedule:
        return linear_schedule(self.steps, self.beta_start, self.beta_end)


@dataclass(frozen=True)
class DomainSpec:
    kind: str = "gmm"            # "gmm" or "texture"
    size: int = 32               # texture side length
    texture_kind: str = "bandsplit"

    def __post_init__(self):
        _check_scalars(self, "domains.")

    def build(self, seed: int) -> DomainPair:
        if self.kind == "gmm":
            return default_gmm_pair()
        if self.kind == "texture":
            return make_texture_pair(self.texture_kind, self.size, seed)
        raise ValueError(f"unknown domain kind {self.kind!r}")


@dataclass(frozen=True)
class BridgeSpec:
    steps_per_unit_time: int | None = None

    def __post_init__(self):
        _check_scalars(self, "bridge.")

    def build(self, schedule: NoiseSchedule) -> BridgeConfig:
        return BridgeConfig(schedule=schedule, steps_per_unit_time=self.steps_per_unit_time)


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "analytic"       # "analytic" or "checkpoint"
    source: str | None = None    # checkpoint paths
    target: str | None = None

    def __post_init__(self):
        _check_scalars(self, "models.")
        if self.kind not in ("analytic", "checkpoint"):
            raise ValueError(f"unknown models kind {self.kind!r}")
        if self.kind == "checkpoint" and not (self.source and self.target):
            raise ValueError("checkpoint models need both source and target paths")
        if self.kind == "analytic" and (self.source is not None or self.target is not None):
            raise ValueError("analytic models take no source or target checkpoint paths")


@dataclass(frozen=True)
class TrainConfig:
    """How one denoiser trains: the JSON ``train`` section.

    The schedule, the seed and the attention priority are arguments of
    ``train.train_denoiser``; the rules that need the field shape are
    ``train.init_model``'s.
    """

    epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 3e-3
    hidden: tuple[int, ...] = (64, 64)
    time_dim: int = 16
    samples: int = 2000              # training samples the CLI draws per domain
    attention: dict | None = None    # {"token_count":, "heads":, "windows":}

    def __post_init__(self):
        _check_scalars(self, "train.")
        if self.samples < 1:
            raise ValueError(f"train.samples must be an integer >= 1, got {self.samples!r}")
        if not isinstance(self.hidden, (list, tuple)) or not all(
            _is_int(h) and h >= 1 for h in self.hidden
        ):
            raise ValueError(f"train.hidden must be a list of integers >= 1, got {self.hidden!r}")
        att = self.attention
        if att is not None and not (
            isinstance(att, dict)
            and "token_count" in att
            and set(att) <= {"token_count", "heads", "windows"}
            and all(_is_int(v) for v in att.values())
        ):
            raise ValueError(
                "train.attention must map token_count and optionally heads and windows "
                f"to integers, got {att!r}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        object.__setattr__(self, "hidden", tuple(self.hidden))


def _default_depth_grid() -> tuple[float, ...]:
    return tuple(np.linspace(0.0, 1.0, 17).tolist())


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out: str = "runs/out"
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    domains: DomainSpec = field(default_factory=DomainSpec)
    bridge: BridgeSpec = field(default_factory=BridgeSpec)
    models: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    highpass_cutoff: float = 0.25
    gen_count: int = 16
    sweep_count: int = 4
    sweep_depths: tuple[float, ...] = field(default_factory=_default_depth_grid)
    label_targets: tuple[float, ...] = (0.25, 0.5, 0.75)
    label_count: int = 2

    def __post_init__(self):
        for key, least in (("seed", 0), ("gen_count", 1), ("sweep_count", 1), ("label_count", 1)):
            value = getattr(self, key)
            if not _is_int(value) or value < least:
                raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
        _check_scalars(self)
        if not self.out:
            raise ValueError("out must be a nonempty path")
        for key, noun in (("sweep_depths", "sweep depth"), ("label_targets", "label target")):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not all(_is_number(v) for v in value):
                raise ValueError(f"{key} must be a list of finite numbers, got {value!r}")
            if not value:
                raise ValueError(f"{key} is empty")
            value = tuple(float(v) for v in value)
            for v in value:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{noun} {v} outside [0, 1]")
            object.__setattr__(self, key, value)

    def highpass(self) -> HighpassSpec:
        return HighpassSpec(self.highpass_cutoff)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config a JSON object describes; any malformed field is a ValueError."""
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, not {type(raw).__name__}")
        nested = {
            "schedule": ScheduleSpec,
            "domains": DomainSpec,
            "bridge": BridgeSpec,
            "models": ModelSpec,
            "train": TrainConfig,
        }
        kwargs = {}
        try:
            for key, value in raw.items():
                if key in nested:
                    if not isinstance(value, dict):
                        raise ValueError(f"config section {key!r} must be an object")
                    kwargs[key] = nested[key](**value)
                else:
                    kwargs[key] = value
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad config: {exc}") from exc

