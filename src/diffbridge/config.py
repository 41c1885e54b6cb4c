"""Run configuration and output manifest.

A run is fully described by its RunConfig: domain pair, schedule, bridge
settings, model source, and per-command parameters, all serializable to
JSON.  Re-running any command with the same config and tool version
reproduces the primary outputs byte for byte.

The RunManifest lists every file a command emitted (exactly once), the
config echo, the tool version, and coarse wall-clock timings.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attention import Priority
from .bridge import BridgeConfig, Integrator
from .domains import DomainPair, default_gmm_pair, make_texture_pair
from .schedule import NoiseSchedule, linear_schedule
from .softlabel import HighpassSpec
from .train import AttentionLayout, TrainConfig


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


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
    integrator: str = "ddim"

    def __post_init__(self):
        _check_scalars(self, "bridge.")

    def build(self, schedule: NoiseSchedule) -> BridgeConfig:
        return BridgeConfig(
            schedule=schedule,
            steps_per_unit_time=self.steps_per_unit_time,
            integrator=Integrator(self.integrator),
        )


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "analytic"       # "analytic" or "checkpoint"
    source: str | None = None    # checkpoint paths
    target: str | None = None

    def __post_init__(self):
        _check_scalars(self, "models.")


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 3e-3
    optimizer: str = "adam"
    hidden: tuple[int, ...] = (64, 64)
    time_dim: int = 16
    activation: str = "silu"
    samples: int = 2000
    attention: dict | None = None   # {"token_count":, "heads":, "windows":}

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
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def build(self, schedule: NoiseSchedule, priority: Priority, seed: int) -> TrainConfig:
        layout = None
        if self.attention is not None:
            layout = AttentionLayout(
                token_count=self.attention["token_count"],
                heads=self.attention.get("heads", 1),
                windows=self.attention.get("windows", 1),
                priority=priority,
            )
        return TrainConfig(
            schedule=schedule,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            seed=seed,
            hidden=tuple(self.hidden),
            time_dim=self.time_dim,
            activation=self.activation,
            attention=layout,
        )


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
    train: TrainSpec = field(default_factory=TrainSpec)
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
            "train": TrainSpec,
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

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def with_overrides(
        self,
        seed: int | None = None,
        out: str | None = None,
        steps: int | None = None,
        depth_grid: tuple[float, ...] | None = None,
        cutoff: float | None = None,
        targets: tuple[float, ...] | None = None,
    ) -> "RunConfig":
        """Apply command-line flag overrides (flags beat file fields)."""
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if out is not None:
            cfg = replace(cfg, out=out)
        if steps is not None:
            cfg = replace(cfg, bridge=replace(cfg.bridge, steps_per_unit_time=steps))
        if depth_grid is not None:
            cfg = replace(cfg, sweep_depths=depth_grid)
        if cutoff is not None:
            cfg = replace(cfg, highpass_cutoff=cutoff)
        if targets is not None:
            cfg = replace(cfg, label_targets=targets)
        return cfg


class RunManifest:
    """Ledger of one command's outputs; every emitted file appears once."""

    def __init__(self, config: RunConfig, command: str):
        self.command = command
        self.config_echo = config.to_dict()
        self.tool_version = __version__
        self.records: list[dict] = []
        self.timings: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        self._start = time.monotonic()
        self._seen: set[str] = set()

    def add(self, path, kind: str, **meta) -> None:
        key = str(path)
        if key in self._seen:
            raise ValueError(f"file listed twice in manifest: {key}")
        self._seen.add(key)
        self.records.append({"path": key, "kind": kind, **meta})

    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def finish(self, out_dir) -> Path:
        self.timings["wall_seconds"] = round(time.monotonic() - self._start, 6)
        path = Path(out_dir) / "manifest.json"
        payload = {
            "command": self.command,
            "tool_version": self.tool_version,
            "config": self.config_echo,
            "records": self.records,
            "notes": self.notes,
            "timings": self.timings,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
