"""Command-line surface: gen, train, migrate, sweep, label, verify.

Every command reads an optional JSON config (defaults apply otherwise).
Each flag sets one field of the config's JSON object before
``RunConfig.from_dict`` builds and checks it, so a flag beats the file's
value and the manifest's config echo records it.  Before it writes
anything, every command builds, and so checks, the config, the domain
pair, the schedule, the bridge and high-pass settings and the untrained
model ``train`` would start from.  Only ``sweep`` and ``label`` snap the
depth grid and refuse two depths on one node or frame name, and only
``label`` refuses targets that share a frame name.  A command writes its
outputs under one run directory, which must be new or empty, in the
subdirectories it uses (frames/, labels/, checkpoints/), created with
their first file.  The command's ``_Run`` holds its settings and its
ledger.  A file is listed when the command names it, before anything
writes it, and a name listed twice is refused before the second write.
The run finishes with a manifest.json that lists every emitted file
exactly once, beside the command, the config echo, the tool version,
notes and the wall-clock time.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .attention import Direction, select_priority
from .bridge import BridgeConfig, NonFiniteStateError, depth_sweep, migrate
from .config import RunConfig
from .denoiser import AnalyticFieldEpsilon, AnalyticGmmEpsilon, load_checkpoint, save_checkpoint
from .domains import DomainPair, GaussianMixture, gmm_log_density, sample_domain, save_pgm
from .schedule import NoiseSchedule
from .softlabel import (
    DegenerateEndpointsError,
    HighpassSpec,
    calibrate_depth,
    highpass_magnitude,
    label_sweep,
)
from .train import TrainingDivergedError, init_model, train_denoiser
from .verify import run_all

_ROLE_SEEDS = {
    "source-samples": 1,
    "target-samples": 2,
    "train-source": 3,
    "train-target": 4,
    "migrate": 5,
    "sweep": 6,
    "label": 7,
}


def _role_seed(seed: int, role: str) -> int:
    return int(np.random.SeedSequence([seed, _ROLE_SEEDS[role]]).generate_state(1)[0])


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> tuple[float, ...]:
    """A list flag's comma-separated numbers; argparse names the flag on a malformed list."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        message = f"expected comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


class _Flag(NamedTuple):
    """One flag: the config field it sets (a path in the JSON object), how it parses, its help."""

    option: str
    path: tuple[str, ...]
    parse: Callable[[str], object]
    help: str
    command: str | None = None   # the one command that takes it; None for every command


# Every flag, one row each; build_parser and _load_config both read it.
_FLAGS = (
    _Flag("--seed", ("seed",), int, "override the global seed"),
    _Flag("--out", ("out",), str, "override the output directory"),
    _Flag("--steps", ("bridge", "steps_per_unit_time"), int,
          "override bridge sub-steps per unit time"),
    _Flag("--depth-grid", ("sweep_depths",), _floats,
          "override the sweep depth grid, comma-separated values in [0,1]"),
    _Flag("--cutoff", ("highpass_cutoff",), float, "override the high-pass cutoff"),
    _Flag("--targets", ("label_targets",), _floats,
          "comma-separated target labels in [0,1]", "label"),
)


def _add_flags(parser: argparse.ArgumentParser, command: str | None) -> None:
    """The rows of ``_FLAGS`` that command takes (None: the rows every command takes)."""
    for flag in _FLAGS:
        if flag.command == command:
            parser.add_argument(flag.option, type=flag.parse, help=flag.help)


def build_parser() -> _Parser:
    parser = _Parser(prog="diffbridge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    # Every command's parser shares the common arguments' objects; a copy
    # per command raised texture-label's peak RSS by about 1 MB.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON run configuration")
    _add_flags(common, None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("gen", "emit source/target domain samples"),
        ("train", "train per-domain denoisers"),
        ("migrate", "run full-depth domain migration"),
        ("sweep", "depth sweep with soft labels"),
        ("label", "calibrate depths to target labels"),
        ("verify", "run the built-in oracle suite"),
    ):
        _add_flags(sub.add_parser(command, parents=[common], help=text), command)
    return parser


def _load_config(args) -> RunConfig:
    """The config file's JSON object (or ``{}``) with each given flag's field set, built once.

    A flag beats the file's value, even one the config would refuse.  A
    file or section that is not a JSON object is left as it is, so
    ``RunConfig.from_dict`` refuses it with its own message.
    """
    raw = {}
    if args.config:
        try:
            raw = json.loads(args.config.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    for flag in _FLAGS:
        # argparse names the attribute after the option, dashes made underscores.
        value = getattr(args, flag.option[2:].replace("-", "_"), None)
        if value is None:
            continue
        *sections, key = flag.path
        fields = raw
        for name in sections:
            if isinstance(fields, dict):
                fields = fields.setdefault(name, {})
        if isinstance(fields, dict):
            fields[key] = value
    return RunConfig.from_dict(raw)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_points_csv(path, points: np.ndarray) -> None:
    header = ["sample_id"] + [f"c{d}" for d in range(points.shape[1])]
    _write_csv(path, header, ([i] + [repr(float(v)) for v in row] for i, row in enumerate(points)))


def _build_models(cfg: RunConfig, pair, schedule):
    if cfg.models.kind == "checkpoint":
        return load_checkpoint(cfg.models.source), load_checkpoint(cfg.models.target)
    if isinstance(pair.source, GaussianMixture):
        return (
            AnalyticGmmEpsilon(pair.source, schedule),
            AnalyticGmmEpsilon(pair.target, schedule),
        )
    return (
        AnalyticFieldEpsilon(pair.source.mode_variances, schedule),
        AnalyticFieldEpsilon(pair.target.mode_variances, schedule),
    )


def _is_image_pair(pair) -> bool:
    return len(pair.shape) == 2


def _depth_tag(depth: float) -> str:
    """A depth as every frame name spells it; ``_snap_grid`` refuses two depths with one tag."""
    return f"{depth:.4f}"


def _target_tag(target: float) -> str:
    """A label target as every frame name spells it; ``_check_targets`` refuses two with one tag."""
    return f"{target:.2f}"


def _snap_grid(depths, bridge_cfg: BridgeConfig) -> tuple[float, ...]:
    """The grid snapped to bridge nodes, in order.

    Two depths on one node, or on two nodes whose frame names
    (``_depth_tag``) coincide, are errors.  RunConfig refuses an empty grid.
    """
    snapped = [bridge_cfg.snap(float(d)) for d in depths]
    tags = [_depth_tag(node) for node in snapped]
    for i, node in enumerate(snapped):
        if tags[i] not in tags[:i]:
            continue
        j = tags.index(tags[i])
        if snapped[j] == node:
            why = f"snap to the same grid node {node}"
        else:
            why = f"snap to grid nodes {snapped[j]} and {node}, which share the frame name d{tags[i]}"
        raise ValueError(
            f"sweep depths {depths[j]} and {depths[i]} {why} "
            f"at {bridge_cfg.grid_steps} steps per unit time"
        )
    return tuple(snapped)


def _check_targets(targets) -> tuple[float, ...]:
    """The label targets, which RunConfig has checked to be nonempty and in [0, 1].

    Targets sharing a frame name (``_target_tag``) are errors.
    """
    tags = [_target_tag(t) for t in targets]
    for i, target in enumerate(targets):
        if tags[i] in tags[:i]:
            raise ValueError(
                f"label targets {targets[tags.index(tags[i])]} and {target} "
                f"share the frame name target{tags[i]}"
            )
    return targets


def _settings(cfg: RunConfig) -> tuple[DomainPair, NoiseSchedule, BridgeConfig, HighpassSpec]:
    """The domain pair, schedule, bridge and high-pass settings.

    Every command builds them, and the untrained model ``train`` would
    start from, so every command checks them, those it does not use included.
    """
    pair = cfg.domains.build(cfg.seed)
    schedule = cfg.schedule.build()
    init_model(pair.shape, cfg.train, schedule)
    return pair, schedule, cfg.bridge.build(schedule), cfg.highpass()


@dataclass(frozen=True)
class _Run:
    """One writing command's run directory: its settings and its ledger.

    Building it writes nothing.  ``file`` names each emitted file and
    lists it with its record, so a file is listed once and before it is
    written, ``notes`` holds the command's summary values, and ``finish``
    writes ``out/manifest.json``.
    """

    config: RunConfig
    command: str
    start: float                 # time.monotonic() before the settings were built
    out: Path
    pair: DomainPair
    schedule: NoiseSchedule
    bridge: BridgeConfig
    highpass: HighpassSpec
    records: dict[str, dict] = field(default_factory=dict, init=False)   # by path, in order
    notes: dict[str, object] = field(default_factory=dict, init=False)
    subdirs: set[str] = field(default_factory=set, init=False)           # created so far

    def file(self, sub: str, name: str, kind: str, **meta) -> Path:
        """The path ``out/sub/name``, listed with its record before anything writes it.

        A path already listed is refused before ``out/sub`` is touched, so
        a second write never replaces the first; ``out/sub`` is created
        with its first file.
        """
        path = self.out / sub / name
        key = str(path)
        if key in self.records:
            raise ValueError(f"file listed twice in manifest: {key}")
        if sub not in self.subdirs:
            (self.out / sub).mkdir(parents=True, exist_ok=True)
            self.subdirs.add(sub)
        self.records[key] = {"path": key, "kind": kind, **meta}
        return path

    def finish(self) -> None:
        payload = {
            "command": self.command,
            "tool_version": __version__,
            "config": self.config.to_dict(),
            "records": list(self.records.values()),
            "notes": self.notes,
            "timings": {"wall_seconds": round(time.monotonic() - self.start, 6)},
        }
        (self.out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _open_run(cfg: RunConfig, command: str) -> _Run:
    """The run's settings and empty ledger; each command builds the rest before computing.

    An ``out`` that exists and is not an empty directory is refused, so
    one run's files are never mixed with another's.
    """
    start = time.monotonic()
    out = Path(cfg.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"output path {out} exists and is not an empty directory")
    return _Run(cfg, command, start, out, *_settings(cfg))


def _write_frame(run: _Run, name: str, x, kind: str, **meta) -> None:
    """One field as ``frames/{name}``, clipped to [-1, 1], listed with its record."""
    save_pgm(np.clip(x, -1.0, 1.0), run.file("frames", name, kind, **meta))


def _write_samples(run: _Run, stem: str, samples) -> None:
    """A batch as ``{stem}_NNN.pgm`` frames, or points as one ``{stem}.csv``."""
    if _is_image_pair(run.pair):
        for i, x in enumerate(samples):
            _write_frame(run, f"{stem}_{i:03d}.pgm", x, kind=f"{stem}-sample", sample_id=i)
    else:
        path = run.file("frames", f"{stem}.csv", f"{stem}-samples", count=int(len(samples)))
        _write_points_csv(path, samples)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    run = _open_run(cfg, "gen")
    for role, domain in (("source", run.pair.source), ("target", run.pair.target)):
        seed = _role_seed(cfg.seed, f"{role}-samples")
        _write_samples(run, role, sample_domain(domain, cfg.gen_count, seed))
    run.notes["sample_count"] = cfg.gen_count
    run.finish()
    print(f"gen: wrote {2 * cfg.gen_count} samples under {run.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    run = _open_run(cfg, "train")
    # Hybrid rule at training time: the source model serves forward legs,
    # the target model reverse legs.
    roles = (
        ("source", run.pair.source, select_priority(Direction.FORWARD), "train-source"),
        ("target", run.pair.target, select_priority(Direction.REVERSE), "train-target"),
    )
    trained = []
    for role, domain, priority, seed_role in roles:
        seed = _role_seed(cfg.seed, seed_role)
        data = sample_domain(domain, cfg.train.samples, seed)
        trained.append((role, *train_denoiser(data, cfg.train, run.schedule, seed, priority)))
    # Both models train before the first write, so a diverging target leaves no files.
    for role, model, losses in trained:
        ckpt = run.file("checkpoints", f"{role}.ckpt", f"{role}-checkpoint", final_loss=losses[-1])
        save_checkpoint(model, ckpt)
        loss_csv = run.file("checkpoints", f"{role}_loss.csv", f"{role}-loss-history",
                            epochs=len(losses))
        _write_csv(loss_csv, ["epoch", "loss"], ([e, repr(loss)] for e, loss in enumerate(losses)))
        print(f"train[{role}]: loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    run.finish()
    return 0


def cmd_migrate(cfg: RunConfig) -> int:
    run = _open_run(cfg, "migrate")
    models = _build_models(cfg, run.pair, run.schedule)
    sources = sample_domain(run.pair.source, cfg.gen_count, _role_seed(cfg.seed, "migrate"))
    migrated = migrate(sources, *models, run.bridge)
    _write_samples(run, "source", sources)
    _write_samples(run, "migrated", migrated)
    if _is_image_pair(run.pair):
        means = [float(np.mean(highpass_magnitude(v, run.highpass))) for v in (sources, migrated)]
        run.notes["highpass_magnitude_mean"] = dict(zip(("source", "migrated"), means))
    else:
        gain = gmm_log_density(run.pair.target, migrated) - gmm_log_density(run.pair.target, sources)
        run.notes["target_log_density_gain"] = {
            "mean": float(gain.mean()), "fraction_improved": float(np.mean(gain > 0)),
        }
    run.finish()
    print(f"migrate: {cfg.gen_count} samples migrated under {run.out}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    run = _open_run(cfg, "sweep")
    models = _build_models(cfg, run.pair, run.schedule)
    depths = _snap_grid(cfg.sweep_depths, run.bridge)
    sources = sample_domain(run.pair.source, cfg.sweep_count, _role_seed(cfg.seed, "sweep"))

    if _is_image_pair(run.pair):
        sweep = label_sweep(sources, *models, run.bridge, depths, run.highpass)
        # Python floats, so CSV cells and manifest values spell as floats do.
        arrays = (sweep.value, sweep.raw, sweep.a_frame, sweep.a_source, sweep.a_target)
        value, raw, a_i, a_s, a_t = (v.tolist() for v in arrays)
        label_rows = []
        for i, x in enumerate(sources):
            _write_frame(run, f"sample{i:03d}_source.pgm", x, kind="source-sample", sample_id=i)
            for k, depth in enumerate(depths):
                _write_frame(
                    run, f"sample{i:03d}_d{_depth_tag(depth)}.pgm", sweep.frames[k, i],
                    kind="sweep-frame", sample_id=i, depth=depth, soft_label=value[k][i],
                )
                cells = (depth, raw[k][i], value[k][i], a_s[i], a_i[k][i], a_t[i])
                label_rows.append([i, *map(repr, cells)])
        labels_path = run.file("labels", "labels.csv", "labels", rows=len(label_rows))
        header = ["sample_id", "depth_snapped", "raw_label", "clamped_label", "A_s", "A_i", "A_t"]
        _write_csv(labels_path, header, label_rows)
    else:
        # Point domains have no spectral labels; emit per-depth coordinates.
        frames = depth_sweep(sources, *models, run.bridge, depths)
        for depth, frame in zip(depths, frames):
            path = run.file("frames", f"depth_{_depth_tag(depth)}.csv", "sweep-frame",
                            depth=depth, count=len(sources))
            _write_points_csv(path, frame)
        run.notes["labels"] = "point domains carry no spectral labels"
    run.finish()
    print(f"sweep: {cfg.sweep_count} samples x {len(cfg.sweep_depths)} depths under {run.out}")
    return 0


def cmd_label(cfg: RunConfig) -> int:
    run = _open_run(cfg, "label")
    if not _is_image_pair(run.pair):
        raise ValueError("label calibration needs an image domain pair")
    targets = _check_targets(cfg.label_targets)
    models = _build_models(cfg, run.pair, run.schedule)
    depths = _snap_grid(cfg.sweep_depths, run.bridge)
    sources = sample_domain(run.pair.source, cfg.label_count, _role_seed(cfg.seed, "label"))

    sweep, picks = calibrate_depth(targets, sources, *models, run.bridge, depths, run.highpass)
    value, raw = sweep.value.tolist(), sweep.raw.tolist()
    rows = []
    for i, row in enumerate(picks.tolist()):
        for target, k in zip(targets, row):
            depth, achieved, raw_label = depths[k], value[k][i], raw[k][i]
            _write_frame(
                run, f"sample{i:03d}_target{_target_tag(target)}_d{_depth_tag(depth)}.pgm",
                sweep.frames[k, i], kind="calibrated-frame", sample_id=i, target_label=target,
                achieved_label=achieved, raw_label=raw_label, depth=depth,
            )
            rows.append([i, *map(repr, (target, depth, achieved, raw_label))])
    labels_path = run.file("labels", "calibrated.csv", "labels", rows=len(rows))
    header = ["sample_id", "target_label", "depth", "achieved_label", "raw_label"]
    _write_csv(labels_path, header, rows)
    run.finish()
    print(f"label: calibrated {len(rows)} frames under {run.out}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    _, schedule, _, _ = _settings(cfg)
    results = run_all(schedule=schedule, seed=cfg.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"verify: {len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up per call, so a wrapper set on a module-level cmd_* is the one run.
    commands = {"gen": cmd_gen, "train": cmd_train, "migrate": cmd_migrate,
                "sweep": cmd_sweep, "label": cmd_label, "verify": cmd_verify}
    try:
        return commands[args.command](_load_config(args))
    except (NonFiniteStateError, TrainingDivergedError, DegenerateEndpointsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
