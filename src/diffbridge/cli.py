"""Command-line surface: gen, train, migrate, sweep, label, verify.

Every command reads an optional JSON config (defaults apply otherwise)
and applies its flags as RunConfig overrides, so the manifest's config
echo records them.  It writes its outputs under one run directory, in
the subdirectories it uses (frames/, labels/, checkpoints/), created
with their first file, and finishes with a manifest.json that lists
every emitted file exactly once.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .attention import Direction, select_priority
from .bridge import BridgeConfig, NonFiniteStateError, depth_sweep, migrate
from .config import RunConfig, RunManifest
from .denoiser import AnalyticFieldEpsilon, AnalyticGmmEpsilon, load_checkpoint, save_checkpoint
from .domains import DomainPair, GaussianMixture, gmm_log_density, sample_domain, save_pgm
from .schedule import NoiseSchedule
from .softlabel import (
    DegenerateEndpointsError,
    HighpassSpec,
    highpass_magnitude,
    label_sweep,
    nearest_label,
)
from .train import TrainingDivergedError, train_denoiser
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


def build_parser() -> _Parser:
    parser = _Parser(prog="diffbridge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON run configuration")
    common.add_argument("--seed", type=int, help="override the global seed")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--steps", type=int, help="override bridge sub-steps per unit time")
    common.add_argument(
        "--depth-grid",
        help="override the sweep depth grid, comma-separated values in [0,1]",
    )
    common.add_argument("--cutoff", type=float, help="override the high-pass cutoff")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common], help="emit source/target domain samples")
    sub.add_parser("train", parents=[common], help="train per-domain denoisers")
    sub.add_parser("migrate", parents=[common], help="run full-depth domain migration")
    sub.add_parser("sweep", parents=[common], help="depth sweep with soft labels")
    label_p = sub.add_parser("label", parents=[common], help="calibrate depths to target labels")
    label_p.add_argument(
        "--targets", help="comma-separated target labels in [0,1]", default=None
    )
    sub.add_parser("verify", parents=[common], help="run the built-in oracle suite")
    return parser


def _floats(text: str | None) -> tuple[float, ...] | None:
    return None if text is None else tuple(float(v) for v in text.split(","))


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return cfg.with_overrides(
        seed=args.seed,
        out=args.out,
        steps=args.steps,
        depth_grid=_floats(args.depth_grid),
        cutoff=args.cutoff,
        targets=_floats(getattr(args, "targets", None)),
    )


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_points_csv(path, points: np.ndarray) -> None:
    header = ["sample_id"] + [f"c{d}" for d in range(points.shape[1])]
    _write_csv(path, header, ([i] + [repr(float(v)) for v in row] for i, row in enumerate(points)))


def _build_models(cfg: RunConfig, pair, schedule):
    if cfg.models.kind == "analytic":
        if isinstance(pair.source, GaussianMixture):
            return (
                AnalyticGmmEpsilon(pair.source, schedule),
                AnalyticGmmEpsilon(pair.target, schedule),
            )
        return (
            AnalyticFieldEpsilon(pair.source.mode_variances, schedule),
            AnalyticFieldEpsilon(pair.target.mode_variances, schedule),
        )
    if cfg.models.kind == "checkpoint":
        if not cfg.models.source or not cfg.models.target:
            raise ValueError("checkpoint models need both source and target paths")
        return load_checkpoint(cfg.models.source), load_checkpoint(cfg.models.target)
    raise ValueError(f"unknown models kind {cfg.models.kind!r}")


def _is_image_pair(pair) -> bool:
    return len(pair.shape) == 2


def _snap_grid(depths, bridge_cfg: BridgeConfig) -> tuple[float, ...]:
    """The grid snapped to bridge nodes, in order.

    Empty grids are errors, and so are two depths on one node or on two
    nodes whose frame names (``d{depth:.4f}``) coincide.
    """
    if not depths:
        raise ValueError("sweep_depths is empty")
    snapped = [bridge_cfg.snap(float(d)) for d in depths]
    names = [f"d{node:.4f}" for node in snapped]
    for i, node in enumerate(snapped):
        if names[i] not in names[:i]:
            continue
        j = names.index(names[i])
        if snapped[j] == node:
            why = f"snap to the same grid node {node}"
        else:
            why = f"snap to grid nodes {snapped[j]} and {node}, which share the frame name {names[i]}"
        raise ValueError(
            f"sweep depths {depths[j]} and {depths[i]} {why} "
            f"at {bridge_cfg.grid_steps} steps per unit time"
        )
    return tuple(snapped)


def _check_targets(targets) -> tuple[float, ...]:
    """The label targets, which RunConfig has checked to lie in [0, 1].

    No targets and targets sharing a frame name are errors.
    """
    if not targets:
        raise ValueError("label_targets is empty")
    names = [f"target{t:.2f}" for t in targets]
    for i, target in enumerate(targets):
        if names[i] in names[:i]:
            raise ValueError(
                f"label targets {targets[names.index(names[i])]} and {target} "
                f"share the frame name {names[i]}"
            )
    return targets


def _settings(cfg: RunConfig) -> tuple[NoiseSchedule, BridgeConfig, HighpassSpec]:
    """The schedule, bridge and high-pass settings; every command builds them, so checks them."""
    schedule = cfg.schedule.build()
    return schedule, cfg.bridge.build(schedule), cfg.highpass()


@dataclass(frozen=True)
class _Run:
    """The setup every writing command shares; building it writes nothing."""

    out: Path
    manifest: RunManifest
    pair: DomainPair
    schedule: NoiseSchedule
    bridge: BridgeConfig
    highpass: HighpassSpec

    def file(self, sub: str, name: str) -> Path:
        """The path ``out/sub/name``; ``out/sub`` is created with its first file."""
        (self.out / sub).mkdir(parents=True, exist_ok=True)
        return self.out / sub / name


def _open_run(cfg: RunConfig, command: str) -> _Run:
    """The manifest, domain pair and settings; each command builds the rest before computing."""
    manifest = RunManifest(cfg, command)
    return _Run(Path(cfg.out), manifest, cfg.domains.build(cfg.seed), *_settings(cfg))


def _write_frame(run: _Run, name: str, x, **record) -> None:
    """One field as ``frames/{name}``, clipped to [-1, 1], and its manifest record."""
    path = run.file("frames", name)
    save_pgm(np.clip(x, -1.0, 1.0), path)
    run.manifest.add(path, **record)


def _write_samples(run: _Run, stem: str, samples) -> None:
    """A batch as ``{stem}_NNN.pgm`` frames, or points as one ``{stem}.csv``."""
    if _is_image_pair(run.pair):
        for i, x in enumerate(samples):
            _write_frame(run, f"{stem}_{i:03d}.pgm", x, kind=f"{stem}-sample", sample_id=i)
    else:
        path = run.file("frames", f"{stem}.csv")
        _write_points_csv(path, samples)
        run.manifest.add(path, kind=f"{stem}-samples", count=int(len(samples)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    run = _open_run(cfg, "gen")
    for role, domain in (("source", run.pair.source), ("target", run.pair.target)):
        seed = _role_seed(cfg.seed, f"{role}-samples")
        _write_samples(run, role, sample_domain(domain, cfg.gen_count, seed))
    run.manifest.note("sample_count", cfg.gen_count)
    run.manifest.finish(run.out)
    print(f"gen: wrote {2 * cfg.gen_count} samples under {run.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    run = _open_run(cfg, "train")
    out, manifest, pair = run.out, run.manifest, run.pair
    # Hybrid rule at training time: the source model serves forward legs,
    # the target model reverse legs.
    roles = (
        ("source", pair.source, select_priority(Direction.FORWARD), "train-source"),
        ("target", pair.target, select_priority(Direction.REVERSE), "train-target"),
    )
    for role, domain, priority, seed_role in roles:
        data = sample_domain(domain, cfg.train.samples, _role_seed(cfg.seed, seed_role))
        train_cfg = cfg.train.build(run.schedule, priority, _role_seed(cfg.seed, seed_role))
        model, losses = train_denoiser(data, train_cfg)
        ckpt = run.file("checkpoints", f"{role}.ckpt")
        save_checkpoint(model, ckpt)
        manifest.add(ckpt, kind=f"{role}-checkpoint", final_loss=losses[-1])
        loss_csv = run.file("checkpoints", f"{role}_loss.csv")
        _write_csv(loss_csv, ["epoch", "loss"], ([e, repr(loss)] for e, loss in enumerate(losses)))
        manifest.add(loss_csv, kind=f"{role}-loss-history", epochs=len(losses))
        print(f"train[{role}]: loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    manifest.finish(out)
    return 0


def cmd_migrate(cfg: RunConfig) -> int:
    run = _open_run(cfg, "migrate")
    out, manifest, pair = run.out, run.manifest, run.pair
    models = _build_models(cfg, pair, run.schedule)
    sources = sample_domain(pair.source, cfg.gen_count, _role_seed(cfg.seed, "migrate"))
    migrated = migrate(sources, *models, run.bridge).migrated
    _write_samples(run, "source", sources)
    _write_samples(run, "migrated", migrated)
    if _is_image_pair(pair):
        means = [float(np.mean(highpass_magnitude(v, run.highpass))) for v in (sources, migrated)]
        manifest.note("highpass_magnitude_mean", dict(zip(("source", "migrated"), means)))
    else:
        gain = gmm_log_density(pair.target, migrated) - gmm_log_density(pair.target, sources)
        manifest.note(
            "target_log_density_gain",
            {"mean": float(gain.mean()), "fraction_improved": float(np.mean(gain > 0))},
        )
    manifest.finish(out)
    print(f"migrate: {cfg.gen_count} samples migrated under {out}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    run = _open_run(cfg, "sweep")
    out, manifest, pair = run.out, run.manifest, run.pair
    models = _build_models(cfg, pair, run.schedule)
    depths = _snap_grid(cfg.sweep_depths, run.bridge)
    sources = sample_domain(pair.source, cfg.sweep_count, _role_seed(cfg.seed, "sweep"))

    if _is_image_pair(pair):
        sweep = label_sweep(sources, *models, run.bridge, depths, run.highpass)
        label_rows = []
        for i, x in enumerate(sources):
            _write_frame(run, f"sample{i:03d}_source.pgm", x, kind="source-sample", sample_id=i)
            for traj, label, a_i in zip(sweep.table, sweep.labels[i], sweep.a_frame[i]):
                _write_frame(
                    run, f"sample{i:03d}_d{traj.depth:.4f}.pgm", traj.migrated[i],
                    kind="sweep-frame", sample_id=i, depth=traj.depth, soft_label=label.value,
                )
                label_rows.append(
                    [i, repr(traj.depth), repr(label.raw), repr(label.value),
                     repr(sweep.a_source[i]), repr(a_i), repr(sweep.a_target[i])]
                )
        labels_path = run.file("labels", "labels.csv")
        header = ["sample_id", "depth_snapped", "raw_label", "clamped_label", "A_s", "A_i", "A_t"]
        _write_csv(labels_path, header, label_rows)
        manifest.add(labels_path, kind="labels", rows=len(label_rows))
    else:
        # Point domains have no spectral labels; emit per-depth coordinates.
        table = depth_sweep(sources, *models, run.bridge, depths)
        for depth, traj in zip(depths, table):
            path = run.file("frames", f"depth_{depth:.4f}.csv")
            _write_points_csv(path, traj.migrated)
            manifest.add(path, kind="sweep-frame", depth=depth, count=len(sources))
        manifest.note("labels", "point domains carry no spectral labels")
    manifest.finish(out)
    print(f"sweep: {cfg.sweep_count} samples x {len(cfg.sweep_depths)} depths under {out}")
    return 0


def cmd_label(cfg: RunConfig) -> int:
    run = _open_run(cfg, "label")
    out, manifest, pair = run.out, run.manifest, run.pair
    if not _is_image_pair(pair):
        raise ValueError("label calibration needs an image domain pair")
    targets = _check_targets(cfg.label_targets)
    models = _build_models(cfg, pair, run.schedule)
    depths = _snap_grid(cfg.sweep_depths, run.bridge)
    sources = sample_domain(pair.source, cfg.label_count, _role_seed(cfg.seed, "label"))

    sweep = label_sweep(sources, *models, run.bridge, depths, run.highpass)
    rows = []
    for i, labels in enumerate(sweep.labels):
        for target in targets:
            best = nearest_label(target, depths, labels)
            depth, label = depths[best], labels[best]
            _write_frame(
                run, f"sample{i:03d}_target{target:.2f}_d{depth:.4f}.pgm",
                sweep.table[best].migrated[i], kind="calibrated-frame", sample_id=i,
                target_label=target, achieved_label=label.value, raw_label=label.raw, depth=depth,
            )
            rows.append([i, repr(target), repr(depth), repr(label.value), repr(label.raw)])
    labels_path = run.file("labels", "calibrated.csv")
    header = ["sample_id", "target_label", "depth", "achieved_label", "raw_label"]
    _write_csv(labels_path, header, rows)
    manifest.add(labels_path, kind="labels", rows=len(rows))
    manifest.finish(out)
    print(f"label: calibrated {len(rows)} frames under {out}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    schedule, _, _ = _settings(cfg)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
