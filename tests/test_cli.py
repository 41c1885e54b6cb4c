"""Command-line behavior: outputs, manifests, determinism, exit codes."""

import argparse
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffbridge as db
from diffbridge import cli, domains
from diffbridge.cli import _build_models, _role_seed, _write_csv, _write_points_csv, main
from diffbridge.config import RunConfig
from diffbridge.softlabel import highpass_magnitude, soft_label


def write_config(tmp_path, **overrides):
    base = {
        "seed": 5,
        "out": str(tmp_path / "run"),
        "schedule": {"steps": 200},
        "bridge": {"steps_per_unit_time": 50},
        "gen_count": 4,
        "sweep_count": 2,
        "sweep_depths": [0.0, 0.5, 1.0],
        "label_count": 1,
        "label_targets": [0.5],
        "train": {"epochs": 2, "samples": 100, "hidden": [8], "batch_size": 50},
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path, Path(base["out"])


def texture_config(tmp_path, **overrides):
    return write_config(tmp_path, domains={"kind": "texture", "size": 16}, **overrides)


def tree_digest(root: Path, skip=("manifest.json",)) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def manifest_of(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def _read_header(ckpt: Path) -> dict:
    raw = ckpt.read_bytes()
    return json.loads(raw[12 : 12 + struct.unpack("<I", raw[8:12])[0]])


def _write_header(ckpt: Path, header: dict) -> None:
    """Replace a checkpoint's JSON header, keeping its payload."""
    raw = ckpt.read_bytes()
    payload = raw[12 + struct.unpack("<I", raw[8:12])[0] :]
    blob = json.dumps(header).encode()
    ckpt.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + payload)


class TestRunLedger:
    def test_rejects_duplicate_paths(self, tmp_path):
        run = cli._open_run(RunConfig(out=str(tmp_path)), "gen")
        run.file("frames", "a.pgm", "frame")
        with pytest.raises(ValueError):
            run.file("frames", "a.pgm", "frame")

    def test_a_duplicate_is_refused_before_it_overwrites(self, tmp_path):
        run = cli._open_run(RunConfig(out=str(tmp_path)), "gen")
        cli._write_frame(run, "a.pgm", np.zeros((4, 4)), kind="k")
        with pytest.raises(ValueError, match="^file listed twice in manifest: "):
            cli._write_frame(run, "a.pgm", np.ones((4, 4)), kind="k")
        # The zeros frame reads back about 0 (pixel 128); the ones frame would read 1.
        np.testing.assert_allclose(domains.load_pgm(tmp_path / "frames" / "a.pgm"), 0.0, atol=0.01)
        assert len(run.records) == 1

    def test_written_payload_complete(self, tmp_path):
        run = cli._open_run(RunConfig(seed=3, out=str(tmp_path)), "sweep")
        run.file("labels", "x.csv", "labels", rows=5)
        run.notes["hello"] = 1
        run.finish()
        payload = manifest_of(tmp_path)
        assert payload["command"] == "sweep"
        assert payload["config"]["seed"] == 3
        assert payload["records"][0]["rows"] == 5
        assert payload["notes"] == {"hello": 1}
        assert "wall_seconds" in payload["timings"]

    @pytest.mark.parametrize("command", ["sweep", "label"])
    def test_each_subdirectory_is_made_once(self, command, tmp_path, monkeypatch):
        cfg, out = texture_config(tmp_path, label_count=2, label_targets=[0.25, 0.5, 0.75])
        out.mkdir()  # so no mkdir recurses into its parent
        made = []
        real = Path.mkdir

        def counting(path, *args, **kwargs):
            made.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting)
        assert main([command, "--config", str(cfg), "--steps", "20"]) == 0
        subdirs = {p.parent for p in out.rglob("*") if p.is_file()} - {out}
        assert len(subdirs) > 1
        assert sorted(made) == sorted(subdirs)

    @pytest.mark.parametrize("domain, command", [
        ("texture", "gen"), ("texture", "migrate"), ("texture", "sweep"), ("texture", "label"),
        ("gmm", "migrate"), ("gmm", "sweep"), ("trained", "train"), ("checkpoint", "migrate"),
    ])
    def test_every_file_on_disk_is_listed_once(self, domain, command, tmp_path):
        fields = {"label_count": 2, "label_targets": [0.25, 0.5, 0.75]}
        if domain != "gmm":
            fields["domains"] = {"kind": "texture", "size": 16}
        if domain in ("trained", "checkpoint"):
            fields["train"] = {"epochs": 1, "samples": 20, "hidden": [8], "batch_size": 10,
                               "attention": {"token_count": 16, "heads": 2, "windows": 4}}
        if domain == "checkpoint":
            cfg, trained = write_config(tmp_path, out=str(tmp_path / "trained"), **fields)
            assert main(["train", "--config", str(cfg)]) == 0
            fields["models"] = {"kind": "checkpoint",
                                "source": str(trained / "checkpoints" / "source.ckpt"),
                                "target": str(trained / "checkpoints" / "target.ckpt")}
        cfg, out = write_config(tmp_path, **fields)
        assert main([command, "--config", str(cfg), "--steps", "20"]) == 0
        listed = [rec["path"] for rec in manifest_of(out)["records"]]
        on_disk = {str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        assert len(listed) == len(set(listed))
        assert set(listed) == on_disk
        assert len(on_disk) > 1


class TestGen:
    def test_outputs_manifest_and_determinism(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        first = tree_digest(out)
        manifest = manifest_of(out)
        listed = {rec["path"] for rec in manifest["records"]}
        emitted = {str(out / rel) for rel in first}
        assert listed == emitted  # every emitted file listed exactly once
        assert manifest["notes"]["sample_count"] == 4
        # Byte-identical rerun, into a second directory.
        rerun = tmp_path / "rerun"
        assert main(["gen", "--config", str(cfg), "--out", str(rerun)]) == 0
        assert tree_digest(rerun) == first

    def test_a_second_command_into_one_directory_is_refused(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        first = tree_digest(out, skip=())
        capsys.readouterr()
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: output path {out} exists and is not an empty directory\n"
        assert tree_digest(out, skip=()) == first

    def test_an_empty_directory_is_used_and_a_file_refused(self, tmp_path):
        cfg, out = write_config(tmp_path)
        out.mkdir()
        assert main(["gen", "--config", str(cfg)]) == 0
        assert (out / "manifest.json").is_file()
        path = tmp_path / "file"
        path.write_text("kept")
        assert main(["gen", "--config", str(cfg), "--out", str(path)]) == 1
        assert path.read_text() == "kept"

    def test_texture_gen_counts(self, tmp_path):
        cfg, out = texture_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert len(list((out / "frames").glob("source_*.pgm"))) == 4
        assert len(list((out / "frames").glob("target_*.pgm"))) == 4


class TestTrain:
    def test_checkpoints_and_loss_history(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        for role in ("source", "target"):
            assert (out / "checkpoints" / f"{role}.ckpt").exists()
            with open(out / "checkpoints" / f"{role}_loss.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["epoch", "loss"]
            assert len(rows) == 3  # header + 2 epochs

    def test_checkpoint_reload_reproduces_inference(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        a = db.load_checkpoint(out / "checkpoints" / "source.ckpt")
        b = db.load_checkpoint(out / "checkpoints" / "source.ckpt")
        x = np.random.default_rng(0).standard_normal(2)
        np.testing.assert_array_equal(a.predict_epsilon(x, 100), b.predict_epsilon(x, 100))

    def test_divergence_exit_code(self, tmp_path):
        cfg, _ = write_config(
            tmp_path,
            train={"epochs": 3, "samples": 100, "hidden": [16], "batch_size": 50,
                   "learning_rate": 1e100},
        )
        assert main(["train", "--config", str(cfg)]) == 2

    def test_a_diverging_target_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        cfg, out = write_config(tmp_path)
        trained, calls = cli.train_denoiser, []

        def diverge_on_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise db.TrainingDivergedError("loss became non-finite")
            return trained(*args)

        monkeypatch.setattr(cli, "train_denoiser", diverge_on_second_call)
        assert main(["train", "--config", str(cfg)]) == 2
        assert len(calls) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestMigrate:
    def test_counts_determinism_and_gain_note(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["migrate", "--config", str(cfg)]) == 0
        manifest = manifest_of(out)
        with open(out / "frames" / "migrated.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 4  # output count equals input count
        gain = manifest["notes"]["target_log_density_gain"]
        assert gain["mean"] > 0
        first = tree_digest(out)
        rerun = tmp_path / "rerun"
        assert main(["migrate", "--config", str(cfg), "--out", str(rerun)]) == 0
        assert tree_digest(rerun) == first

    def test_gmm_alpha_bar_work_does_not_grow_with_the_step_count(self, tmp_path, monkeypatch):
        # The exact GMM epsilon tabulates its steps once per model, so a
        # default-grid migrate (two flows of 1000 steps) interpolates
        # alpha_bar a handful of times, not once per model call.
        counts = {"alpha_bar_at": 0, "predict_epsilon": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(db.NoiseSchedule, "alpha_bar_at",
                            counted("alpha_bar_at", db.NoiseSchedule.alpha_bar_at))
        monkeypatch.setattr(db.AnalyticGmmEpsilon, "predict_epsilon",
                            counted("predict_epsilon", db.AnalyticGmmEpsilon.predict_epsilon))
        out = tmp_path / "run"
        assert main(["migrate", "--out", str(out)]) == 0
        assert counts["predict_epsilon"] == 2000
        assert counts["alpha_bar_at"] <= 8

    def test_gmm_epsilon_scores_once_per_call_and_builds_no_mixture(self, tmp_path, monkeypatch):
        # Each exact GMM epsilon call off step 0 is one gmm_score call, the
        # span the benchmark traces, and scores the noised mixture without
        # building it, so a default migrate builds its few mixtures up front.
        counts = dict.fromkeys(("gmm_score", "GaussianMixture"), 0)
        steps = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        def count_everywhere(name, original):
            # Modules import these functions by name: patch every binding.
            wrapper = counted(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("diffbridge"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, wrapper)

        def predict_epsilon(model, x, t, original=db.AnalyticGmmEpsilon.predict_epsilon):
            steps.append(t)
            return original(model, x, t)

        count_everywhere("gmm_score", domains.gmm_score)
        monkeypatch.setattr(db.GaussianMixture, "__post_init__",
                            counted("GaussianMixture", db.GaussianMixture.__post_init__))
        monkeypatch.setattr(db.AnalyticGmmEpsilon, "predict_epsilon", predict_epsilon)
        assert main(["migrate", "--out", str(tmp_path / "run")]) == 0
        assert len(steps) == 2000
        # At step 0 alpha_bar is 1: the epsilon is 0 and nothing is scored.
        assert counts["gmm_score"] == len(steps) - steps.count(0) == 1999
        assert counts["GaussianMixture"] <= 8


class TestSweep:
    def test_depth_zero_frame_equals_source_byte_for_byte(self, tmp_path):
        cfg, out = texture_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        src = (out / "frames" / "sample000_source.pgm").read_bytes()
        d0 = (out / "frames" / "sample000_d0.0000.pgm").read_bytes()
        assert src == d0

    def test_labels_csv_rows_and_endpoints(self, tmp_path):
        cfg, out = texture_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out / "labels" / "labels.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3  # samples x depths
        for row in rows:
            if row["depth_snapped"] == "0.0":
                assert float(row["clamped_label"]) == 0.0
            if row["depth_snapped"] == "1.0":
                assert float(row["clamped_label"]) == 1.0

    def test_rerun_byte_identical(self, tmp_path):
        cfg, out = texture_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        first = tree_digest(out)
        rerun = tmp_path / "rerun"
        assert main(["sweep", "--config", str(cfg), "--out", str(rerun)]) == 0
        assert tree_digest(rerun) == first
        assert len(first) > 0

    def test_unsorted_grid_keeps_config_order(self, tmp_path):
        cfg, out = texture_config(tmp_path, sweep_depths=[1.0, 0.0, 0.5])
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out / "labels" / "labels.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["sample_id"], r["depth_snapped"]) for r in rows] == [
            (i, d) for i in ("0", "1") for d in ("1.0", "0.0", "0.5")
        ]
        frames = [r for r in manifest_of(out)["records"] if r["kind"] == "sweep-frame"]
        assert [(r["sample_id"], r["depth"]) for r in frames] == [
            (i, d) for i in (0, 1) for d in (1.0, 0.0, 0.5)
        ]

    def test_unsorted_grid_keeps_config_order_on_points(self, tmp_path):
        cfg, out = write_config(tmp_path, sweep_depths=[1.0, 0.0, 0.5])
        assert main(["sweep", "--config", str(cfg)]) == 0
        frames = [r for r in manifest_of(out)["records"] if r["kind"] == "sweep-frame"]
        assert [r["depth"] for r in frames] == [1.0, 0.0, 0.5]

    def test_empty_grid_is_config_error_before_any_frame(self, tmp_path, capsys):
        cfg, out = texture_config(tmp_path, sweep_depths=[])
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "sweep_depths is empty" in err and len(err.splitlines()) == 1
        assert not any((out / "frames").glob("*"))

    def test_grid_points_on_one_node_are_config_error_before_any_frame(self, tmp_path, capsys):
        cfg, out = texture_config(tmp_path, sweep_depths=np.linspace(0.0, 1.0, 17).tolist())
        assert main(["sweep", "--config", str(cfg), "--steps", "4"]) == 1
        err = capsys.readouterr().err
        assert "snap to the same grid node" in err and len(err.splitlines()) == 1
        assert not any((out / "frames").glob("*"))
        assert not (out / "manifest.json").exists()

    def test_point_domain_sweep_emits_per_depth_csv(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (out / "frames" / "depth_0.0000.csv").exists()
        assert (out / "frames" / "depth_1.0000.csv").exists()
        assert not (out / "labels" / "labels.csv").exists()


class TestLabel:
    def test_calibrated_frames_carry_labels_in_manifest(self, tmp_path):
        cfg, out = texture_config(tmp_path)
        assert main(["label", "--config", str(cfg), "--targets", "0.0,0.6"]) == 0
        manifest = manifest_of(out)
        frames = [r for r in manifest["records"] if r["kind"] == "calibrated-frame"]
        assert len(frames) == 2
        for rec in frames:
            assert "target_label" in rec and "achieved_label" in rec and "depth" in rec
        by_target = {rec["target_label"]: rec for rec in frames}
        assert by_target[0.0]["depth"] == 0.0
        assert by_target[0.0]["achieved_label"] == 0.0

    def test_frames_equal_depth_migrate_at_recorded_depth(self, tmp_path):
        cfg, out = texture_config(
            tmp_path, label_count=2, label_targets=[0.25, 0.5, 0.75],
            sweep_depths=[1.0, 0.0, 0.5, 0.25, 0.75, 0.125, 0.375],
        )
        assert main(["label", "--config", str(cfg)]) == 0
        sched = db.linear_schedule(200)
        pair = db.make_texture_pair("bandsplit", 16, 5)
        models = [
            db.AnalyticFieldEpsilon(d.mode_variances, sched) for d in (pair.source, pair.target)
        ]
        bridge_cfg = db.BridgeConfig(schedule=sched, steps_per_unit_time=50)
        sources = db.domains.sample_domain(pair.source, 2, _role_seed(5, "label"))
        frames = [r for r in manifest_of(out)["records"] if r["kind"] == "calibrated-frame"]
        assert len(frames) == 6
        probe = tmp_path / "probe.pgm"
        for rec in frames:
            frame = db.depth_migrate(sources[rec["sample_id"]], *models, bridge_cfg, rec["depth"])
            db.save_pgm(np.clip(frame, -1.0, 1.0), probe)
            assert probe.read_bytes() == Path(rec["path"]).read_bytes()

    def test_point_domain_rejected_as_config_error(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["label", "--config", str(cfg)]) == 1
        assert not out.exists()


class TestCsvCells:
    """Every CSV cell a command writes, its header aside, reads as a plain int or float.

    A numpy scalar's repr (``np.float64(0.5)`` under numpy 2) reads as neither.
    """

    RUNS = {
        "texture": ("gen", "migrate", "sweep", "label"),
        "points": ("gen", "migrate", "sweep", "train"),
    }

    @staticmethod
    def _number(cell: str):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

    def test_every_cell_is_a_plain_number(self, tmp_path):
        train = {"epochs": 1, "samples": 100, "hidden": [8], "batch_size": 50}
        written = {}
        for kind, commands in self.RUNS.items():
            (tmp_path / kind).mkdir()
            make = texture_config if kind == "texture" else write_config
            cfg, _ = make(tmp_path / kind, train=train)
            for command in commands:
                out = tmp_path / "runs" / f"{kind}-{command}"
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                for path in sorted(out.rglob("*.csv")):
                    with open(path, newline="") as fh:
                        written[f"{kind}-{command}/{path.name}"] = list(csv.reader(fh))[1:]
        assert sorted(written) == [
            "points-gen/source.csv", "points-gen/target.csv",
            "points-migrate/migrated.csv", "points-migrate/source.csv",
            "points-sweep/depth_0.0000.csv", "points-sweep/depth_0.5000.csv",
            "points-sweep/depth_1.0000.csv",
            "points-train/source_loss.csv", "points-train/target_loss.csv",
            "texture-label/calibrated.csv", "texture-sweep/labels.csv",
        ]
        for name, rows in written.items():
            assert rows, name
            for row in rows:
                for cell in row:
                    self._number(cell)


class _Setup:
    """A command config and the library objects the command builds from it."""

    def __init__(self, cfg_path, out):
        self.cfg_path, self.out = cfg_path, out
        args = cli.build_parser().parse_args(["gen", "--config", str(cfg_path)])
        self.cfg = cli._load_config(args)
        schedule = self.cfg.schedule.build()
        self.pair = self.cfg.domains.build(self.cfg.seed)
        self.models = _build_models(self.cfg, self.pair, schedule)
        self.bridge = self.cfg.bridge.build(schedule)

    def run(self, command, *args):
        assert main([command, "--config", str(self.cfg_path), *args]) == 0

    def sources(self, role, count):
        return db.domains.sample_domain(self.pair.source, count, _role_seed(self.cfg.seed, role))

    def one(self, x, depth=1.0):
        """One sample's own bridge run to the given depth."""
        return db.depth_migrate(x, *self.models, self.bridge, depth)


def _is_points(setup) -> bool:
    return len(setup.pair.shape) == 1


@pytest.fixture(params=["gmm", "texture", "mlp"])
def setup(request, tmp_path):
    if request.param == "gmm":
        return _Setup(*write_config(tmp_path))
    if request.param == "texture":
        return _Setup(*texture_config(tmp_path, label_count=2))
    # A trained pair: global-first source and local-first target attention.
    domains = {"kind": "texture", "size": 16}
    train = {"epochs": 1, "samples": 20, "hidden": [8], "batch_size": 10,
             "attention": {"token_count": 16, "heads": 2, "windows": 4}}
    cfg, trained = write_config(tmp_path, domains=domains, train=train, out=str(tmp_path / "t"))
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = trained / "checkpoints"
    models = {"kind": "checkpoint", "source": str(ckpt / "source.ckpt"),
              "target": str(ckpt / "target.ckpt")}
    return _Setup(*write_config(
        tmp_path, domains=domains, models=models, bridge={"steps_per_unit_time": 20},
        label_count=2,
    ))


class TestBatchedCommandsEqualPerSampleRuns:
    """Each command integrates its whole batch at once; every file equals per-sample runs."""

    def test_migrate(self, setup, tmp_path):
        setup.run("migrate")
        sources = setup.sources("migrate", setup.cfg.gen_count)
        migrated = [setup.one(x) for x in sources]
        probe = tmp_path / "probe"
        if _is_points(setup):
            _write_points_csv(probe, np.stack(migrated))
            assert probe.read_bytes() == (setup.out / "frames" / "migrated.csv").read_bytes()
            return
        for i, mig in enumerate(migrated):
            db.save_pgm(np.clip(mig, -1.0, 1.0), probe)
            assert probe.read_bytes() == (setup.out / "frames" / f"migrated_{i:03d}.pgm").read_bytes()

    def test_sweep(self, setup, tmp_path):
        setup.run("sweep")
        sources = setup.sources("sweep", setup.cfg.sweep_count)
        depths = setup.cfg.sweep_depths
        probe = tmp_path / "probe"
        if _is_points(setup):
            for depth in depths:
                _write_points_csv(probe, np.stack([setup.one(x, depth) for x in sources]))
                frame = setup.out / "frames" / f"depth_{depth:.4f}.csv"
                assert probe.read_bytes() == frame.read_bytes()
            return
        spec = setup.cfg.highpass()
        rows = []
        for i, x in enumerate(sources):
            a_s, a_t = highpass_magnitude(x, spec), highpass_magnitude(setup.one(x), spec)
            for depth in depths:
                mig = setup.one(x, depth)
                db.save_pgm(np.clip(mig, -1.0, 1.0), probe)
                frame = setup.out / "frames" / f"sample{i:03d}_d{depth:.4f}.pgm"
                assert probe.read_bytes() == frame.read_bytes()
                a_i = highpass_magnitude(mig, spec)
                value, raw = soft_label(a_s, a_i, a_t)
                rows.append([i, repr(depth), repr(raw), repr(value),
                             repr(a_s), repr(a_i), repr(a_t)])
        header = ["sample_id", "depth_snapped", "raw_label", "clamped_label", "A_s", "A_i", "A_t"]
        _write_csv(probe, header, rows)
        assert probe.read_bytes() == (setup.out / "labels" / "labels.csv").read_bytes()

    @pytest.mark.parametrize("setup", ["texture", "mlp"], indirect=True)
    def test_label(self, setup, tmp_path):
        setup.run("label", "--targets", "0.0,0.4,1.0")
        sources = setup.sources("label", setup.cfg.label_count)
        spec = setup.cfg.highpass()
        probe = tmp_path / "probe.pgm"
        frames = [r for r in manifest_of(setup.out)["records"] if r["kind"] == "calibrated-frame"]
        assert len(frames) == 3 * len(sources)
        for rec in frames:
            x = sources[rec["sample_id"]]
            mig = setup.one(x, rec["depth"])
            db.save_pgm(np.clip(mig, -1.0, 1.0), probe)
            assert probe.read_bytes() == Path(rec["path"]).read_bytes()
            a_s, a_t = highpass_magnitude(x, spec), highpass_magnitude(setup.one(x), spec)
            assert (rec["achieved_label"], rec["raw_label"]) == soft_label(
                a_s, highpass_magnitude(mig, spec), a_t
            )


class _Counting(db.EpsilonModel):
    """A model that counts its calls, walking in its inner model's basis."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0
        self.basis = inner.basis

    def predict_epsilon(self, x, t):
        self.calls += 1
        return self.inner.predict_epsilon(x, t)


class TestWalkCounts:
    """Each model's calls per command at ``--steps n``: one call per grid step of each leg."""

    STEPS = 20

    @staticmethod
    def _calls(pair, tmp_path, monkeypatch, command, *args):
        if pair == "gmm":
            cfg, _ = write_config(tmp_path)
        elif pair == "texture":
            cfg, _ = texture_config(tmp_path)
        else:
            # An untrained checkpoint pair: no training, the same walk.
            ckpt = tmp_path / "mlp.ckpt"
            db.save_checkpoint(db.init_mlp((16, 16), (8,), steps_total=200, seed=0), ckpt)
            models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
            cfg, _ = texture_config(tmp_path, models=models)
        counters = []
        real = cli._build_models

        def counting(*a):
            counters.extend(_Counting(m) for m in real(*a))
            return tuple(counters)

        monkeypatch.setattr(cli, "_build_models", counting)
        steps = str(TestWalkCounts.STEPS)
        assert main([command, "--config", str(cfg), "--steps", steps, *args]) == 0
        return [c.calls for c in counters]

    @pytest.mark.parametrize("pair", ["gmm", "texture", "mlp"])
    def test_migrate_calls_each_model_once_per_grid_step(self, pair, tmp_path, monkeypatch):
        assert self._calls(pair, tmp_path, monkeypatch, "migrate") == [self.STEPS] * 2

    @pytest.mark.parametrize("grid", ["0.5", "0,0.25,0.5", "0.25,0.75,0,0.5"])
    @pytest.mark.parametrize("pair", ["gmm", "texture", "mlp"])
    def test_sweep_walks_each_leg_once_to_the_deepest_depth(
        self, pair, grid, tmp_path, monkeypatch
    ):
        # A texture sweep also labels, so it walks on to depth 1 for the target endpoint.
        deepest = max(map(float, grid.split(","))) if pair == "gmm" else 1.0
        calls = self._calls(pair, tmp_path, monkeypatch, "sweep", "--depth-grid", grid)
        assert calls == [round(deepest * self.STEPS)] * 2

    @pytest.mark.parametrize("pair", ["texture", "mlp"])
    def test_label_is_one_two_leg_sweep(self, pair, tmp_path, monkeypatch):
        calls = self._calls(pair, tmp_path, monkeypatch, "label", "--depth-grid", "0,0.25,0.5")
        assert calls == [self.STEPS] * 2


class _PoisonedRow(db.EpsilonModel):
    """A model that returns inf for batch row 1."""

    def __init__(self, inner):
        self.inner = inner

    def predict_epsilon(self, x, t):
        eps = self.inner.predict_epsilon(x, t)
        eps[1] = np.inf
        return eps


class TestChecksBeforeAnyOutput:
    @pytest.mark.parametrize("command", ["migrate", "sweep"])
    def test_one_poisoned_row_exits_two_naming_a_node(self, command, tmp_path, monkeypatch, capsys):
        cfg, out = write_config(tmp_path)
        real = cli._build_models
        monkeypatch.setattr(
            cli, "_build_models", lambda *a: (_PoisonedRow(real(*a)[0]), real(*a)[1])
        )
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "non-finite state at grid node 1 " in err and len(err.splitlines()) == 1
        assert not any((out / "frames").glob("*"))
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("command,args,message", [
        ("label", ["--targets", "0.5,1.5"], "label target 1.5 outside [0, 1]"),
        ("label", ["--targets", "0.501,0.504"], "share the frame name target0.50"),
        ("sweep", ["--steps", "40000", "--depth-grid", "0.5,0.500025"],
         "snap to grid nodes 0.5 and 0.500025, which share the frame name d0.5000"),
    ])
    def test_exit_one_and_leave_no_files(self, command, args, message, tmp_path, capsys):
        cfg, out = texture_config(tmp_path)
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "verify"])
    @pytest.mark.parametrize("args,message", [
        (["--depth-grid", "nan,inf"],
         "sweep_depths must be a list of finite numbers, got (nan, inf)"),
        (["--out", ""], "out must be a nonempty path"),
        (["--depth-grid", "0,2"], "sweep depth 2.0 outside [0, 1]"),
    ], ids=["depth-grid", "out", "depth-range"])
    def test_malformed_flag_exits_one_and_leaves_no_files(
        self, command, args, message, tmp_path, monkeypatch, capsys
    ):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg, out = write_config(tmp_path)
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()
        assert not any(cwd.iterdir())

    @pytest.mark.parametrize("command", ["gen", "migrate", "train", "verify"])
    @pytest.mark.parametrize("key,value,message", [
        ("sweep_depths", [0.5, -0.25], "sweep depth -0.25 outside [0, 1]"),
        ("label_targets", [1.5], "label target 1.5 outside [0, 1]"),
    ])
    def test_depth_or_target_outside_unit_interval_exits_one_for_every_command(
        self, command, key, value, message, tmp_path, capsys
    ):
        # A command that never reads the list still refuses it, so no
        # manifest records a config that sweep or label would refuse.
        cfg, out = write_config(tmp_path, **{key: value})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "migrate"])
    @pytest.mark.parametrize("key", ["sweep_depths", "label_targets"])
    def test_empty_depths_or_targets_exit_one_for_commands_that_do_not_read_them(
        self, command, key, tmp_path, capsys
    ):
        cfg, out = write_config(tmp_path, **{key: []})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{key} is empty" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,args,overrides,message", [
        ("gen", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("migrate", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("train", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("verify", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("verify", ["--steps", "0"], {}, "steps_per_unit_time must be >= 1"),
        ("gen", ["--steps", "0"], {}, "steps_per_unit_time must be >= 1"),
        ("gen", [], {"schedule": {"steps": 0}}, "steps_T must be >= 1"),
        ("gen", [], {"bridge": {"integrator": "rk4"}}, "unexpected keyword argument 'integrator'"),
        *[
            (command, [], {"train": {key: value}}, message)
            for command in ("gen", "migrate", "sweep", "label", "verify")
            for key, value, message in [
                ("optimizer", "adam", "unexpected keyword argument 'optimizer'"),
                ("batch_size", 0, "epochs and batch_size must be positive"),
                ("learning_rate", -1, "learning_rate must be nonnegative"),
                ("activation", "silu", "unexpected keyword argument 'activation'"),
                ("time_dim", 3, "time_dim must be an even integer >= 2"),
            ]
        ],
        *[
            (command, [], {"models": {"kind": "bogus"}}, "unknown models kind 'bogus'")
            for command in ("gen", "train", "verify")
        ],
        ("verify", [], {"domains": {"kind": "bogus"}}, "unknown domain kind 'bogus'"),
        # Last, so the rows above keep their indexed IDs.
        *[
            (command, [], {"bridge": {"integrator": value}},
             "unexpected keyword argument 'integrator'")
            for command in ("gen", "train", "migrate", "sweep", "label", "verify")
            for value in ("ddim", "heun")
        ],
    ])
    def test_settings_a_command_does_not_use_are_checked_too(
        self, command, args, overrides, message, tmp_path, capsys
    ):
        cfg, out = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["migrate", "sweep", "label"])
    def test_checkpoint_of_another_step_count_exits_one_and_leaves_no_files(
        self, command, tmp_path, capsys
    ):
        # The model embeds t / 1000 while the bridge passes steps of a
        # 200-step schedule, so it would read every step at a fifth of its time.
        ckpt = tmp_path / "other.ckpt"
        db.save_checkpoint(db.init_mlp((16, 16), (8,), steps_total=1000, seed=0), ckpt)
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        message = "forward leg model was trained on 1000 steps, the schedule has 200"
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value,message", [
        ("gen", "gen_count", 0, "gen_count must be an integer >= 1, got 0"),
        ("migrate", "gen_count", 0, "gen_count must be an integer >= 1, got 0"),
        ("sweep", "sweep_count", 0, "sweep_count must be an integer >= 1, got 0"),
        ("label", "label_count", 0, "label_count must be an integer >= 1, got 0"),
        ("gen", "seed", "x", "seed must be an integer >= 0, got 'x'"),
        ("migrate", "seed", -1, "seed must be an integer >= 0, got -1"),
        ("migrate", "highpass_cutoff", 1.5, "cutoff_fraction must lie in (0, 1)"),
        ("sweep", "highpass_cutoff", 1.5, "cutoff_fraction must lie in (0, 1)"),
        ("label", "highpass_cutoff", 1.5, "cutoff_fraction must lie in (0, 1)"),
        ("label", "label_targets", [], "label_targets is empty"),
        ("train", "train", {"samples": 0}, "train.samples must be an integer >= 1, got 0"),
        ("train", "train", {"epochs": 0}, "epochs and batch_size must be positive"),
        ("train", "train", {"optimizer": "adam"}, "unexpected keyword argument 'optimizer'"),
        ("train", "train", {"activation": "silu"}, "unexpected keyword argument 'activation'"),
        ("train", "train", {"attention": {"token_count": 3}},
         "token_count 3 must divide the field size 256"),
        ("train", "train", {"hidden": [0]}, "train.hidden must be a list of integers >= 1, got [0]"),
        ("train", "train", {"hidden": [-1]}, "train.hidden must be a list of integers >= 1, got [-1]"),
        ("train", "train", {"hidden": [64, 0]},
         "train.hidden must be a list of integers >= 1, got [64, 0]"),
    ])
    def test_bad_count_or_seed_exits_one_and_leaves_no_files(
        self, command, key, value, message, tmp_path, capsys
    ):
        cfg, out = texture_config(tmp_path, **{key: value})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("raw,message", [
        ({"schedule": {"bogus": 1}}, "'bogus'"),
        ([1, 2], "config must be a JSON object, not list"),
        ({"bridge": {"depth": 1.0}}, "'depth'"),
        ({"train": {"optimizer": "adam"}}, "'optimizer'"),
        ({"train": {"activation": "silu"}}, "'activation'"),
        ({"schedule": {"steps": "10"}}, "schedule.steps must be an integer, got '10'"),
        ({"schedule": {"steps": True}}, "schedule.steps must be an integer, got True"),
        ({"bridge": {"steps_per_unit_time": "5"}},
         "bridge.steps_per_unit_time must be an integer, got '5'"),
        ({"bridge": {"steps_per_unit_time": 5.0}},
         "bridge.steps_per_unit_time must be an integer, got 5.0"),
        ({"domains": {"kind": "texture", "size": "32"}}, "domains.size must be an integer, got '32'"),
        ({"schedule": {"beta_start": "0.001"}},
         "schedule.beta_start must be a finite number, got '0.001'"),
        ({"highpass_cutoff": "x"}, "highpass_cutoff must be a finite number, got 'x'"),
        ({"highpass_cutoff": False}, "highpass_cutoff must be a finite number, got False"),
        ({"gen_count": True}, "gen_count must be an integer >= 1, got True"),
        ({"train": {"hidden": [64, "64"]}}, "train.hidden must be a list of integers"),
        ({"train": {"attention": {"token_count": 2.5}}}, "train.attention must map token_count"),
        ({"label_targets": "0.5"}, "label_targets must be a list of finite numbers, got '0.5'"),
        # Last, so the rows above keep their indexed IDs.
        ({"bridge": {"integrator": "ddim"}}, "'integrator'"),
    ])
    def test_malformed_config_exits_one_and_leaves_no_files(self, raw, message, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["migrate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    # 10**15 float64 values are 8 PB, past a 47-bit address space, so numpy
    # refuses each allocation at once and never touches memory.
    @pytest.mark.parametrize("command,overrides", [
        ("gen", {"gen_count": 10**30}),
        ("gen", {"gen_count": 10**15}),
        ("migrate", {"bridge": {"steps_per_unit_time": 10**15}}),
        ("train", {"train": {"samples": 10**15}}),
    ])
    def test_a_setting_too_large_to_allocate_exits_one_and_leaves_no_files(
        self, command, overrides, tmp_path, capsys
    ):
        cfg, out = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_deeply_nested_config_exits_one_and_leaves_no_files(self, tmp_path, capsys):
        # json.dumps cannot write this nesting; the decoder runs out of recursion depth.
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config is not valid JSON: " in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_config_that_is_not_utf8_exits_one_and_leaves_no_files(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"out": "caf\xe9"}')
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        message = "error: config is not valid JSON: 'utf-8' codec can't decode byte 0xe9"
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("raw,message", [
        ({"bridge": 5}, "config section 'bridge' must be an object"),
        ([1], "config must be a JSON object, not list"),
    ], ids=["section", "file"])
    def test_a_flag_leaves_a_file_or_section_that_is_not_an_object_to_the_config_check(
        self, raw, message, tmp_path, capsys
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out), "--steps", "3"]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--depth-grid", "0,,1"),
        ("label", "--targets", ""),
    ], ids=["depth-grid", "targets"])
    def test_a_malformed_list_flag_is_refused_by_name_and_leaves_no_files(
        self, command, flag, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg, out = texture_config(tmp_path)
        assert main([command, "--config", str(cfg), flag, value]) == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected comma-separated numbers, got {value!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_deeply_nested_checkpoint_header_exits_one_and_leaves_no_files(self, tmp_path, capsys):
        ckpt = tmp_path / "deep.ckpt"
        blob = ("[" * 100000 + "]" * 100000).encode()
        ckpt.write_bytes(db.denoiser.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob)
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint header is not JSON: " in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("header,entry", [
        ({"kind": "mlp_denoiser"}, "arrays"),
        ({"arrays": []}, "kind"),
    ])
    def test_checkpoint_without_an_entry_exits_one_and_leaves_no_files(
        self, header, entry, tmp_path, capsys
    ):
        ckpt = tmp_path / "bad.ckpt"
        blob = json.dumps(header).encode()
        ckpt.write_bytes(db.denoiser.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob)
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint header has no entry '{entry}'" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("entry,value,message", [
        ("arrays", 5, "checkpoint header entry 'arrays' must be a list of objects, got 5"),
        ("shape", "ab", "checkpoint array 0 entry 'shape' must be a list of integers >= 0, got 'ab'"),
        ("field_shape", "ab",
         "checkpoint header entry 'field_shape' must be a list of integers >= 1, got 'ab'"),
        ("widths", 5, "checkpoint header entry 'widths' must be a list of integers >= 1, got 5"),
        ("attention", [1], "checkpoint header entry 'attention' must be an object or null, got [1]"),
        ("activation", "tanh",
         "checkpoint header entry 'activation' must be the string 'silu', got 'tanh'"),
        ("kind", "attention_block",
         "checkpoint header entry 'kind' must be the string 'mlp_denoiser', got 'attention_block'"),
    ])
    def test_checkpoint_entry_of_wrong_type_exits_one_and_leaves_no_files(
        self, entry, value, message, tmp_path, capsys
    ):
        ckpt = tmp_path / "bad.ckpt"
        db.save_checkpoint(db.init_mlp((16, 16), (8,), steps_total=200, seed=0), ckpt)
        header = _read_header(ckpt)
        (header["arrays"][0] if entry == "shape" else header)[entry] = value
        _write_header(ckpt, header)
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()


    @pytest.mark.parametrize("name", ["junk", "w0"])
    def test_checkpoint_with_an_array_the_model_lacks_exits_one_and_leaves_no_files(
        self, name, tmp_path, capsys
    ):
        ckpt = tmp_path / "bad.ckpt"
        model = db.init_mlp((16, 16), (8,), steps_total=200, seed=0)
        db.save_checkpoint(model, ckpt)
        header = _read_header(ckpt)
        shape = [3] if name == "junk" else list(model.weights[0].shape)
        header["arrays"].append({"name": name, "shape": shape})
        _write_header(ckpt, header)
        with open(ckpt, "ab") as fh:
            fh.write(bytes(8 * int(np.prod(shape))))
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint arrays must be ['w0', 'w1', 'b0', 'b1'] in this order" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_checkpoint_of_empty_field_shape_exits_one_and_leaves_no_files(
        self, tmp_path, capsys
    ):
        # A shape () model would score each coordinate of a point as its own field.
        ckpt = tmp_path / "scalar.ckpt"
        db.save_checkpoint(db.init_mlp((1,), (4,), steps_total=200, seed=0), ckpt)
        _write_header(ckpt, {**_read_header(ckpt), "field_shape": []})
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = write_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "field_shape must have at least one axis, got ()" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestFlagsAreConfigOverrides:
    @pytest.mark.parametrize("flag,value,keys,echo", [
        ("--seed", "9", ("seed",), 9),
        ("--out", "flagged", ("out",), "flagged"),
        ("--steps", "40", ("bridge", "steps_per_unit_time"), 40),
        ("--depth-grid", "0,0.25,1", ("sweep_depths",), [0.0, 0.25, 1.0]),
        ("--cutoff", "0.3", ("highpass_cutoff",), 0.3),
        ("--targets", "0.3,0.7", ("label_targets",), [0.3, 0.7]),
    ])
    def test_manifest_echoes_every_flag(self, flag, value, keys, echo, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg, out = texture_config(tmp_path)
        assert main(["label", "--config", str(cfg), flag, value]) == 0
        config = manifest_of(Path(value) if flag == "--out" else out)["config"]
        for key in keys:
            config = config[key]
        assert config == echo


    @pytest.mark.parametrize("key,bad,flag,value,echo", [
        ("seed", -1, "--seed", "2", 2),
        ("out", "", "--out", "x", "x"),
    ], ids=["seed", "out"])
    def test_a_flag_beats_a_file_value_the_config_would_refuse(
        self, key, bad, flag, value, echo, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg, out = write_config(tmp_path, **{key: bad})
        assert main(["gen", "--config", str(cfg), flag, value]) == 0
        assert manifest_of(Path(value) if flag == "--out" else out)["config"][key] == echo

    def test_every_flag_is_one_row_naming_a_config_field(self):
        fields = RunConfig().to_dict()
        for flag in cli._FLAGS:
            section = fields
            for key in flag.path:
                assert isinstance(section, dict) and key in section, flag
                section = section[key]
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, command_parser in commands.choices.items():
            options = {o for a in command_parser._actions for o in a.option_strings}
            rows = {f.option for f in cli._FLAGS if f.command in (None, command)}
            assert options == {"-h", "--help", "--config"} | rows, command

    @pytest.mark.parametrize("command", ["gen", "label"])
    def test_help_shows_each_flag_with_a_readable_metavar(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for usage in ("--config CONFIG", "--seed SEED", "--out OUT", "--steps STEPS",
                      "--depth-grid DEPTH_GRID", "--cutoff CUTOFF"):
            assert usage in text
        assert ("--targets TARGETS" in text) == (command == "label")


class TestVerifyCommand:
    def test_all_pass_on_defaults(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("[PASS]")) == 8
        assert not any(l.startswith("[FAIL]") for l in lines)

    def test_failure_exits_three(self, monkeypatch, capsys):
        from diffbridge.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_all",
            lambda schedule=None, seed=0: [CheckResult("stub", False, 1.0, 0.5)],
        )
        assert main(["verify"]) == 3
        assert "[FAIL] stub" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["gen", "--no-such-flag"]) == 1

    def test_bad_config_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["gen", "--config", str(bad)]) == 1
        missing = tmp_path / "nope.json"
        assert main(["gen", "--config", str(missing)]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert db.__version__ in capsys.readouterr().out


def test_start_up_imports_no_scipy():
    """scipy is a test-only oracle: a fresh `import diffbridge.cli` never loads it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import diffbridge.cli, sys; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
