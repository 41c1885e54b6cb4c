"""Command-line behavior: outputs, manifests, determinism, exit codes."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import diffbridge as db
from diffbridge.cli import _role_seed, main


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
        # Byte-identical rerun.
        assert main(["gen", "--config", str(cfg)]) == 0
        assert tree_digest(out) == first

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
                   "learning_rate": 1e6, "optimizer": "sgd"},
        )
        assert main(["train", "--config", str(cfg)]) == 2


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
        assert main(["migrate", "--config", str(cfg)]) == 0
        assert tree_digest(out) == first


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
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert tree_digest(out) == first
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
            traj = db.depth_migrate(sources[rec["sample_id"]], *models, bridge_cfg, rec["depth"])
            db.save_pgm(np.clip(traj.migrated, -1.0, 1.0), probe)
            assert probe.read_bytes() == Path(rec["path"]).read_bytes()

    def test_point_domain_rejected_as_config_error(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        assert main(["label", "--config", str(cfg)]) == 1


class TestVerifyCommand:
    def test_all_pass_on_defaults(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("[PASS]")) == 8
        assert not any(l.startswith("[FAIL]") for l in lines)

    def test_failure_exits_three(self, monkeypatch, capsys):
        from diffbridge import cli
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
