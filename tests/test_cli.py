"""Command-line behavior: outputs, manifests, determinism, exit codes."""

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
from diffbridge import cli
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
        cfg, out = write_config(tmp_path)
        assert main(["label", "--config", str(cfg)]) == 1
        assert not out.exists()


class _Setup:
    """A command config and the library objects the command builds from it."""

    def __init__(self, cfg_path, out):
        self.cfg_path, self.out = cfg_path, out
        self.cfg = RunConfig.from_file(cfg_path)
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
        return db.depth_migrate(x, *self.models, self.bridge, depth).migrated


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
                label = soft_label(a_s, a_i, a_t)
                rows.append([i, repr(depth), repr(label.raw), repr(label.value),
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
            label = soft_label(a_s, highpass_magnitude(mig, spec), a_t)
            assert (rec["achieved_label"], rec["raw_label"]) == (label.value, label.raw)


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

    @pytest.mark.parametrize("command,args,overrides,message", [
        ("gen", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("migrate", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("train", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("verify", ["--cutoff", "5"], {}, "cutoff_fraction must lie in (0, 1)"),
        ("verify", ["--steps", "0"], {}, "steps_per_unit_time must be >= 1"),
        ("gen", ["--steps", "0"], {}, "steps_per_unit_time must be >= 1"),
        ("gen", [], {"schedule": {"steps": 0}}, "steps_T must be >= 1"),
        ("gen", [], {"bridge": {"integrator": "rk4"}}, "'rk4' is not a valid Integrator"),
    ])
    def test_settings_a_command_does_not_use_are_checked_too(
        self, command, args, overrides, message, tmp_path, capsys
    ):
        cfg, out = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
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
        ("train", "train", {"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'"),
        ("train", "train", {"activation": "relu"}, "unknown activation 'relu'"),
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
    ])
    def test_malformed_config_exits_one_and_leaves_no_files(self, raw, message, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["migrate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_checkpoint_without_arrays_exits_one_and_leaves_no_files(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        blob = json.dumps({"kind": "mlp_denoiser"}).encode()
        ckpt.write_bytes(db.denoiser.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob)
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint header has no entry 'arrays'" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("entry,value,message", [
        ("arrays", 5, "checkpoint header entry 'arrays' must be a list of objects, got 5"),
        ("shape", "ab", "checkpoint array 0 entry 'shape' must be a list of integers >= 0, got 'ab'"),
        ("field_shape", "ab",
         "checkpoint header entry 'field_shape' must be a list of integers >= 1, got 'ab'"),
        ("widths", 5, "checkpoint header entry 'widths' must be a list of integers >= 1, got 5"),
        ("attention", [1], "checkpoint header entry 'attention' must be an object or null, got [1]"),
    ])
    def test_checkpoint_entry_of_wrong_type_exits_one_and_leaves_no_files(
        self, entry, value, message, tmp_path, capsys
    ):
        ckpt = tmp_path / "bad.ckpt"
        db.save_checkpoint(db.init_mlp((16, 16), (8,), steps_total=200, seed=0), ckpt)
        raw = ckpt.read_bytes()
        header_len = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12 : 12 + header_len])
        (header["arrays"][0] if entry == "shape" else header)[entry] = value
        blob = json.dumps(header).encode()
        ckpt.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len :])
        models = {"kind": "checkpoint", "source": str(ckpt), "target": str(ckpt)}
        cfg, out = texture_config(tmp_path, models=models)
        assert main(["migrate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
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
