"""RunConfig serialization, overrides, and manifest bookkeeping."""

import json
from dataclasses import replace

import pytest

from diffbridge.config import RunConfig, RunManifest


class TestRunConfig:
    def test_round_trips_through_dict(self):
        cfg = RunConfig(seed=7, highpass_cutoff=0.3)
        back = RunConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "seed": 9,
            "out": "somewhere",
            "domains": {"kind": "texture", "size": 16},
            "train": {"hidden": [8, 8], "epochs": 2},
            "sweep_depths": [0, 0.5, 1],
        }))
        cfg = RunConfig.from_file(path)
        assert cfg.seed == 9
        assert cfg.domains.kind == "texture"
        assert cfg.train.hidden == (8, 8)
        assert cfg.sweep_depths == (0.0, 0.5, 1.0)
        # Untouched sections keep defaults.
        assert cfg.schedule.steps == 1000

    def test_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            RunConfig.from_file(bad)
        with pytest.raises(ValueError):
            RunConfig.from_dict({"schedule": "linear"})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"no_such_key": 1})
        for raw in ({"schedule": {"bogus": 1}}, [1, 2], {"bridge": {"depth": 1.0}}, {"gen_count": 0}):
            with pytest.raises(ValueError):
                RunConfig.from_dict(raw)
        wrong_types = [
            ({"schedule": {"steps": "10"}}, "schedule.steps"),
            ({"schedule": {"steps": 10.0}}, "schedule.steps"),
            ({"schedule": {"beta_start": "0.001"}}, "schedule.beta_start"),
            ({"schedule": {"beta_end": float("nan")}}, "schedule.beta_end"),
            ({"bridge": {"steps_per_unit_time": "5"}}, "bridge.steps_per_unit_time"),
            ({"bridge": {"integrator": 1}}, "bridge.integrator"),
            ({"domains": {"kind": "texture", "size": "32"}}, "domains.size"),
            ({"models": {"kind": "checkpoint", "source": 3, "target": "b"}}, "models.source"),
            ({"train": {"epochs": True}}, "train.epochs"),
            ({"train": {"learning_rate": "fast"}}, "train.learning_rate"),
            ({"train": {"hidden": "64"}}, "train.hidden"),
            ({"train": {"hidden": [0]}}, "train.hidden"),
            ({"train": {"hidden": [-1]}}, "train.hidden"),
            ({"train": {"hidden": [64, 0]}}, "train.hidden"),
            ({"highpass_cutoff": "x"}, "highpass_cutoff"),
            ({"highpass_cutoff": float("inf")}, "highpass_cutoff"),
            ({"seed": True}, "seed"),
            ({"out": 5}, "out"),
            ({"train": {"attention": {"token_count": 2.7}}}, "train.attention"),
            ({"train": {"attention": {"heads": 2}}}, "train.attention"),
            ({"train": {"attention": {"token_count": 2, "head": 2}}}, "train.attention"),
            ({"sweep_depths": [True, 0.5]}, "sweep_depths"),
            ({"sweep_depths": 0.5}, "sweep_depths"),
            ({"label_targets": "0.5"}, "label_targets"),
            ({"label_targets": [0.5, float("nan")]}, "label_targets"),
        ]
        for raw, name in wrong_types:
            with pytest.raises(ValueError, match=f"^{name} must "):
                RunConfig.from_dict(raw)
        # Ints stand for floats, and None for an unset optional field.
        cfg = RunConfig.from_dict({"train": {"learning_rate": 1},
                                   "bridge": {"steps_per_unit_time": None}})
        assert cfg.train.learning_rate == 1 and cfg.bridge.steps_per_unit_time is None

    def test_flag_overrides_beat_file_fields(self):
        cfg = RunConfig(seed=1, out="a", highpass_cutoff=0.25)
        over = cfg.with_overrides(
            seed=2, out="b", steps=50, depth_grid=(0.0, 1.0), cutoff=0.4, targets=(0.3, 0.7)
        )
        assert over.seed == 2
        assert over.out == "b"
        assert over.bridge.steps_per_unit_time == 50
        assert over.sweep_depths == (0.0, 1.0)
        assert over.highpass_cutoff == 0.4
        assert over.label_targets == (0.3, 0.7)
        # None overrides leave fields alone.
        assert cfg.with_overrides() == cfg

    def test_every_construction_checks_lists_and_out(self):
        with pytest.raises(ValueError, match="^sweep_depths must be a list of finite numbers"):
            RunConfig(sweep_depths=(float("nan"),))
        with pytest.raises(ValueError, match="^label_targets must be a list of finite numbers"):
            replace(RunConfig(), label_targets=("x",))
        with pytest.raises(ValueError, match="^out must be a nonempty path"):
            RunConfig(out="")
        with pytest.raises(ValueError, match=r"^sweep depth 1.5 outside \[0, 1\]$"):
            RunConfig(sweep_depths=(0.0, 1.5))
        with pytest.raises(ValueError, match=r"^label target -0.1 outside \[0, 1\]$"):
            RunConfig().with_overrides(targets=(0.5, -0.1))
        assert RunConfig(label_targets=[0, 1]).label_targets == (0.0, 1.0)
        assert RunConfig(sweep_depths=[0, 1]).sweep_depths == (0.0, 1.0)

    def test_domain_build_dispatch(self):
        assert RunConfig().domains.build(0).shape == (2,)
        tex = RunConfig.from_dict({"domains": {"kind": "texture", "size": 16}})
        assert tex.domains.build(0).shape == (16, 16)
        with pytest.raises(ValueError):
            RunConfig.from_dict({"domains": {"kind": "audio"}}).domains.build(0)


class TestRunManifest:
    def test_rejects_duplicate_paths(self, tmp_path):
        manifest = RunManifest(RunConfig(), "gen")
        manifest.add(tmp_path / "a.pgm", kind="frame")
        with pytest.raises(ValueError):
            manifest.add(tmp_path / "a.pgm", kind="frame")

    def test_written_payload_complete(self, tmp_path):
        manifest = RunManifest(RunConfig(seed=3), "sweep")
        manifest.add(tmp_path / "x.csv", kind="labels", rows=5)
        manifest.note("hello", 1)
        path = manifest.finish(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["command"] == "sweep"
        assert payload["config"]["seed"] == 3
        assert payload["records"][0]["rows"] == 5
        assert payload["notes"] == {"hello": 1}
        assert "wall_seconds" in payload["timings"]
