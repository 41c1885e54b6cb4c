"""RunConfig serialization and the CLI's config loading."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from diffbridge import cli
from diffbridge.config import BridgeSpec, RunConfig


def load(*argv) -> RunConfig:
    """The config the CLI builds from these arguments."""
    return cli._load_config(cli.build_parser().parse_args(argv))


class TestRunConfig:
    def test_readme_example_builds_every_setting(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        assert len(blocks) == 1
        cli._settings(RunConfig.from_dict(json.loads(blocks[0])))

    def test_round_trips_through_dict(self):
        cfg = RunConfig(seed=7, highpass_cutoff=0.3)
        back = RunConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_config_file_sets_fields_and_keeps_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "seed": 9,
            "out": "somewhere",
            "domains": {"kind": "texture", "size": 16},
            "train": {"hidden": [8, 8], "epochs": 2},
            "sweep_depths": [0, 0.5, 1],
        }))
        cfg = load("gen", "--config", str(path))
        assert cfg.seed == 9
        assert cfg.domains.kind == "texture"
        assert cfg.train.hidden == (8, 8)
        assert cfg.sweep_depths == (0.0, 0.5, 1.0)
        # Untouched sections keep defaults.
        assert cfg.schedule.steps == 1000

    def test_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="^config is not valid JSON: "):
            load("gen", "--config", str(bad))
        with pytest.raises(ValueError):
            RunConfig.from_dict({"schedule": "linear"})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"no_such_key": 1})
        for raw in (
            {"schedule": {"bogus": 1}},
            [1, 2],
            {"bridge": {"depth": 1.0}},
            {"bridge": {"integrator": "ddim"}},
            {"gen_count": 0},
        ):
            with pytest.raises(ValueError):
                RunConfig.from_dict(raw)
        wrong_types = [
            ({"schedule": {"steps": "10"}}, "schedule.steps"),
            ({"schedule": {"steps": 10.0}}, "schedule.steps"),
            ({"schedule": {"beta_start": "0.001"}}, "schedule.beta_start"),
            ({"schedule": {"beta_end": float("nan")}}, "schedule.beta_end"),
            ({"bridge": {"steps_per_unit_time": "5"}}, "bridge.steps_per_unit_time"),
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
            # An int past the float range, as json.loads reads a long literal.
            ({"highpass_cutoff": 10**400}, "highpass_cutoff"),
            ({"schedule": {"beta_start": -(10**400)}}, "schedule.beta_start"),
            ({"seed": True}, "seed"),
            ({"out": 5}, "out"),
            ({"train": {"attention": {"token_count": 2.7}}}, "train.attention"),
            ({"train": {"attention": {"heads": 2}}}, "train.attention"),
            ({"train": {"attention": {"token_count": 2, "head": 2}}}, "train.attention"),
            ({"sweep_depths": [True, 0.5]}, "sweep_depths"),
            ({"sweep_depths": 0.5}, "sweep_depths"),
            ({"label_targets": "0.5"}, "label_targets"),
            ({"label_targets": [0.5, float("nan")]}, "label_targets"),
            ({"sweep_depths": [0.5, 10**400]}, "sweep_depths"),
        ]
        for raw, name in wrong_types:
            with pytest.raises(ValueError, match=f"^{name} must "):
                RunConfig.from_dict(raw)
        # Ints stand for floats, and None for an unset optional field.
        cfg = RunConfig.from_dict({"train": {"learning_rate": 1},
                                   "bridge": {"steps_per_unit_time": None}})
        assert cfg.train.learning_rate == 1 and cfg.bridge.steps_per_unit_time is None

    @pytest.mark.parametrize("models", [
        {"kind": "analytic", "source": "a.ckpt"},
        {"kind": "analytic", "target": "b.ckpt"},
        {"source": "a.ckpt", "target": "b.ckpt"},
    ])
    def test_analytic_models_refuse_checkpoint_paths(self, models):
        with pytest.raises(
            ValueError, match="^analytic models take no source or target checkpoint paths$"
        ):
            RunConfig.from_dict({"models": models})

    def test_flag_overrides_beat_file_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"seed": 1, "out": "a", "highpass_cutoff": 0.25, "bridge": {"steps_per_unit_time": 7}}
        ))
        over = load(
            "label", "--config", str(path), "--seed", "2", "--out", "b", "--steps", "50",
            "--depth-grid", "0,1", "--cutoff", "0.4", "--targets", "0.3,0.7",
        )
        assert over.seed == 2
        assert over.out == "b"
        assert over.bridge.steps_per_unit_time == 50
        assert over.sweep_depths == (0.0, 1.0)
        assert over.highpass_cutoff == 0.4
        assert over.label_targets == (0.3, 0.7)
        # Absent flags leave fields alone.
        cfg = RunConfig(seed=1, out="a", highpass_cutoff=0.25, bridge=BridgeSpec(7))
        assert load("label", "--config", str(path)) == cfg

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
            load("label", "--targets", "0.5,-0.1")
        assert RunConfig(label_targets=[0, 1]).label_targets == (0.0, 1.0)
        assert RunConfig(sweep_depths=[0, 1]).sweep_depths == (0.0, 1.0)

    def test_every_construction_refuses_empty_lists(self):
        with pytest.raises(ValueError, match="^sweep_depths is empty$"):
            RunConfig(sweep_depths=())
        with pytest.raises(ValueError, match="^label_targets is empty$"):
            RunConfig.from_dict({"label_targets": []})
        with pytest.raises(ValueError, match="^sweep_depths is empty$"):
            replace(RunConfig(), sweep_depths=())

    def test_domain_build_dispatch(self):
        assert RunConfig().domains.build(0).shape == (2,)
        tex = RunConfig.from_dict({"domains": {"kind": "texture", "size": 16}})
        assert tex.domains.build(0).shape == (16, 16)
        with pytest.raises(ValueError):
            RunConfig.from_dict({"domains": {"kind": "audio"}}).domains.build(0)

