"""The benchmark's span tracer still finds every traced name, and puts each one back.

``perfbench/spans.py`` wraps diffbridge functions and methods by name, so a
renamed function breaks ``perfbench/run.py --trace 1``.  This test installs
the tracer and uninstalls it again, and reads nothing else from perfbench
but the per-layer metrics of a traced ``label`` run.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import diffbridge  # noqa: E402
from diffbridge import cli  # noqa: E402


def _bindings() -> dict:
    """Every name bound in a diffbridge module or class namespace, and its value."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("diffbridge"):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_install_wraps_traced_names_and_uninstall_restores_them():
    assert diffbridge.softlabel is spans.softlabel
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    wrapped = {k for k in before if during[k] is not before[k]}
    traced = {
        ("diffbridge.softlabel", "highpass_magnitude"),
        ("diffbridge.softlabel", "calibrate_depth"),
        ("diffbridge.diffusion", "ddim_step"),
        ("diffbridge.bridge", "flow_ode"),
        ("diffbridge.domains", "gmm_score"),
        ("diffbridge.denoiser", "gmm_score"),
        ("diffbridge.denoiser", "MlpDenoiser", "backward"),
        ("diffbridge.attention", "attention_forward"),
        ("diffbridge.attention", "attention_backward"),
        *(("diffbridge.cli", f"cmd_{command}") for command in spans.COMMANDS),
        *(("diffbridge.verify", f"check_{check}") for check in spans.VERIFY_CHECKS),
    }
    assert traced <= wrapped


def test_calibration_metrics_measure_the_label_command(tmp_path):
    """``label`` calibrates through ``calibrate_depth``: one call, one two-leg sweep of NFE."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domains": {"kind": "texture", "size": 16},
        "bridge": {"steps_per_unit_time": 20},
        "label_count": 1,
        "label_targets": [0.5],
        "out": str(tmp_path / "run"),
    }))
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.op("label"):
            assert cli.main(["label", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0, 0)
    assert metrics["softlabel.calibrate_depth.calls"] == 1
    assert metrics["softlabel.calibrate_depth.nfe"] == 40
    # Each leg of the sweep is one traced flow_ode call over its grid steps.
    assert metrics["bridge.flow_ode.calls"] == 2
    assert metrics["bridge.grid_steps"] == 40
