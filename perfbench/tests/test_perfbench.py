"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import OUTPUTS, unit_of
from spans import layer_metrics
from speed import BIAS_SAMPLES, SpeedSampler
from workloads import REDUCED, WORKLOADS, Run, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = [
    "setup_s", "wall_s", "migrate_samples_per_s", "peak_rss_mb", "ops_failed_frac",
    "speed_bias_frac",
]
NAMED = {
    "gmm-bridge": COMMON + [
        "sweep_frames_per_s", "ancestral_samples_per_s", "ddim_batch_samples_per_s", "verify_s",
    ],
    "texture-label": COMMON + ["sweep_frames_per_s", "label_frames_per_s", "flow_err_rms"],
    "mlp-train": COMMON + ["train_examples_per_s"],
}
TIME_UNITS = {"s", "us", "1/s"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A checkout of its own, so that the runs' outputs stay out of the repository."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_prints_and_records_every_metric_with_its_unit(workload, trace, checkout):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--reduced", cwd=checkout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"] == unit_of(m["name"])
    printed = {line.split()[1]: line.split()[-1] for line in lines
               if line.startswith(workload + " ")}
    names = [m["name"] for m in wanted] if trace else NAMED[workload]
    for name in names:
        assert printed.get(name) == unit_of(name), name
    if not trace:
        for name in names:
            if unit_of(name) in TIME_UNITS:
                assert name[: -len("_s")] + "_raw_s" in printed, name

    outputs = checkout / OUTPUTS
    record = json.loads((outputs / f"{workload}{'-traced' if trace else ''}.json").read_text())
    assert record["correct"] and record["environment"]["blas_threads"] == "1"
    assert {n: m["unit"] for n, m in record["metrics"].items()} == printed
    if trace:
        rows = (outputs / f"{workload}-spans.csv").read_text().splitlines()
        assert rows[0] == "span,parent,pass,name,start_s,end_s"
        # Two untraced passes, then the traced pass 2.
        assert len(rows) > 2 and {row.split(",")[2] for row in rows[1:]} == {"2"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_runs(workload, tmp_path):
    results = [run_workload(workload, 0, 0.0, True, tmp_path / str(i), size=REDUCED)
               for i in range(2)]
    assert all(r["correct"] for r in results), [r["problems"] for r in results]
    first, second = (r["per_layer"] for r in results)
    counts = [n for n in first if unit_of(n) not in TIME_UNITS and n != "trace_overhead_frac"]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_forward_step_redundancy_counts_every_depth(tmp_path):
    # Reduced sweep depths 0, 0.5, 1: forward legs of 0 + 10 + 20 steps
    # against a deepest leg of 20.
    result = run_workload("gmm-bridge", 0, 0.0, True, tmp_path, size=REDUCED)
    assert result["per_layer"]["bridge.forward_step_redundancy"] == 1.5


def test_attention_forward_counts_only_inference():
    # (name, start, end, parent, pass, note): one attention forward while
    # training, one while migrating.
    spans = [
        ("op.train", 0.0, 10.0, -1, 1, None),
        ("cli.train", 0.0, 10.0, 0, 1, None),
        ("attention.forward.global_first", 1.0, 2.0, 1, 1, None),
        ("op.migrate", 10.0, 20.0, -1, 1, None),
        ("cli.migrate", 10.0, 20.0, 3, 1, None),
        ("attention.forward.global_first", 11.0, 14.0, 4, 1, None),
    ]
    layers = layer_metrics(spans, 0, 0)
    assert layers["attention.forward.global_first.calls"] == 1
    assert layers["attention.forward.global_first.self_s"] == 3.0
    assert layers["cli.train.self_s"] == 9.0


def test_flow_error_is_deterministic(tmp_path):
    runs = [run_workload("texture-label", 3, 0.0, False, tmp_path / str(i), size=REDUCED)
            for i in range(2)]
    values = [r["end_to_end"]["flow_err_rms"] for r in runs]
    assert values[0] == values[1] and 0.0 < values[0] < 1.0


def test_failed_operation_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    real_load = workloads.cli.load_checkpoint
    monkeypatch.setattr(workloads.cli, "load_checkpoint",
                        lambda path: real_load(str(path) + ".missing"))
    result = run_workload("mlp-train", 0, 0.0, False, tmp_path, size=REDUCED)
    assert not result["correct"]
    assert result["attempted"] == 4 and result["failed"] == 2
    assert result["end_to_end"]["ops_failed_frac"] == 0.5
    assert all("migrate: exit code 1" in p for p in result["problems"])

    run = Run("gmm-bridge", 0, REDUCED, tmp_path / "raising")
    with run.sampler:
        run.library_op("divide", "divide", lambda: 1 / 0, lambda out: [])
    assert run.attempted == 1 and run.failed_ops == {(0, "divide")}
    assert "ZeroDivisionError" in run.problems[0]


def test_speed_bias_is_flagged_once_enough_pairs_show_it():
    sampler = SpeedSampler()
    sampler.ratios = [1.3] * (BIAS_SAMPLES - 1)
    assert not sampler.biased()
    sampler.ratios.append(1.3)
    assert sampler.biased() and sampler.bias() == pytest.approx(0.3)
    sampler.ratios = [1.02] * BIAS_SAMPLES
    assert not sampler.biased()


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gmm-bridge", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
