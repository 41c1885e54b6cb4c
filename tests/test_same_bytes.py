"""tools/same_bytes.py's comparisons: files by sha256, manifests without timings, printouts line by line."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_bytes  # noqa: E402


def _manifest(seconds: float, records=()) -> str:
    return json.dumps({"command": "gen", "records": list(records), "timings": {"wall_seconds": seconds}})


def test_files_are_compared_by_bytes_and_manifests_without_timings(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for root, seconds, frame in ((base, 0.5, b"P5 a"), (head, 0.7, b"P5 b")):
        (root / "run" / "frames").mkdir(parents=True)
        (root / "run" / "manifest.json").write_text(_manifest(seconds))
        (root / "run" / "frames" / "same.pgm").write_bytes(b"P5 same")
        (root / "run" / "frames" / "moved.pgm").write_bytes(frame)
    (base / "run" / "old.csv").write_text("0\n")
    (head / "run" / "new.csv").write_text("0\n")
    (head / "other").mkdir()
    (base / "other").mkdir()
    (base / "other" / "manifest.json").write_text(_manifest(0.1, [{"path": "a"}]))
    (head / "other" / "manifest.json").write_text(_manifest(0.1, [{"path": "b"}]))
    count, lines = same_bytes.file_differences(base, head)
    assert count == 6
    assert lines == [
        "differs: other/manifest.json",
        "differs: run/frames/moved.pgm",
        "only in the working tree: run/new.csv",
        "only at the commit: run/old.csv",
    ]


def test_printouts_report_exit_codes_and_the_differing_lines():
    base = {"a": (0, "x\ny\n", ""), "b": (0, "same\n", ""), "c": (0, "", "")}
    head = {"a": (0, "x\nz\n", ""), "b": (0, "same\n", ""), "c": (1, "", "error: no\n")}
    assert same_bytes.printout_differences(base, head) == [
        "stdout differs: a", "    -y", "    +z",
        "exit code differs: c (0 -> 1)", "stderr differs: c", "    +error: no",
    ]


def test_every_command_writes_under_its_own_out_and_has_a_config():
    outs = [out for out, _, _ in same_bytes.COMMANDS]
    assert len(set(outs)) == len(outs)
    for out, config, argv in same_bytes.COMMANDS:
        assert argv[0] in ("gen", "train", "migrate", "sweep", "label", "verify")
        assert isinstance(config, dict) and "out" not in config
        models = config.get("models", {})
        for role in ("source", "target"):
            if role in models:   # a checkpoint a train run listed earlier writes
                trained = models[role].split("/checkpoints/")[0]
                assert outs.index(trained) < outs.index(out)
