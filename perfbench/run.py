"""diffbridge benchmark: each workload end to end, or traced per layer.

    python3 perfbench/run.py --workload gmm-bridge --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run it from the root of a diffbridge checkout; it uses the sources under
src/.  For each chosen workload, with --trace 0 it first times
SETUP_PROBES fresh interpreters that import diffbridge and build the
workload's inputs, each right after one that imports the same
third-party modules (see setup_probe.py); setup_s is the median of their
set-up times at REFERENCE_IMPORT_S per reference import.  Then it runs
the workload in one fresh child process with BLAS pinned to one thread
(see workloads.py).  With --trace 1 the child also runs a pass under the
span tracer (see spans.py).  The workloads' times are calibrated against
the machine's changing speed (see speed.py).  Each timing metric has a
``_raw`` twin in wall-clock seconds, and only those are unmodelled.

It prints the environment, then per workload one line per metric with
its unit and one JSON object: correct, attempted, failed, and the
metrics that BENCHMARK.json lists under end_to_end (--trace 0) or
per_layer (--trace 1).  Metrics that only some workloads have are
printed on the lines above.  Every run also writes the environment and
all its metrics to .perfbench/WORKLOAD.json (WORKLOAD-traced.json with
--trace 1), and a traced run writes its spans to
.perfbench/WORKLOAD-spans.csv.  It exits 2 when the checkout holds no
diffbridge sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from setup_probe import REFERENCE_IMPORT_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gmm-bridge", "texture-label", "mlp-train")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0
OUTPUTS = ".perfbench"   # under the checkout's root: results, spans and scratch
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    suffixes = (
        (("_per_s", "_per_raw_s"), "1/s"),
        (("_s", ".s"), "s"),
        (("_us_p50", "_us_p99"), "us"),
        ((".bytes",), "bytes"),
        (("_mb",), "MB"),
        (("_rms",), "rms"),
        ((".rows_per_call",), "rows"),
        ((".nfe_per_frame",), "nfe/frame"),
        (("_frac", "_redundancy"), "ratio"),
    )
    for ends, unit in suffixes:
        if name.endswith(ends):
            return unit
    return "count"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(root),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup(workload: str, seed: int, env: dict, deadline: float) -> dict[str, float]:
    """Median set-up seconds, calibrated and raw, over SETUP_PROBES fresh interpreters."""

    def probe(*argv) -> float:
        return float(subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *argv],
            env=env, capture_output=True, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        ).stdout)

    pairs = [(probe("reference"), probe(workload, str(seed))) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(raw * REFERENCE_IMPORT_S / ref for ref, raw in pairs),
        "setup_raw_s": statistics.median(raw for _, raw in pairs),
        "setup_reference_raw_s": statistics.median(ref for ref, _ in pairs),
    }


def run_child(args, workload: str, outputs: Path, env: dict, deadline: float) -> dict:
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=outputs))
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch / "out"),
    ]
    if args.trace:
        cmd += ["--spans", str(outputs / f"{workload}-spans.csv")]
    if args.reduced:
        cmd.append("--reduced")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=outputs.parent, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(args, workload: str, outputs: Path, spec: dict, env: dict,
          env_block: dict) -> bool:
    """One workload's run: print its metrics and result line, and record them; False on error."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = {} if args.trace else measure_setup(workload, args.seed, env, deadline)
        result = run_child(args, workload, outputs, env, deadline)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return False
    if args.trace:
        measured = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        measured = {**setup, **result["end_to_end"]}
        wanted = spec["end_to_end"]
    for name, value in measured.items():
        print(f"{workload}  {name:<44} {value:>16.6g} {unit_of(name)}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for flag in result["flags"]:
        print(f"FLAGGED {flag}")
    record = outputs / f"{workload}{'-traced' if args.trace else ''}.json"
    record.write_text(json.dumps({
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_block, "pass_wall_raw_s": result["pass_wall_raw_s"],
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "problems": result["problems"], "flags": result["flags"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in measured.items()},
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }), flush=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="tiny sizes, for the tests only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diffbridge" / "__init__.py").is_file():
        print(f"error: {root} is not a diffbridge checkout (no src/diffbridge)", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = child_env(root)
    env_block = environment(root)
    print("environment " + json.dumps(env_block, sort_keys=True))
    outputs = root / OUTPUTS
    outputs.mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [bench(args, workload, outputs, spec, env, env_block) for workload in chosen]
    return 0 if all(ok) else 2


if __name__ == "__main__":
    sys.exit(main())
