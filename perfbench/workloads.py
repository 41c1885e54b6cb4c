"""One benchmark run of one workload, in a fresh single-threaded process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N \
        --seconds S --trace 0|1 --scratch DIR [--spans CSV] [--reduced]

run.py starts this with BLAS pinned to one thread.  One client runs the
workload's operations back to back (a closed loop).  An operation is one
``diffbridge`` command, run through ``diffbridge.cli.main``, or one
library call.  Untraced, it starts another whole pass while less than
``--seconds`` have passed, and runs at least two, so that reruns can be
compared byte for byte.  Traced, it runs two untraced passes, the first
one cold, and then one pass under the span tracer, whose spans it writes
to ``--spans``; the ratio of the traced pass's wall time to the second
pass's is the tracing overhead.  Times are calibrated by SpeedSampler
(see speed.py); each timing metric also has a ``_raw`` twin in
wall-clock seconds, and only those are unmodelled.  The last stdout line
is one JSON object; ``--reduced`` shrinks every size for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diffbridge import cli, diffusion, domains, train
from setup_probe import PAIRS, build
from spans import Tracer
from speed import BIAS_LIMIT, SpeedSampler

WORKLOADS = ("gmm-bridge", "texture-label", "mlp-train")


@dataclass(frozen=True)
class Size:
    """Every size a pass depends on; FULL is the benchmark, REDUCED its tests."""

    count: int = 16                    # gen and migrate samples
    sweep_count: int = 4
    depths: int = 17
    label_count: int = 4
    label_targets: tuple = (0.25, 0.5, 0.75)
    texture_size: int = PAIRS["texture-label"][1]
    texture_steps: int = 200           # sub-steps per unit time on textures
    grid_steps: int | None = None      # gmm-bridge and mlp-train; None is the schedule's grid
    ddim_batch: int = 400
    ancestral: int = 8
    train_samples: int = 1000
    epochs: int = 5


FULL = Size()
REDUCED = Size(
    count=2, sweep_count=1, depths=3, label_count=1, label_targets=(0.5,),
    texture_size=16, texture_steps=20, grid_steps=20, ddim_batch=64, ancestral=1,
    train_samples=24, epochs=1,
)


def _depths(size: Size) -> list[float]:
    return np.linspace(0.0, 1.0, size.depths).tolist()


def _digests(out: Path, paths) -> dict[str, str]:
    return {str(Path(p).relative_to(out)): hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


class Run:
    """Passes of one workload: runs operations, checks them and keeps count."""

    def __init__(self, workload: str, seed: int, size: Size, scratch: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed_ops: set[tuple[int, str]] = set()   # (pass, operation)
        self.problems: list[str] = []
        self._pass = 0
        self._reference: dict[str, object] = {}   # first pass's outputs, per operation
        self._log: list[tuple] = []               # this pass: (group, seconds, calibrated)
        self.sampler = SpeedSampler()

    # -- operations --------------------------------------------------------

    def _timed(self, name: str, group: str, fn):
        """Run fn() as one operation timed under ``group``; its result, None if it raised."""
        self.attempted += 1
        scope = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        try:
            with scope:
                result = self.sampler.timed(fn)
        except Exception:  # counted as a failed operation; the run goes on
            self._fail(name, traceback.format_exc(limit=3).strip().splitlines()[-1])
            result = None
        self._log.append((group, *self.sampler.last))
        return result

    def _fail(self, name: str, why: str) -> None:
        self.failed_ops.add((self._pass, name))
        self.problems.append(f"{self.workload} {name}: {why}")

    def _same_as_first(self, name: str, value) -> list[str]:
        first = self._reference.setdefault(name, value)
        return [] if first == value else ["outputs differ from the first pass"]

    def cli_op(self, command: str, config: dict, out: Path, expect: str = "") -> None:
        """One command through diffbridge.cli.main; checks exit code and manifest.

        ``expect`` is text the command must print.
        """
        cfg_path = out.with_name(out.name + ".json")
        cfg_path.write_text(json.dumps({**config, "out": str(out)}))
        captured = io.StringIO()

        def call():
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                return cli.main([command, "--config", str(cfg_path)])

        code = self._timed(command, command, call)
        if code is None:
            return
        text = captured.getvalue()
        problems = [] if code == 0 else [f"exit code {code}: {text.strip()[-200:]}"]
        if expect not in text:
            problems.append(f"did not print {expect!r}")
        if code == 0 and command != "verify":
            problems += self._check_manifest(command, out)
        if problems:
            self._fail(command, "; ".join(problems))

    def _check_manifest(self, command: str, out: Path) -> list[str]:
        """Each emitted file listed once, each listed file present, reruns byte-identical."""
        manifest = out / "manifest.json"
        if not manifest.is_file():
            return ["no manifest.json"]
        listed = [r["path"] for r in json.loads(manifest.read_text())["records"]]
        problems = []
        if len(set(listed)) != len(listed):
            problems.append("manifest lists a file twice")
        on_disk = {str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        if on_disk != set(listed):
            problems.append(
                f"manifest and output directory disagree on {sorted(on_disk ^ set(listed))[:3]}"
            )
        present = [p for p in listed if Path(p).is_file()]
        return problems + self._same_as_first(command, _digests(out, present))

    def library_op(self, name: str, group: str, fn, check) -> None:
        """One library call; check(result) returns a list of problems."""
        result = self._timed(name, group, fn)
        if result is not None:
            problems = check(result)
            digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest()
            problems += self._same_as_first(name, digest)
            if problems:
                self._fail(name, "; ".join(problems))

    # -- passes ------------------------------------------------------------

    def one_pass(self, index: int) -> dict[str, float]:
        """Run one pass in a fresh directory; its end-to-end metrics, calibrated and raw."""
        root = self.scratch / f"pass{index}"
        root.mkdir(parents=True)
        self._pass = index
        self._log = []
        try:
            extra = getattr(self, self.workload.replace("-", "_"))(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        raw: dict[str, float] = {}
        calibrated: dict[str, float] = {}
        for group, seconds, cal_seconds in self._log:
            raw[group] = raw.get(group, 0.0) + seconds
            calibrated[group] = calibrated.get(group, 0.0) + cal_seconds
        return {**self._rates(calibrated, ""), **self._rates(raw, "_raw"), **extra}

    def _rates(self, times: dict[str, float], tag: str) -> dict[str, float]:
        """Wall time and per-operation throughputs from per-group seconds."""
        size = self.size
        work = {
            "migrate_samples_per": ("migrate", size.count),
            "sweep_frames_per": ("sweep", size.sweep_count * size.depths),
            "label_frames_per": ("label", size.label_count * len(size.label_targets)),
            "train_examples_per": ("train", 2 * size.epochs * size.train_samples),
            "ddim_batch_samples_per": ("ddim_batch", size.ddim_batch),
            "ancestral_samples_per": ("ancestral", size.ancestral),
        }
        out = {f"wall{tag}_s": sum(times.values())}
        if "verify" in times:
            out[f"verify{tag}_s"] = times["verify"]
        for stem, (group, count) in work.items():
            if group in times:
                out[f"{stem}{tag}_s"] = count / times[group]
        return out

    def gmm_bridge(self, root: Path) -> dict[str, float]:
        size = self.size
        config = {
            "seed": self.seed,
            "domains": {"kind": "gmm"},
            "bridge": {"steps_per_unit_time": size.grid_steps},
            "gen_count": size.count,
            "sweep_count": size.sweep_count,
            "sweep_depths": _depths(size),
        }
        self.cli_op("verify", config, root / "verify", "verify: 8/8 checks passed")
        self.cli_op("migrate", config, root / "migrate")
        self.cli_op("sweep", config, root / "sweep")

        schedule, pair, (model, _) = build("gmm", 0, self.seed)
        latents = np.random.default_rng([self.seed, 1]).standard_normal(
            (size.ddim_batch + size.ancestral, pair.source.dimension)
        )
        reference = domains.gmm_sample(pair.source, size.ddim_batch, seed=self.seed + 1)
        deterministic = diffusion.SamplerConfig(schedule=schedule)
        self.library_op(
            "ddim_batch", "ddim_batch",
            lambda: diffusion.ddim_sample(latents[: size.ddim_batch], model, deterministic),
            lambda out: _fit_problems(out, reference),
        )
        ancestral = diffusion.SamplerConfig(
            schedule=schedule, sigma_mode=diffusion.SigmaMode.ANCESTRAL, eta=1.0, seed=self.seed
        )
        for i, z in enumerate(latents[size.ddim_batch:]):
            self.library_op(
                f"ancestral{i}", "ancestral",
                lambda z=z, i=i: diffusion.ddim_sample(z, model, ancestral, sample_index=i),
                lambda out: _near_mixture_problems(out, pair.source),
            )
        return {}

    def texture_label(self, root: Path) -> dict[str, float]:
        size = self.size
        config = {
            "seed": self.seed,
            "domains": {"kind": "texture", "size": size.texture_size},
            "bridge": {"steps_per_unit_time": size.texture_steps},
            "gen_count": size.count,
            "sweep_count": size.sweep_count,
            "sweep_depths": _depths(size),
            "label_count": size.label_count,
            "label_targets": list(size.label_targets),
        }
        for command in ("gen", "migrate", "sweep", "label"):
            self.cli_op(command, config, root / command)
        return {"flow_err_rms": self._flow_error(root / "migrate")}

    def _flow_error(self, out: Path) -> float:
        """RMS error of the migrated PGMs against the closed-form flow map.

        A stationary Gaussian domain's flow is a per-mode gain on the
        unitary fft2: v(t) = ab(t) * lam + 1 - ab(t) and full-depth
        migration multiplies mode k by sqrt(v_s(1) / lam_s * lam_t / v_t(1)).
        The sources are regenerated by the command's seed rule and must
        quantize to the bytes of the source PGMs it wrote.
        """
        manifest = out / "manifest.json"
        if not manifest.is_file():
            return math.nan
        records = json.loads(manifest.read_text())["records"]
        by_kind = {
            kind: [r["path"] for r in sorted(records, key=lambda r: r.get("sample_id", 0))
                   if r["kind"] == kind]
            for kind in ("source-sample", "migrated-sample")
        }
        schedule, pair, _ = build("texture", self.size.texture_size, self.seed)
        sources = domains.sample_domain(
            pair.source, self.size.count, cli._role_seed(self.seed, "migrate")
        )
        probe = out.with_name("oracle_source.pgm")
        for x, path in zip(sources, by_kind["source-sample"]):
            domains.save_pgm(x, probe)
            if probe.read_bytes() != Path(path).read_bytes():
                self._fail("migrate", f"oracle sources differ from {Path(path).name}")
                return math.nan
        ab = schedule.alpha_bar_at(1.0)
        lam_s, lam_t = pair.source.mode_variances, pair.target.mode_variances
        gain = np.sqrt((ab * lam_s + 1.0 - ab) / lam_s * lam_t / (ab * lam_t + 1.0 - ab))
        exact = np.fft.ifft2(np.fft.fft2(sources, norm="ortho") * gain, norm="ortho").real
        got = np.stack([domains.load_pgm(p) for p in by_kind["migrated-sample"]])
        return float(np.sqrt(np.mean((got - np.clip(exact, -1.0, 1.0)) ** 2)))

    def mlp_train(self, root: Path) -> dict[str, float]:
        size = self.size
        config = {
            "seed": self.seed,
            "domains": {"kind": "texture", "size": PAIRS["mlp-train"][1]},
            "bridge": {"steps_per_unit_time": size.grid_steps},
            "gen_count": size.count,
            "train": {
                "epochs": size.epochs,
                "samples": size.train_samples,
                "hidden": [64, 64],
                "attention": {"token_count": 16, "heads": 2, "windows": 4},
            },
        }
        self.cli_op("train", config, root / "train")
        checkpoints = root / "train" / "checkpoints"
        config["models"] = {
            "kind": "checkpoint",
            "source": str(checkpoints / "source.ckpt"),
            "target": str(checkpoints / "target.ckpt"),
        }
        self.cli_op("migrate", config, root / "migrate")
        return {}

    def sweep_frames(self) -> int:
        return 0 if self.workload == "mlp-train" else self.size.sweep_count * self.size.depths


def _fit_problems(samples: np.ndarray, reference: np.ndarray) -> list[str]:
    """Deterministic DDIM samples must match the mixture in energy distance.

    Two independent draws of 64 points from the source mixture lie at most
    0.21 apart over 200 seeds, and of 400 points at most 0.044; draws from
    the target mixture lie 7.4 away.
    """
    if not np.all(np.isfinite(samples)):
        return ["non-finite samples"]
    dist = train.energy_distance(samples, reference)
    return [] if dist < 0.5 else [f"energy distance {dist:.3g} to the mixture >= 0.5"]


def _near_mixture_problems(sample: np.ndarray, mixture) -> list[str]:
    """An ancestral sample must land within 5 component sigmas of a mean."""
    if not np.all(np.isfinite(sample)):
        return ["non-finite sample"]
    dist = np.sqrt(np.sum((mixture.means - sample) ** 2, axis=-1) / mixture.variances)
    return [] if dist.min() < 5.0 else [f"sample {sample} is {dist.min():.1f} sigmas from the mixture"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
                 size: Size = FULL, spans_path=None) -> dict:
    """All passes of one run; the result object this module prints."""
    run = Run(workload, seed, size, scratch)
    start = time.perf_counter()
    layers = {}
    with run.sampler:
        passes = [run.one_pass(0)]
        while len(passes) < 2 or (not trace and time.perf_counter() - start < seconds):
            passes.append(run.one_pass(len(passes)))
        if trace:
            run.tracer = Tracer()
            run.tracer.install()
            try:
                run.tracer.pass_id = len(passes)
                traced = run.one_pass(len(passes))
            finally:
                run.tracer.uninstall()
            layers = run.tracer.layer_metrics(run.tracer.pass_id, run.sweep_frames())
            # Pass 0 is cold (the first migrate in a process is about a
            # quarter slower), so the warm pass 1 is the untraced base.
            layers["trace_overhead_frac"] = traced["wall_s"] / passes[1]["wall_s"] - 1.0
            if spans_path:
                run.tracer.write(spans_path)
    end_to_end = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end["ops_failed_frac"] = len(run.failed_ops) / run.attempted
    end_to_end["speed_bias_frac"] = bias = run.sampler.bias()
    flags = [] if not run.sampler.biased() else [
        f"{workload}: the kept reference kernel runs are {bias:+.1%} off hot ones"
        f" (limit {BIAS_LIMIT:.0%}), so calibrated times are suspect"
    ]
    return {
        "correct": not run.failed_ops,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "problems": run.problems,
        "flags": flags,
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="with --trace 1, write the spans here")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scratch,
        size=REDUCED if args.reduced else FULL, spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
