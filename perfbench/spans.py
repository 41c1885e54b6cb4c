"""Span tracing for the benchmark, applied to diffbridge from outside the package.

``Tracer.install`` replaces each traced function with a wrapper everywhere
the function is looked up: the defining module, every diffbridge module
that bound it with ``from ... import``, and the class for methods.  A
wrapper records one span (name, start, end, parent, pass id, note) per
call, but only while an operation span opened by ``Tracer.op`` is active,
so the benchmark's own checks never show up as layer work.  Spans stay in
memory; ``layer_metrics`` aggregates them and ``write`` dumps them as CSV
at the end of the run.  The workloads' speed sampler (see speed.py) runs
its kernel inside whatever span is open, which adds about 5% to self
times, spread in proportion to wall time.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from diffbridge import attention, bridge, cli, denoiser, diffusion, domains, rng, schedule
from diffbridge import softlabel, train, verify

COMMANDS = ("gen", "train", "migrate", "sweep", "label", "verify")
MODELS = ("AnalyticGmmEpsilon", "AnalyticFieldEpsilon", "MlpDenoiser")
PRIORITIES = tuple(p.value for p in attention.Priority)
VERIFY_CHECKS = (
    "schedule_product",
    "forward_noise_moments",
    "score_finite_difference",
    "flow_round_trip",
    "flow_round_trip_ddim",
    "ddim_ode_agreement",
    "gradient",
    "soft_label_identities",
)


def _file_bytes(args):
    return os.path.getsize(args[1])


def _rows(row_size):
    def note(args):
        return np.size(args[1]) // row_size(args[0])
    return note


def _flow_leg(args):
    """(grid steps, forward?, digest of the start state) of one flow_ode call."""
    x, t0, t1, cfg = args[0], args[2], args[3], args[4]
    n = cfg.grid_steps
    k0, k1 = round(cfg.snap(t0) * n), round(cfg.snap(t1) * n)
    digest = hashlib.blake2b(np.ascontiguousarray(x, dtype=np.float64).tobytes(), digest_size=8)
    return abs(k1 - k0), k1 > k0, digest.digest()


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # One tuple per span: (name, start, end, parent index or -1, pass id, note).
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        """fn recording a span per call; ``note(args)`` annotates calls that return."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            returned = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.pass_id,
                              note(args) if note and returned else None)

        return wrapper

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; layer spans nest under it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (f"op.{name}", start, end, -1, self.pass_id, None)

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr, name, note=None):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, note)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("diffbridge"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, name, note=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, note))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        """Wrap every traced boundary of the diffbridge modules."""
        self._patch_method(schedule.NoiseSchedule, "alpha_bar_at", "schedule.alpha_bar_at")
        self._patch_function(domains, "gmm_score", "domains.gmm_score")
        self._patch_function(domains, "save_pgm", "domains.save_pgm", _file_bytes)
        self._patch_function(domains, "sample_domain", "domains.sample_domain")
        rows = {
            denoiser.AnalyticGmmEpsilon: lambda m: m.mixture.dimension,
            denoiser.AnalyticFieldEpsilon: lambda m: m.mode_variances.size,
            denoiser.MlpDenoiser: lambda m: math.prod(m.field_shape),
        }
        for cls, row_size in rows.items():
            self._patch_method(cls, "predict_epsilon",
                               f"denoiser.predict_epsilon.{cls.__name__}", _rows(row_size))
        self._patch_method(denoiser.MlpDenoiser, "backward", "denoiser.backward")
        self._patch_function(denoiser, "save_checkpoint", "denoiser.save_checkpoint", _file_bytes)
        self._patch_function(denoiser, "load_checkpoint", "denoiser.load_checkpoint")
        self._patch_function(attention, "attention_forward",
                             lambda a: f"attention.forward.{a[0].priority.value}")
        self._patch_function(attention, "attention_backward",
                             lambda a: f"attention.backward.{a[0].priority.value}")
        self._patch_function(diffusion, "ddim_step", "diffusion.ddim_step")
        self._patch_function(diffusion, "ddim_sample", "diffusion.ddim_sample")
        self._patch_function(diffusion, "forward_noise", "diffusion.forward_noise")
        self._patch_function(rng, "step_rng", "rng.step_rng")
        self._patch_function(bridge, "flow_ode", "bridge.flow_ode", _flow_leg)
        self._patch_function(bridge, "depth_migrate", "bridge.depth_migrate")
        self._patch_function(bridge, "migrate", "bridge.migrate")
        self._patch_function(softlabel, "highpass_magnitude", "softlabel.highpass_magnitude")
        self._patch_function(softlabel, "calibrate_depth", "softlabel.calibrate_depth")
        self._patch_function(train, "train_denoiser", "train.train_denoiser")
        for command in COMMANDS:
            self._patch_function(cli, f"cmd_{command}", f"cli.{command}")
        for check in VERIFY_CHECKS:
            self._patch_function(verify, f"check_{check}", f"verify.{check}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """One line per span: index, parent, pass, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("span,parent,pass,name,start_s,end_s\n")
            for i, (name, start, end, parent, pass_id, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{pass_id},{name},{start!r},{end!r}\n")

    def layer_metrics(self, pass_id: int, sweep_frames: int) -> dict[str, float]:
        """Per-layer counts and times of one pass (see BENCHMARK.json's per_layer)."""
        chosen = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        lo = chosen[0] if chosen else 0
        return layer_metrics(self.spans[lo:lo + len(chosen)], lo, sweep_frames)


def layer_metrics(spans: list[tuple], offset: int, sweep_frames: int) -> dict[str, float]:
    """Aggregate one pass's spans, a contiguous run starting at index ``offset``.

    Parents precede their children, so one forward scan attributes each
    span to its command and to an enclosing ``calibrate_depth``, and adds
    its duration to the parent's covered time; self time is duration
    minus covered time.  Attention forward spans under ``train`` are
    training work and are kept apart from the inference ones that the
    ``attention.forward.*`` metrics count.  ``sweep_frames`` is the
    (sample, depth) count of the pass's ``sweep`` command, 0 when it has
    none.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    covered = [0.0] * len(spans)
    command = [""] * len(spans)
    key = [""] * len(spans)
    in_calibrate = [False] * len(spans)
    notes: dict[str, list] = {}
    for i, (name, start, end, parent, _, note) in enumerate(spans):
        if parent >= 0:
            covered[parent - offset] += end - start
            command[i] = command[parent - offset]
            in_calibrate[i] = in_calibrate[parent - offset]
        if name.startswith("cli."):
            command[i] = name
        elif name == "softlabel.calibrate_depth":
            in_calibrate[i] = True
        training = name.startswith("attention.forward.") and command[i] == "cli.train"
        key[i] = name + ".in_train" if training else name
        calls[key[i]] = calls.get(key[i], 0) + 1
        total[key[i]] = total.get(key[i], 0.0) + (end - start)
        if note is not None:
            notes.setdefault(name, []).append((note, command[i]))

    predict = [f"denoiser.predict_epsilon.{m}" for m in MODELS]
    predict_self_us = []
    nfe_sweep = nfe_calibrate = 0
    for i, (name, start, end, *_rest) in enumerate(spans):
        own = (end - start) - covered[i]
        self_s[key[i]] = self_s.get(key[i], 0.0) + own
        if name in predict:
            predict_self_us.append(own * 1e6)
            nfe_sweep += command[i] == "cli.sweep"
            nfe_calibrate += in_calibrate[i]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def tot(name):
        return total.get(name, 0.0)

    nfe = len(predict_self_us)
    rows = sum(n for p in predict for n, _ in notes.get(p, ()))

    legs: dict[bytes, list[int]] = {}
    grid_steps = 0
    for (steps, forward, digest), cmd in notes.get("bridge.flow_ode", ()):
        grid_steps += steps
        if forward and cmd == "cli.sweep":
            legs.setdefault(digest, []).append(steps)
    redundancy = (
        statistics.fmean(sum(v) / max(v) for v in legs.values()) if legs else 0.0
    )
    if predict_self_us:
        cuts = statistics.quantiles(predict_self_us, n=100, method="inclusive")
        p50, p99 = statistics.median(predict_self_us), cuts[98]
    else:
        p50 = p99 = 0.0

    out = {
        "schedule.alpha_bar_at.calls": c("schedule.alpha_bar_at"),
        "schedule.alpha_bar_at.self_s": s("schedule.alpha_bar_at"),
        "domains.gmm_score.calls": c("domains.gmm_score"),
        "domains.gmm_score.self_s": s("domains.gmm_score"),
        "domains.save_pgm.calls": c("domains.save_pgm"),
        "domains.save_pgm.bytes": sum(n for n, _ in notes.get("domains.save_pgm", ())),
        "domains.save_pgm.s": tot("domains.save_pgm"),
        "domains.sample_domain.s": tot("domains.sample_domain"),
    }
    for model, name in zip(MODELS, predict):
        out[f"denoiser.nfe.{model}"] = c(name)
    out.update({
        "denoiser.predict_epsilon.self_us_p50": p50,
        "denoiser.predict_epsilon.self_us_p99": p99,
        "denoiser.predict_epsilon.rows_per_call": rows / nfe if nfe else 0.0,
        "denoiser.backward.calls": c("denoiser.backward"),
        "denoiser.backward.self_s": s("denoiser.backward"),
        "denoiser.checkpoint.bytes": sum(
            n for n, _ in notes.get("denoiser.save_checkpoint", ())
        ),
        "denoiser.save_checkpoint.s": tot("denoiser.save_checkpoint"),
        "denoiser.load_checkpoint.s": tot("denoiser.load_checkpoint"),
    })
    for priority in PRIORITIES:
        out[f"attention.forward.{priority}.calls"] = c(f"attention.forward.{priority}")
        out[f"attention.forward.{priority}.self_s"] = s(f"attention.forward.{priority}")
    for priority in PRIORITIES:
        out[f"attention.backward.{priority}.self_s"] = s(f"attention.backward.{priority}")
    out.update({
        "diffusion.ddim_step.calls": c("diffusion.ddim_step"),
        "diffusion.ddim_step.self_s": s("diffusion.ddim_step"),
        "diffusion.forward_noise.calls": c("diffusion.forward_noise"),
        "rng.step_rng.calls": c("rng.step_rng"),
        "rng.step_rng.self_s": s("rng.step_rng"),
        "bridge.flow_ode.calls": c("bridge.flow_ode"),
        "bridge.grid_steps": grid_steps,
        "bridge.flow_ode.self_s": s("bridge.flow_ode"),
        "bridge.nfe_per_frame": nfe_sweep / sweep_frames if sweep_frames else 0.0,
        "bridge.forward_step_redundancy": redundancy,
        "softlabel.highpass_magnitude.calls": c("softlabel.highpass_magnitude"),
        "softlabel.highpass_magnitude.self_s": s("softlabel.highpass_magnitude"),
        "softlabel.calibrate_depth.calls": c("softlabel.calibrate_depth"),
        "softlabel.calibrate_depth.nfe": nfe_calibrate,
        "softlabel.calibrate_depth.s": tot("softlabel.calibrate_depth"),
        "train.train_denoiser.self_s": s("train.train_denoiser"),
    })
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = s(f"cli.{command}")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = tot(f"verify.{check}")
    return out

