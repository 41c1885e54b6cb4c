"""Deterministic bridging between domains via the probability-flow map.

A single model's flow transports samples between its data distribution
(time 0) and the shared latent Gaussian (time 1).  Migration chains two
flows: noise with the source model from 0 to 1, denoise with the target
model from 1 back to 0.  Depth-controlled migration stops the descent
early, noising only to an intermediate time i and denoising from i, which
yields cross-domain intermediates whose migration extent grows with i.
A depth sweep shares one forward leg and one reverse descent across all
its depths; the models are pure, and the only per-step state they keep
is the GMM model's read-only table of T+1 step constants.  Every
entry point takes one sample or a batch of samples along a leading axis;
models broadcast over it, so a batch costs one model call per grid step
and each row is bit-identical to that sample's own run.

Integration runs on a global uniform grid of ``steps_per_unit_time``
sub-steps per unit time; endpoints snap to the nearest grid node, so
flows over adjacent spans compose bit-exactly.  Three realizations of
the same flow are provided and are required (and tested) to converge
toward one another as the grid refines:

* DDIM: the zero-sigma ``diffusion.ddim_transfer`` between adjacent grid
  nodes, with alpha_bar interpolated between the schedule's knots.
  First order.  Safe for epsilon-parameterized models at time 0 because
  the prediction is only ever multiplied by vanishing coefficients there.
* Euler: first-order explicit Euler on the variance-preserving drift
      v(u, x) = beta(u)/2 * (eps(x, u)/sqrt(1 - alpha_bar(u)) - x).
* Heun: second-order predictor-corrector on the same drift.

Converting a noise prediction to a score divides by sqrt(1 - alpha_bar),
which vanishes at u = 0, so drift evaluations floor the time at
``DRIFT_TIME_FLOOR``.  That is negligible for analytic models; a trained
network's raw output near u = 0 does not shrink with the divisor, so
trained models are best integrated with DDIM.  Where alpha_bar still
rounds to 1 at the floor (the interpolant starts flat when the second
beta is at least three times the first: T <= 100 at the default betas),
the eps term is taken as 0, the optimal prediction's value there, and
the noise rate is below 1e-8, so the drift stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import Direction, select_priority
from .denoiser import EpsilonModel
from .diffusion import ddim_transfer
from .schedule import NoiseSchedule

DRIFT_TIME_FLOOR = 1e-9  # earliest time at which the drift-form integrators evaluate


class Integrator(Enum):
    DDIM = "ddim"
    EULER = "euler"
    HEUN = "heun"


class NonFiniteStateError(ArithmeticError):
    """Integration produced a non-finite state; reports the failing step."""


@dataclass(frozen=True)
class BridgeConfig:
    schedule: NoiseSchedule
    steps_per_unit_time: int | None = None  # defaults to the schedule's T
    integrator: Integrator = Integrator.DDIM

    def __post_init__(self):
        n = self.steps_per_unit_time
        # bool is an int, and a float would put full depth off the grid.
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer))):
            raise ValueError(f"steps_per_unit_time must be an integer, got {n!r}")
        if n is not None and n < 1:
            raise ValueError("steps_per_unit_time must be >= 1")

    @property
    def grid_steps(self) -> int:
        return self.steps_per_unit_time or self.schedule.steps_T

    def snap(self, time: float) -> float:
        """Nearest grid node to a time in [0, 1]."""
        if not 0.0 <= time <= 1.0:
            raise ValueError(f"time {time} outside [0, 1]")
        return round(time * self.grid_steps) / self.grid_steps


@dataclass(frozen=True)
class BridgeTrajectory:
    """States along one bridge run.

    The array fields share the input's shape: one sample, or a batch
    (B, *sample_shape) whose row b is the run of sample b alone.
    """

    latent: np.ndarray     # state at the deepest point reached
    migrated: np.ndarray
    depth: float           # snapped depth actually used


def flow_ode(
    x_start: np.ndarray,
    model: EpsilonModel,
    t0: float,
    t1: float,
    cfg: BridgeConfig,
) -> np.ndarray:
    """Integrate the flow from time t0 to t1 (in [0, 1], either direction).

    t0 < t1 noises, t0 > t1 denoises; equal (snapped) endpoints return
    the input unchanged with zero arithmetic applied.  x_start may be a
    batch: each grid step is one model call on the whole batch, and a
    non-finite value in any row stops the run at that node.
    """
    x = np.array(x_start, dtype=np.float64)
    n = cfg.grid_steps
    k0 = round(cfg.snap(t0) * n)
    k1 = round(cfg.snap(t1) * n)
    if k0 == k1:
        return x

    sched = cfg.schedule
    nodes = np.arange(k0, k1 + (1 if k1 > k0 else -1), 1 if k1 > k0 else -1)
    times = nodes / n
    ddim = cfg.integrator == Integrator.DDIM
    heun = cfg.integrator == Integrator.HEUN
    scratch = np.empty_like(x)
    if ddim:
        ab = sched.alpha_bar_at(times)
    else:
        # Drift-form integrators; evaluation times floored away from 0.
        eval_times = np.maximum(times, DRIFT_TIME_FLOOR)
        ab_eval = sched.alpha_bar_at(eval_times)
        beta_eval = sched.noise_rate_at(eval_times)
        if heun:
            probe, k_b = np.empty_like(x), np.empty_like(x)

        def drift(state, j, out):
            """0.5 * beta * (eps / score_scale - state), written into out."""
            score_scale = math.sqrt(1.0 - ab_eval[j])
            if score_scale > 0.0:
                eps = model.predict_epsilon(state, eval_times[j] * sched.steps_T)
                np.divide(eps, score_scale, out=out)
            else:
                out.fill(0.0)
            np.subtract(out, state, out=out)
            np.multiply(0.5 * beta_eval[j], out, out=out)

    # Non-finite intermediates raise NonFiniteStateError below; the float
    # warnings they would emit first are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(len(nodes) - 1):
            if ddim:
                eps = model.predict_epsilon(x, times[j] * sched.steps_T)
                ddim_transfer(x, eps, ab[j], ab[j + 1], x, scratch)
            else:
                # x + h * k_a (Euler) or x + 0.5 * h * (k_a + k_b) (Heun), k_a in scratch.
                h = times[j + 1] - times[j]
                drift(x, j, scratch)
                if heun:
                    np.multiply(h, scratch, out=probe)
                    probe += x
                    drift(probe, j + 1, k_b)
                    scratch += k_b
                    scratch *= 0.5 * h
                else:
                    scratch *= h
                x += scratch
            _check_finite(x, nodes[j + 1], times[j + 1])
    return x


def _check_finite(x: np.ndarray, node: int, time: float) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(
            f"non-finite state at grid node {node} (time {time:.6f})"
        )


def _check_model(model, direction: Direction, leg: str, schedule: NoiseSchedule) -> None:
    """A model must use the leg's attention priority and the bridge's schedule.

    A trained model embeds its step as t / steps_total, so one trained on
    another step count would read every step at the wrong time.  An
    analytic model reads its own schedule, which must equal the bridge's
    in T and alpha_bars (by value: two equal schedules may be two objects).
    """
    att_cfg = getattr(model, "attention", None)
    wanted = select_priority(direction)
    if att_cfg is not None and att_cfg.priority != wanted:
        raise ValueError(
            f"{leg} leg requires {wanted.value} attention, "
            f"model carries {att_cfg.priority.value}"
        )
    steps = getattr(model, "steps_total", schedule.steps_T)
    if steps != schedule.steps_T:
        raise ValueError(
            f"{leg} leg model was trained on {steps} steps, "
            f"the schedule has {schedule.steps_T}"
        )
    built = getattr(model, "schedule", schedule)
    if built.steps_T != schedule.steps_T:
        raise ValueError(
            f"{leg} leg model was built on a {built.steps_T}-step schedule, "
            f"the bridge's has {schedule.steps_T}"
        )
    if not np.array_equal(built.alpha_bars, schedule.alpha_bars):
        raise ValueError(f"{leg} leg model was built on other alpha_bars than the bridge's schedule")


def migrate(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
) -> BridgeTrajectory:
    """Full-depth migration: source flow 0 -> 1, then target flow 1 -> 0.

    Models carrying attention blocks must match the hybrid rule for their
    leg (global-first forward, local-first reverse).  The latent is passed
    between the two flows unchanged.  Deterministic end to end.
    """
    return depth_migrate(x_source, model_src, model_tgt, cfg, 1.0)


def depth_migrate(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depth: float,
) -> BridgeTrajectory:
    """Depth-controlled migration: source flow 0 -> i, target flow i -> 0.

    depth = 0 returns the source unchanged (no integration steps run, and
    the trajectory's two states are one copy of the source); depth = 1
    coincides bit-for-bit with full migration on the same grid.  The
    depth snaps to the integration grid; the snapped value is recorded
    on the trajectory.  This is ``depth_sweep`` over a one-depth grid.
    """
    return depth_sweep(x_source, model_src, model_tgt, cfg, [depth])[0]


def depth_sweep(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depths,
) -> list[BridgeTrajectory]:
    """Depth-controlled migration at every depth of a grid, in grid order.

    One forward leg and one reverse descent serve the whole grid.  The
    forward leg runs from 0 to the deepest snapped depth, chained node to
    node between consecutive depths.  The descent runs the target model
    from the deepest depth back to 0, chained the same way; each depth's
    latent joins the descending batch, stacked along a new leading axis,
    when the descent reaches that depth's node.  A sweep therefore calls
    each model once per grid step between 0 and the deepest depth (twice
    with Heun), whatever the number of depths.  Grid nodes are global and
    models score rows independently, so every trajectory is bit-identical
    to a one-depth sweep at its depth.  Depths that snap to one node share
    one trajectory.
    """
    x_source = np.asarray(x_source, dtype=np.float64)
    snapped = [cfg.snap(float(d)) for d in depths]
    _check_model(model_src, Direction.FORWARD, "forward", cfg.schedule)
    _check_model(model_tgt, Direction.REVERSE, "reverse", cfg.schedule)

    source = x_source.copy()
    ends = [0.0, *sorted(set(snapped) - {0.0})]
    latents = [source]
    for start, stop in zip(ends, ends[1:]):
        latents.append(flow_ode(latents[-1], model_src, start, stop, cfg))
    # Row r of the descending batch belongs to the r-th deepest depth.
    batch = np.empty((0, *source.shape))
    for j in range(len(ends) - 1, 0, -1):
        batch = np.concatenate([batch, latents[j][None]])
        batch = flow_ode(batch, model_tgt, ends[j], ends[j - 1], cfg)
    rows = {
        depth: BridgeTrajectory(latents[j], batch[-j] if j else source, depth)
        for j, depth in enumerate(ends)
    }
    return [rows[d] for d in snapped]
