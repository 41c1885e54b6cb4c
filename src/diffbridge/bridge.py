"""Deterministic bridging between domains via the probability-flow map.

A single model's flow transports samples between its data distribution
(time 0) and the shared latent Gaussian (time 1).  Migration chains two
flows: noise with the source model from 0 to 1, denoise with the target
model from 1 back to 0.  Depth-controlled migration stops the descent
early, noising only to an intermediate time i and denoising from i, which
yields cross-domain intermediates whose migration extent grows with i.
A depth sweep shares one forward leg across all its depths.  Every
entry point takes one sample or a batch of samples along a leading axis;
models broadcast over it, so a batch costs one model call per grid step
and each row is bit-identical to that sample's own run.

Integration runs on a global uniform grid of ``steps_per_unit_time``
sub-steps per unit time; endpoints snap to the nearest grid node, so
flows over adjacent spans compose bit-exactly.  Three realizations of
the same flow are provided and are required (and tested) to converge
toward one another as the grid refines:

* DDIM: the zero-sigma DDIM recursion applied between adjacent grid
  nodes, with alpha_bar interpolated between the schedule's knots.
  First order.  Safe for epsilon-parameterized models at time 0 because
  the prediction is only ever multiplied by vanishing coefficients there.
* Euler: first-order explicit Euler on the variance-preserving drift
      v(u, x) = beta(u)/2 * (eps(x, u)/sqrt(1 - alpha_bar(u)) - x).
* Heun: second-order predictor-corrector on the same drift.

Converting a noise prediction to a score divides by sqrt(1 - alpha_bar),
which vanishes at u = 0, so drift evaluations floor the time at
``drift_time_floor`` (negligible for analytic models; raise it toward
one sub-step for trained networks, whose raw output near u = 0 does not
shrink with the divisor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import Direction, select_priority
from .denoiser import EpsilonModel
from .schedule import NoiseSchedule


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
    depth: float = 1.0
    drift_time_floor: float = 1e-9

    def __post_init__(self):
        if self.steps_per_unit_time is not None and self.steps_per_unit_time < 1:
            raise ValueError("steps_per_unit_time must be >= 1")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError("depth must lie in [0, 1]")

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

    source: np.ndarray
    latent: np.ndarray     # state at the deepest point reached
    migrated: np.ndarray
    depth: float           # snapped depth actually used
    snapshots: tuple | None = None  # optional ((time, state), ...) per sub-step


def flow_ode(
    x_start: np.ndarray,
    model: EpsilonModel,
    t0: float,
    t1: float,
    cfg: BridgeConfig,
    snapshots: list | None = None,
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
    ab = sched.alpha_bar_at(times)

    if cfg.integrator == Integrator.DDIM:
        sqrt_ab = np.sqrt(ab)
        sqrt_1mab = np.sqrt(1.0 - ab)
        # The step updates x in place through one scratch array: fresh
        # batch-sized temporaries on every step make the C allocator hand
        # pages back to the OS and fault them in again, at a cost that
        # varies from run to run.  The operations and their order are
        # those of x0_hat = (x - d * eps) / e; x = c * x0_hat + f * eps.
        scratch = np.empty_like(x)
        # Non-finite intermediates raise NonFiniteStateError below; the
        # float warnings they would emit first are noise.
        with np.errstate(invalid="ignore", over="ignore"):
            for j in range(len(nodes) - 1):
                eps = model.predict_epsilon(x, times[j] * sched.steps_T)
                np.multiply(sqrt_1mab[j], eps, out=scratch)
                np.subtract(x, scratch, out=scratch)
                np.divide(scratch, sqrt_ab[j], out=scratch)      # x0_hat
                np.multiply(sqrt_ab[j + 1], scratch, out=scratch)
                np.multiply(sqrt_1mab[j + 1], eps, out=x)
                x += scratch
                _check_finite(x, nodes[j + 1], times[j + 1])
                if snapshots is not None:
                    snapshots.append((times[j + 1], x.copy()))
        return x

    # Drift-form integrators; evaluation times floored away from 0.
    eval_times = np.maximum(times, cfg.drift_time_floor)
    ab_eval = sched.alpha_bar_at(eval_times)
    beta_eval = sched.noise_rate_at(eval_times)

    def drift(state, j, out):
        """0.5 * beta * (eps / score_scale - state), written into out."""
        eps = model.predict_epsilon(state, eval_times[j] * sched.steps_T)
        np.divide(eps, math.sqrt(1.0 - ab_eval[j]), out=out)
        np.subtract(out, state, out=out)
        np.multiply(0.5 * beta_eval[j], out, out=out)

    # In place, like the DDIM step: x + h * k_a, then x + 0.5 * h * (k_a + k_b).
    heun = cfg.integrator == Integrator.HEUN
    k_a = np.empty_like(x)
    if heun:
        probe, k_b = np.empty_like(x), np.empty_like(x)
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(len(nodes) - 1):
            h = times[j + 1] - times[j]
            drift(x, j, k_a)
            if heun:
                np.multiply(h, k_a, out=probe)
                probe += x
                drift(probe, j + 1, k_b)
                k_a += k_b
                k_a *= 0.5 * h
            else:
                k_a *= h
            x += k_a
            _check_finite(x, nodes[j + 1], times[j + 1])
            if snapshots is not None:
                snapshots.append((times[j + 1], x.copy()))
    return x


def _check_finite(x: np.ndarray, node: int, time: float) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(
            f"non-finite state at grid node {node} (time {time:.6f})"
        )


def _check_model_priority(model, direction: Direction, leg: str) -> None:
    att_cfg = getattr(model, "attention", None)
    if att_cfg is None:
        return
    wanted = select_priority(direction)
    if att_cfg.priority != wanted:
        raise ValueError(
            f"{leg} leg requires {wanted.value} attention, "
            f"model carries {att_cfg.priority.value}"
        )


def migrate(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    record_snapshots: bool = False,
) -> BridgeTrajectory:
    """Full-depth migration: source flow 0 -> 1, then target flow 1 -> 0.

    Models carrying attention blocks must match the hybrid rule for their
    leg (global-first forward, local-first reverse).  The latent is passed
    between the two flows unchanged.  Deterministic end to end.
    """
    return depth_migrate(
        x_source, model_src, model_tgt, cfg, depth=1.0, record_snapshots=record_snapshots
    )


def depth_migrate(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depth: float | None = None,
    record_snapshots: bool = False,
) -> BridgeTrajectory:
    """Depth-controlled migration: source flow 0 -> i, target flow i -> 0.

    depth = 0 returns the source unchanged (no integration steps run);
    depth = 1 coincides bit-for-bit with full migration on the same grid.
    The depth snaps to the integration grid; the snapped value is
    recorded on the trajectory.
    """
    x_source = np.asarray(x_source, dtype=np.float64)
    if depth is None:
        depth = cfg.depth
    snapped = cfg.snap(depth)
    _check_model_priority(model_src, Direction.FORWARD, "forward")
    _check_model_priority(model_tgt, Direction.REVERSE, "reverse")

    if snapped == 0.0:
        return BridgeTrajectory(
            source=x_source.copy(),
            latent=x_source.copy(),
            migrated=x_source.copy(),
            depth=0.0,
            snapshots=() if record_snapshots else None,
        )

    snaps: list | None = [] if record_snapshots else None
    latent = flow_ode(x_source, model_src, 0.0, snapped, cfg, snapshots=snaps)
    migrated = flow_ode(latent, model_tgt, snapped, 0.0, cfg, snapshots=snaps)
    return BridgeTrajectory(
        source=x_source.copy(),
        latent=latent,
        migrated=migrated,
        depth=snapped,
        snapshots=tuple(snaps) if snaps is not None else None,
    )


def depth_sweep(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depths,
) -> list[BridgeTrajectory]:
    """Depth-controlled migration at every depth of a grid, in grid order.

    One forward leg serves the whole grid: it runs from 0 to the deepest
    snapped depth, chained node to node between consecutive depths, and
    each depth then gets its own reverse leg.  Grid nodes are global, so
    every trajectory is bit-identical to ``depth_migrate`` at its depth.
    Depths that snap to one node share one trajectory.
    """
    x_source = np.asarray(x_source, dtype=np.float64)
    snapped = [cfg.snap(float(d)) for d in depths]
    _check_model_priority(model_src, Direction.FORWARD, "forward")
    _check_model_priority(model_tgt, Direction.REVERSE, "reverse")

    source = x_source.copy()
    rows = {0.0: BridgeTrajectory(source, source, source, 0.0)}
    latent, reached = source, 0.0
    for depth in sorted(set(snapped) - {0.0}):
        latent = flow_ode(latent, model_src, reached, depth, cfg)
        reached = depth
        migrated = flow_ode(latent, model_tgt, depth, 0.0, cfg)
        rows[depth] = BridgeTrajectory(source, latent, migrated, depth)
    return [rows[d] for d in snapped]
