"""Deterministic bridging between domains via the probability-flow map.

A single model's flow transports samples between its data distribution
(time 0) and the shared latent Gaussian (time 1).  Migration chains two
flows: noise with the source model from 0 to 1, denoise with the target
model from 1 back to 0.  Depth-controlled migration stops the descent
early, noising only to an intermediate time i and denoising from i, which
yields cross-domain intermediates whose migration extent grows with i.
Every flow is one ``flow_ode`` call, the bridge's one loop over the
array of grid nodes that ``BridgeConfig.walk_nodes`` builds; a depth
sweep is two calls, one per leg.  The forward leg keeps the state at
each depth's node (``keep``); the descent walks the stack of those
states, each row starting at its own node (``starts``).  The models
are pure and may be shared read-only across threads.  Every entry
point takes one sample or a batch of samples along a leading axis;
models broadcast over it, so a batch costs one model call per grid step
and each row is bit-identical to that sample's own run.  Every entry
point returns plain arrays.

A walk runs in its model's ``basis``.  An exact texture model's basis is
its ortho ``rfft2`` half spectrum, where its eps is one real gain per
mode: ``flow_ode`` maps the rows it moves in once, steps the spectrum's
float64 view, and maps back once at the end and once at each kept node,
so a leg costs one transform pair, not one per model call.  A row that
never moves keeps its bytes.  The GMM and trained models have no basis
and step their own arrays.

Integration runs on a global uniform grid of ``steps_per_unit_time``
sub-steps per unit time; endpoints snap to the nearest grid node, so
flows over adjacent spans compose bit-exactly.  Each step is the
zero-sigma ``diffusion.ddim_transfer`` between adjacent grid nodes,
``c_x * x + c_e * eps``, with alpha_bar interpolated between the
schedule's knots: first order, and safe for epsilon-parameterized models
at time 0.  No coefficient divides by 1 - alpha_bar: a step out of
time 0 multiplies eps by c_e = sqrt(1 - ab_to), a step into it by
c_e = -sqrt(1 - ab_from) / sqrt(ab_from), and both vanish as the grid
refines.  The second-order reference the checks compare it against,
Heun on the probability-flow drift, is ``verify.heun_flow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import Direction, select_priority
from .denoiser import EpsilonModel
from .diffusion import ddim_transfer
from .schedule import NoiseSchedule

class NonFiniteStateError(ArithmeticError):
    """Integration produced a non-finite state; reports the failing step."""


@dataclass(frozen=True)
class BridgeConfig:
    schedule: NoiseSchedule
    steps_per_unit_time: int | None = None  # defaults to the schedule's T

    def __post_init__(self):
        n = self.steps_per_unit_time
        # bool is an int, and a float would put full depth off the grid.
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer))):
            raise ValueError(f"steps_per_unit_time must be an integer, got {n!r}")
        if n is not None and n < 1:
            raise ValueError("steps_per_unit_time must be >= 1")

    @property
    def grid_steps(self) -> int:
        # int(), so a numpy integer setting leaves no numpy scalar in node times.
        return int(self.steps_per_unit_time or self.schedule.steps_T)

    def node(self, time: float) -> int:
        """Index of the grid node nearest a time in [0, 1]."""
        if not 0.0 <= time <= 1.0:
            raise ValueError(f"time {time} outside [0, 1]")
        return round(time * self.grid_steps)

    def snap(self, time: float) -> float:
        """Nearest grid node to a time in [0, 1], as a time."""
        return self.node(time) / self.grid_steps

    def walk_nodes(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        """The grid nodes from node k0 to node k1, both included, in walk order, and their times."""
        step = 1 if k1 > k0 else -1
        nodes = np.arange(k0, k1 + step, step)
        return nodes, nodes / self.grid_steps


def flow_ode(
    x_start: np.ndarray,
    model: EpsilonModel,
    t0: float,
    t1: float,
    cfg: BridgeConfig,
    *,
    starts=None,
    keep=None,
) -> np.ndarray:
    """Integrate the flow from time t0 to t1 (in [0, 1], either direction).

    The bridge's one loop over grid nodes: a copy of x_start, walked
    node by node in the model's basis and returned.  t0 < t1 noises,
    t0 > t1 denoises; equal (snapped) endpoints return the copy with zero
    arithmetic applied.  x_start may be a batch: each grid step is one
    model call on the whole batch, and a non-finite value in any row
    stops the run at that node.  With starts (a descending grid node per
    row) the step from node k moves only the leading rows whose start is
    >= k, so each row starts at its own node.  keep maps grid nodes
    (``cfg.node``) to arrays shaped like x_start; the walk copies its
    state, mapped out of the model's basis, into keep[k] when it reaches
    node k, the start node before any step.  x_start is never written.
    """
    x = np.array(x_start, dtype=np.float64)
    keep = keep or {}
    nodes, times = cfg.walk_nodes(cfg.node(t0), cfg.node(t1))
    # The step from nodes[j] moves x[:rows[j]]; None is every row.
    rows = [None] * len(nodes)
    if starts is not None:
        rows = np.searchsorted(-np.asarray(starts), -nodes, side="right")
    if nodes[0] in keep:
        keep[nodes[0]][...] = x
    if len(nodes) == 1:
        return x
    # Only the rows the walk moves enter the model's basis, so a row that
    # never moves keeps its bytes.  Without a basis the state is x's rows.
    moving = x if starts is None else x[: rows[:-1].max()]
    into, out_of = model.basis or (None, None)
    state = moving if into is None else into(moving)
    floats = state.view(np.float64)  # a complex spectrum steps as (real, imaginary) pairs
    scratch = np.empty_like(floats)
    ab = cfg.schedule.alpha_bar_at(times)
    # Non-finite intermediates raise NonFiniteStateError below; the float
    # warnings they would emit first are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(len(nodes) - 1):
            xm = floats[: rows[j]]
            eps = model.predict_epsilon(state[: rows[j]], times[j] * cfg.schedule.steps_T)
            ddim_transfer(xm, eps.view(np.float64), ab[j], ab[j + 1], xm, scratch[: rows[j]])
            k = nodes[j + 1]
            _check_finite(xm, k, times[j + 1])
            if out_of is not None and (k in keep or k == nodes[-1]):
                moving[...] = out_of(state)
            if k in keep:
                keep[k][...] = x
    return x


def _check_finite(x: np.ndarray, node: int, time: float) -> None:
    """Raise at a non-finite x.

    A non-finite entry makes the sum non-finite, so one reduce clears a
    finite state; a sum that overflows on finite entries falls through
    to the full scan, and its overflow warning to the caller's errstate.
    """
    if math.isfinite(np.add.reduce(x, axis=None)):
        return
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(
            f"non-finite state at grid node {node} (time {time:.6f})"
        )


def _check_model(model, direction: Direction, schedule: NoiseSchedule) -> None:
    """A model must use the leg's attention priority and the bridge's schedule.

    A trained model embeds its step as t / steps_total, so one trained on
    another step count would read every step at the wrong time.  An
    analytic model reads its own schedule, which must equal the bridge's
    in T and alpha_bars (by value: two equal schedules may be two objects).
    """
    leg = direction.value
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
) -> np.ndarray:
    """Full-depth migration: source flow 0 -> 1, then target flow 1 -> 0.

    Models carrying attention blocks must match the hybrid rule for their
    leg (global-first forward, local-first reverse).  The latent is passed
    between the two flows unchanged.  Deterministic end to end; the
    migrated array has x_source's shape.
    """
    return depth_migrate(x_source, model_src, model_tgt, cfg, 1.0)


def depth_migrate(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depth: float,
) -> np.ndarray:
    """Depth-controlled migration: source flow 0 -> i, target flow i -> 0.

    The depth snaps to the integration grid.  depth = 0 returns a copy of
    the source (no integration steps run); depth = 1 coincides
    bit-for-bit with full migration on the same grid.  This is
    ``depth_sweep`` over a one-depth grid.
    """
    return depth_sweep(x_source, model_src, model_tgt, cfg, [depth])[0]


def depth_sweep(
    x_source: np.ndarray,
    model_src: EpsilonModel,
    model_tgt: EpsilonModel,
    cfg: BridgeConfig,
    depths,
) -> np.ndarray:
    """Depth-controlled migration at every depth of a grid, one stack in grid order.

    Returns an array ``(len(depths), *x_source.shape)`` whose row k is the
    migration at ``depths[k]``.  Two ``flow_ode`` calls serve the whole
    grid.  The forward leg walks the source model from 0 to the deepest
    snapped depth and keeps the state at each depth's node in a stack,
    deepest first.  The descent walks the target model from there back
    to 0 over that stack; each row starts moving when the walk reaches
    its depth's node.  A sweep therefore calls each model once per grid
    step between 0 and the deepest depth, whatever the number of depths.
    Grid nodes are global and models score rows independently, so every
    row is bit-identical to a one-depth sweep at its depth.  Every row is
    its own copy; depths that snap to one node give equal rows.
    """
    nodes = [cfg.node(float(d)) for d in depths]
    _check_model(model_src, Direction.FORWARD, cfg.schedule)
    _check_model(model_tgt, Direction.REVERSE, cfg.schedule)

    # Row r of the descent's stack belongs to the r-th deepest node.
    deepest_first = sorted(set(nodes), reverse=True)
    row = {k: r for r, k in enumerate(deepest_first)}
    deepest = max(nodes, default=0) / cfg.grid_steps
    stack = np.empty((len(row), *np.shape(x_source)))
    flow_ode(x_source, model_src, 0.0, deepest, cfg, keep=dict(zip(deepest_first, stack)))
    stack = flow_ode(stack, model_tgt, deepest, 0.0, cfg, starts=deepest_first)
    return stack[[row[k] for k in nodes]]
