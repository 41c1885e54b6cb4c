"""Diffusion timestep bookkeeping.

Conventions
-----------
A schedule over ``T`` steps stores ``betas[t-1]`` for steps t = 1..T and
the cumulative signal retention ``alpha_bars`` of length T+1 with

    alpha_bars[0] = 1
    alpha_bars[t] = alpha_bars[t-1] * (1 - betas[t-1])

so t = 0 is clean data and t = T is (nearly) pure noise.  The marginal of
the forward process at step t is

    x_t = sqrt(alpha_bars[t]) * x_0 + sqrt(1 - alpha_bars[t]) * eps.

``alpha_bars`` is the exact sequential product of the stored alphas; no
consumer recomputes it.  For continuous-time integration the table is
extended to real steps by monotone (PCHIP) interpolation of
log(alpha_bar), which passes through every stored knot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta/alpha-bar tables for a T-step diffusion.

    Safe to share across threads; all arrays are read-only float64.
    """

    steps_T: int
    betas: np.ndarray        # (T,), betas[t-1] is the step-t beta
    alphas: np.ndarray       # (T,), 1 - betas
    alpha_bars: np.ndarray   # (T+1,), cumulative product, alpha_bars[0] = 1
    _log_ab: PchipInterpolator = field(repr=False, compare=False, default=None)
    _log_ab_deriv: PchipInterpolator = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for arr in (self.betas, self.alphas, self.alpha_bars):
            arr.setflags(write=False)
        # Monotone interpolant of log(alpha_bar) over integer steps 0..T.
        # PCHIP reproduces the knots exactly and preserves monotonicity,
        # giving a smooth alpha_bar(t) for fractional steps.
        interp = PchipInterpolator(
            np.arange(self.steps_T + 1), np.log(self.alpha_bars)
        )
        object.__setattr__(self, "_log_ab", interp)
        object.__setattr__(self, "_log_ab_deriv", interp.derivative())

    def beta(self, t: int) -> float:
        """Step-t beta, t in 1..T."""
        if not 1 <= t <= self.steps_T:
            raise ValueError(f"step {t} outside [1, {self.steps_T}]")
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        """Cumulative product at integer step t in 0..T."""
        if not 0 <= t <= self.steps_T:
            raise ValueError(f"step {t} outside [0, {self.steps_T}]")
        return float(self.alpha_bars[t])

    def alpha_bar_at(self, time):
        """Interpolated alpha_bar at normalized time in [0, 1].

        Accepts a scalar or array; exact at the knots time = t/T and
        log-monotone in between.
        """
        time = _checked_time(time)
        out = np.exp(self._log_ab(time * self.steps_T))
        return float(out) if out.ndim == 0 else out

    def noise_rate_at(self, time):
        """Instantaneous rate -d log(alpha_bar)/d time at normalized time."""
        time = _checked_time(time)
        out = -self._log_ab_deriv(time * self.steps_T) * self.steps_T
        return float(out) if out.ndim == 0 else out


def _checked_time(time):
    """time as a float, or as a float64 array; NaN or outside [0, 1] raises.

    A float stays a float: the round trip through a 0-d array cost more
    than the PCHIP call it feeds, and time * T is the same double.
    """
    if isinstance(time, float):
        inside = 0.0 <= time <= 1.0
    else:
        time = np.asarray(time, dtype=np.float64)
        inside = bool(np.all((time >= 0.0) & (time <= 1.0)))
    if not inside:
        raise ValueError("time outside [0, 1]")
    return time


def linear_schedule(
    steps_T: int, beta_start: float = 1e-4, beta_end: float = 0.02
) -> NoiseSchedule:
    """Linear beta ramp from beta_start (t=1) to beta_end (t=T).

    Defaults follow the standard discrete-diffusion convention
    (T=1000, 1e-4 -> 0.02); all three parameters are configurable.
    """
    if steps_T < 1:
        raise ValueError("steps_T must be >= 1")
    if not (np.isfinite(beta_start) and np.isfinite(beta_end)):
        raise ValueError("beta bounds must be finite")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError("require 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, steps_T, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.concatenate(([1.0], np.cumprod(alphas)))
    return NoiseSchedule(steps_T, betas, alphas, alpha_bars)


def state_coordinate(t: int, schedule: NoiseSchedule) -> float:
    """Normalized intermediate-state coordinate t/T in [0, 1]."""
    if not 0 <= t <= schedule.steps_T:
        raise ValueError(f"step {t} outside [0, {schedule.steps_T}]")
    return t / schedule.steps_T
