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
log(alpha_bar), which passes through every stored knot.  The PCHIP is
Fritsch & Carlson's (SIAM J. Numer. Anal. 17(2), 1980) as
``scipy.interpolate.PchipInterpolator`` builds and evaluates it, step
for step, so it gives that interpolant's bytes without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta/alpha-bar tables for a T-step diffusion.

    Safe to share across threads; all arrays are read-only float64
    (``read_only_float64``), so the caller's arrays stay writable.
    """

    steps_T: int
    betas: np.ndarray        # (T,), betas[t-1] is the step-t beta
    alphas: np.ndarray       # (T,), 1 - betas
    alpha_bars: np.ndarray   # (T+1,), cumulative product, alpha_bars[0] = 1
    # PCHIP of log(alpha_bar) over the unit knots 0..T: _log_ab[:, i] holds
    # the coefficients of s**3, s**2, s, 1 on [i, i + 1], s the offset into
    # it.  alpha_bar_at and noise_rate_at (its derivative) both read it.
    _log_ab: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("betas", "alphas", "alpha_bars"):
            object.__setattr__(self, name, read_only_float64(getattr(self, name)))
        # PCHIP reproduces the knots exactly and preserves monotonicity,
        # giving a smooth alpha_bar(t) for fractional steps.
        coef = _pchip_coefficients(np.log(self.alpha_bars))
        coef.setflags(write=False)
        object.__setattr__(self, "_log_ab", coef)

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
        (c0, c1, c2, c3), s = self._piece(time, self._log_ab)
        z = s * s
        # scipy's term order: c3 + c2*s, then + c1*s**2, then + c0*s**3
        # (s**3 as (s*s)*s).  Horner's order rounds differently.
        out = np.exp(c3 + c2 * s + c1 * z + c0 * (z * s))
        return out if isinstance(out, np.ndarray) else float(out)

    def noise_rate_at(self, time):
        """Instantaneous rate -d log(alpha_bar)/d time at normalized time."""
        (c0, c1, c2), s = self._piece(time, self._log_ab[:3])
        # The derivative's coefficients 3*c0, 2*c1 and c2, formed per call
        # as scipy's PPoly.derivative() forms them, so the same bytes.
        out = -(c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s)) * self.steps_T
        return out if isinstance(out, np.ndarray) else float(out)

    def _piece(self, time, table):
        """(coefficients of the piece holding step time * T, offset s into it).

        A float time gives a row of Python floats and a float s; anything
        else gives coefficient arrays indexed like the time array.  Step T
        belongs to the last piece, as in scipy's interval search.
        """
        u = _checked_time(time) * self.steps_T
        if isinstance(u, float):
            i = min(int(u), self.steps_T - 1)
            return table[:, i].tolist(), u - i
        i = np.minimum(u.astype(np.intp), self.steps_T - 1)
        return table[:, i], u - i


def read_only_float64(a) -> np.ndarray:
    """A read-only float64 copy of a; a itself if it already owns read-only float64 data.

    So a constructor never freezes or keeps a caller's writable array.
    """
    if isinstance(a, np.ndarray) and a.dtype == np.float64:
        if not a.flags.writeable and a.base is None:
            return a
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _pchip_coefficients(y: np.ndarray) -> np.ndarray:
    """(4, n - 1) power-basis coefficients of the PCHIP through (k, y[k]).

    scipy's PchipInterpolator on the knots 0..n-1, operation for
    operation: its ``_find_derivatives`` (with the one-sided
    ``_edge_case`` at both ends, and the straight line when there are
    only two knots) and the CubicHermiteSpline coefficients
    ``[t, slope - d0 - t, d0, y0]`` with ``t = d0 + d1 - 2 slope``.  The
    knot spacing is 1, so its divisions by the spacing are left out; they
    are exact.
    """
    m = np.diff(y)
    if len(m) == 1:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(y)
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # weighted harmonic mean of the two slopes, weights 2h + h = 3
            whmean = (3.0 / m[:-1] + 3.0 / m[1:]) / 6.0
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _edge_derivative(m[0], m[1])
        d[-1] = _edge_derivative(m[-1], m[-2])
    t = d[:-1] + d[1:] - 2 * m
    return np.stack((t, m - d[:-1] - t, d[:-1], y[:-1]))


def _edge_derivative(m0: float, m1: float) -> float:
    """One-sided three-point end derivative, clipped to keep the shape."""
    d = (3.0 * m0 - m1) / 2.0
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _checked_time(time):
    """time as a float, or as a float64 array; NaN or outside [0, 1] raises.

    A float stays a float, so that it is evaluated in Python floats:
    time * T is the same double either way.
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

