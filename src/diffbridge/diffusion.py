"""Forward noising and discrete DDIM reverse stepping.

The reverse update from step t to t-1 is

    x_{t-1} = sqrt(ab_{t-1}) * (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
            + sqrt(1 - ab_{t-1} - sigma_t^2) * eps
            + sigma_t * noise

with ab the cumulative alpha_bar table and eps the model prediction at
step t.  Folding the predicted x_0 into two real coefficients gives the
same update as DPM-Solver's first-order exponential integrator,

    x_{t-1} = c_x * x_t + c_e * eps + sigma_t * noise,
    c_x = sqrt(ab_{t-1}) / sqrt(ab_t),
    c_e = sqrt(1 - ab_{t-1} - sigma_t^2) - c_x * sqrt(1 - ab_t),

equal to the first form up to rounding; the code runs this second form
(``ddim_transfer``).  With sigma_t = 0 the update is a deterministic
function of (x_t, t); the ancestral family is parameterized by the usual
eta convention.  Random draws come from counter-based streams keyed by
(seed, sample_index, t), so neither batching nor order can change results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .denoiser import EpsilonModel
from .rng import step_rng
from .schedule import NoiseSchedule


class SigmaMode(Enum):
    DETERMINISTIC = "deterministic"  # sigma_t = 0 everywhere
    ANCESTRAL = "ancestral"          # eta-scaled DDPM-style sigma_t


@dataclass(frozen=True)
class SamplerConfig:
    schedule: NoiseSchedule
    sigma_mode: SigmaMode = SigmaMode.DETERMINISTIC
    eta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:  # no cap at 1: ddim_step refuses too large a sigma
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")

    def sigma(self, t: int) -> float:
        if self.sigma_mode == SigmaMode.DETERMINISTIC:
            return 0.0
        return ddim_sigma(self.schedule, t, self.eta)


def ddim_sigma(schedule: NoiseSchedule, t: int, eta: float) -> float:
    """Per-step noise scale sigma_t under the eta convention."""
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    return float(
        eta
        * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t))
        * np.sqrt(1.0 - ab_t / ab_prev)
    )


def forward_noise(
    x0: np.ndarray, t: int | np.ndarray, schedule: NoiseSchedule, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One draw of x_t given x_0, and the noise eps it used: the one forward-noising rule.

    ``t`` is one integer step, or one per row of x0 (shape ``x0.shape[:1]``).
    eps is one ``rng.standard_normal(x0.shape)`` draw, step-0 rows included,
    and x_t = sqrt(alpha_bars[t]) x0 + sqrt(1 - alpha_bars[t]) eps, so a
    step-0 row comes back equal to x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    t = np.asarray(t)
    if t.shape not in ((), x0.shape[:1]) or t.dtype.kind not in "iu":
        raise ValueError(f"t must be one integer step or one per row of x0, not {t.dtype} {t.shape}")
    outside = t[(t < 0) | (t > schedule.steps_T)]
    if outside.size:
        raise ValueError(f"step {outside.flat[0]} outside [0, {schedule.steps_T}]")
    ab = schedule.alpha_bars[t].reshape(t.shape + (1,) * (x0.ndim - t.ndim))
    eps = rng.standard_normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, eps


def ddim_transfer(
    x: np.ndarray,
    eps: np.ndarray,
    ab_from: float,
    ab_to: float,
    out: np.ndarray,
    scratch: np.ndarray,
    sigma: float = 0.0,
) -> np.ndarray:
    """The DDIM update from alpha_bar ab_from to ab_to, less its noise term, written into out.

    out = c_x * x + c_e * eps with c_x = sqrt(ab_to) / sqrt(ab_from) and
    c_e = sqrt(1 - ab_to - sigma^2) - c_x * sqrt(1 - ab_from), the
    module's coefficient form, in place through ``scratch``; ``out`` may
    be ``x``.

    The coefficients are real, so a complex state steps on its float64
    view.  Fresh batch-sized temporaries on every step make the allocator
    return pages to the OS and fault them in again.  Measured on a
    200-node texture-32 walk of 18 fields (``flow_ode`` 0 -> 1 in the
    model's half-spectrum basis, numpy 2.4.6, one BLAS thread, 2-vCPU
    VM, medians of 28 walks): with the out-of-place ``out[...] = c_x * x
    + c_e * eps`` the walk made 16718 minor faults (84 a step) and took
    33-35 ms; through ``scratch`` it makes 157, as many as a 20-node
    walk, and takes 10 ms.
    """
    c_x = math.sqrt(ab_to) / math.sqrt(ab_from)
    c_e = math.sqrt(1.0 - ab_to - sigma**2) - c_x * math.sqrt(1.0 - ab_from)
    np.multiply(eps, c_e, out=scratch)
    np.multiply(x, c_x, out=out)
    out += scratch
    return out


def ddim_step(
    x_t: np.ndarray,
    t: int,
    model: EpsilonModel,
    schedule: NoiseSchedule,
    sigma_t: float = 0.0,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """One reverse step t -> t-1; sigma_t > 0 adds sigma_t * noise, standard normal like x_t."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if not 1 <= t <= schedule.steps_T:
        raise ValueError(f"step {t} outside [1, {schedule.steps_T}]")
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    radicand = 1.0 - ab_prev - sigma_t**2
    if radicand < 0.0:
        raise ValueError(
            f"sigma_t^2 = {sigma_t**2} exceeds 1 - alpha_bar_{t - 1} = {1.0 - ab_prev}"
        )
    if sigma_t > 0.0 and (noise is None or np.shape(noise) != x_t.shape):
        raise ValueError(f"stochastic step needs noise shaped {x_t.shape}")
    eps = model.predict_epsilon(x_t, t)
    out = ddim_transfer(x_t, eps, ab_t, ab_prev, np.empty_like(x_t), np.empty_like(x_t), sigma_t)
    if sigma_t > 0.0:
        out += sigma_t * noise
    return out


def ddim_sample(
    x_T: np.ndarray,
    model: EpsilonModel,
    cfg: SamplerConfig,
    sample_index: int | Sequence[int] = 0,
) -> np.ndarray:
    """Iterate the reverse update from t = T down to 1, one model call per step.

    Ancestral row r's step-t noise comes from the stream keyed by (cfg.seed,
    sample_index[r], t), so each row equals its own single-sample run, as in
    deterministic mode; an int sample_index keys all of x_T as one sample.
    """
    x = np.asarray(x_T, dtype=np.float64)
    indices = np.asarray(sample_index)
    if indices.ndim > 1 or indices.ndim == 1 and indices.shape != x.shape[:1]:
        raise ValueError(f"sample_index of shape {indices.shape} for x_T of shape {x.shape}")
    noise = np.empty(x.shape)  # C order, so each row's draws are one contiguous run
    rows = list(zip(noise.reshape(indices.size, -1), indices.ravel().tolist()))
    for t in range(cfg.schedule.steps_T, 0, -1):
        sigma_t = cfg.sigma(t)
        if sigma_t > 0.0:
            for row, i in rows:
                step_rng(cfg.seed, i, t).standard_normal(out=row)
        x = ddim_step(x, t, model, cfg.schedule, sigma_t, noise)
    return x
