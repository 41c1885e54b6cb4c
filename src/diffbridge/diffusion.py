"""Forward noising and discrete DDIM reverse stepping.

The reverse update from step t to t-1 is

    x_{t-1} = sqrt(ab_{t-1}) * (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
            + sqrt(1 - ab_{t-1} - sigma_t^2) * eps
            + sigma_t * noise

with ab the cumulative alpha_bar table and eps the model prediction at
step t.  With sigma_t = 0 the update is a deterministic function of
(x_t, t); the ancestral family is parameterized by the usual eta
convention.  Random draws come from counter-based streams keyed by
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
    x0: np.ndarray, t: int, schedule: NoiseSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One draw of x_t given x_0; at t = 0 returns x0 unchanged."""
    x0 = np.asarray(x0, dtype=np.float64)
    ab = schedule.alpha_bar(t)  # raises for a step outside [0, T]
    if ab >= 1.0:
        return x0.copy()
    eps = rng.standard_normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


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

    x0_hat = (x - sqrt(1 - ab_from) * eps) / sqrt(ab_from) and out = sqrt(ab_to) * x0_hat
    + sqrt(1 - ab_to - sigma^2) * eps, in place through ``scratch`` (fresh batch-sized
    temporaries on every step make the allocator return pages to the OS and fault them in
    again, at a cost that varies between runs); ``out`` may be ``x``.
    """
    np.multiply(math.sqrt(1.0 - ab_from), eps, out=scratch)
    np.subtract(x, scratch, out=scratch)
    np.divide(scratch, math.sqrt(ab_from), out=scratch)      # x0_hat
    np.multiply(math.sqrt(ab_to), scratch, out=scratch)
    np.multiply(math.sqrt(1.0 - ab_to - sigma**2), eps, out=out)
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
