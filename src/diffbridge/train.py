"""Desk-scale training of MLP denoisers on the noise-prediction objective.

Each example pairs a clean sample with a uniformly drawn step t and a
fresh Gaussian noise draw; the loss is the mean squared error between
that noise and the model's prediction at the noised state.  Gradients
are exactly the model's manual reverse-mode gradients, and each
example's loss is read off the same forward pass; training is
single-threaded and bit-reproducible under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import attention as attn
from .denoiser import MlpDenoiser, init_mlp
from .diffusion import SamplerConfig, SigmaMode, ddim_sample
from .domains import GaussianMixture, gmm_sample
from .schedule import NoiseSchedule


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message names the offending epoch."""


@dataclass(frozen=True)
class AttentionLayout:
    """Serializable geometry for an optional attention block."""

    token_count: int
    heads: int = 1
    windows: int = 1
    priority: attn.Priority = attn.Priority.GLOBAL_FIRST


@dataclass(frozen=True)
class TrainConfig:
    schedule: NoiseSchedule
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 3e-3
    optimizer: str = "adam"  # or "sgd"
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    time_dim: int = 16
    activation: str = "silu"
    attention: AttentionLayout | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class _Adam:
    """First/second-moment adaptive updates, decay 0.9/0.999, eps 1e-8."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correction1 = 1.0 - b1**self.step_count
        correction2 = 1.0 - b2**self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


class _Sgd:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g in zip(self.params, grads):
            p -= self.lr * g


def train_denoiser(
    data: np.ndarray, cfg: TrainConfig
) -> tuple[MlpDenoiser, list[float]]:
    """Train a denoiser on the samples in ``data`` (shape (N, *field)).

    Returns the trained model and the per-epoch mean loss history.
    Raises TrainingDivergedError if the loss goes non-finite.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 2 or data.shape[0] == 0:
        raise ValueError("data must be a nonempty (N, *field_shape) array")
    field_shape = data.shape[1:]
    field_size = int(np.prod(field_shape))

    init_seed, loop_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    att_cfg = None
    if cfg.attention is not None:
        lay = cfg.attention
        if field_size % lay.token_count != 0:
            raise ValueError("token_count must divide the field size")
        att_cfg = attn.init_attention(
            token_count=lay.token_count,
            model_dim=field_size // lay.token_count,
            heads=lay.heads,
            windows=lay.windows,
            priority=lay.priority,
            seed=int(init_seed),
        )
    model = init_mlp(
        field_shape,
        cfg.hidden,
        steps_total=cfg.schedule.steps_T,
        time_dim=cfg.time_dim,
        activation=cfg.activation,
        attention=att_cfg,
        seed=int(init_seed),
    )

    rng = np.random.default_rng(int(loop_seed))
    opt_cls = _Adam if cfg.optimizer == "adam" else _Sgd
    opt = opt_cls(model.parameters(), cfg.learning_rate)
    n = data.shape[0]
    history: list[float] = []

    # Divergence is detected from the epoch loss and raised as a typed
    # error; the float warnings a diverging net emits first are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                grad_sum = None
                loss_sum = 0.0
                for idx in batch:
                    x0 = data[idx]
                    t = int(rng.integers(1, cfg.schedule.steps_T + 1))
                    ab = cfg.schedule.alpha_bar(t)
                    eps = rng.standard_normal(field_shape)
                    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
                    grad = model.backward(x_t, t, eps)
                    loss_sum += float(np.mean((eps - grad.prediction) ** 2))
                    grads = grad.parameters()
                    if grad_sum is None:
                        grad_sum = [g / field_size for g in grads]
                    else:
                        for acc, g in zip(grad_sum, grads):
                            acc += g / field_size
                scale = 1.0 / len(batch)
                opt.step([g * scale for g in grad_sum])
                epoch_losses.append(loss_sum * scale)
            epoch_loss = float(np.mean(epoch_losses))
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"loss diverged at epoch {epoch}")
            history.append(epoch_loss)
    return model, history


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Multivariate energy distance between two sample sets (rows)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    xy = cdist(x, y).mean()
    xx = cdist(x, x).mean()
    yy = cdist(y, y).mean()
    return float(2.0 * xy - xx - yy)


def evaluate_fit(
    model,
    mix: GaussianMixture,
    n: int,
    schedule: NoiseSchedule,
    seed: int = 0,
) -> float:
    """Energy distance between n deterministic model samples and n mixture draws."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    cfg = SamplerConfig(schedule=schedule, sigma_mode=SigmaMode.DETERMINISTIC)
    samples = ddim_sample(rng.standard_normal((n, mix.dimension)), model, cfg)
    reference = gmm_sample(mix, n, seed=seed + 1)
    return energy_distance(samples, reference)
