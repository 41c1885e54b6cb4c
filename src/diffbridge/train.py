"""Desk-scale training of MLP denoisers on the noise-prediction objective.

Each example pairs a clean sample with a uniformly drawn step t and a
fresh Gaussian noise draw; the loss is the mean squared error between
that noise and the model's prediction at the noised state.  Gradients
are exactly the model's manual reverse-mode gradients, and each
example's loss is read off the same forward pass; training is
single-threaded and bit-reproducible under a fixed seed.

A minibatch is one batched forward and backward pass: its examples'
(t, noise) pairs are drawn one example after another from the one
generator, and the model sums their gradients in example order.  The
sum is divided by the field size once, which equals dividing each
example's gradient when the field size is a power of two (2 for the
point domains, n^2 for power-of-two textures); other field sizes can
differ from per-example division in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def init_model(field_shape, cfg: TrainConfig) -> MlpDenoiser:
    """The untrained model ``train_denoiser`` starts from, seeded by cfg.seed.

    A geometry that cannot be built (an attention layout that does not
    tile the field, an unknown activation, ...) raises ValueError.
    """
    field_size = int(np.prod(field_shape))
    init_seed = int(np.random.SeedSequence(cfg.seed).generate_state(2)[0])
    att_cfg = None
    if cfg.attention is not None:
        lay = cfg.attention
        if lay.token_count < 1 or field_size % lay.token_count != 0:
            raise ValueError(
                f"token_count {lay.token_count} must divide the field size {field_size}"
            )
        att_cfg = attn.init_attention(
            token_count=lay.token_count,
            model_dim=field_size // lay.token_count,
            heads=lay.heads,
            windows=lay.windows,
            priority=lay.priority,
            seed=init_seed,
        )
    return init_mlp(
        field_shape,
        cfg.hidden,
        steps_total=cfg.schedule.steps_T,
        time_dim=cfg.time_dim,
        activation=cfg.activation,
        attention=att_cfg,
        seed=init_seed,
    )


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
    model = init_model(field_shape, cfg)

    _, loop_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
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
                rows = len(batch)
                ts = np.empty(rows, dtype=np.int64)
                eps = np.empty((rows, *field_shape))
                for row in range(rows):
                    ts[row] = rng.integers(1, cfg.schedule.steps_T + 1)
                    rng.standard_normal(field_shape, out=eps[row])
                ab = cfg.schedule.alpha_bars[ts].reshape(-1, *(1,) * len(field_shape))
                x_t = np.sqrt(ab) * data[batch] + np.sqrt(1.0 - ab) * eps
                grad = model.backward(x_t, ts, eps)
                row_losses = np.mean(((eps - grad.prediction) ** 2).reshape(rows, -1), axis=1)
                # Added one at a time, in row order: the built-in sum
                # compensates its rounding from Python 3.12 on.
                loss_sum = 0.0
                for loss in row_losses.tolist():
                    loss_sum += loss
                scale = 1.0 / rows
                opt.step([g / field_size * scale for g in grad.parameters()])
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
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"need two sets of rows of one length, got shapes {x.shape} and {y.shape}"
        )
    xy = _mean_distance(x, y)
    xx = _mean_distance(x, x)
    yy = _mean_distance(y, y)
    return float(2.0 * xy - xx - yy)


def _mean_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of x, row of y) pairs.

    The squares are summed one coordinate at a time, in coordinate
    order.  scipy's ``cdist`` sums in that order too, so this gives the
    bytes of ``cdist(x, y).mean()``; the tests require them in two
    dimensions.
    """
    sq = np.zeros((len(x), len(y)))
    for xk, yk in zip(x.T, y.T):
        sq += np.square(np.subtract.outer(xk, yk))
    return np.sqrt(sq).mean()


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
