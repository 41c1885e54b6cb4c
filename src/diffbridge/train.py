"""Desk-scale training of MLP denoisers on the noise-prediction objective.

Each example pairs a clean sample with a uniformly drawn step t and a
fresh Gaussian noise draw; the loss is the mean squared error between
that noise and the model's prediction at the noised state, and Adam
steps the SiLU network after every minibatch: one recipe.  Gradients
are exactly the model's manual reverse-mode gradients, and each
example's loss is read off the same forward pass; training is
single-threaded and bit-reproducible under a fixed seed.

A minibatch is one batched forward and backward pass: its examples'
steps are one ``rng.integers`` draw from the one generator, and their
noise and noised states one ``diffusion.forward_noise`` call on it.
The model sums their gradients over blocks of 16 examples, in example
order within a block and then block by block (``MlpDenoiser.backward``);
that agrees with a per-example sum to rounding.  The sum is divided by
the field size once, which equals dividing each block's gradient when
the field size is a power of two (2 for the point domains, n^2 for
power-of-two textures); other field sizes can differ from per-block
division in the last bit.

A TrainConfig (``config``'s JSON ``train`` section, re-exported here)
says how to train; the schedule, the seed and the attention priority
are arguments, so one section trains both of the CLI's models.
"""

from __future__ import annotations

import numpy as np

from . import attention as attn
from .bridge import BridgeConfig, flow_ode
from .config import TrainConfig
from .denoiser import MlpDenoiser, init_mlp
from .diffusion import forward_noise
from .domains import GaussianMixture, gmm_sample
from .schedule import NoiseSchedule


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message names the offending epoch."""


class _Adam:
    """First/second-moment adaptive updates, decay 0.9/0.999, eps 1e-8.

    ``step`` evaluates the textbook update's operations in their order
    and updates the parameters and moments in place.
    """

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


def _seed_words(seed: int) -> tuple[int, int, int]:
    """The seed's words: dense weights, the training loop's draws, attention weights."""
    init_seed, loop_seed, att_seed = np.random.SeedSequence(seed).generate_state(3)
    return int(init_seed), int(loop_seed), int(att_seed)


def init_model(
    field_shape,
    cfg: TrainConfig,
    schedule: NoiseSchedule,
    seed: int = 0,
    priority: attn.Priority = attn.Priority.GLOBAL_FIRST,
) -> MlpDenoiser:
    """The untrained model ``train_denoiser`` starts from.

    Its attention block, if cfg has one, takes ``priority``.  A geometry
    that cannot be built (an attention layout that does not tile the
    field, ...) raises ValueError.
    """
    field_size = int(np.prod(field_shape))
    init_seed, _, att_seed = _seed_words(seed)
    att_cfg = None
    if cfg.attention is not None:
        token_count = cfg.attention["token_count"]
        if token_count < 1 or field_size % token_count != 0:
            raise ValueError(f"token_count {token_count} must divide the field size {field_size}")
        att_cfg = attn.init_attention(
            token_count=token_count,
            model_dim=field_size // token_count,
            heads=cfg.attention.get("heads", 1),
            windows=cfg.attention.get("windows", 1),
            priority=priority,
            seed=att_seed,
        )
    return init_mlp(
        field_shape,
        cfg.hidden,
        steps_total=schedule.steps_T,
        time_dim=cfg.time_dim,
        attention=att_cfg,
        seed=init_seed,
    )


def train_denoiser(
    data: np.ndarray,
    cfg: TrainConfig,
    schedule: NoiseSchedule,
    seed: int = 0,
    priority: attn.Priority = attn.Priority.GLOBAL_FIRST,
) -> tuple[MlpDenoiser, list[float]]:
    """Train a denoiser on the samples in ``data`` (shape (N, *field)).

    ``seed`` seeds the initial weights and the training draws, and
    ``priority`` is the attention block's (see ``init_model``).

    Returns the trained model and the per-epoch mean loss history.
    Raises TrainingDivergedError if the loss goes non-finite.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 2 or data.shape[0] == 0:
        raise ValueError("data must be a nonempty (N, *field_shape) array")
    field_shape = data.shape[1:]
    field_size = int(np.prod(field_shape))
    model = init_model(field_shape, cfg, schedule, seed, priority)

    _, loop_seed, _ = _seed_words(seed)
    rng = np.random.default_rng(loop_seed)
    opt = _Adam(model.parameters(), cfg.learning_rate)
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
                ts = rng.integers(1, schedule.steps_T + 1, size=rows)
                x_t, eps = forward_noise(data[batch], ts, schedule, rng)
                grad = model.backward(x_t, ts, eps)
                row_losses = np.mean(((eps - grad.prediction) ** 2).reshape(rows, -1), axis=1)
                # Added one at a time, in row order: the built-in sum
                # compensates its rounding from Python 3.12 on.
                loss_sum = 0.0
                for loss in row_losses.tolist():
                    loss_sum += loss
                scale = 1.0 / rows
                opt.step([g / field_size * scale for g in grad.parameters])
                epoch_losses.append(loss_sum * scale)
            epoch_loss = float(np.mean(epoch_losses))
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"loss diverged at epoch {epoch}")
            history.append(epoch_loss)
    return model, history


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Multivariate energy distance between two nonempty sample sets (rows)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"need two sets of rows of one length, got shapes {x.shape} and {y.shape}"
        )
    if len(x) == 0 or len(y) == 0:
        raise ValueError(f"need two nonempty sets of rows, got shapes {x.shape} and {y.shape}")
    xy = _mean_distance(x, y)
    xx = _mean_distance(x, x)
    yy = _mean_distance(y, y)
    return float(2.0 * xy - xx - yy)


def _mean_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of x, row of y) pairs.

    The squares are summed one coordinate at a time, in coordinate
    order.  scipy's ``cdist`` sums in that order too, so this gives the
    bytes of ``cdist(x, y).mean()``; the tests require them in two
    dimensions.  It works in two (len(x), len(y)) buffers.
    """
    sq = np.zeros((len(x), len(y)))
    diff = np.empty_like(sq)
    for xk, yk in zip(x.T, y.T):
        np.subtract.outer(xk, yk, out=diff)
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq).mean()


def evaluate_fit(
    model,
    mix: GaussianMixture,
    n: int,
    schedule: NoiseSchedule,
    seed: int = 0,
) -> float:
    """Energy distance between n model samples and n mixture draws.

    The samples are n standard normal latents walked from depth 1 to 0 by
    the bridge's deterministic DDIM flow (``bridge.flow_ode``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    latents = np.random.default_rng(seed).standard_normal((n, mix.dimension))
    samples = flow_ode(latents, model, 1.0, 0.0, BridgeConfig(schedule=schedule))
    reference = gmm_sample(mix, n, seed=seed + 1)
    return energy_distance(samples, reference)
