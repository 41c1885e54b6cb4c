"""Noise-prediction models.

All models implement ``predict_epsilon(x, t) -> eps`` where ``eps`` has
x's shape and t is a diffusion step in [0, T] (fractional steps are
accepted so the continuous-time integrator can query between knots; at
t = 0 the optimal prediction is exactly zero).  Prediction is pure:
identical arguments give identical outputs, and models are safe to
share read-only across workers.  Every model broadcasts over leading
axes: a batch (..., *sample_shape) is scored in one call, and each of
its samples gets the bytes a call on that sample alone would give.

Three implementations:

* AnalyticGmmEpsilon -- Bayes-optimal prediction for a Gaussian-mixture
  domain, eps = -sqrt(1 - alpha_bar_t) * grad log q_t(x), with q_t the
  exactly-noised mixture and the gradient in closed form.
* AnalyticFieldEpsilon -- the same for a stationary Gaussian texture
  domain, computed per frequency mode where the covariance is diagonal.
* MlpDenoiser -- a small dense network with sinusoidal time conditioning
  and an optional self-attention block over patch tokens, trained by the
  manual reverse-mode gradients in ``backward`` (no autodiff framework).
"""

from __future__ import annotations

import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import attention as attn
from .domains import GaussianMixture, _noised_mixture_ab, gmm_score
from .schedule import NoiseSchedule

CHECKPOINT_MAGIC = b"DBCK"
CHECKPOINT_VERSION = 1


class EpsilonModel(ABC):
    """Behavioral contract for noise predictors."""

    @abstractmethod
    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        """Predicted noise for state x at step t; same shape as x.

        x is one sample or a batch (..., *sample_shape); batch samples are
        scored independently and bit-identically to one call each.
        """


def _check_step(t: float, steps_T: int) -> float:
    t = float(t)
    if not np.isfinite(t) or not 0.0 <= t <= steps_T:
        raise ValueError(f"step {t} outside [0, {steps_T}]")
    return t


@dataclass(frozen=True)
class AnalyticGmmEpsilon(EpsilonModel):
    """Exact optimal noise prediction for a Gaussian-mixture domain.

    Accepts a single point of shape (d,) or a batch (..., d); batch rows
    are scored independently.
    """

    mixture: GaussianMixture
    schedule: NoiseSchedule

    def __post_init__(self):
        # Noised-mixture parameters per step, filled on first use.  Entries
        # are immutable, so concurrent readers are safe.
        object.__setattr__(self, "_by_step", {})

    def _noised_at(self, t: float):
        entry = self._by_step.get(t)
        if entry is None:
            ab = self.schedule.alpha_bar_at(t / self.schedule.steps_T)
            noised = _noised_mixture_ab(self.mixture, ab) if ab < 1.0 else None
            entry = (ab, noised)
            self._by_step[t] = entry
        return entry

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        t = _check_step(t, self.schedule.steps_T)
        ab, noised = self._noised_at(t)
        if noised is None:
            return np.zeros_like(x)
        return -np.sqrt(1.0 - ab) * gmm_score(noised, x)


@dataclass(frozen=True)
class AnalyticFieldEpsilon(EpsilonModel):
    """Exact optimal noise prediction for a stationary Gaussian texture.

    ``mode_variances`` are the covariance eigenvalues on the fft2 grid
    (unitary convention), as produced by domains.SpectralTexture.
    Accepts one (H, W) field or a batch (..., H, W).  The transforms run
    in two complex work arrays kept per input shape, so a call allocates
    only the array it returns; calls must not overlap across threads.
    """

    mode_variances: np.ndarray
    schedule: NoiseSchedule

    def __post_init__(self):
        object.__setattr__(self, "_by_step", {})
        object.__setattr__(self, "_work", {})

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-2:] != self.mode_variances.shape:
            raise ValueError(
                f"field shape {x.shape} != domain shape {self.mode_variances.shape}"
            )
        t = _check_step(t, self.schedule.steps_T)
        entry = self._by_step.get(t)
        if entry is None:
            ab = self.schedule.alpha_bar_at(t / self.schedule.steps_T)
            noised_var = ab * self.mode_variances + (1.0 - ab) if ab < 1.0 else None
            entry = (ab, noised_var)
            self._by_step[t] = entry
        ab, noised_var = entry
        if noised_var is None:
            return np.zeros_like(x)
        work = self._work.get(x.shape)
        if work is None:
            work = self._work[x.shape] = (np.empty(x.shape, complex), np.empty(x.shape, complex))
        spectrum, partial = work
        # fft2 and ifft2 as their two one-axis passes (last axis first),
        # each into the other array: the same bytes as the library calls.
        spectrum[...] = x
        np.fft.fft(spectrum, axis=-1, norm="ortho", out=partial)
        np.fft.fft(partial, axis=-2, norm="ortho", out=spectrum)
        spectrum /= noised_var
        np.fft.ifft(spectrum, axis=-1, norm="ortho", out=partial)
        np.fft.ifft(partial, axis=-2, norm="ortho", out=spectrum)
        return np.sqrt(1.0 - ab) * spectrum.real


# ---------------------------------------------------------------------------
# Trainable MLP denoiser
# ---------------------------------------------------------------------------


def time_embedding(tau: float, dim: int) -> np.ndarray:
    """Sinusoidal embedding of normalized time tau in [0, 1]."""
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = 10000.0**exponents
    angles = tau * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


def _silu(a):
    return a * expit(a)


def _silu_grad(a):
    s = expit(a)
    return s * (1.0 + a * (1.0 - s))


_ACTIVATIONS = {
    "silu": (_silu, _silu_grad),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2),
}


@dataclass
class MlpGradients:
    """Gradients of the squared-error loss for every trainable array.

    ``prediction`` is the model output the gradients were taken at; it is
    not a parameter gradient.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    attention: attn.AttentionGrads | None = None
    prediction: np.ndarray | None = None

    def parameters(self) -> list[np.ndarray]:
        out = [*self.weights, *self.biases]
        if self.attention is not None:
            out.extend(self.attention.parameters())
        return out


@dataclass
class MlpDenoiser(EpsilonModel):
    """Dense noise predictor over a flattened field plus a time embedding.

    When ``attention`` is set, the field is first split into
    ``token_count`` patches of ``model_dim`` values and routed through
    the attention block, whose priority is fixed at construction (and
    therefore at training time).  Inference accepts one field or a batch
    (..., *field_shape); ``backward`` takes one field.
    """

    field_shape: tuple[int, ...]
    widths: tuple[int, ...]
    steps_total: int
    time_dim: int = 16
    activation: str = "silu"
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)
    attention: attn.AttentionConfig | None = None

    def __post_init__(self):
        if self.time_dim < 2 or self.time_dim % 2 != 0:
            raise ValueError("time_dim must be an even integer >= 2")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        size = int(np.prod(self.field_shape))
        if self.attention is not None:
            if self.attention.token_count * self.attention.model_dim != size:
                raise ValueError("attention token layout must tile the field exactly")
        dims = self.layer_dims()
        if self.weights:
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                    raise ValueError(f"layer {i} shapes do not chain")

    def layer_dims(self) -> list[int]:
        size = int(np.prod(self.field_shape))
        return [size + self.time_dim, *self.widths, size]

    def parameters(self) -> list[np.ndarray]:
        out = [*self.weights, *self.biases]
        if self.attention is not None:
            out.extend(self.attention.parameters())
        return out

    # -- inference ---------------------------------------------------------

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        out, _ = self._forward(np.asarray(x, dtype=np.float64), t)
        return out

    def _forward(self, x: np.ndarray, t: float):
        """Prediction for x of shape (..., *field_shape), plus the internals ``backward`` needs.

        Each field is one (1, k) row of a stack, so every dense layer is the
        same per-row BLAS call a single field makes: a batch's rows are
        bit-identical to one call per field.
        """
        lead = x.shape[: max(x.ndim - len(self.field_shape), 0)]
        if x.shape[len(lead):] != tuple(self.field_shape):
            raise ValueError(f"field shape {x.shape} != model shape (..., {self.field_shape})")
        t = _check_step(t, self.steps_total)
        act, _ = _ACTIVATIONS[self.activation]

        tokens = None
        if self.attention is not None:
            tokens = x.reshape(*lead, self.attention.token_count, self.attention.model_dim)
            x = attn.attention_forward(self.attention, tokens)
        rows = x.reshape(*lead, 1, -1)
        embed = time_embedding(t / self.steps_total, self.time_dim)
        z = np.concatenate([rows, np.broadcast_to(embed, (*lead, 1, self.time_dim))], axis=-1)
        pre, post = [], [z]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = post[-1] @ w + b
            pre.append(a)
            post.append(act(a) if i < last else a)
        out = post[-1].reshape(*lead, *self.field_shape)
        return out, (tokens, pre, post)

    # -- training ----------------------------------------------------------

    def backward(self, x: np.ndarray, t: float, target_eps: np.ndarray) -> MlpGradients:
        """Reverse-mode gradients of ||target_eps - predict(x, t)||^2 for one field.

        The prediction the gradients were taken at rides along on the result.
        """
        x = np.asarray(x, dtype=np.float64)
        target_eps = np.asarray(target_eps, dtype=np.float64)
        if target_eps.shape != x.shape:
            raise ValueError("target shape must match input shape")
        if x.shape != tuple(self.field_shape):
            raise ValueError(f"field shape {x.shape} != model shape {self.field_shape}")
        out, (tokens, pre, post) = self._forward(x, t)
        _, act_grad = _ACTIVATIONS[self.activation]

        delta = 2.0 * (out - target_eps).reshape(-1)
        d_weights = [None] * len(self.weights)
        d_biases = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                delta = delta * act_grad(pre[i][0])
            d_weights[i] = np.outer(post[i], delta)
            d_biases[i] = delta.copy()
            delta = self.weights[i] @ delta

        att_grads = None
        if self.attention is not None:
            field_size = int(np.prod(self.field_shape))
            d_att_out = delta[:field_size].reshape(
                self.attention.token_count, self.attention.model_dim
            )
            _, att_grads = attn.attention_backward(self.attention, tokens, d_att_out)
        return MlpGradients(
            weights=d_weights, biases=d_biases, attention=att_grads, prediction=out
        )


def init_mlp(
    field_shape,
    widths,
    steps_total: int,
    time_dim: int = 16,
    activation: str = "silu",
    attention: attn.AttentionConfig | None = None,
    seed: int = 0,
) -> MlpDenoiser:
    """MLP with Glorot-uniform weights, zero biases; fully seeded."""
    model = MlpDenoiser(
        field_shape=tuple(field_shape),
        widths=tuple(widths),
        steps_total=steps_total,
        time_dim=time_dim,
        activation=activation,
        attention=attention,
    )
    rng = np.random.default_rng(seed)
    dims = model.layer_dims()
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        model.weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        model.biases.append(np.zeros(fan_out))
    return model


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
#   bytes 0..3   magic "DBCK"
#   bytes 4..7   format version, little-endian uint32
#   bytes 8..11  header length H, little-endian uint32
#   bytes 12..   H bytes of UTF-8 JSON metadata
#   then         row-major float64 payloads, concatenated in the order
#                listed under the header's "arrays" key
#
# The header records field_shape, widths, time embedding size, activation,
# total steps, the optional attention geometry/priority, and the name and
# shape of every payload array.


def save_checkpoint(model: MlpDenoiser, path) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for i, w in enumerate(model.weights):
        arrays.append((f"w{i}", w))
    for i, b in enumerate(model.biases):
        arrays.append((f"b{i}", b))
    att_meta = None
    if model.attention is not None:
        a = model.attention
        att_meta = {
            "token_count": a.token_count,
            "model_dim": a.model_dim,
            "heads": a.heads,
            "windows": a.windows,
            "priority": a.priority.value,
        }
        arrays += [
            ("att_wq", a.w_query),
            ("att_wk", a.w_key),
            ("att_wv", a.w_value),
            ("att_wo", a.w_output),
        ]
    header = {
        "kind": "mlp_denoiser",
        "field_shape": list(model.field_shape),
        "widths": list(model.widths),
        "steps_total": model.steps_total,
        "time_dim": model.time_dim,
        "activation": model.activation,
        "attention": att_meta,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def load_checkpoint(path) -> MlpDenoiser:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a denoiser checkpoint (bad magic)")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise ValueError("truncated checkpoint header")
        version, header_len = struct.unpack("<II", fixed)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        payload = {}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(count * 8), dtype=np.float64)
            if data.size != count:
                raise ValueError(f"truncated payload for array {meta['name']}")
            payload[meta["name"]] = data.reshape(shape).copy()

    att_cfg = None
    if header["attention"] is not None:
        am = header["attention"]
        att_cfg = attn.AttentionConfig(
            token_count=am["token_count"],
            model_dim=am["model_dim"],
            heads=am["heads"],
            windows=am["windows"],
            priority=attn.Priority(am["priority"]),
            w_query=payload["att_wq"],
            w_key=payload["att_wk"],
            w_value=payload["att_wv"],
            w_output=payload["att_wo"],
        )
    n_layers = len(header["widths"]) + 1
    return MlpDenoiser(
        field_shape=tuple(header["field_shape"]),
        widths=tuple(header["widths"]),
        steps_total=header["steps_total"],
        time_dim=header["time_dim"],
        activation=header["activation"],
        weights=[payload[f"w{i}"] for i in range(n_layers)],
        biases=[payload[f"b{i}"] for i in range(n_layers)],
        attention=att_cfg,
    )
