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
  ``backward`` takes one field or a (B, *field) minibatch with one step
  per row, and returns the gradients summed over the rows in row order.

The analytic models keep no per-step memo: each call computes its
alpha_bar and noised domain afresh.  The only state they hold is the
texture model's one pair of FFT work arrays, bounded by the largest
batch it has scored; that model's calls must not overlap across threads.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import attention as attn
from .domains import GaussianMixture, gmm_score, noised_mixture_at
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


class _AnalyticEpsilon(EpsilonModel):
    """Per-step path of the analytic models.

    Every call builds the noised domain at its step (``_noised``); the
    prediction is exactly zero where alpha_bar = 1, else the subclass's
    ``_epsilon``.  Nothing is remembered between calls.
    """

    def _predict(self, x: np.ndarray, t: float) -> np.ndarray:
        t = _check_step(t, self.schedule.steps_T)
        ab = self.schedule.alpha_bar_at(t / self.schedule.steps_T)
        if ab < 1.0:
            return self._epsilon(x, ab, self._noised(ab))
        return np.zeros_like(x)


@dataclass(frozen=True)
class AnalyticGmmEpsilon(_AnalyticEpsilon):
    """Exact optimal noise prediction for a Gaussian-mixture domain.

    Accepts a single point of shape (d,) or a batch (..., d); batch rows
    are scored independently.
    """

    mixture: GaussianMixture
    schedule: NoiseSchedule

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        return self._predict(np.asarray(x, dtype=np.float64), t)

    def _noised(self, ab: float):
        return noised_mixture_at(self.mixture, ab)

    def _epsilon(self, x, ab, noised):
        return -np.sqrt(1.0 - ab) * gmm_score(noised, x)


@dataclass(frozen=True)
class AnalyticFieldEpsilon(_AnalyticEpsilon):
    """Exact optimal noise prediction for a stationary Gaussian texture.

    ``mode_variances`` are the covariance eigenvalues on the fft2 grid
    (unitary convention), as produced by domains.SpectralTexture.
    Accepts one (H, W) field or a batch (..., H, W).  The transforms run
    in one pair of flat complex work arrays, grown to the largest input
    seen and viewed as each call's shape, so a call allocates only the
    array it returns; calls must not overlap across threads.
    """

    mode_variances: np.ndarray
    schedule: NoiseSchedule

    def __post_init__(self):
        object.__setattr__(self, "_work", (np.empty(0, complex), np.empty(0, complex)))

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-2:] != self.mode_variances.shape:
            raise ValueError(
                f"field shape {x.shape} != domain shape {self.mode_variances.shape}"
            )
        return self._predict(x, t)

    def _noised(self, ab: float) -> np.ndarray:
        return ab * self.mode_variances + (1.0 - ab)

    def _epsilon(self, x, ab, noised_var):
        if self._work[0].size < x.size:
            object.__setattr__(self, "_work", (np.empty(x.size, complex), np.empty(x.size, complex)))
        spectrum, partial = (w[: x.size].reshape(x.shape) for w in self._work)
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


def time_embedding(tau, dim: int) -> np.ndarray:
    """Sinusoidal embedding of normalized time tau in [0, 1].

    A scalar tau gives shape (dim,); an array of taus gives one embedding
    per entry, shape (*tau.shape, dim), each equal to the scalar call's.
    """
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = 10000.0**exponents
    if isinstance(tau, np.ndarray):
        tau = tau[..., None]
    angles = tau * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _sigmoid(a):
    # exp(-a) overflows to inf for a < -709, and 1 / (1 + inf) is the
    # correct limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _silu(a):
    return a * _sigmoid(a)


def _silu_grad(a):
    s = _sigmoid(a)
    return s * (1.0 + a * (1.0 - s))


_ACTIVATIONS = {
    "silu": (_silu, _silu_grad),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2),
}


@dataclass
class MlpGradients:
    """Gradients of the squared-error loss for every trainable array.

    For a minibatch each gradient is the sum over its rows, in row order.
    ``prediction`` is the model output the gradients were taken at, one
    field or (B, *field); it is not a parameter gradient.
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
    (..., *field_shape); ``backward`` takes one field or a (B, *field_shape)
    minibatch.  Both take one step for every field, or an array of steps
    shaped like the leading axes.
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
        if not all(w >= 1 for w in self.widths):
            raise ValueError(f"widths must be integers >= 1, got {tuple(self.widths)}")
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

    def _forward(self, x: np.ndarray, t):
        """Prediction for x of shape (..., *field_shape), plus the internals ``backward`` needs.

        ``t`` is one step for every field, or an array of steps shaped like
        the leading axes.  Each field is one (1, k) row of a stack, so every
        dense layer is the same per-row BLAS call a single field makes: a
        batch's rows are bit-identical to one call per field at its step.
        """
        lead = x.shape[: max(x.ndim - len(self.field_shape), 0)]
        if x.shape[len(lead):] != tuple(self.field_shape):
            raise ValueError(f"field shape {x.shape} != model shape (..., {self.field_shape})")
        t = self._check_steps(t, lead)
        act, _ = _ACTIVATIONS[self.activation]

        tokens = None
        if self.attention is not None:
            tokens = x.reshape(*lead, self.attention.token_count, self.attention.model_dim)
            x = attn.attention_forward(self.attention, tokens)
        # C order: concatenate keeps a strided input's layout, and matmul's bytes depend on it.
        rows = np.ascontiguousarray(x).reshape(*lead, 1, -1)
        embed = time_embedding(t / self.steps_total, self.time_dim)
        if embed.ndim > 1:  # one embedding per leading row
            embed = embed[..., None, :]
        z = np.concatenate([rows, np.broadcast_to(embed, (*lead, 1, self.time_dim))], axis=-1)
        pre, post = [], [z]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = post[-1] @ w + b
            pre.append(a)
            post.append(act(a) if i < last else a)
        out = post[-1].reshape(*lead, *self.field_shape)
        return out, (tokens, pre, post)

    def _check_steps(self, t, lead: tuple[int, ...]):
        """t as one checked float, or as a float64 array of one step per leading row."""
        if not isinstance(t, np.ndarray) or t.ndim == 0:
            return _check_step(t, self.steps_total)
        t = np.asarray(t, dtype=np.float64)
        if t.shape != lead:
            raise ValueError(f"steps of shape {t.shape} for fields of leading shape {lead}")
        if not np.all((t >= 0.0) & (t <= self.steps_total)):
            raise ValueError(f"a step outside [0, {self.steps_total}]")
        return t

    # -- training ----------------------------------------------------------

    def backward(self, x: np.ndarray, t, target_eps: np.ndarray) -> MlpGradients:
        """Reverse-mode gradients of the squared error ||target_eps - predict(x, t)||^2.

        x is one field with a scalar step, or a (B, *field_shape) minibatch
        with a scalar step or B steps; the loss is then summed over rows.
        Every gradient is the sum of the rows' one-field gradients taken in
        row order, with the same bytes (up to the sign of an exact zero):
        dense weights by a row-ordered einsum, biases by a row-ordered
        reduce, and each row's delta pulled back by its own matrix-vector
        product.  The prediction the gradients were taken at, shaped like
        x, rides along on the result.
        """
        x = np.asarray(x, dtype=np.float64)
        target_eps = np.asarray(target_eps, dtype=np.float64)
        if target_eps.shape != x.shape:
            raise ValueError("target shape must match input shape")
        one = x.shape == tuple(self.field_shape)
        if one:
            if np.ndim(t) != 0:
                raise ValueError("one field takes one step")
            x, target_eps = x[None], target_eps[None]
        elif x.shape[1:] != tuple(self.field_shape):
            raise ValueError(
                f"field shape {x.shape} != model shape {self.field_shape} or (B, *{self.field_shape})"
            )
        out, (tokens, pre, post) = self._forward(x, t)
        _, act_grad = _ACTIVATIONS[self.activation]

        rows = x.shape[0]
        delta = 2.0 * (out - target_eps).reshape(rows, -1)
        d_weights = [None] * len(self.weights)
        d_biases = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                delta = delta * act_grad(pre[i][:, 0])
            d_weights[i] = np.einsum("bi,bj->ij", post[i][:, 0], delta, optimize=False)
            d_biases[i] = np.add.reduce(delta, axis=0)
            delta = (self.weights[i] @ delta[..., None])[..., 0]

        att_grads = None
        if self.attention is not None:
            field_size = int(np.prod(self.field_shape))
            d_att_out = delta[:, :field_size].reshape(
                rows, self.attention.token_count, self.attention.model_dim
            )
            _, per_row = attn.attention_backward(self.attention, tokens, d_att_out)
            att_grads = attn.AttentionGrads(
                *(np.add.reduce(g, axis=0) for g in per_row.parameters())
            )
        return MlpGradients(
            weights=d_weights, biases=d_biases, attention=att_grads,
            prediction=out[0] if one else out,
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
    """The model a checkpoint file holds.

    Anything malformed -- magic, version, header JSON, a missing entry or
    one of the wrong type, a truncated payload, trailing bytes, or
    arrays that do not fit the header's geometry -- raises a one-line
    ValueError that names what is wrong.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a denoiser checkpoint (bad magic)")
    if len(blob) < 12:
        raise ValueError("truncated checkpoint header")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"checkpoint header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    return _from_header(header, blob, 12 + header_len)


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


# What a header entry may hold, keyed by the words an error quotes.
_ENTRY_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer >= 1": lambda v: _is_int(v, 1),
    "a list of integers >= 0": lambda v: isinstance(v, list) and all(_is_int(i, 0) for i in v),
    "a list of integers >= 1": lambda v: isinstance(v, list) and all(_is_int(i, 1) for i in v),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(i, dict) for i in v),
    "an object or null": lambda v: v is None or isinstance(v, dict),
}


def _entry(obj: dict, key: str, kind: str, where: str = "checkpoint header"):
    """obj[key], or a ValueError naming the entry when it is missing or not of ``kind``."""
    if key not in obj:
        raise ValueError(f"{where} has no entry {key!r}")
    if not _ENTRY_KINDS[kind](obj[key]):
        raise ValueError(f"{where} entry {key!r} must be {kind}, got {reprlib.repr(obj[key])}")
    return obj[key]


def _from_header(header: dict, blob: bytes, offset: int) -> MlpDenoiser:
    payload = {}
    for i, meta in enumerate(_entry(header, "arrays", "a list of objects")):
        name = _entry(meta, "name", "a string", f"checkpoint array {i}")
        shape = _entry(meta, "shape", "a list of integers >= 0", f"checkpoint array {i}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise ValueError(f"truncated payload for array {name}")
        payload[name] = np.frombuffer(blob, np.float64, count, offset).reshape(shape).copy()
        offset += 8 * count
    if offset < len(blob):
        raise ValueError("checkpoint has bytes after its last payload")

    def array(name):
        if name not in payload:
            raise ValueError(f"checkpoint has no array {name!r}")
        return payload[name]

    att_cfg = None
    am = _entry(header, "attention", "an object or null")
    if am is not None:
        where = "checkpoint attention"
        att_cfg = attn.AttentionConfig(
            **{
                key: _entry(am, key, "an integer >= 1", where)
                for key in ("token_count", "model_dim", "heads", "windows")
            },
            priority=attn.Priority(_entry(am, "priority", "a string", where)),
            w_query=array("att_wq"),
            w_key=array("att_wk"),
            w_value=array("att_wv"),
            w_output=array("att_wo"),
        )
    widths = _entry(header, "widths", "a list of integers >= 1")
    n_layers = len(widths) + 1
    return MlpDenoiser(
        field_shape=tuple(_entry(header, "field_shape", "a list of integers >= 1")),
        widths=tuple(widths),
        steps_total=_entry(header, "steps_total", "an integer >= 1"),
        time_dim=_entry(header, "time_dim", "an integer >= 1"),
        activation=_entry(header, "activation", "a string"),
        weights=[array(f"w{i}") for i in range(n_layers)],
        biases=[array(f"b{i}") for i in range(n_layers)],
        attention=att_cfg,
    )
