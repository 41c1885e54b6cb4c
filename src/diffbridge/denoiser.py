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
  Its trainable arrays have one name list (``named_parameters``), in the
  checkpoint's payload order: the gradients, the optimiser and the
  checkpoint reader and writer all follow it.

The analytic models hold two kinds of state, both bounded.  The mixture
model tabulates, once per model, each integer step's alpha_bar,
-sqrt(1 - alpha_bar), sqrt(alpha_bar) and noised variances and
log-normaliser: read-only arrays of T+1 rows of 3 + 2K floats for K
components, whatever the dimension.  A call hands its step's row to
``domains.gmm_score``, which scales the means and scores the noised
mixture without building it.  The texture model transforms a real field
with a real-input FFT pair and keeps one pair of half-spectrum work
arrays, bounded by the largest batch it has scored; its calls must not
overlap across threads.  Its column pass runs on a transposed copy, so
every transform reads a contiguous last axis, and its gain is a multiply
by the reciprocal numpy's complex division uses: the bytes of the
strided, dividing formula, up to the sign of an exact zero.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from abc import ABC, abstractmethod
from dataclasses import KW_ONLY, dataclass
from typing import NamedTuple

import numpy as np

from . import attention as attn
from .domains import (
    GaussianMixture,
    checked_mode_variances,
    gmm_points,
    gmm_score,
    noised_constants,
)
from .schedule import NoiseSchedule

CHECKPOINT_MAGIC = b"DBCK"
CHECKPOINT_VERSION = 1


class EpsilonModel(ABC):
    """Behavioral contract for noise predictors."""

    @abstractmethod
    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        """Predicted noise for state x at step t; same shape as x.

        x is one sample or a batch (..., *sample_shape); batch samples are
        scored independently and bit-identically to one call each.  The
        sign of a NaN is outside that promise: a sample holding NaNs of
        both signs gets its NaNs where one call puts them, but which NaN
        depends on its position in the batch (numpy's loops).
        """


def _check_step(t: float, steps_T: int) -> float:
    t = float(t)
    if not 0.0 <= t <= steps_T:  # False for NaN too
        raise ValueError(f"step {t} outside [0, {steps_T}]")
    return t


@dataclass(frozen=True)
class AnalyticGmmEpsilon(EpsilonModel):
    """Exact optimal noise prediction for a Gaussian-mixture domain.

    Accepts a single point of shape (d,) or a batch (..., d); batch rows
    are scored independently.  Construction tabulates every integer
    step's constants in one vectorised pass (``_step_constants``), so a
    call at an integer step reads its row; a fractional step builds its
    one row with the same function.  Where alpha_bar is 1 the epsilon is
    0, and the point's dimension is still checked.
    """

    mixture: GaussianMixture
    schedule: NoiseSchedule

    def __post_init__(self):
        steps = np.arange(self.schedule.steps_T + 1)
        object.__setattr__(self, "_table", self._step_constants(steps))

    def _step_constants(self, steps) -> tuple[np.ndarray, ...]:
        """alpha_bar, -sqrt(1 - alpha_bar) and ``noised_constants`` at a step or steps.

        Read-only; for n steps, n rows of 3 + 2K floats, K the component
        count: about 72 KB for three components and T = 1000.
        """
        ab = np.asarray(self.schedule.alpha_bar_at(steps / self.schedule.steps_T))
        gain = -np.sqrt(1.0 - ab)
        for arr in (ab, gain):
            arr.setflags(write=False)
        return (ab, gain, *noised_constants(self.mixture, ab))

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        t = _check_step(t, self.schedule.steps_T)
        if t.is_integer():
            i = int(t)
            ab, gain, scale, variances, log_norm = self._table
            ab, gain, noised = ab[i], gain[i], (scale[i], variances[i], log_norm[i])
        else:
            ab, gain, *noised = self._step_constants(t)
        if ab < 1.0:
            eps = gmm_score(self.mixture, x, noised)
            eps *= gain
            return eps
        return np.zeros_like(gmm_points(self.mixture, x))


@dataclass(frozen=True)
class AnalyticFieldEpsilon(EpsilonModel):
    """Exact optimal noise prediction for a stationary Gaussian texture.

    ``mode_variances`` are the covariance eigenvalues on the fft2 grid
    (unitary convention), as produced by domains.SpectralTexture: a
    finite, positive (H, W) array, even under frequency negation
    (``v[i, j] == v[-i, -j]`` to a relative 1e-6), since a real field's
    transform reads only the half plane ``[:, :W//2+1]``.  The model
    keeps the read-only array ``domains.checked_mode_variances`` returns,
    so later writes to the caller's array change nothing.  Accepts one
    (H, W) field or a batch (..., H, W).  Each call computes its
    alpha_bar and noised variances afresh.  The transforms run in one
    pair of flat complex work arrays holding the half spectrum
    (H x (W//2+1) values a field), grown to the largest input seen and
    viewed as each call's shape, so a call allocates only the array it
    returns; calls must not overlap across threads.

    Every transform runs along a contiguous last axis: the column pass
    works on a transposed copy of the half spectrum, which gives the
    strided ``axis=-2`` pass's bytes at less cost, copy included.  The gain
    is a multiply by ``1.0 / divisor``, the reciprocal numpy's complex
    division (Smith's algorithm) multiplies by, so every value has the
    bytes of ``spectrum / divisor`` except that an exact zero may carry
    the other sign: an all-(-0.0) field gives a zero whose sign differs
    from the division's.
    """

    mode_variances: np.ndarray
    schedule: NoiseSchedule

    def __post_init__(self):
        lam = checked_mode_variances(self.mode_variances)
        object.__setattr__(self, "mode_variances", lam)
        # The half-plane variances in the column pass's (W//2+1, H) layout.
        object.__setattr__(self, "_half_T", np.ascontiguousarray(lam[:, : lam.shape[1] // 2 + 1].T))
        object.__setattr__(self, "_work", (np.empty(0, complex), np.empty(0, complex)))

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-2:] != self.mode_variances.shape:
            raise ValueError(
                f"field shape {x.shape} != domain shape {self.mode_variances.shape}"
            )
        t = _check_step(t, self.schedule.steps_T)
        ab = self.schedule.alpha_bar_at(t / self.schedule.steps_T)
        if ab >= 1.0:
            return np.zeros_like(x)
        half_w, height = self._half_T.shape
        lead = x.shape[:-2]
        size = math.prod(lead) * height * half_w
        if self._work[0].size < size:
            object.__setattr__(self, "_work", (np.empty(size, complex), np.empty(size, complex)))
        rows = self._work[0][:size].reshape(*lead, height, half_w)
        columns = self._work[1][:size].reshape(*lead, half_w, height)
        # rfft2 and irfft2 as their one-axis passes, the column pass on a
        # transposed copy; sqrt(1 - ab) rides on the divisor, not on the output.
        np.fft.rfft(x, axis=-1, norm="ortho", out=rows)
        np.copyto(columns, rows.swapaxes(-1, -2))
        np.fft.fft(columns, axis=-1, norm="ortho", out=columns)
        columns *= 1.0 / ((ab * self._half_T + (1.0 - ab)) / math.sqrt(1.0 - ab))
        np.fft.ifft(columns, axis=-1, norm="ortho", out=columns)
        np.copyto(rows, columns.swapaxes(-1, -2))
        return np.fft.irfft(rows, n=self.mode_variances.shape[1], axis=-1, norm="ortho")


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


def _layer_dims(field_shape, widths, time_dim: int) -> list[int]:
    """Dense layer sizes, from field plus time embedding to field, once the geometry is checked."""
    # A shape () would score each coordinate of a batch as its own field.
    if not field_shape:
        raise ValueError("field_shape must have at least one axis, got ()")
    if time_dim < 2 or time_dim % 2 != 0:
        raise ValueError("time_dim must be an even integer >= 2")
    if not all(w >= 1 for w in widths):
        raise ValueError(f"widths must be integers >= 1, got {tuple(widths)}")
    size = int(np.prod(field_shape))
    return [size + time_dim, *widths, size]


def _parameter_names(layers: int, attention: bool) -> list[str]:
    """The checkpoint names of a model's trainable arrays, in payload order.

    ``w0..wN`` and ``b0..bN`` for ``layers`` dense layers, then the
    attention block's four weights when it has one.
    """
    names = [f"w{i}" for i in range(layers)] + [f"b{i}" for i in range(layers)]
    if attention:
        names += ["att_wq", "att_wk", "att_wv", "att_wo"]
    return names


class MlpGradients(NamedTuple):
    """Gradients of the squared-error loss, one per ``MlpDenoiser.parameters()`` array.

    For a minibatch each gradient is the sum over its rows, in row order.
    ``prediction`` is the model output the gradients were taken at, one
    field or (B, *field).
    """

    parameters: list[np.ndarray]
    prediction: np.ndarray


@dataclass
class MlpDenoiser(EpsilonModel):
    """Dense noise predictor over a flattened field plus a time embedding.

    When ``attention`` is set, the field is first split into
    ``token_count`` patches of ``model_dim`` values and routed through
    the attention block, whose priority is fixed at construction (and
    therefore at training time).  Inference accepts one field or a batch
    (..., *field_shape); ``backward`` takes one field or a (B, *field_shape)
    minibatch.  Both take one step for every field, or an array of steps
    shaped like the leading axes.  The dense layers' ``weights`` and
    ``biases`` are given at construction, one of each per layer.
    """

    field_shape: tuple[int, ...]
    widths: tuple[int, ...]
    steps_total: int
    time_dim: int = 16
    activation: str = "silu"
    _: KW_ONLY
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    attention: attn.AttentionConfig | None = None

    def __post_init__(self):
        dims = _layer_dims(self.field_shape, self.widths, self.time_dim)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.attention is not None:
            if self.attention.token_count * self.attention.model_dim != dims[-1]:
                raise ValueError("attention token layout must tile the field exactly")
        if not len(self.weights) == len(self.biases) == len(dims) - 1:
            raise ValueError(
                f"{len(self.weights)} weight and {len(self.biases)} bias arrays"
                f" for {len(dims) - 1} layers"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} shapes do not chain")

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Each trainable array with its checkpoint name, in payload order."""
        names = _parameter_names(len(self.weights), self.attention is not None)
        return list(zip(names, self.parameters(), strict=True))

    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays, in ``named_parameters`` order."""
        out = [*self.weights, *self.biases]
        if self.attention is not None:
            out.extend(self.attention.parameters())
        return out

    # -- inference ---------------------------------------------------------

    def predict_epsilon(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        lead = x.shape[: max(x.ndim - len(self.field_shape), 0)]
        if x.shape[len(lead):] != tuple(self.field_shape):
            raise ValueError(f"field shape {x.shape} != model shape (..., {self.field_shape})")
        t = self._check_steps(t, lead)
        if self.attention is not None:
            x = attn.attention_forward(self.attention, self._tokens(x, lead))
        out, _, _ = self._dense(x, t, lead)
        return out

    def _tokens(self, x: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
        return x.reshape(*lead, self.attention.token_count, self.attention.model_dim)

    def _dense(self, x: np.ndarray, t, lead: tuple[int, ...]):
        """The dense layers' prediction for x (..., *field), and their pre- and post-activations.

        ``x`` is the field, or the attention block's output; ``t`` is one
        checked step for every field, or an array of steps shaped like the
        leading axes.  Each field is one (1, k) row of a stack, so every
        dense layer is the same per-row BLAS call a single field makes: a
        batch's rows are bit-identical to one call per field at its step.
        """
        act, _ = _ACTIVATIONS[self.activation]
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
        return post[-1].reshape(*lead, *self.field_shape), pre, post

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
        product, through the first layer only when an attention block
        reads the result.  The attention block runs forward once, and its
        backward reads the arrays that forward saved.  The gradients come
        as ``MlpGradients.parameters``, one per ``parameters()`` array in
        its order, with the prediction they were taken at, shaped like x.
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
        rows = x.shape[0]
        t = self._check_steps(t, (rows,))
        h, saved = x, None
        if self.attention is not None:
            h, saved = attn.attention_forward_saved(self.attention, self._tokens(x, (rows,)))
        out, pre, post = self._dense(h, t, (rows,))
        _, act_grad = _ACTIVATIONS[self.activation]

        delta = 2.0 * (out - target_eps).reshape(rows, -1)
        d_weights = [None] * len(self.weights)
        d_biases = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                delta = delta * act_grad(pre[i][:, 0])
            d_weights[i] = np.einsum("bi,bj->ij", post[i][:, 0], delta, optimize=False)
            d_biases[i] = np.add.reduce(delta, axis=0)
            if i or self.attention is not None:  # only attention reads the input's delta
                delta = (self.weights[i] @ delta[..., None])[..., 0]

        grads = [*d_weights, *d_biases]
        if self.attention is not None:
            field_size = int(np.prod(self.field_shape))
            d_att_out = self._tokens(delta[:, :field_size], (rows,))
            per_row = attn.attention_backward(self.attention, saved, d_att_out)
            grads += [np.add.reduce(g, axis=0) for g in per_row]
        return MlpGradients(grads, out[0] if one else out)


def init_mlp(
    field_shape,
    widths,
    steps_total: int,
    time_dim: int = 16,
    activation: str = "silu",
    attention: attn.AttentionConfig | None = None,
    seed: int = 0,
) -> MlpDenoiser:
    """MLP with Glorot-uniform weights, zero biases; fully seeded.

    The weights are drawn layer by layer from ``seed`` once the geometry
    is checked, and the model is built with all of them.
    """
    field_shape, widths = tuple(field_shape), tuple(widths)
    dims = _layer_dims(field_shape, widths, time_dim)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpDenoiser(field_shape, widths, steps_total, time_dim, activation,
                       weights=weights, biases=biases, attention=attention)


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
# shape of every payload array.  The arrays are the model's
# ``named_parameters()``: w0..wN, b0..bN, then att_wq, att_wk, att_wv and
# att_wo when the model has attention.  The loader accepts exactly that
# name list, in that order.


def save_checkpoint(model: MlpDenoiser, path) -> None:
    arrays = model.named_parameters()
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
    one of the wrong type, a truncated payload, trailing bytes, array
    names other than the model's in payload order, or arrays that do not
    fit the header's geometry -- raises a one-line ValueError that names
    what is wrong.
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
    payload = []
    for i, meta in enumerate(_entry(header, "arrays", "a list of objects")):
        name = _entry(meta, "name", "a string", f"checkpoint array {i}")
        shape = _entry(meta, "shape", "a list of integers >= 0", f"checkpoint array {i}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise ValueError(f"truncated payload for array {name}")
        payload.append((name, np.frombuffer(blob, np.float64, count, offset).reshape(shape).copy()))
        offset += 8 * count
    if offset < len(blob):
        raise ValueError("checkpoint has bytes after its last payload")

    am = _entry(header, "attention", "an object or null")
    if am is not None:
        where = "checkpoint attention"
        geometry = {
            key: _entry(am, key, "an integer >= 1", where)
            for key in ("token_count", "model_dim", "heads", "windows")
        }
        priority = attn.Priority(_entry(am, "priority", "a string", where))
    widths = _entry(header, "widths", "a list of integers >= 1")
    n_layers = len(widths) + 1
    names = _parameter_names(n_layers, am is not None)
    found = [name for name, _ in payload]
    if found != names:
        raise ValueError(f"checkpoint arrays must be {names} in this order, got {found}")
    arrays = [arr for _, arr in payload]
    att_cfg = None
    if am is not None:
        w_query, w_key, w_value, w_output = arrays[2 * n_layers :]
        att_cfg = attn.AttentionConfig(
            **geometry, priority=priority,
            w_query=w_query, w_key=w_key, w_value=w_value, w_output=w_output,
        )
    return MlpDenoiser(
        field_shape=tuple(_entry(header, "field_shape", "a list of integers >= 1")),
        widths=tuple(widths),
        steps_total=_entry(header, "steps_total", "an integer >= 1"),
        time_dim=_entry(header, "time_dim", "an integer >= 1"),
        activation=_entry(header, "activation", "a string"),
        weights=arrays[:n_layers],
        biases=arrays[n_layers : 2 * n_layers],
        attention=att_cfg,
    )
