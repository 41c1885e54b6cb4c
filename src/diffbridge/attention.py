"""Self-attention with two priority orderings and the hybrid direction rule.

Global-priority attention projects queries/keys/values over the full
token sequence first and only then splits channels into heads, so every
head attends across all tokens.  Local-priority attention segments the
sequence into contiguous windows first and runs multi-head attention
independently inside each window, so no attention flows across window
boundaries.

The hybrid rule assigns global priority to the forward (noising)
direction of a bridge and local priority to the reverse (denoising)
direction.

Scaled dot-product uses 1/sqrt(head_dim); no masking, no dropout, both
variants are deterministic shape-preserving maps of an (n, d) token
matrix.  Q, K and V come from one product of the tokens with the three
weights side by side, and are views into it.  Each head's probs @ v is
written by ``matmul`` straight into its columns of the merged (..., n, d)
buffer, so no per-head output array or merge copy is made.  The
forward maps broadcast over leading axes: a (..., n, d) stack is
attended matrix by matrix, each bit-identical to a call on that matrix
alone.  The row softmax runs on the rows' transposed
copy, with the bytes of the last-axis formula.  The backward takes the
same stack as R token matrices ("rows") and follows the dense layers'
block rule (``blocks``): each weight gradient is one GEMM per block of
16 rows, the blocks added in order, so a stack's gradients are the
in-order sum of its blocks', each with the bytes of that block alone.

``attention_forward`` is the inference call, in the ordering
``cfg.priority`` names; an ``AttentionConfig`` takes its four weights
at construction.  A training step makes one forward and one backward,
each a single public function with no private layer under it:
``attention_forward_saved`` checks the tokens, runs the windowed
kernel and also returns the arrays it computed (``SavedForward``);
``attention_backward`` checks ``grad_out`` against them and returns the
weight gradients only, as a list in ``AttentionConfig.parameters()``
order, since no caller reads a token gradient.  The backward's one
helper, ``_qkv_pullback``, keeps the per-head chain rule apart from its
two weight GEMMs.

The block computes in its weights' one dtype (``AttentionConfig.dtype``):
float32 as ``init_attention`` and checkpoints build it, float64 when
built from other arrays.  ``_float_parameters`` is that rule, for this
block and for ``denoiser.MlpDenoiser``.  The tokens are cast to it once, and the
scores, the softmax, the merged buffer and the gradients follow the
tokens; the softmax keeps the last-axis formula's bytes in either dtype.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .blocks import _block_product, _block_weight_gradient, _pairwise_sum


class Priority(Enum):
    GLOBAL_FIRST = "global_first"
    LOCAL_FIRST = "local_first"


class Direction(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


def select_priority(direction: Direction) -> Priority:
    """Hybrid rule: forward legs attend globally, reverse legs locally."""
    if direction == Direction.FORWARD:
        return Priority.GLOBAL_FIRST
    if direction == Direction.REVERSE:
        return Priority.LOCAL_FIRST
    raise ValueError(f"unknown direction: {direction!r}")


def _float_parameters(arrays) -> list[np.ndarray]:
    """A model's parameters in the one dtype it computes in.

    A float32 array is kept as it is and any other is cast to float64
    (no copy for a float64 array).  Arrays of both dtypes then raise a
    one-line ValueError.
    """
    arrays = [a if getattr(a, "dtype", None) == np.float32 else np.asarray(a, dtype=np.float64)
              for a in arrays]
    dtypes = sorted({a.dtype.name for a in arrays})
    if len(dtypes) > 1:
        raise ValueError(f"parameters must be all float32 or all float64, got {' and '.join(dtypes)}")
    return arrays


@dataclass
class AttentionConfig:
    """Token geometry, head/window counts, priority, and projection weights.

    The weights go through ``_float_parameters``: float32 ones are kept,
    any other is cast to float64, and the four must then share one dtype.
    """

    token_count: int
    model_dim: int
    heads: int = 1
    windows: int = 1
    priority: Priority = Priority.GLOBAL_FIRST
    _: KW_ONLY
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray

    def __post_init__(self):
        if min(self.token_count, self.model_dim, self.heads, self.windows) < 1:
            raise ValueError("token_count, model_dim, heads and windows must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.token_count % self.windows != 0:
            raise ValueError("token_count must be divisible by windows")
        names = ("w_query", "w_key", "w_value", "w_output")
        for name, w in zip(names, _float_parameters(self.parameters()), strict=True):
            if w.shape != (self.model_dim, self.model_dim):
                raise ValueError(f"{name} must be ({self.model_dim}, {self.model_dim})")
            setattr(self, name, w)

    @property
    def dtype(self) -> np.dtype:
        """The weights' one float dtype, which the block computes in."""
        return self.w_query.dtype

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def parameters(self) -> list[np.ndarray]:
        return [self.w_query, self.w_key, self.w_value, self.w_output]


class SavedForward(NamedTuple):
    """A forward pass's arrays: tokens (..., n, d), per-window heads, merged heads."""

    tokens: np.ndarray
    q: np.ndarray          # q, k, v: (..., w, h, nw, dh)
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray      # (..., w, h, nw, nw)
    merged: np.ndarray     # (..., n, d), before the output projection


def init_attention(
    token_count: int,
    model_dim: int,
    heads: int = 1,
    windows: int = 1,
    priority: Priority = Priority.GLOBAL_FIRST,
    seed: int = 0,
) -> AttentionConfig:
    """Config with Glorot-uniform projection weights, seeded, in float32.

    The weights are float64 draws rounded to float32.
    """
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (2 * model_dim))
    make = lambda: rng.uniform(-bound, bound, size=(model_dim, model_dim)).astype(np.float32)
    return AttentionConfig(
        token_count=token_count,
        model_dim=model_dim,
        heads=heads,
        windows=windows,
        priority=priority,
        w_query=make(),
        w_key=make(),
        w_value=make(),
        w_output=make(),
    )


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """The softmax of each row of scores (..., m), with the bytes of the last-axis formula.

    ``e = exp(s - s.max(-1)); e / e.sum(-1)``, worked in place on the
    rows' transposed copy, so each step is an elementwise pass or a
    reduce over its first axis, not one short reduce per row.  A max
    rounds nothing, ``blocks._pairwise_sum`` adds in numpy's last-axis
    order, and exp is never -0.0, so numpy's closing +0.0 changes
    nothing.  The rows are then copied back into scores' layout.
    """
    m = scores.shape[-1]
    # .copy(), not ascontiguousarray: at width 1 or with one row the
    # transpose is already contiguous, and the work below would then
    # overwrite the caller's scores.
    e = scores.reshape(-1, m).T.copy()
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    e /= _pairwise_sum(e)
    probs = np.empty(scores.shape, dtype=scores.dtype)
    np.copyto(probs.reshape(-1, m).T, e)
    return probs


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=-1, keepdims=True), byte for byte, as a reduce over the rows' transpose."""
    prod = a * b
    total = _pairwise_sum(prod.reshape(-1, a.shape[-1]).T)
    total += 0.0  # numpy's sums start from +0.0, so a row of -0.0 products sums to +0.0
    return total.reshape(*a.shape[:-1], 1)


def attention_forward(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """The attention block's output, in the ordering ``cfg.priority`` names."""
    return attention_forward_saved(cfg, tokens)[0]


# ---------------------------------------------------------------------------
# One windowed kernel: segment into windows, then multi-head inside each.
# Global priority is the single-window case, whatever cfg.windows says.
# Leading axes ride along as a stack: every forward matmul is the same
# per-matrix BLAS call a single (n, d) input makes, and the backward's
# per-head products are per matrix too, while its products with the
# weights are 16-row blocks.
# ---------------------------------------------------------------------------


def attention_forward_saved(
    cfg: AttentionConfig, tokens: np.ndarray
) -> tuple[np.ndarray, SavedForward]:
    """``attention_forward``'s output, and the arrays ``attention_backward`` reads.

    tokens are cast to the weights' dtype and must be (..., token_count, model_dim).
    """
    x = np.asarray(tokens, dtype=cfg.dtype)
    n, d, h, dh = cfg.token_count, cfg.model_dim, cfg.heads, cfg.head_dim
    if x.shape[-2:] != (n, d):
        raise ValueError(f"tokens shape {x.shape} != (..., {n}, {d})")
    lead = x.shape[:-2]
    w = 1 if cfg.priority == Priority.GLOBAL_FIRST else cfg.windows
    nw = n // w
    # One product for Q, K and V.  The weights are joined per call: the
    # optimiser updates them in place, so a kept copy would go stale.
    qkv = x @ np.concatenate([cfg.w_query, cfg.w_key, cfg.w_value], axis=1)
    # (..., n, 3d) as (..., w, nw, 3, h, dh), then 3 x (..., w, h, nw, dh):
    # Q, K and V are views into qkv.
    a = len(lead)
    qh, kh, vh = qkv.reshape(*lead, w, nw, 3, h, dh).transpose(
        a + 2, *range(a), a, a + 3, a + 1, a + 4
    )
    scores = qh @ kh.swapaxes(-1, -2)
    scores /= math.sqrt(dh)
    probs = _softmax_rows(scores)
    # Each head's probs @ v goes straight into its columns of the merged (..., n, d).
    merged = np.empty((*lead, n, d), dtype=x.dtype)
    np.matmul(probs, vh, out=merged.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2))
    return merged @ cfg.w_output, SavedForward(x, qh, kh, vh, probs, merged)


def attention_backward(
    cfg: AttentionConfig, saved: SavedForward, grad_out: np.ndarray
) -> list[np.ndarray]:
    """Weight gradients of a scalar loss through the attention block.

    ``saved`` is the forward pass's arrays (``attention_forward_saved``)
    and ``grad_out`` = dLoss/dOutput, shaped like its tokens.  The four
    (d, d) gradients come in ``cfg.parameters()`` order: query, key,
    value, output, each summed over the stack's R = prod(...) token
    matrices.  Q, K and V share one (d, 16·n) @ (16·n, 3d) GEMM per block
    of 16 matrices and the output weight one (d, 16·n) @ (16·n, d), the
    last block zero-padded and the blocks added in order: a block's
    contribution has the bytes of that block alone, wherever it sits and
    whatever R is, and one (n, d) matrix is a block of one row.  R = 0
    gives zeros.  No token gradient is computed.
    """
    grad_out = np.asarray(grad_out, dtype=saved.tokens.dtype)
    if grad_out.shape != saved.tokens.shape:
        raise ValueError("grad_out shape must match tokens shape")
    n, d = cfg.token_count, cfg.model_dim
    grad_out = grad_out.reshape(-1, n, d)               # the stack as R token matrices
    d_qkv = _qkv_pullback(cfg, saved, grad_out).reshape(-1, n, 3 * d)
    d_wqkv = _block_weight_gradient(saved.tokens.reshape(-1, n, d), d_qkv)
    d_wo = _block_weight_gradient(saved.merged.reshape(-1, n, d), grad_out)
    return [*np.split(d_wqkv, 3, axis=1), d_wo]


def _qkv_pullback(cfg, saved, grad_out):
    """dLoss/dQ, dK and dV side by side, (..., n, 3d), from grad_out as R token matrices.

    The (..., n, 3d) layout is the one their weight gradient reads.
    """
    _, qh, kh, vh, probs, _ = saved
    lead = saved.tokens.shape[:-2]
    n, d, h, dh = cfg.token_count, cfg.model_dim, cfg.heads, cfg.head_dim
    w, nw = probs.shape[-4], probs.shape[-2]

    d_heads = _block_product(grad_out, cfg.w_output.T)
    d_heads = d_heads.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
    d_scores = d_heads @ vh.swapaxes(-1, -2)           # d_probs, then in place d_scores
    d_scores -= _row_dot(d_scores, probs)
    d_scores *= probs
    d_scores /= math.sqrt(dh)
    d_qkv = np.empty((*lead, n, 3 * d), dtype=probs.dtype)
    d_q, d_k, d_v = (
        d_qkv[..., i * d : (i + 1) * d].reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
        for i in range(3)
    )
    np.matmul(d_scores, kh, out=d_q)
    np.matmul(d_scores.swapaxes(-1, -2), qh, out=d_k)
    np.matmul(probs.swapaxes(-1, -2), d_heads, out=d_v)
    return d_qkv
