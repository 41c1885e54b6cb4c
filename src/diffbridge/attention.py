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
weights side by side.  Both the forward maps and the backward pass
broadcast over leading axes: a (..., n, d) stack is attended, or
differentiated, matrix by matrix, each row bit-identical to a call on
that matrix alone.

``attention_forward`` is the inference call.  Training calls
``attention_forward_saved``, which also returns the arrays the forward
computed (``SavedForward``), and hands them to ``attention_backward``:
one forward per step, and the backward returns the weight gradients
only, as a list in ``AttentionConfig.parameters()`` order, since no
caller reads a token gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


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


@dataclass
class AttentionConfig:
    """Token geometry, head/window counts, priority, and projection weights."""

    token_count: int
    model_dim: int
    heads: int = 1
    windows: int = 1
    priority: Priority = Priority.GLOBAL_FIRST
    w_query: np.ndarray = None
    w_key: np.ndarray = None
    w_value: np.ndarray = None
    w_output: np.ndarray = None

    def __post_init__(self):
        if min(self.token_count, self.model_dim, self.heads, self.windows) < 1:
            raise ValueError("token_count, model_dim, heads and windows must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.token_count % self.windows != 0:
            raise ValueError("token_count must be divisible by windows")
        for name in ("w_query", "w_key", "w_value", "w_output"):
            w = getattr(self, name)
            if w is None:
                continue
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.model_dim, self.model_dim):
                raise ValueError(f"{name} must be ({self.model_dim}, {self.model_dim})")
            setattr(self, name, w)

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
    """Config with Glorot-uniform projection weights, seeded."""
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (2 * model_dim))
    make = lambda: rng.uniform(-bound, bound, size=(model_dim, model_dim))
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
    # The row max as a reduce over the first axis of the rows' transposed
    # copy: on short rows that is a few elementwise maxima instead of one
    # reduce per row, and a max rounds nothing, so the bytes are
    # max(axis=-1)'s.
    n = scores.shape[-1]
    rows_first = np.ascontiguousarray(scores.reshape(-1, n).T)
    peak = np.maximum.reduce(rows_first, axis=0).reshape(*scores.shape[:-1], 1)
    e = np.exp(scores - peak)
    return e / e.sum(axis=-1, keepdims=True)


def _check_tokens(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Tokens as float64 of shape (..., token_count, model_dim)."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape[-2:] != (cfg.token_count, cfg.model_dim):
        raise ValueError(
            f"tokens shape {tokens.shape} != (..., {cfg.token_count}, {cfg.model_dim})"
        )
    return tokens


def global_priority_attention(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Full-sequence projection first, then per-head split; span is all tokens."""
    if cfg.priority != Priority.GLOBAL_FIRST:
        raise ValueError("config priority is not GLOBAL_FIRST")
    return attention_forward_saved(cfg, tokens)[0]


def local_priority_attention(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Window segmentation first, then multi-head attention inside each window."""
    if cfg.priority != Priority.LOCAL_FIRST:
        raise ValueError("config priority is not LOCAL_FIRST")
    return attention_forward_saved(cfg, tokens)[0]


def attention_forward(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Dispatch on the config's priority."""
    return attention_forward_saved(cfg, tokens)[0]


def attention_forward_saved(
    cfg: AttentionConfig, tokens: np.ndarray
) -> tuple[np.ndarray, SavedForward]:
    """``attention_forward``'s output, and the arrays ``attention_backward`` reads."""
    saved = _internals(cfg, _check_tokens(cfg, tokens))
    return saved.merged @ cfg.w_output, saved


def attention_backward(
    cfg: AttentionConfig, saved: SavedForward, grad_out: np.ndarray
) -> list[np.ndarray]:
    """Weight gradients of a scalar loss through the attention block.

    ``saved`` is the forward pass's arrays (``attention_forward_saved``)
    and ``grad_out`` = dLoss/dOutput, shaped like its tokens.  The four
    gradients come in ``cfg.parameters()`` order: query, key, value,
    output.  A (..., n, d) stack gets one gradient per matrix: each is
    (..., d, d), every matrix's bytes equal to a call on that matrix
    alone.  Summing them is the caller's choice.  No token gradient is
    computed.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != saved.tokens.shape:
        raise ValueError("grad_out shape must match tokens shape")
    return _backward(cfg, saved, grad_out)


# ---------------------------------------------------------------------------
# One windowed kernel: segment into windows, then multi-head inside each.
# Global priority is the single-window case, whatever cfg.windows says.
# Leading axes ride along as a stack, so every matmul is the same per-matrix
# BLAS call a single (n, d) input makes.
# ---------------------------------------------------------------------------


def _internals(cfg, x) -> SavedForward:
    lead = x.shape[:-2]
    n, d, h, dh = cfg.token_count, cfg.model_dim, cfg.heads, cfg.head_dim
    w = 1 if cfg.priority == Priority.GLOBAL_FIRST else cfg.windows
    nw = n // w
    # One product for Q, K and V.  The weights are joined per call: the
    # optimiser updates them in place, so a kept copy would go stale.
    qkv = x @ np.concatenate([cfg.w_query, cfg.w_key, cfg.w_value], axis=1)
    # (..., n, 3d) -> 3 x (..., w, h, nw, dh), views into qkv
    qh, kh, vh = (
        qkv[..., i * d : (i + 1) * d].reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
        for i in range(3)
    )
    scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(dh)
    probs = _softmax_rows(scores)
    heads_out = probs @ vh                          # (..., w, h, nw, dh)
    merged = heads_out.swapaxes(-3, -2).reshape(*lead, n, h * dh)
    return SavedForward(x, qh, kh, vh, probs, merged)


def _backward(cfg, saved, grad_out):
    x, qh, kh, vh, probs, merged = saved
    lead = x.shape[:-2]
    h, dh = cfg.heads, cfg.head_dim
    w, nw = probs.shape[-4], probs.shape[-2]

    d_wo = merged.swapaxes(-1, -2) @ grad_out
    d_merged = grad_out @ cfg.w_output.T
    d_heads = d_merged.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)

    d_probs = d_heads @ vh.swapaxes(-1, -2)
    d_vh = probs.swapaxes(-1, -2) @ d_heads
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_qh = d_scores @ kh / math.sqrt(dh)
    d_kh = d_scores.swapaxes(-1, -2) @ qh / math.sqrt(dh)

    xt = x.reshape(*lead, w, nw, cfg.model_dim).swapaxes(-1, -2)
    d_proj = (g.swapaxes(-3, -2).reshape(*lead, w, nw, h * dh) for g in (d_qh, d_kh, d_vh))
    return [*((xt @ g).sum(axis=-3) for g in d_proj), d_wo]
