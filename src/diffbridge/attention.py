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
matrix.  The forward maps broadcast over leading axes: a (..., n, d)
stack is attended matrix by matrix, each row bit-identical to a call on
that matrix alone.  The backward pass takes one (n, d) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


@dataclass
class AttentionGrads:
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray

    def parameters(self) -> list[np.ndarray]:
        return [self.w_query, self.w_key, self.w_value, self.w_output]


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
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
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
    return _forward(cfg, _check_tokens(cfg, tokens))


def local_priority_attention(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Window segmentation first, then multi-head attention inside each window."""
    if cfg.priority != Priority.LOCAL_FIRST:
        raise ValueError("config priority is not LOCAL_FIRST")
    return _forward(cfg, _check_tokens(cfg, tokens))


def attention_forward(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Dispatch on the config's priority."""
    return _forward(cfg, _check_tokens(cfg, tokens))


def attention_probabilities(cfg: AttentionConfig, tokens: np.ndarray) -> np.ndarray:
    """Softmax attention matrices for inspection.

    Global: shape (..., heads, n, n).  Local: shape (..., windows, heads, nw, nw).
    """
    probs = _internals(cfg, _check_tokens(cfg, tokens))[2]
    return probs[..., 0, :, :, :] if cfg.priority == Priority.GLOBAL_FIRST else probs


# ---------------------------------------------------------------------------
# One windowed kernel: segment into windows, then multi-head inside each.
# Global priority is the single-window case, whatever cfg.windows says.
# Leading axes ride along as a stack, so every matmul is the same per-matrix
# BLAS call a single (n, d) input makes.
# ---------------------------------------------------------------------------


def _internals(cfg, x):
    lead = x.shape[:-2]
    n, h, dh = cfg.token_count, cfg.heads, cfg.head_dim
    w = 1 if cfg.priority == Priority.GLOBAL_FIRST else cfg.windows
    nw = n // w
    xw = x.reshape(*lead, w, nw, cfg.model_dim)
    q = xw @ cfg.w_query
    k = xw @ cfg.w_key
    v = xw @ cfg.w_value
    # (..., w, nw, d) -> (..., w, h, nw, dh)
    qh = q.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
    kh = k.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
    vh = v.reshape(*lead, w, nw, h, dh).swapaxes(-3, -2)
    scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(dh)
    probs = _softmax_rows(scores)
    heads_out = probs @ vh                          # (..., w, h, nw, dh)
    merged = heads_out.swapaxes(-3, -2).reshape(*lead, n, h * dh)
    return qh, kh, probs, vh, merged


def _forward(cfg, x):
    *_, merged = _internals(cfg, x)
    return merged @ cfg.w_output


def _backward(cfg, x, grad_out):
    n, h, dh = cfg.token_count, cfg.heads, cfg.head_dim
    qh, kh, probs, vh, merged = _internals(cfg, x)
    w, nw = probs.shape[0], probs.shape[2]

    d_wo = merged.T @ grad_out
    d_merged = grad_out @ cfg.w_output.T
    d_heads = d_merged.reshape(w, nw, h, dh).transpose(0, 2, 1, 3)

    d_probs = d_heads @ vh.transpose(0, 1, 3, 2)
    d_vh = probs.transpose(0, 1, 3, 2) @ d_heads
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_qh = d_scores @ kh / math.sqrt(dh)
    d_kh = d_scores.transpose(0, 1, 3, 2) @ qh / math.sqrt(dh)

    dq = d_qh.transpose(0, 2, 1, 3).reshape(w, nw, h * dh)
    dk = d_kh.transpose(0, 2, 1, 3).reshape(w, nw, h * dh)
    dv = d_vh.transpose(0, 2, 1, 3).reshape(w, nw, h * dh)

    xw = x.reshape(w, nw, cfg.model_dim)
    xt = xw.transpose(0, 2, 1)
    grads = AttentionGrads(
        (xt @ dq).sum(axis=0),
        (xt @ dk).sum(axis=0),
        (xt @ dv).sum(axis=0),
        d_wo,
    )
    d_x = (dq @ cfg.w_query.T + dk @ cfg.w_key.T + dv @ cfg.w_value.T).reshape(n, -1)
    return d_x, grads


def attention_backward(cfg: AttentionConfig, tokens: np.ndarray, grad_out: np.ndarray):
    """Gradients of a scalar loss through the attention block, for one (n, d) input.

    Returns (grad_tokens, AttentionGrads) for ``grad_out`` = dLoss/dOutput.
    """
    tokens = _check_tokens(cfg, tokens)
    if tokens.ndim != 2:
        raise ValueError(f"backward takes one ({cfg.token_count}, {cfg.model_dim}) matrix")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != tokens.shape:
        raise ValueError("grad_out shape must match tokens shape")
    return _backward(cfg, tokens, grad_out)
