"""Fixed 16-row GEMM blocks: the one batching rule of the trained denoiser.

A minibatch or batch of R rows is cut into blocks of 16 rows, the last
one zero-padded, and every product is one BLAS call per block, whose
shape does not depend on R.  A GEMM's value for a row depends on the
call's shape, not on the row's place in it, so a row's (or a block's)
bytes do not depend on R or on where it sits; sums over the blocks run
in block order.  A row is a vector, or an (n, k) token matrix whose n
tokens ride in the block as 16·n rows.  ``denoiser`` runs its dense
layers and their gradients on these blocks, and ``attention`` its four
weight gradients.  A product whose stack is already whole blocks, as
the denoiser's padded dense buffer is, reads the stack as it is, with
no padding copy.

The two fixed-order sums over a first axis live here too: in order, and
in numpy's pairwise order for a contiguous last axis, which ``domains``
and ``attention`` use to match numpy's bytes without a transposed copy.
"""

from __future__ import annotations

import math

import numpy as np

# Rows per block: 16 divides the CLI's generation count and batch size.
_BLOCK_ROWS = 16


def _padded(rows: int) -> int:
    """rows rounded up to whole blocks of _BLOCK_ROWS."""
    return -(-rows // _BLOCK_ROWS) * _BLOCK_ROWS


def _blocks(a: np.ndarray) -> np.ndarray:
    """An (R, ...) stack as (ceil(R / 16), 16, ...) blocks, the last one zero-padded.

    A view when R is a whole number of blocks and a is C-contiguous.
    """
    rows = a.shape[0]
    padded = _padded(rows)
    if padded != rows:
        block = np.zeros((padded, *a.shape[1:]))
        block[:rows] = a
        a = block
    return a.reshape(padded // _BLOCK_ROWS, _BLOCK_ROWS, *a.shape[1:])


def _block_height(a: np.ndarray) -> int:
    """Rows of one block's GEMM operand for an (R, ..., k) stack: 16 times the tokens per row."""
    return _BLOCK_ROWS * math.prod(a.shape[1:-1])


def _block_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for an (R, ..., k) stack, as one (16·n, k) @ (k, m) GEMM per block of 16 rows.

    Each row is a k-vector (n = 1) or an (n, k) token matrix.  The last
    block is zero-padded, so every row goes through the same BLAS call
    whatever R is: a row's bytes do not depend on R or on its place in
    the stack.  R = 0 gives (0, ..., m).  A stack of whole blocks is
    read as it is; only a partial last block is padded, into a copy.
    """
    rows = a.shape[0]
    if rows % _BLOCK_ROWS:
        a = _blocks(a).reshape(-1, *a.shape[1:])
    out = a.reshape(-1, _block_height(a), a.shape[-1]) @ w
    return out.reshape(*a.shape[:-1], w.shape[1])[:rows]


def _in_order_sum(stack: np.ndarray) -> np.ndarray:
    """+0.0 + stack[0] + stack[1] + ... added in that order; zeros for an empty stack.

    Written out because ``np.add.reduce`` adds pairwise when each entry
    is one number (a width-1 layer's bias, say).  Starting from +0.0
    turns only a -0.0 sum into +0.0.
    """
    total = np.zeros(stack.shape[1:])
    for part in stack:
        total += part
    return total


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """terms summed along axis 0 in the order numpy sums a contiguous last axis.

    Below 8 terms that is ``_in_order_sum``.  Up to 128, terms j, j+8,
    j+16, ... are summed in order into 8 partial sums, which are added as
    a balanced tree, then the remaining terms in order; above 128 the two
    halves (the first a multiple of 8) are summed so and added.  numpy
    also adds the result to +0.0, which only turns a -0.0 sum into +0.0;
    callers whose terms can be -0.0 add it.
    """
    n = len(terms)
    if n < 8:
        return _in_order_sum(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    whole = n - n % 8
    r = terms[:8] + terms[8:16] if whole > 8 else terms[:8]
    for start in range(16, whole, 8):
        r += terms[start : start + 8]
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), one level at a time.
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for term in terms[whole:]:
        total += term
    return total


def _block_sum(per_row: np.ndarray) -> np.ndarray:
    """An (R, ...) stack summed over R: within each 16-row block, then block by block in order.

    A block's rows are added by ``np.add.reduce``: in row order, or in
    numpy's fixed pairwise order where each row is one number, so either
    way its sum depends on that block alone, and the zero padding adds
    exact zeros.  R = 0 gives zeros.
    """
    return _in_order_sum(np.add.reduce(_blocks(per_row), axis=1))


def _block_weight_gradient(post: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """post.T @ delta over R rows, for (R, ..., k) inputs and (R, ..., m) deltas.

    Each row is a k-vector, or an (n, k) token matrix with an (n, m)
    delta.  The product is one (k, 16·n) @ (16·n, m) GEMM per block of
    16 rows, in one stacked ``matmul``, and the blocks' products added
    in block order.  The last block is zero-padded in both operands, so
    padding adds exact zeros, and a block's GEMM has one shape wherever
    it sits: each block's contribution has the bytes of that block's
    rows alone.  R = 0 gives zeros.
    """
    a = _blocks(post).reshape(-1, _block_height(post), post.shape[-1])
    b = _blocks(delta).reshape(-1, _block_height(delta), delta.shape[-1])
    return _in_order_sum(a.swapaxes(-1, -2) @ b)


def _block_gradients(post: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A dense layer's weight and bias gradients from its (R, k) inputs and (R, m) deltas.

    The weight gradient is ``_block_weight_gradient``, the bias gradient
    ``_block_sum`` of the deltas.  R = 0 gives zeros.
    """
    return _block_weight_gradient(post, delta), _block_sum(delta)
