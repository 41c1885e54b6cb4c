"""Priority orderings: coincidence, equivariance, locality, stochasticity."""

import numpy as np
import pytest

from diffbridge import attention
from diffbridge.attention import (
    AttentionConfig,
    Direction,
    Priority,
    attention_backward,
    attention_forward,
    attention_forward_saved,
    init_attention,
    select_priority,
)


def make_pair(token_count, model_dim, heads, windows, seed=0):
    """Two configs sharing identical weights, one per priority."""
    g = init_attention(token_count, model_dim, heads, 1, Priority.GLOBAL_FIRST, seed)
    l = AttentionConfig(
        token_count=token_count,
        model_dim=model_dim,
        heads=heads,
        windows=windows,
        priority=Priority.LOCAL_FIRST,
        w_query=g.w_query,
        w_key=g.w_key,
        w_value=g.w_value,
        w_output=g.w_output,
    )
    return g, l


def backward_of(cfg, x, g):
    """attention_backward's four weight gradients for tokens x and output gradient g."""
    return attention_backward(cfg, attention_forward_saved(cfg, x)[1], g)


def in_order_sum(parts):
    """The arrays of each list in ``parts`` added position by position, in list order."""
    total = [a.copy() for a in parts[0]]
    for part in parts[1:]:
        for acc, a in zip(total, part, strict=True):
            acc += a
    return total


class TestSelectPriority:
    def test_mapping(self):
        assert select_priority(Direction.FORWARD) == Priority.GLOBAL_FIRST
        assert select_priority(Direction.REVERSE) == Priority.LOCAL_FIRST

    def test_total_over_directions(self):
        assert {select_priority(d) for d in Direction} == set(Priority)


class TestGlobalPriority:
    def test_reduces_to_vanilla_single_head(self):
        # Independent oracle: plain scaled dot-product attention written out.
        cfg = init_attention(6, 4, heads=1, windows=1, seed=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        q, k, v = x @ cfg.w_query, x @ cfg.w_key, x @ cfg.w_value
        scores = q @ k.T / np.sqrt(4)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        oracle = probs @ v @ cfg.w_output
        np.testing.assert_allclose(attention_forward(cfg, x), oracle, atol=1e-12)

    def test_identical_rows_in_identical_rows_out(self):
        cfg = init_attention(5, 6, heads=3, seed=1)
        row = np.random.default_rng(2).standard_normal(6)
        out = attention_forward(cfg, np.tile(row, (5, 1)))
        np.testing.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n, h = 8, rng.choice([1, 2, 4])
            cfg = init_attention(n, 8, heads=int(h), seed=trial)
            x = rng.standard_normal((n, 8))
            perm = rng.permutation(n)
            direct = attention_forward(cfg, x)
            permuted = attention_forward(cfg, x[perm])
            np.testing.assert_allclose(permuted, direct[perm], atol=1e-9)

    def test_shape_errors(self):
        cfg = init_attention(4, 4, seed=0)
        with pytest.raises(ValueError):
            attention_forward(cfg, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            init_attention(token_count=4, model_dim=6, heads=4)
        with pytest.raises(ValueError):
            init_attention(token_count=5, model_dim=4, windows=2)

    def test_weights_are_required(self):
        with pytest.raises(TypeError, match="w_query"):
            AttentionConfig(token_count=2, model_dim=4)


class TestLocalPriority:
    def test_single_window_coincides_with_global(self):
        rng = np.random.default_rng(5)
        for heads in (1, 2, 4):
            g, l = make_pair(8, 8, heads, windows=1, seed=heads)
            x = rng.standard_normal((8, 8))
            np.testing.assert_allclose(
                attention_forward(l, x),
                attention_forward(g, x),
                atol=1e-9,
            )

    def test_strict_window_locality(self):
        rng = np.random.default_rng(6)
        _, cfg = make_pair(12, 6, heads=2, windows=3, seed=7)
        x = rng.standard_normal((12, 6))
        base = attention_forward(cfg, x)
        for j in range(3):
            bumped = x.copy()
            bumped[4 * j + 1] += rng.standard_normal(6)
            out = attention_forward(cfg, bumped)
            inside = slice(4 * j, 4 * j + 4)
            assert np.any(out[inside] != base[inside])
            outside = np.delete(np.arange(12), np.arange(4 * j, 4 * j + 4))
            # Cross-window influence is exactly zero, not merely small.
            np.testing.assert_array_equal(out[outside], base[outside])

    def test_within_window_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            _, cfg = make_pair(12, 4, heads=2, windows=3, seed=100 + trial)
            x = rng.standard_normal((12, 4))
            perm = np.concatenate([4 * w + rng.permutation(4) for w in range(3)])
            direct = attention_forward(cfg, x)
            permuted = attention_forward(cfg, x[perm])
            np.testing.assert_allclose(permuted, direct[perm], atol=1e-9)


def _softmax_by_last_axis_max(s):
    """The row softmax before the max became a first-axis reduce."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _special_row(kind, n, rng):
    row = rng.standard_normal(n) * 30.0
    if kind == "neg-inf":
        row[rng.integers(n)] = -np.inf
    elif kind == "all-neg-inf":
        row[:] = -np.inf
    elif kind == "pos-inf":
        row[rng.integers(n)] = np.inf
    elif kind == "signed-zero-ties":
        row[:] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    elif kind == "signed-zero-max":
        row = -np.abs(row)
        row[rng.integers(n, size=2)] = (0.0, -0.0)
    elif kind == "huge":
        row[rng.integers(n, size=2)] = (1e300, -1e300)
    elif kind == "nan":
        row[rng.integers(n)] = np.nan
    return row


class TestSoftmaxRows:
    def test_row_stochastic_in_every_head_and_window(self):
        rng = np.random.default_rng(9)
        g, l = make_pair(12, 6, heads=3, windows=2, seed=11)
        x = rng.standard_normal((12, 6))
        probs_g = attention._internals(g, x).probs
        assert probs_g.shape == (1, 3, 12, 12)
        np.testing.assert_allclose(probs_g.sum(axis=-1), 1.0, atol=1e-9)
        probs_l = attention._internals(l, x).probs
        assert probs_l.shape == (2, 3, 6, 6)
        np.testing.assert_allclose(probs_l.sum(axis=-1), 1.0, atol=1e-9)

    KINDS = ("plain", "neg-inf", "all-neg-inf", "pos-inf", "signed-zero-ties",
             "signed-zero-max", "huge", "nan")

    @pytest.mark.parametrize("lead", [(), (3,), (16, 4, 2)])
    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 16, 130])
    def test_bytes_equal_the_last_axis_max_formula(self, lead, n):
        rng = np.random.default_rng(n)
        if lead:
            rows = [_special_row(self.KINDS[i % len(self.KINDS)], n, rng)
                    for i in range(int(np.prod(lead)))]
            cases = [np.stack(rows).reshape(*lead, n)]
        else:
            cases = [_special_row(kind, n, rng) for kind in self.KINDS]
        for s in cases:
            before = s.copy()
            with np.errstate(invalid="ignore"):
                got, want = attention._softmax_rows(s), _softmax_by_last_axis_max(s)
            assert s.tobytes() == before.tobytes()
            assert got.shape == want.shape == s.shape
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


class TestRowDot:
    """The softmax backward's row dot, a reduce over the rows' transpose, has numpy's bytes."""

    KINDS = (*TestSoftmaxRows.KINDS, "negative-zero-products")

    def rows(self, kind, n, rng):
        if kind == "negative-zero-products":   # every product is -0.0; numpy's sum is +0.0
            return np.zeros(n), -rng.random(n) - 0.5
        return _special_row(kind, n, rng), rng.standard_normal(n)

    @pytest.mark.parametrize("lead", [(), (3,), (16, 4, 2)])
    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 16, 130])
    def test_bytes_equal_the_last_axis_sum(self, lead, n):
        rng = np.random.default_rng(n)
        if lead:
            pairs = [self.rows(self.KINDS[i % len(self.KINDS)], n, rng)
                     for i in range(int(np.prod(lead)))]
            cases = [tuple(np.stack(side).reshape(*lead, n) for side in zip(*pairs))]
        else:
            cases = [self.rows(kind, n, rng) for kind in self.KINDS]
        for a, b in cases:
            before = a.tobytes(), b.tobytes()
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = attention._row_dot(a, b), (a * b).sum(axis=-1, keepdims=True)
            assert (a.tobytes(), b.tobytes()) == before
            assert got.shape == want.shape == (*lead, 1)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_negative_zero_products_sum_to_positive_zero(self):
        got = attention._row_dot(np.zeros((2, 9)), -np.ones((2, 9)))
        assert got.tobytes() == np.zeros((2, 1)).tobytes()


class TestShapePreservation:
    def test_random_valid_configs(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            heads = int(rng.choice([1, 2, 3]))
            windows = int(rng.choice([1, 2, 4]))
            dim = heads * int(rng.integers(1, 5))
            tokens = windows * int(rng.integers(1, 5))
            x = rng.standard_normal((tokens, dim))
            g, l = make_pair(tokens, dim, heads, windows, seed=trial)
            assert attention_forward(g, x).shape == x.shape
            assert attention_forward(l, x).shape == x.shape


class TestBatched:
    @pytest.mark.parametrize("priority", list(Priority))
    def test_stack_rows_byte_equal_single_calls(self, priority):
        cfg = init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        x = np.random.default_rng(2).standard_normal((3, 2, 16, 16))
        out = attention_forward(cfg, x)
        probs = attention._internals(cfg, x).probs
        assert out.shape == x.shape
        for i in range(3):
            for j in range(2):
                assert out[i, j].tobytes() == attention_forward(cfg, x[i, j]).tobytes()
                assert probs[i, j].tobytes() == attention._internals(cfg, x[i, j]).probs.tobytes()

    @pytest.mark.parametrize("priority", list(Priority))
    def test_backward_stack_is_the_in_order_sum_of_its_blocks(self, priority):
        """Whatever its leading shape, a stack's gradients are its rows' 16-row blocks added in order."""
        cfg = init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        x, g = np.random.default_rng(3).standard_normal((2, 3, 12, 16, 16))
        rows_x, rows_g = x.reshape(36, 16, 16), g.reshape(36, 16, 16)
        blocks = [backward_of(cfg, rows_x[s : s + 16], rows_g[s : s + 16]) for s in range(0, 36, 16)]
        for stacked, want in zip(backward_of(cfg, x, g), in_order_sum(blocks), strict=True):
            assert stacked.shape == (16, 16)
            assert stacked.tobytes() == want.tobytes()
        # One (n, d) matrix is a block of one row.
        for one, want in zip(backward_of(cfg, x[0, 0], g[0, 0]), backward_of(cfg, x[0, :1], g[0, :1])):
            assert one.tobytes() == want.tobytes()

    def test_wrong_shapes_rejected(self):
        cfg = init_attention(4, 4, seed=0)
        with pytest.raises(ValueError):
            attention_backward(cfg, attention_forward_saved(cfg, np.zeros((2, 4, 4)))[1],
                               np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            attention_forward(cfg, np.zeros((2, 5, 4)))


def per_row_reference(cfg, x, g):
    """The four weight gradients by the per-row formula, one (d, d) per matrix, added in row order."""
    d, h, dh = cfg.model_dim, cfg.heads, cfg.head_dim
    total = [np.zeros((d, d)) for _ in range(4)]
    for tokens, grad_out in zip(x, g):
        _, (_, qh, kh, vh, probs, merged) = attention_forward_saved(cfg, tokens)
        w, nw = probs.shape[-4], probs.shape[-2]
        d_heads = (grad_out @ cfg.w_output.T).reshape(w, nw, h, dh).swapaxes(-3, -2)
        d_probs = d_heads @ vh.swapaxes(-1, -2)
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        pulled = (d_scores @ kh / np.sqrt(dh), d_scores.swapaxes(-1, -2) @ qh / np.sqrt(dh),
                  probs.swapaxes(-1, -2) @ d_heads)
        xt = tokens.reshape(w, nw, d).swapaxes(-1, -2)
        per_row = [(xt @ p.swapaxes(-3, -2).reshape(w, nw, d)).sum(axis=0) for p in pulled]
        for acc, part in zip(total, [*per_row, merged.T @ grad_out], strict=True):
            acc += part
    return total


class TestAttentionBlockGradients:
    """The four weight gradients follow the dense layers' 16-row block rule."""

    BLAS_PROPERTY = (
        "a stacked GEMM must compute each (d, 16n) @ (16n, m) product from that block"
        " alone, in an order set by the call's shape, not by the block's place in the"
        " stack or the stack's length; this BLAS does not, so a minibatch's attention"
        " gradients no longer equal the in-order sum of its blocks' gradients"
    )
    # The CLI's geometry (16 tokens of 16), and 6 tokens of 4 in 3 windows.
    LAYOUTS = [(16, 16, 2, 4), (6, 4, 2, 3)]

    def config(self, layout, priority):
        n, d, heads, windows = layout
        return init_attention(n, d, heads=heads, windows=windows, priority=priority, seed=sum(layout))

    @pytest.mark.parametrize("priority", list(Priority))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_block_bytes_depend_on_neither_row_count_nor_position(self, layout, priority):
        cfg = self.config(layout, priority)
        x, g = np.random.default_rng(sum(layout)).standard_normal((2, 128, *layout[:2]))
        for rows in [*range(1, 41), 128]:
            got = backward_of(cfg, x[:rows], g[:rows])
            assert [a.shape for a in got] == [(layout[1], layout[1])] * 4
            alone = [backward_of(cfg, x[s : min(s + 16, rows)], g[s : min(s + 16, rows)])
                     for s in range(0, rows, 16)]
            for a, want in zip(got, in_order_sum(alone), strict=True):
                assert a.tobytes() == want.tobytes(), self.BLAS_PROPERTY

    @pytest.mark.parametrize("priority", list(Priority))
    @pytest.mark.parametrize("rows", [1, 7, 16, 21])
    def test_zero_padding_adds_nothing(self, rows, priority):
        cfg = self.config(self.LAYOUTS[1], priority)
        x, g = np.random.default_rng(rows).standard_normal((2, rows, 6, 4))
        padded = [np.concatenate([a, np.zeros((48 - rows, 6, 4))]) for a in (x, g)]
        for a, want in zip(backward_of(cfg, x, g), backward_of(cfg, *padded), strict=True):
            assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("priority", list(Priority))
    def test_no_rows_give_zeros(self, priority):
        cfg = self.config(self.LAYOUTS[0], priority)
        grads = backward_of(cfg, np.zeros((0, 16, 16)), np.zeros((0, 16, 16)))
        assert [a.shape for a in grads] == [(16, 16)] * 4
        assert not any(a.any() for a in grads)

    @pytest.mark.parametrize("priority", list(Priority))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_equals_the_per_row_sum_to_rounding(self, layout, priority):
        cfg = self.config(layout, priority)
        x, g = np.random.default_rng(13).standard_normal((2, 37, *layout[:2]))
        for a, want in zip(backward_of(cfg, x, g), per_row_reference(cfg, x, g), strict=True):
            assert np.max(np.abs(a - want)) <= 1e-12 * np.max(np.abs(want))
