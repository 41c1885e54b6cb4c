"""Noise predictors against finite-difference and dense-algebra oracles."""

import json
import struct
import warnings

import numpy as np
import pytest
from scipy.special import expit

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.denoiser import _silu, _silu_grad
from diffbridge.domains import GaussianMixture, gmm_log_density, noised_mixture


def finite_difference_score(mix, x, h=1e-4):
    """Central finite differences of the mixture log density."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        grad[d] = (gmm_log_density(mix, x + e) - gmm_log_density(mix, x - e)) / (2 * h)
    return grad


def mlp_gradcheck(model, x, t, target, h=1e-5):
    """Worst relative error of manual gradients vs central differences."""
    grads = model.backward(x, t, target).parameters()
    worst = 0.0
    for p, g in zip(model.parameters(), grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig - h
            down = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
    return worst


class TestAnalyticGmmEpsilon:
    def setup_method(self):
        self.mix = GaussianMixture(
            weights=[0.3, 0.5, 0.2],
            means=[[1.0, -2.0], [-1.5, 0.5], [2.0, 2.0]],
            variances=[0.4, 0.8, 0.2],
        )
        self.sched = db.linear_schedule(1000)
        self.model = db.AnalyticGmmEpsilon(self.mix, self.sched)

    def test_single_component_closed_form(self):
        mu = np.array([0.7, -0.3])
        single = GaussianMixture([1.0], [mu], [0.5])
        model = db.AnalyticGmmEpsilon(single, self.sched)
        for t in (1, 400, 1000):
            ab = self.sched.alpha_bar(t)
            x = np.array([1.2, 0.1])
            expected = (
                np.sqrt(1 - ab) * (x - np.sqrt(ab) * mu) / (ab * 0.5 + 1 - ab)
            )
            np.testing.assert_allclose(model.predict_epsilon(x, t), expected, rtol=1e-12)

    def test_symmetry_point_prediction_parallel_to_state(self):
        mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.3, 0.3])
        model = db.AnalyticGmmEpsilon(mix, self.sched)
        # Any point on the perpendicular bisector has equal responsibilities.
        x = np.array([0.0, 1.3])
        eps = model.predict_epsilon(x, 300)
        cross = eps[0] * x[1] - eps[1] * x[0]
        assert abs(cross) < 1e-12 * np.linalg.norm(eps) * np.linalg.norm(x)

    def test_matches_finite_difference_of_noised_log_density(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = int(rng.integers(1, 1001))
            q_t = noised_mixture(self.mix, self.sched, t)
            x = db.gmm_sample(q_t, 1, seed=int(rng.integers(1 << 31)))[0]
            ab = self.sched.alpha_bar(t)
            expected = -np.sqrt(1 - ab) * finite_difference_score(q_t, x)
            got = self.model.predict_epsilon(x, t)
            rel = np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-12)
            assert rel < 1e-5

    def test_pure_and_zero_at_time_zero(self):
        x = np.array([0.3, 0.4])
        a = self.model.predict_epsilon(x, 123)
        b = self.model.predict_epsilon(x, 123)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(self.model.predict_epsilon(x, 0), np.zeros(2))

    def test_rejects_bad_step(self):
        for t in (-1, 1001, np.nan):
            with pytest.raises(ValueError):
                self.model.predict_epsilon(np.zeros(2), t)


class TestAnalyticFieldEpsilon:
    def test_matches_dense_covariance_oracle(self):
        size = 16
        pair = db.make_texture_pair("bandsplit", size, seed=4)
        sched = db.linear_schedule(100)
        model = db.AnalyticFieldEpsilon(pair.target.mode_variances, sched)

        # Oracle: materialize the circulant covariance as a dense matrix by
        # applying it to every basis vector, then solve directly.
        lam = pair.target.mode_variances
        dim = size * size
        cov = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            ce = np.fft.ifft2(lam * np.fft.fft2(e.reshape(size, size), norm="ortho"), norm="ortho").real
            cov[:, j] = ce.reshape(-1)

        rng = np.random.default_rng(1)
        x = pair.target.sample(1, seed=2)[0]
        for t in (1, 40, 100):
            ab = sched.alpha_bar(t)
            cov_t = ab * cov + (1 - ab) * np.eye(dim)
            score = -np.linalg.solve(cov_t, x.reshape(-1))
            expected = -np.sqrt(1 - ab) * score.reshape(size, size)
            got = model.predict_epsilon(x, t)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_batch_bytes_equal_fft2_formula_across_calls(self):
        """One pair of work arrays serves every shape; results equal fft2/ifft2 and are not overwritten."""
        pair = db.make_texture_pair("bandsplit", 16, seed=4)
        sched = db.linear_schedule(100)
        model = db.AnalyticFieldEpsilon(pair.source.mode_variances, sched)
        lam = pair.source.mode_variances
        inputs = [pair.source.sample(4, seed=1), pair.source.sample(1, seed=2)[0],
                  pair.source.sample(4, seed=3)]
        # Grow, then shrink: a (3, 3) stack, a pair, one field, then the stack again.
        stack = pair.source.sample(9, seed=6).reshape(3, 3, 16, 16)
        inputs += [stack, pair.source.sample(2, seed=7), pair.source.sample(1, seed=8)[0], stack]
        calls = [(x, t) for t in (1, 40, 100) for x in inputs]
        got = [model.predict_epsilon(x, t) for x, t in calls]
        for (x, t), eps in zip(calls, got):
            ab = sched.alpha_bar(t)
            spectrum = np.fft.fft2(x, norm="ortho") / (ab * lam + (1.0 - ab))
            expected = np.sqrt(1.0 - ab) * np.fft.ifft2(spectrum, norm="ortho").real
            assert eps.tobytes() == expected.tobytes()
        assert [w.size for w in model._work] == [stack.size, stack.size]

    def test_shape_mismatch_rejected(self):
        pair = db.make_texture_pair("bandsplit", 16, seed=0)
        model = db.AnalyticFieldEpsilon(pair.source.mode_variances, db.linear_schedule(10))
        with pytest.raises(ValueError):
            model.predict_epsilon(np.zeros((8, 8)), 3)


class TestSilu:
    """SiLU against scipy's expit, which is 1 / (1 + exp(-a)) with libm's exp.

    numpy's exp is within 1 ulp of libm's.  Through 1 + e and the division
    that becomes at most 2.3 eps of relative error in the sigmoid (measured
    on about 10^6 draws; 2.8 eps in SiLU), and in the gradient an absolute error
    under eps * (1 + |a|), since a * (1 - s) scales the sigmoid's error by a.
    """

    @staticmethod
    def _draws():
        rng = np.random.default_rng(11)
        return np.concatenate((
            rng.standard_normal(100000) * 3.0, rng.uniform(-40.0, 40.0, 100000),
            rng.uniform(-745.0, 745.0, 20000),
        ))

    def test_silu_agrees_with_expit(self):
        a = self._draws()
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(_silu(a), a * expit(a), rtol=3 * eps, atol=0)

    def test_gradient_agrees_with_expit(self):
        a = self._draws()
        s = expit(a)
        want = s * (1.0 + a * (1.0 - s))
        err = np.abs(_silu_grad(a) - want)
        assert np.all(err <= 2 * np.finfo(np.float64).eps * (1.0 + np.abs(a)))

    def test_no_warning_where_exp_overflows(self):
        a = np.array([-800.0, 800.0, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _silu(a), _silu_grad(a)
        np.testing.assert_array_equal(value, [-0.0, 800.0, -0.0, 1e308])
        np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0, 1.0])


class TestMlpDenoiser:
    def test_zero_weights_zero_output(self):
        m = db.init_mlp((3,), (5,), steps_total=100, time_dim=4, seed=0)
        for w in m.weights:
            w[:] = 0.0
        np.testing.assert_array_equal(
            m.predict_epsilon(np.ones(3), 50), np.zeros(3)
        )

    def test_identity_layer_passes_input_through(self):
        m = db.MlpDenoiser(
            field_shape=(3,),
            widths=(),
            steps_total=100,
            time_dim=4,
            weights=[np.vstack([np.eye(3), np.zeros((4, 3))])],
            biases=[np.zeros(3)],
        )
        x = np.array([0.1, -2.0, 0.7])
        np.testing.assert_array_equal(m.predict_epsilon(x, 42), x)

    def test_deterministic_forward(self):
        m = db.init_mlp((4,), (8, 8), steps_total=50, seed=9)
        x = np.random.default_rng(1).standard_normal(4)
        np.testing.assert_array_equal(m.predict_epsilon(x, 7), m.predict_epsilon(x, 7))

    def test_zero_loss_zero_gradients(self):
        m = db.init_mlp((2,), (6,), steps_total=10, time_dim=4, seed=2)
        x = np.array([0.5, -0.5])
        out = m.predict_epsilon(x, 5)
        grads = m.backward(x, 5, out)
        for g in grads.parameters():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        m = db.init_mlp((4,), (16, 16), steps_total=100, time_dim=8, seed=4)
        x, target = rng.standard_normal(4), rng.standard_normal(4)
        assert mlp_gradcheck(m, x, 37, target) < 1e-4

    def test_gradients_across_random_architectures(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            depth = int(rng.integers(1, 4))  # 2-4 weight layers
            widths = tuple(int(rng.integers(4, 65)) for _ in range(depth))
            m = db.init_mlp((4,), widths, steps_total=100, time_dim=8, seed=trial)
            x, target = rng.standard_normal(4), rng.standard_normal(4)
            t = int(rng.integers(1, 101))
            assert mlp_gradcheck(m, x, t, target) < 1e-4

    @pytest.mark.parametrize("priority,windows", [(Priority.GLOBAL_FIRST, 1), (Priority.LOCAL_FIRST, 2)])
    def test_gradients_through_attention_block(self, priority, windows):
        rng = np.random.default_rng(6)
        att = db.init_attention(
            token_count=4, model_dim=4, heads=2, windows=windows, priority=priority, seed=7
        )
        m = db.init_mlp((16,), (12,), steps_total=100, time_dim=4, attention=att, seed=8)
        x, target = rng.standard_normal(16), rng.standard_normal(16)
        assert mlp_gradcheck(m, x, 60, target) < 1e-4

    def test_masked_out_slice_has_exactly_zero_gradient(self):
        # Zero the output layer's row for one hidden unit: that unit never
        # reaches the loss, so the first-layer column feeding it gets a
        # bitwise-zero gradient.
        rng = np.random.default_rng(7)
        m = db.init_mlp((3,), (5,), steps_total=20, time_dim=4, seed=10)
        m.weights[1][2, :] = 0.0
        grads = m.backward(rng.standard_normal(3), 10, rng.standard_normal(3))
        np.testing.assert_array_equal(grads.weights[0][:, 2], np.zeros(7))
        assert grads.biases[0][2] == 0.0

    @pytest.mark.parametrize("widths", [(0,), (-1,), (64, 0)])
    def test_widths_below_one_rejected(self, widths):
        with pytest.raises(ValueError, match="widths") as err:
            db.init_mlp((2,), widths, steps_total=50)
        assert "\n" not in str(err.value)

    def test_shape_mismatch_rejected(self):
        m = db.init_mlp((4,), (8,), steps_total=10, seed=0)
        with pytest.raises(ValueError):
            m.predict_epsilon(np.zeros(5), 3)
        with pytest.raises(ValueError):
            m.backward(np.zeros(4), 3, np.zeros(5))


class TestCheckpointRoundTrip:
    def test_inference_bit_identical(self, tmp_path):
        att = db.init_attention(2, 4, heads=2, priority=Priority.LOCAL_FIRST, seed=1)
        m = db.init_mlp((8,), (10, 6), steps_total=77, time_dim=6, attention=att, seed=2)
        path = tmp_path / "model.ckpt"
        db.save_checkpoint(m, path)
        back = db.load_checkpoint(path)
        x = np.random.default_rng(3).standard_normal(8)
        np.testing.assert_array_equal(back.predict_epsilon(x, 31), m.predict_epsilon(x, 31))
        assert back.attention.priority == Priority.LOCAL_FIRST

    def test_file_bytes_deterministic(self, tmp_path):
        m = db.init_mlp((4,), (6,), steps_total=10, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        db.save_checkpoint(m, p1)
        db.save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            db.load_checkpoint(bad)

    def test_rejects_header_without_arrays(self, tmp_path):
        good = tmp_path / "good.ckpt"
        db.save_checkpoint(db.init_mlp((4,), (6,), steps_total=10, seed=5), good)
        raw = good.read_bytes()
        header_len = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12 : 12 + header_len])
        del header["arrays"]
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len :])
        with pytest.raises(ValueError, match="'arrays'"):
            db.load_checkpoint(bad)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        db.save_checkpoint(db.init_mlp((4,), (6,), steps_total=10, seed=5), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match="after its last payload"):
            db.load_checkpoint(path)


class TestMlpBatched:
    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_batch_rows_byte_equal_single_calls(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        m = db.init_mlp((16, 16), (32, 32), steps_total=100, attention=att, seed=2)
        x = np.random.default_rng(3).standard_normal((2, 3, 16, 16))
        out = m.predict_epsilon(x, 37.5)
        assert out.shape == x.shape
        for i in range(2):
            for j in range(3):
                assert out[i, j].tobytes() == m.predict_epsilon(x[i, j], 37.5).tobytes()

    def test_backward_prediction_is_the_forward_pass(self):
        att = db.init_attention(4, 4, heads=2, windows=2, priority=Priority.LOCAL_FIRST, seed=3)
        m = db.init_mlp((16,), (12,), steps_total=100, time_dim=4, attention=att, seed=4)
        x, target = np.random.default_rng(5).standard_normal((2, 16))
        grads = m.backward(x, 60, target)
        assert grads.prediction.tobytes() == m.predict_epsilon(x, 60).tobytes()

    def test_batch_of_wrong_fields_rejected(self):
        m = db.init_mlp((4,), (8,), steps_total=10, seed=0)
        with pytest.raises(ValueError):
            m.predict_epsilon(np.zeros((3, 5)), 3)
        with pytest.raises(ValueError):
            m.backward(np.zeros((2, 5)), 3, np.zeros((2, 5)))


class TestMlpBatchedBackward:
    """A minibatch backward equals its rows' one-field backwards, added in row order."""

    def model(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        return db.init_mlp((16, 16), (32, 24), steps_total=100, attention=att, seed=2)

    @pytest.mark.parametrize("priority", [None, *Priority])
    @pytest.mark.parametrize("rows", [1, 2, 7, 33])
    def test_rows_byte_equal_one_field_calls(self, priority, rows):
        m = self.model(priority)
        rng = np.random.default_rng(rows)
        x, target = rng.standard_normal((2, rows, 16, 16))
        steps = rng.uniform(0.0, 100.0, rows)
        steps[::2] = rng.integers(0, 101, steps[::2].size)   # integer and fractional steps
        grads = m.backward(x, steps, target)
        assert grads.prediction.shape == x.shape
        expected = None
        for b in range(rows):
            assert grads.prediction[b].tobytes() == m.predict_epsilon(x[b], steps[b]).tobytes()
            one = m.backward(x[b], steps[b], target[b]).parameters()
            if expected is None:
                expected = [g.copy() for g in one]
            else:
                for acc, g in zip(expected, one):
                    acc += g
        for got, want in zip(grads.parameters(), expected, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("priority", [None, Priority.LOCAL_FIRST])
    def test_scalar_step_equals_that_step_per_row(self, priority):
        m = self.model(priority)
        x, target = np.random.default_rng(4).standard_normal((2, 5, 16, 16))
        shared = m.backward(x, 37, target)
        per_row = m.backward(x, np.full(5, 37), target)
        for a, b in zip([shared.prediction, *shared.parameters()],
                        [per_row.prediction, *per_row.parameters()]):
            assert a.tobytes() == b.tobytes()

    def test_one_field_keeps_its_shapes(self):
        m = self.model(Priority.GLOBAL_FIRST)
        x, target = np.random.default_rng(5).standard_normal((2, 16, 16))
        grads = m.backward(x, 12, target)
        assert grads.prediction.shape == (16, 16)
        assert [g.shape for g in grads.parameters()] == [p.shape for p in m.parameters()]

    def test_bad_shapes_and_steps_rejected(self):
        m = db.init_mlp((4,), (8,), steps_total=10, seed=0)
        with pytest.raises(ValueError):
            m.backward(np.zeros((3, 5)), 3, np.zeros((3, 5)))        # wrong field shape
        with pytest.raises(ValueError):
            m.backward(np.zeros((2, 3, 4)), 3, np.zeros((2, 3, 4)))  # two leading axes
        with pytest.raises(ValueError):
            m.backward(np.zeros((3, 4)), np.ones(2), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            m.backward(np.zeros((3, 4)), np.ones(4), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            m.backward(np.zeros(4), np.ones(1), np.zeros(4))       # one field, one step
        with pytest.raises(ValueError):
            m.backward(np.zeros((3, 4)), np.array([1.0, np.nan, 2.0]), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            m.backward(np.zeros((3, 4)), np.array([1.0, 11.0, 2.0]), np.zeros((3, 4)))

    @pytest.mark.parametrize("priority", [None, Priority.LOCAL_FIRST])
    def test_batch_loss_gradients_match_finite_differences(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(4, 4, heads=2, windows=2, priority=priority, seed=7)
        m = db.init_mlp((16,), (12,), steps_total=100, time_dim=4, attention=att, seed=8)
        x, target = np.random.default_rng(9).standard_normal((2, 3, 16))
        # predict_epsilon takes the same per-row steps, so the loss
        # mlp_gradcheck differentiates is the batch's summed loss.
        assert mlp_gradcheck(m, x, np.array([5.0, 48.5, 90.0]), target) < 1e-4
