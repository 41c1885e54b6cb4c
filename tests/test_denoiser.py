"""Noise predictors against finite-difference and dense-algebra oracles."""

import json
import struct
import warnings

import numpy as np
import pytest
from scipy.special import expit

import diffbridge as db
from diffbridge import attention
from diffbridge.attention import Priority
from diffbridge.bridge import DRIFT_TIME_FLOOR
from diffbridge.denoiser import _ACTIVATIONS, _silu, _silu_grad
from diffbridge.domains import GaussianMixture, gmm_log_density, gmm_score, noised_mixture


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
    grads = model.backward(x, t, target).parameters
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

    def test_nan_rows_of_both_signs_keep_their_positions(self):
        """NaN positions and finite rows equal the one-row calls; NaN signs need not.

        Which NaN a row of NaNs of both signs gets depends on its position
        in the batch (numpy's loops).
        """
        rows = np.array([[np.nan, -np.nan], [0.3, -0.2], [-np.nan, np.nan], [1.5, 0.5]])
        for n in range(1, 40):
            x = rows[np.arange(n) % 4]
            got = self.model.predict_epsilon(x, 300)
            single = np.stack([self.model.predict_epsilon(row, 300) for row in x])
            np.testing.assert_array_equal(np.isnan(got), np.isnan(single))
            finite = np.isfinite(x).all(axis=-1)
            assert got[finite].tobytes() == single[finite].tobytes()

    def test_rejects_bad_step(self):
        for t in (-1, -1e-12, 1000.000001, 1001, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                self.model.predict_epsilon(np.zeros(2), t)

    @pytest.mark.parametrize("shape", [(3,), (4, 5)])
    def test_rejects_wrong_dimension_where_alpha_bar_is_one(self, shape):
        # Step 0, and the drift integrators' first node on a 50-step
        # schedule, whose alpha_bar rounds to 1: the epsilon there is 0,
        # but a point of the wrong dimension is still refused.
        sched = db.linear_schedule(50)
        model = db.AnalyticGmmEpsilon(self.mix, sched)
        steps = (0, DRIFT_TIME_FLOOR * 50)
        assert [sched.alpha_bar_at(t / 50) for t in steps] == [1.0, 1.0]
        for m, t in ((self.model, 0), *((model, t) for t in steps)):
            with pytest.raises(ValueError, match=f"^point dimension {shape[-1]} != mixture dimension 2$"):
                m.predict_epsilon(np.zeros(shape), t)
            assert m.predict_epsilon(np.ones((*shape[:-1], 2)), t).tobytes() == np.zeros((*shape[:-1], 2)).tobytes()


class TestGmmStepTable:
    """The tabulated steps against the per-call formula of the exact epsilon.

    The expected value builds the noised mixture with the checked
    constructor and alpha_bar with a scalar ``alpha_bar_at`` call, so it
    shares no code with the table.
    """

    MIXTURES = {
        "default-pair": db.default_gmm_pair().source,
        "three-component": GaussianMixture(
            weights=[0.3, 0.5, 0.2],
            means=[[1.0, -2.0], [-1.5, 0.5], [2.0, 2.0]],
            variances=[0.4, 0.8, 0.2],
        ),
    }

    @staticmethod
    def expected(mix, sched, x, t):
        ab = sched.alpha_bar_at(t / sched.steps_T)
        if ab == 1.0:  # step 0, or a fractional step that rounds to it
            return np.zeros_like(x)
        noised = GaussianMixture(mix.weights, np.sqrt(ab) * mix.means, ab * mix.variances + (1.0 - ab))
        return -np.sqrt(1 - ab) * gmm_score(noised, x)

    @pytest.mark.parametrize("name", MIXTURES)
    @pytest.mark.parametrize("steps_T", [1, 7, 1000])
    def test_bytes_equal_per_call_formula(self, name, steps_T):
        mix = self.MIXTURES[name]
        sched = db.linear_schedule(steps_T)
        model = db.AnalyticGmmEpsilon(mix, sched)
        rng = np.random.default_rng(steps_T)
        inputs = (rng.normal(scale=3.0, size=2), rng.normal(scale=3.0, size=(4, 8, 2)))
        fractional = [*rng.uniform(0.0, steps_T, 40), 1e-9 * steps_T, 0.5, steps_T - 1e-9]
        for t in [*range(1, steps_T + 1), *fractional]:
            for x in inputs:
                got = model.predict_epsilon(x, t)
                assert got.tobytes() == self.expected(mix, sched, x, t).tobytes(), t
        for x in inputs:
            zero = model.predict_epsilon(x, 0)
            assert zero.shape == x.shape and zero.tobytes() == np.zeros_like(x).tobytes()

    @pytest.mark.parametrize("dimension", [1, 2, 16])
    def test_table_is_read_only_with_one_row_per_step_whatever_the_dimension(self, dimension):
        mix = GaussianMixture([0.5, 0.5], np.ones((2, dimension)) * [[1.0], [-1.0]], [0.5, 2.0])
        model = db.AnalyticGmmEpsilon(mix, db.linear_schedule(7))
        shapes = [column.shape for column in model._table]
        assert shapes == [(8,), (8,), (8,), (8, 2), (8, 2)]
        assert not any(column.flags.writeable for column in model._table)


def even_variances(shape, seed):
    """Positive mode variances with v[i, j] == v[-i, -j] exactly."""
    v = np.random.default_rng(seed).uniform(0.05, 2.0, shape)
    return (v + np.roll(v[::-1, ::-1], 1, axis=(0, 1))) / 2


def fft2_epsilon(lam, ab, x):
    """The exact texture epsilon through the full complex spectrum."""
    spectrum = np.fft.fft2(x, norm="ortho") / (ab * lam + (1.0 - ab))
    return np.sqrt(1.0 - ab) * np.fft.ifft2(spectrum, norm="ortho").real


def rfft_formula(lam, ab, x):
    """The exact texture epsilon through the strided, dividing real-input transform pair."""
    width = lam.shape[1]
    half = np.fft.fft(np.fft.rfft(x, axis=-1, norm="ortho"), axis=-2, norm="ortho")
    half /= (ab * lam[:, : width // 2 + 1] + (1.0 - ab)) / np.sqrt(1.0 - ab)
    return np.fft.irfft(np.fft.ifft(half, axis=-2, norm="ortho"), n=width, axis=-1, norm="ortho")


def texture_map(name):
    """Mode variances and a sampler of fields for a test geometry."""
    if name.startswith("bandsplit"):
        domain = db.make_texture_pair("bandsplit", int(name[len("bandsplit-"):]), seed=2).target
        return domain.mode_variances, lambda n, seed: domain.sample(n, seed=seed)
    shape = tuple(int(v) for v in name.split("x"))
    lam = even_variances(shape, seed=sum(shape))
    return lam, lambda n, seed: np.random.default_rng(seed).standard_normal((n, *shape))


class TestAnalyticFieldEpsilon:
    @pytest.mark.parametrize("shape", [(16, 16), (6, 9), (5, 4)], ids=["bandsplit-16x16", "6x9", "5x4"])
    def test_matches_dense_covariance_oracle(self, shape):
        """Square bandsplit variances, an odd width and a rectangular grid."""
        sched = db.linear_schedule(100)
        if shape == (16, 16):
            pair = db.make_texture_pair("bandsplit", 16, seed=4)
            lam = pair.target.mode_variances
            x = pair.target.sample(1, seed=2)[0]
        else:
            lam = even_variances(shape, seed=sum(shape))
            x = 0.3 * np.random.default_rng(2).standard_normal(shape)
        model = db.AnalyticFieldEpsilon(lam, sched)

        # Oracle: materialize the circulant covariance as a dense matrix by
        # applying it to every basis vector, then solve directly.
        dim = lam.size
        cov = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            ce = np.fft.ifft2(lam * np.fft.fft2(e.reshape(shape), norm="ortho"), norm="ortho").real
            cov[:, j] = ce.reshape(-1)

        for t in (1, 40, 100):
            ab = sched.alpha_bar(t)
            cov_t = ab * cov + (1 - ab) * np.eye(dim)
            score = -np.linalg.solve(cov_t, x.reshape(-1))
            expected = -np.sqrt(1 - ab) * score.reshape(shape)
            got = model.predict_epsilon(x, t)
            np.testing.assert_allclose(got, expected, atol=1e-10)
            if shape != (16, 16):  # the bandsplit target is even only to 2.2e-9
                np.testing.assert_allclose(got, fft2_epsilon(lam, ab, x), rtol=0, atol=1e-14)

    def test_batch_bytes_equal_rfft_formula_across_calls(self):
        """One pair of half-spectrum work arrays serves every shape; results are not overwritten.

        They have the bytes of the real-input transform pair and lie
        within 1e-14 of the fft2/ifft2 formula.
        """
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
            half = np.fft.fft(np.fft.rfft(x, axis=-1, norm="ortho"), axis=-2, norm="ortho")
            half /= (ab * lam[:, :9] + (1.0 - ab)) / np.sqrt(1.0 - ab)
            expected = np.fft.irfft(np.fft.ifft(half, axis=-2, norm="ortho"), n=16, axis=-1, norm="ortho")
            assert eps.tobytes() == expected.tobytes()
            np.testing.assert_allclose(eps, fft2_epsilon(lam, ab, x), rtol=0, atol=1e-14)
        assert [w.size for w in model._work] == [9 * 16 * 9, 9 * 16 * 9]

    @pytest.mark.parametrize("size", [16, 32])
    def test_batch_rows_byte_equal_single_calls(self, size):
        pair = db.make_texture_pair("bandsplit", size, seed=1)
        sched = db.linear_schedule(1000)
        model = db.AnalyticFieldEpsilon(pair.target.mode_variances, sched)
        fields = pair.source.sample(9, seed=5)
        batches = [fields[:n] for n in range(1, 10)] + [fields.reshape(3, 3, size, size)]
        for t in (1, 37.5, 1000):
            for batch in batches:
                got = model.predict_epsilon(batch, t).reshape(-1, size, size)
                for row, field in zip(got, batch.reshape(-1, size, size)):
                    assert row.tobytes() == model.predict_epsilon(field, t).tobytes()

    @pytest.mark.parametrize("name", ["6x9", "5x4", "bandsplit-16", "bandsplit-32", "bandsplit-64"])
    def test_bytes_equal_strided_dividing_formula_across_geometries(self, name):
        """The contiguous column pass and the reciprocal multiply keep the formula's bytes.

        Even and odd widths, one field to nine and a (3, 3) stack, early,
        fractional and late steps.
        """
        lam, sample = texture_map(name)
        sched = db.linear_schedule(100)
        model = db.AnalyticFieldEpsilon(lam, sched)
        fields = sample(9, 3)
        batches = [fields[:n] for n in range(1, 10)] + [fields.reshape(3, 3, *lam.shape)]
        for t in (1, 37.5, 100):
            ab = sched.alpha_bar_at(t / 100)
            for batch in batches:
                assert model.predict_epsilon(batch, t).tobytes() == rfft_formula(lam, ab, batch).tobytes()
            assert model.predict_epsilon(fields[4], t).tobytes() == rfft_formula(lam, ab, fields[4]).tobytes()

    @pytest.mark.parametrize("name", ["6x9", "5x4", "bandsplit-16"])
    def test_exact_zero_inputs_equal_formula(self, name):
        """Exact zeros keep the formula's values; only the sign of a zero may differ.

        An all-(-0.0) field gives a zero whose sign differs from the
        division's, since x * (1/d) and Smith's (x + 0 * y) * (1/d) differ
        only there.
        """
        lam, _ = texture_map(name)
        sched = db.linear_schedule(100)
        model = db.AnalyticFieldEpsilon(lam, sched)
        pixel = np.zeros(lam.shape)
        pixel[1, 2] = 1.0
        for x in (np.zeros(lam.shape), np.full(lam.shape, -0.0), np.full(lam.shape, 2.5), pixel):
            for t in (1, 37.5, 100):
                got = model.predict_epsilon(x, t)
                np.testing.assert_array_equal(got, rfft_formula(lam, sched.alpha_bar_at(t / 100), x))

    def test_every_transform_runs_on_a_contiguous_last_axis(self, monkeypatch):
        pair = db.make_texture_pair("bandsplit", 16, seed=0)
        model = db.AnalyticFieldEpsilon(pair.target.mode_variances, db.linear_schedule(100))
        x = pair.source.sample(3, seed=1)
        calls = []
        for name in ("rfft", "fft", "ifft", "irfft"):
            def recording(a, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                calls.append((_name, axis % a.ndim == a.ndim - 1, a.flags.c_contiguous))
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recording)
        model.predict_epsilon(x, 40)
        assert calls == [(name, True, True) for name in ("rfft", "fft", "ifft", "irfft")]

    @pytest.mark.parametrize("lam,message", [
        (np.ones(4), "must be a nonempty 2-D array, got shape \\(4,\\)"),
        (np.ones((2, 2, 2)), "must be a nonempty 2-D array"),
        (np.ones((0, 3)), "must be a nonempty 2-D array"),
        (np.array([[1.0, np.nan], [1.0, 1.0]]), "must be finite and positive"),
        (np.array([[1.0, np.inf], [1.0, 1.0]]), "must be finite and positive"),
        (np.array([[1.0, 0.0], [1.0, 1.0]]), "must be finite and positive"),
        (np.array([[1.0, -1.0], [1.0, 1.0]]), "must be finite and positive"),
        # v[0, 1] pairs with v[0, -1] = v[0, 2], which differs by 2e-6.
        (np.array([[1.0, 1.0, 1.000002], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), "must be even"),
    ])
    def test_variances_the_half_plane_cannot_represent_rejected(self, lam, message):
        with pytest.raises(ValueError, match=f"^mode_variances {message}") as err:
            db.AnalyticFieldEpsilon(lam, db.linear_schedule(10))
        assert "\n" not in str(err.value)

    def test_evenness_tolerance_is_relative(self):
        lam = 1e-3 * even_variances((6, 9), seed=3)
        lam[1, 2] *= 1.0 + 5e-7
        kept = db.AnalyticFieldEpsilon(lam, db.linear_schedule(10)).mode_variances
        assert kept.tobytes() == lam.tobytes()
        lam[1, 2] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="even under frequency negation"):
            db.AnalyticFieldEpsilon(lam, db.linear_schedule(10))

    def test_later_writes_to_the_callers_variances_change_nothing(self):
        lam = even_variances((6, 8), seed=4)
        model = db.AnalyticFieldEpsilon(lam, db.linear_schedule(10))
        x = np.random.default_rng(5).standard_normal((6, 8))
        before = model.predict_epsilon(x, 4)
        lam *= 2.0
        assert model.mode_variances.tobytes() == (lam / 2.0).tobytes()
        assert not model.mode_variances.flags.writeable
        assert model.predict_epsilon(x, 4).tobytes() == before.tobytes()

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
        for g in grads.parameters:
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
        d_w0, _, d_b0, _ = grads.parameters
        np.testing.assert_array_equal(d_w0[:, 2], np.zeros(7))
        assert d_b0[2] == 0.0

    @pytest.mark.parametrize("widths", [(0,), (-1,), (64, 0)])
    def test_widths_below_one_rejected(self, widths):
        with pytest.raises(ValueError, match="widths") as err:
            db.init_mlp((2,), widths, steps_total=50)
        assert "\n" not in str(err.value)

    def test_layer_lists_of_the_wrong_length_rejected(self):
        m = db.init_mlp((4,), (6,), steps_total=10, seed=0)
        w, b = m.weights, m.biases
        for weights, biases, counts in [
            (w + [np.zeros((4, 4))], b + [np.zeros(4)], "3 weight and 3 bias"),
            (w, [], "2 weight and 0 bias"),
            ([], b, "0 weight and 2 bias"),
            (w[:1], b[:1], "1 weight and 1 bias"),
            ([], [], "0 weight and 0 bias"),
        ]:
            with pytest.raises(ValueError, match=f"^{counts} arrays for 2 layers$"):
                db.MlpDenoiser(field_shape=(4,), widths=(6,), steps_total=10,
                               weights=weights, biases=biases)
        with pytest.raises(TypeError, match="weights"):
            db.MlpDenoiser(field_shape=(4,), widths=(6,), steps_total=10)

    def test_empty_field_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^field_shape must have at least one axis, got \(\)$"):
            db.init_mlp((), (4,), steps_total=1000)

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


def _checkpoint_bytes(header: dict, payloads) -> bytes:
    """README's checkpoint layout: magic, version 1, header length, JSON header, float64 payloads."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"DBCK" + struct.pack("<II", 1, len(blob)) + blob + b"".join(
        np.asarray(a, dtype="<f8").tobytes() for a in payloads
    )


def _arange_model(with_attention: bool) -> db.MlpDenoiser:
    """A 2-layer tanh model on 8-value fields with arange weights, no RNG."""
    att = None
    if with_attention:
        att = db.AttentionConfig(
            token_count=2, model_dim=4, heads=2, windows=2, priority=Priority.LOCAL_FIRST,
            **{name: np.arange(16.0).reshape(4, 4) / (k + 3)
               for k, name in enumerate(("w_query", "w_key", "w_value", "w_output"))},
        )
    return db.MlpDenoiser(
        field_shape=(8,), widths=(3,), steps_total=20, time_dim=2, activation="tanh",
        weights=[np.arange(30.0).reshape(10, 3) / 7, np.arange(24.0).reshape(3, 8) - 11.5],
        biases=[np.arange(3.0) - 1.0, np.arange(8.0) / 4],
        attention=att,
    )


def _documented_arrays(m: db.MlpDenoiser) -> list[tuple[str, np.ndarray]]:
    """An ``_arange_model``'s payload arrays and their names, in README's order."""
    arrays = [("w0", m.weights[0]), ("w1", m.weights[1]), ("b0", m.biases[0]), ("b1", m.biases[1])]
    if m.attention is not None:
        a = m.attention
        arrays += [("att_wq", a.w_query), ("att_wk", a.w_key),
                   ("att_wv", a.w_value), ("att_wo", a.w_output)]
    return arrays


def _documented_header(m: db.MlpDenoiser, arrays) -> dict:
    attention_meta = None
    if m.attention is not None:
        attention_meta = {"token_count": 2, "model_dim": 4, "heads": 2, "windows": 2,
                          "priority": "local_first"}
    return {
        "kind": "mlp_denoiser", "field_shape": [8], "widths": [3], "steps_total": 20,
        "time_dim": 2, "activation": "tanh", "attention": attention_meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }


class TestCheckpointFormat:
    """The byte layout README documents, which older checkpoints keep loading by."""

    @pytest.mark.parametrize("with_attention", [False, True])
    def test_bytes_are_the_documented_layout(self, with_attention, tmp_path):
        m = _arange_model(with_attention)
        arrays = _documented_arrays(m)
        header = _documented_header(m, arrays)
        path = tmp_path / "model.ckpt"
        db.save_checkpoint(m, path)
        assert path.read_bytes() == _checkpoint_bytes(header, [a for _, a in arrays])
        back = db.load_checkpoint(path).named_parameters()
        assert [name for name, _ in back] == [name for name, _ in arrays]
        for (_, got), (_, want) in zip(back, arrays, strict=True):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("change", ["extra", "duplicate", "missing", "reordered", "unread"])
    def test_arrays_other_than_the_models_rejected(self, change, tmp_path):
        m = _arange_model(with_attention=True)
        arrays = _documented_arrays(m)
        header = _documented_header(m, arrays)
        if change == "extra":
            arrays.append(("junk", np.zeros(3)))
        elif change == "duplicate":
            arrays.append(("w0", m.weights[0] + 1.0))
        elif change == "missing":
            arrays = [(name, a) for name, a in arrays if name != "b1"]
        elif change == "reordered":
            arrays[4], arrays[5] = arrays[5], arrays[4]
        else:
            header["attention"] = None
        header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
        path = tmp_path / "model.ckpt"
        path.write_bytes(_checkpoint_bytes(header, [a for _, a in arrays]))
        with pytest.raises(ValueError, match=r"^checkpoint arrays must be \['w0', ") as err:
            db.load_checkpoint(path)
        assert "\n" not in str(err.value)


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
            one = m.backward(x[b], steps[b], target[b]).parameters
            if expected is None:
                expected = [g.copy() for g in one]
            else:
                for acc, g in zip(expected, one):
                    acc += g
        for got, want in zip(grads.parameters, expected, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("priority", [None, Priority.LOCAL_FIRST])
    def test_scalar_step_equals_that_step_per_row(self, priority):
        m = self.model(priority)
        x, target = np.random.default_rng(4).standard_normal((2, 5, 16, 16))
        shared = m.backward(x, 37, target)
        per_row = m.backward(x, np.full(5, 37), target)
        for a, b in zip([shared.prediction, *shared.parameters],
                        [per_row.prediction, *per_row.parameters]):
            assert a.tobytes() == b.tobytes()

    def test_one_field_keeps_its_shapes(self):
        m = self.model(Priority.GLOBAL_FIRST)
        x, target = np.random.default_rng(5).standard_normal((2, 16, 16))
        grads = m.backward(x, 12, target)
        assert grads.prediction.shape == (16, 16)
        assert [g.shape for g in grads.parameters] == [p.shape for p in m.parameters()]

    @pytest.mark.parametrize("activation", ["silu", "tanh"])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_gradients_byte_equal_full_pullback_reference(self, activation, rows):
        """Without attention the first layer's delta is not pulled back; no gradient moves."""
        m = db.init_mlp((16, 16), (32, 24), steps_total=100, activation=activation, seed=2)
        rng = np.random.default_rng(rows)
        x, target = rng.standard_normal((2, rows, 16, 16))
        steps = rng.uniform(0.0, 100.0, rows)
        out, pre, post = m._dense(x, steps, (rows,))
        act_grad = _ACTIVATIONS[activation][1]
        delta = 2.0 * (out - target).reshape(rows, -1)
        weights, biases = [], []
        for i in range(len(m.weights) - 1, -1, -1):
            if i < len(m.weights) - 1:
                delta = delta * act_grad(pre[i][:, 0])
            weights.insert(0, np.einsum("bi,bj->ij", post[i][:, 0], delta, optimize=False))
            biases.insert(0, np.add.reduce(delta, axis=0))
            delta = (m.weights[i] @ delta[..., None])[..., 0]
        grads = m.backward(x, steps, target)
        for got, want in zip(grads.parameters, [*weights, *biases], strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_first_layer_pullback_runs_only_for_attention(self, priority):
        class Recording(np.ndarray):
            """Records the shape of every matrix that is the left operand of @."""

            shapes = []

            def __matmul__(self, other):
                Recording.shapes.append(self.shape)
                return np.matmul(np.asarray(self), other)

        m = self.model(priority)
        first = m.weights[0].shape
        m.weights[0] = m.weights[0].view(Recording)
        x, target = np.random.default_rng(7).standard_normal((2, 3, 16, 16))
        m.backward(x, np.array([5.0, 50.0, 95.0]), target)
        assert (first in Recording.shapes) == (priority is not None)

    @pytest.mark.parametrize("priority", list(Priority))
    def test_minibatch_backward_runs_the_attention_forward_once(self, priority, monkeypatch):
        m = self.model(priority)
        x, target = np.random.default_rng(6).standard_normal((2, 5, 16, 16))
        calls = []
        internals = attention._internals
        monkeypatch.setattr(
            attention, "_internals", lambda *args: calls.append(1) or internals(*args)
        )
        m.backward(x, np.arange(5) * 20.0, target)
        assert len(calls) == 1

    def test_inference_and_training_take_their_attention_entry_points(self, monkeypatch):
        m = self.model(Priority.LOCAL_FIRST)
        x, target = np.random.default_rng(7).standard_normal((2, 5, 16, 16))
        seen = []
        for name in ("attention_forward", "attention_backward"):
            def traced(*args, _name=name, _fn=getattr(attention, name)):
                seen.append(_name)
                return _fn(*args)
            monkeypatch.setattr(attention, name, traced)
        m.predict_epsilon(x, 30)
        assert seen == ["attention_forward"]
        seen.clear()
        m.backward(x, 30, target)
        assert seen == ["attention_backward"]

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
