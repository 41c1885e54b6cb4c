"""Noise predictors against finite-difference and dense-algebra oracles."""

import json
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

import diffbridge as db
from diffbridge import attention, blocks, denoiser
from diffbridge.attention import Priority
from diffbridge.verify import DRIFT_TIME_FLOOR
from diffbridge.denoiser import (
    _block_gradients,
    _block_product,
    _silu,
    _silu_grad,
)
from diffbridge.domains import GaussianMixture, gmm_score
from diffbridge.verify import float64_copy, gradient_error, score_error
from conftest import FLOAT32_ROUNDING, even_variances, mlp_gradcheck, traced_peak


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
        assert score_error(self.model, np.random.default_rng(0), 100) < 1e-5

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
        # Step 0, and Heun's floored first drift node on a 50-step
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
        """Calls of every shape, in any order, leave earlier results as they were.

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

    def test_a_field_takes_one_transform_pair_and_a_spectrum_none(self, monkeypatch):
        """A field's eps is one rfft2 and one irfft2, neither given ``out``; a spectrum's is no transform."""
        pair = db.make_texture_pair("bandsplit", 16, seed=0)
        model = db.AnalyticFieldEpsilon(pair.target.mode_variances, db.linear_schedule(100))
        x = pair.source.sample(3, seed=1)
        spectrum = np.fft.rfft2(x, norm="ortho")
        calls = []
        for name in ("rfft2", "irfft2"):
            def recording(a, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls.append((_name, a.shape, "out" in kwargs))
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recording)
        model.predict_epsilon(x, 40)
        assert calls == [("rfft2", (3, 16, 16), False), ("irfft2", (3, 16, 9), False)]
        calls.clear()
        model.predict_epsilon(spectrum, 40)
        assert calls == []

    @pytest.mark.parametrize("name", ["6x9", "5x4", "bandsplit-16"])
    def test_a_spectrum_gets_the_fields_gain_in_its_own_representation(self, name):
        """Scoring rfft2(x) gives the spectrum the pixel path maps back, and leaves its input as it was."""
        lam, sample = texture_map(name)
        model = db.AnalyticFieldEpsilon(lam, db.linear_schedule(100))
        x = sample(4, 3)
        spectrum = np.fft.rfft2(x, norm="ortho")
        before = spectrum.tobytes()
        for t in (0, 1, 37.5, 100):
            eps = model.predict_epsilon(spectrum, t)
            assert eps.dtype == np.complex128 and eps.shape == spectrum.shape
            field = np.fft.irfft2(eps, s=lam.shape, norm="ortho")
            assert field.tobytes() == model.predict_epsilon(x, t).tobytes()
            assert eps[1].tobytes() == model.predict_epsilon(spectrum[1], t).tobytes()
        assert spectrum.tobytes() == before
        with pytest.raises(ValueError, match="domain shape"):
            model.predict_epsilon(np.zeros(lam.shape, complex), 3)

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

    # Signed zeros, where exp(-a) is near overflow (708) and past it (710), far past it, NaNs.
    GRID = [0.0, -0.0, 708.0, -708.0, 710.0, -710.0, 1e300, -1e300, np.nan, -np.nan, 5e-324, -1.0]

    def test_bytes_equal_the_formulas(self):
        a = np.concatenate((self.GRID, self._draws()[::50]))
        kept = a.copy()
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-a))
            value = a * (1.0 / (1.0 + np.exp(-a)))
            grad = s * (1.0 + a * (1.0 - s))
        assert _silu(a).tobytes() == value.tobytes()
        assert _silu_grad(a).tobytes() == grad.tobytes()
        assert a.tobytes() == kept.tobytes()   # the input is read, never written


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


def _checkpoint_bytes(header: dict, payloads, version: int = 2, dtype: str = "<f4") -> bytes:
    """README's checkpoint layout: magic, version 2, header length, JSON header, float32 payloads."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"DBCK" + struct.pack("<II", version, len(blob)) + blob + b"".join(
        np.asarray(a, dtype=dtype).tobytes() for a in payloads
    )


def _arange_model(with_attention: bool, dtype=np.float32) -> db.MlpDenoiser:
    """A 2-layer model on 8-value fields with arange weights, no RNG."""
    att = None
    if with_attention:
        att = db.AttentionConfig(
            token_count=2, model_dim=4, heads=2, windows=2, priority=Priority.LOCAL_FIRST,
            **{name: (np.arange(16.0).reshape(4, 4) / (k + 3)).astype(dtype)
               for k, name in enumerate(("w_query", "w_key", "w_value", "w_output"))},
        )
    arrays = [np.arange(30.0).reshape(10, 3) / 7, np.arange(24.0).reshape(3, 8) - 11.5,
              np.arange(3.0) - 1.0, np.arange(8.0) / 4]
    w0, w1, b0, b1 = (a.astype(dtype) for a in arrays)
    return db.MlpDenoiser(
        field_shape=(8,), widths=(3,), steps_total=20, time_dim=2,
        weights=[w0, w1], biases=[b0, b1], attention=att,
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
        "time_dim": 2, "activation": "silu", "attention": attention_meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }


class TestCheckpointFormat:
    """The byte layout README documents: version 2, float32 payloads; version 1 is refused."""

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
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("with_attention", [False, True])
    def test_a_float64_model_is_refused_with_one_line_and_no_file(self, with_attention, tmp_path):
        path = tmp_path / "wide.ckpt"
        with pytest.raises(ValueError, match="^checkpoints hold float32 models; got float64$"):
            db.save_checkpoint(_arange_model(with_attention, np.float64), path)
        assert not path.exists()

    @pytest.mark.parametrize("with_attention", [False, True])
    def test_a_version_1_file_is_refused_with_one_line(self, with_attention, tmp_path):
        """Version 1 held float64 payloads; it is refused, not read by casting."""
        m = _arange_model(with_attention, np.float64)
        arrays = _documented_arrays(m)
        path = tmp_path / "old.ckpt"
        path.write_bytes(_checkpoint_bytes(_documented_header(m, arrays), [a for _, a in arrays], 1, "<f8"))
        with pytest.raises(ValueError, match="^unsupported checkpoint version 1$"):
            db.load_checkpoint(path)

    def test_a_payload_cut_short_by_one_value_is_refused(self, tmp_path):
        m = _arange_model(with_attention=False)
        arrays = _documented_arrays(m)
        path = tmp_path / "short.ckpt"
        path.write_bytes(_checkpoint_bytes(_documented_header(m, arrays), [a for _, a in arrays])[:-4])
        with pytest.raises(ValueError, match="^truncated payload for array b1$"):
            db.load_checkpoint(path)

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

    @pytest.mark.parametrize("activation", ["tanh", "SiLU"])
    def test_activation_other_than_silu_rejected(self, activation, tmp_path):
        m = _arange_model(with_attention=False)
        arrays = _documented_arrays(m)
        header = {**_documented_header(m, arrays), "activation": activation}
        path = tmp_path / "model.ckpt"
        path.write_bytes(_checkpoint_bytes(header, [a for _, a in arrays]))
        message = f"^checkpoint header entry 'activation' must be the string 'silu', got '{activation}'$"
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_strided_batches_byte_equal_single_calls(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        m = db.init_mlp((16, 16), (32, 32), steps_total=100, attention=att, seed=2)
        x = np.random.default_rng(8).standard_normal((6, 16, 16))
        for batch in (np.asfortranarray(x), x[::2]):
            assert not batch.flags.c_contiguous
            out = m.predict_epsilon(batch, 37.5)
            for j, field in enumerate(batch):
                one = m.predict_epsilon(np.ascontiguousarray(field), 37.5)
                assert out[j].tobytes() == one.tobytes()

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


def reference_prediction(m, x, t):
    """The MLP's prediction for x at step(s) t, written out from its formulas.

    Attention: stacked per-matrix products, a last-axis-max softmax and
    the heads merged back; then the field and its concatenated time
    embedding through the dense layers, each layer one (16, k) GEMM per
    zero-padded block of 16 rows, with SiLU between them.  Everything is
    in the model's dtype; the embedding is computed in float64 and cast.
    """
    x = np.asarray(x, dtype=m.dtype)
    lead = x.shape[: x.ndim - len(m.field_shape)]
    if m.attention is not None:
        cfg = m.attention
        n, d, h, dh = cfg.token_count, cfg.model_dim, cfg.heads, cfg.head_dim
        w = 1 if cfg.priority == Priority.GLOBAL_FIRST else cfg.windows
        tokens = x.reshape(*lead, n, d)
        qkv = tokens @ np.concatenate([cfg.w_query, cfg.w_key, cfg.w_value], axis=1)
        q, k, v = (
            qkv[..., i * d : (i + 1) * d].reshape(*lead, w, n // w, h, dh).swapaxes(-3, -2)
            for i in range(3)
        )
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(dh)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        probs = e / e.sum(-1, keepdims=True)
        x = (probs @ v).swapaxes(-3, -2).reshape(*lead, n, d) @ cfg.w_output
    rows, size, half = math.prod(lead), math.prod(m.field_shape), m.time_dim // 2
    freqs = 10000.0 ** (np.arange(half) / max(half - 1, 1))
    angles = np.reshape(t / m.steps_total, (-1, 1)) * freqs
    embed = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1).astype(m.dtype)
    h = np.concatenate([x.reshape(rows, size), np.broadcast_to(embed, (rows, m.time_dim))], axis=1)
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        blocks = np.zeros((-(-rows // 16) * 16, h.shape[1]), dtype=m.dtype)
        blocks[:rows] = h
        a = (blocks.reshape(-1, 16, h.shape[1]) @ w).reshape(-1, w.shape[1])[:rows] + b
        h = a * (1.0 / (1.0 + np.exp(-a))) if i < last else a
    return h.reshape(*lead, *m.field_shape)


class TestMlpForwardBytes:
    """``predict_epsilon`` and ``backward``'s prediction have the bytes of the written-out formulas.

    For the float32 model ``init_mlp`` builds and for its float64 copy.
    """

    # No attention, then each priority at mlp-train's geometry and at one of 4 heads of 8 values.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("priority,geometry", [
        (None, None), *((p, (16, 16, 2, 4)) for p in Priority), *((p, (8, 32, 4, 2)) for p in Priority),
    ])
    def test_bytes_equal_the_formulas(self, priority, geometry, dtype):
        att = None
        if priority is not None:
            att = db.init_attention(*geometry, priority=priority, seed=1)
        m = db.init_mlp((16, 16), (64, 32), steps_total=100, attention=att, seed=2)
        m.biases = [np.random.default_rng(i).standard_normal(b.shape).astype(np.float32)
                    for i, b in enumerate(m.biases)]
        if dtype == np.float64:
            m = float64_copy(m)
        assert m.dtype == dtype
        rng = np.random.default_rng(3)
        field = rng.standard_normal((16, 16))
        assert m.predict_epsilon(field, 37.5).tobytes() == reference_prediction(m, field, 37.5).tobytes()
        for rows in (1, 5, 16, 17, 33):
            x = rng.standard_normal((rows, 16, 16))
            steps = rng.uniform(0.0, 100.0, rows)
            for batch in (x, np.asfortranarray(x)):
                for t in (37.5, 100, steps):
                    want = reference_prediction(m, batch, t).tobytes()
                    assert m.predict_epsilon(batch, t).tobytes() == want, (rows, t)
                    assert m.backward(batch, t, x).prediction.tobytes() == want, (rows, t)


@pytest.mark.parametrize("lead", [(0,), (2, 0)])
def test_empty_batch_gives_an_empty_prediction(lead):
    sched = db.linear_schedule(100)
    mix = GaussianMixture(weights=[0.5, 0.5], means=[[1.0, 0.0], [-1.0, 0.0]], variances=[0.5, 0.5])
    att = db.init_attention(16, 16, heads=2, windows=4, priority=Priority.LOCAL_FIRST, seed=1)
    models = [
        (db.AnalyticGmmEpsilon(mix, sched), (2,)),
        (db.AnalyticFieldEpsilon(np.ones((8, 8)), sched), (8, 8)),
        (db.init_mlp((16, 16), (32,), steps_total=100, seed=2), (16, 16)),
        (db.init_mlp((16, 16), (32,), steps_total=100, attention=att, seed=2), (16, 16)),
    ]
    for model, sample in models:
        x = np.zeros((*lead, *sample))
        out = model.predict_epsilon(x, 5)
        assert out.shape == x.shape and out.dtype == getattr(model, "dtype", np.float64)
        if isinstance(model, db.MlpDenoiser) and len(lead) == 1:   # a minibatch of no rows
            grads = model.backward(x, 5, x)
            assert grads.prediction.shape == x.shape
            for g, p in zip(grads.parameters, model.parameters(), strict=True):
                assert g.shape == p.shape and not g.any()


class TestBlockProduct:
    """The BLAS property the MLP's batch contract rests on."""

    BLAS_PROPERTY = (
        "a GEMM must compute each output row from that row alone, in an order set by"
        " the call's shape (its operands packed into fixed panels), not by the row's"
        " position or the stack around it; this BLAS does not, so batched MLP calls"
        " no longer equal one-field calls"
    )

    # The CLI's geometry (256-value field, 16-value time embedding), verify's, odd widths.
    @pytest.mark.parametrize("dims", [(272, 64, 64, 256), (9, 10, 8, 3), (17, 18, 19, 20)])
    def test_row_bytes_depend_on_neither_row_count_nor_position(self, dims):
        rng = np.random.default_rng(sum(dims))
        for k, m in zip(dims[:-1], dims[1:]):
            w = rng.standard_normal((k, m))
            for weight in (w, w.T):
                a = rng.standard_normal((128, weight.shape[0]))
                alone = [_block_product(a[j : j + 1], weight)[0].tobytes() for j in range(128)]
                assert _block_product(a[:0], weight).shape == (0, weight.shape[1])
                for rows in [*range(1, 41), 128]:
                    out = _block_product(a[:rows], weight)
                    assert out.shape == (rows, weight.shape[1])
                    for j in range(rows):   # row j sits at place j % 16 of block j // 16
                        assert out[j].tobytes() == alone[j], self.BLAS_PROPERTY

    def test_equals_matmul_to_rounding(self):
        rng = np.random.default_rng(3)
        a, w = rng.standard_normal((21, 9)), rng.standard_normal((9, 5))
        np.testing.assert_allclose(_block_product(a, w), a @ w, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(_block_product(a[::2], w), a[::2] @ w, rtol=1e-13, atol=1e-13)


def in_order_sum(parts):
    """The arrays of each list in ``parts`` added position by position, in list order."""
    total = [g.copy() for g in parts[0]]
    for part in parts[1:]:
        for acc, g in zip(total, part, strict=True):
            acc += g
    return total


class TestBlockGradients:
    """The BLAS property the MLP's minibatch gradients rest on."""

    BLAS_PROPERTY = (
        "a stacked GEMM must compute each (k, 16) @ (16, m) product from that block"
        " alone, in an order set by the call's shape, not by the block's place in the"
        " stack or the stack's length; this BLAS does not, so a minibatch's gradients"
        " no longer equal the in-order sum of its blocks' gradients"
    )

    # The CLI's geometry (256-value field, 16-value time embedding), verify's, odd widths.
    @pytest.mark.parametrize("dims", [(272, 64, 64, 256), (9, 10, 8, 3), (17, 18, 19, 20)])
    def test_block_bytes_depend_on_neither_row_count_nor_position(self, dims):
        rng = np.random.default_rng(sum(dims))
        for k, m in zip(dims[:-1], dims[1:]):
            post, delta = rng.standard_normal((128, k)), rng.standard_normal((128, m))
            for rows in [*range(1, 41), 128]:
                got = _block_gradients(post[:rows], delta[:rows])
                assert [g.shape for g in got] == [(k, m), (m,)]
                alone = [
                    _block_gradients(post[s : min(s + 16, rows)], delta[s : min(s + 16, rows)])
                    for s in range(0, rows, 16)
                ]
                for g, want in zip(got, in_order_sum(alone), strict=True):
                    assert g.tobytes() == want.tobytes(), self.BLAS_PROPERTY

    @pytest.mark.parametrize("rows", [1, 7, 16, 21])
    def test_zero_padding_adds_nothing(self, rows):
        rng = np.random.default_rng(rows)
        post, delta = rng.standard_normal((rows, 9)), rng.standard_normal((rows, 5))
        padded = 48
        zeros = (np.zeros((padded - rows, 9)), np.zeros((padded - rows, 5)))
        got = _block_gradients(post, delta)
        want = _block_gradients(np.vstack([post, zeros[0]]), np.vstack([delta, zeros[1]]))
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    def test_no_rows_give_zeros(self):
        weight, bias = _block_gradients(np.zeros((0, 9)), np.zeros((0, 5)))
        assert weight.shape == (9, 5) and bias.shape == (5,)
        assert not weight.any() and not bias.any()

    def test_equals_einsum_to_rounding(self):
        rng = np.random.default_rng(3)
        post, delta = rng.standard_normal((37, 9)), rng.standard_normal((37, 5))
        weight, bias = _block_gradients(post, delta)
        np.testing.assert_allclose(weight, np.einsum("bi,bj->ij", post, delta), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(bias, delta.sum(axis=0), rtol=1e-13, atol=1e-13)


class TestMlpBatchedBackward:
    """A minibatch backward is the in-order sum of its 16-row blocks' backwards.

    Its prediction rows equal one-field calls.
    """

    def model(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        return db.init_mlp((16, 16), (32, 24), steps_total=100, attention=att, seed=2)

    @pytest.mark.parametrize("priority", [None, *Priority])
    @pytest.mark.parametrize("rows", [1, 2, 7, 16, 17, 33, 128])
    def test_gradients_are_the_in_order_sum_of_block_calls(self, priority, rows):
        m = self.model(priority)
        rng = np.random.default_rng(rows)
        x, target = rng.standard_normal((2, rows, 16, 16))
        steps = rng.uniform(0.0, 100.0, rows)
        steps[::2] = rng.integers(0, 101, steps[::2].size)   # integer and fractional steps
        grads = m.backward(x, steps, target)
        assert grads.prediction.shape == x.shape
        for b in range(rows):
            assert grads.prediction[b].tobytes() == m.predict_epsilon(x[b], steps[b]).tobytes()
        blocks = [
            m.backward(x[s : s + 16], steps[s : s + 16], target[s : s + 16]).parameters
            for s in range(0, rows, 16)
        ]
        for got, want in zip(grads.parameters, in_order_sum(blocks), strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # A one-field call is a block of one row.
        one = m.backward(x[0], steps[0], target[0]).parameters
        for got, want in zip(one, m.backward(x[:1], steps[:1], target[:1]).parameters):
            assert got.tobytes() == want.tobytes()
        # The row-ordered sum of one-field gradients, to float64 rounding on the float64 copy.
        wide = float64_copy(m)
        per_row = in_order_sum(
            [wide.backward(x[b], steps[b], target[b]).parameters for b in range(rows)]
        )
        for got, want in zip(wide.backward(x, steps, target).parameters, per_row, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("rows", [1, 6, 33])
    def test_gradients_byte_equal_full_pullback_reference(self, rows):
        """Without attention the first layer's delta is not pulled back; no gradient moves."""
        m = db.init_mlp((16, 16), (32, 24), steps_total=100, seed=2)
        rng = np.random.default_rng(rows)
        x, target = rng.standard_normal((2, rows, 16, 16))
        steps = rng.uniform(0.0, 100.0, rows)
        out, pre, post = m._dense(x.astype(m.dtype), steps, (rows,))
        delta = 2.0 * (out - target.astype(m.dtype)).reshape(rows, -1)
        weights, biases = [], []
        for i in range(len(m.weights) - 1, -1, -1):
            if i < len(m.weights) - 1:
                delta = delta * _silu_grad(pre[i])
            d_weight, d_bias = _block_gradients(post[i], delta)
            weights.insert(0, d_weight)
            biases.insert(0, d_bias)
            delta = _block_product(delta, m.weights[i].T)
        grads = m.backward(x, steps, target)
        for got, want in zip(grads.parameters, [*weights, *biases], strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_first_layer_pullback_runs_only_for_attention(self, priority, monkeypatch):
        m = self.model(priority)
        seen = []
        monkeypatch.setattr(
            denoiser, "_block_product", lambda a, w: seen.append(w) or _block_product(a, w)
        )
        x, target = np.random.default_rng(7).standard_normal((2, 3, 16, 16))
        m.backward(x, np.array([5.0, 50.0, 95.0]), target)
        pulled_back = [w.base is m.weights[0] for w in seen]   # weights[0].T is a view
        assert any(pulled_back) == (priority is not None)

    @pytest.mark.parametrize("priority", list(Priority))
    def test_minibatch_backward_runs_the_attention_forward_once(self, priority, monkeypatch):
        m = self.model(priority)
        x, target = np.random.default_rng(6).standard_normal((2, 5, 16, 16))
        calls = []
        forward = attention.attention_forward_saved
        monkeypatch.setattr(
            attention, "attention_forward_saved", lambda *args: calls.append(1) or forward(*args)
        )
        m.backward(x, np.arange(5) * 20.0, target)
        assert len(calls) == 1

    @pytest.mark.parametrize("priority, bound_mb", [(Priority.GLOBAL_FIRST, 5.0),
                                                    (Priority.LOCAL_FIRST, 4.1)])
    def test_training_step_transient_peak(self, priority, bound_mb):
        """One 128-row step at mlp-train's geometry: 16 tokens of 16, 2 heads, 4 windows."""
        att = db.init_attention(16, 16, heads=2, windows=4, priority=priority, seed=1)
        m = db.init_mlp((16, 16), (64, 64), steps_total=1000, attention=att, seed=1)
        rng = np.random.default_rng(0)
        x, target = rng.standard_normal((2, 128, 16, 16))
        steps = rng.integers(1, 1001, 128)
        m.backward(x, steps, target)
        assert traced_peak(lambda: m.backward(x, steps, target)) < bound_mb * 1e6

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

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_multi_block_gradients_match_finite_differences(self, priority):
        """33 rows: two full blocks and one padded block, against the summed loss."""
        att = None
        if priority is not None:
            att = db.init_attention(4, 4, heads=2, windows=2, priority=priority, seed=7)
        m = db.init_mlp((16,), (12,), steps_total=100, time_dim=4, attention=att, seed=8)
        rng = np.random.default_rng(10)
        x, target = rng.standard_normal((2, 33, 16))
        steps = rng.uniform(1.0, 100.0, 33)
        assert gradient_error(m, x, steps, target, 1e-4) < 1e-4

    @pytest.mark.parametrize("priority", list(Priority))
    def test_multi_block_gradients_match_finite_differences_at_six_tokens(self, priority):
        """33 rows of a (6, 4) field as 6 tokens of 4 in 2 heads and 3 windows."""
        att = db.init_attention(6, 4, heads=2, windows=3, priority=priority, seed=7)
        m = db.init_mlp((6, 4), (12,), steps_total=100, time_dim=4, attention=att, seed=8)
        rng = np.random.default_rng(10)
        x, target = rng.standard_normal((2, 33, 6, 4))
        steps = rng.uniform(1.0, 100.0, 33)
        assert gradient_error(m, x, steps, target, 1e-4) < 1e-4

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_block_sum_runs_only_on_biases(self, priority, monkeypatch):
        """One _block_sum per dense layer, on its deltas; the attention gradients are block GEMMs."""
        m = self.model(priority)
        seen = []
        block_sum = blocks._block_sum
        monkeypatch.setattr(blocks, "_block_sum", lambda a: seen.append(a.shape) or block_sum(a))
        x, target = np.random.default_rng(8).standard_normal((2, 21, 16, 16))
        m.backward(x, 40, target)
        assert seen == [(21, b.size) for b in reversed(m.biases)]

    def test_backward_calls_no_einsum(self, monkeypatch):
        def einsum(*args, **kwargs):
            raise AssertionError("backward called np.einsum")

        monkeypatch.setattr(np, "einsum", einsum)
        for priority in (None, *Priority):
            x, target = np.random.default_rng(11).standard_normal((2, 17, 16, 16))
            self.model(priority).backward(x, 40, target)

    def test_width_one_layers_keep_the_block_order(self):
        """Where every gradient entry is one number, numpy's reduce would add the blocks pairwise."""
        m = db.init_mlp((1,), (1,), steps_total=100, seed=3)
        rows = 200
        rng = np.random.default_rng(12)
        x, target = rng.standard_normal((2, rows, 1))
        steps = rng.uniform(1.0, 100.0, rows)
        blocks = [
            m.backward(x[s : s + 16], steps[s : s + 16], target[s : s + 16]).parameters
            for s in range(0, rows, 16)
        ]
        grads = m.backward(x, steps, target).parameters
        for got, want in zip(grads, in_order_sum(blocks), strict=True):
            assert got.tobytes() == want.tobytes()


class TestFloat32Model:
    """``init_mlp`` builds float32 parameters, and the model computes in them throughout."""

    model = TestMlpBatchedBackward.model

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_no_array_is_widened(self, priority, monkeypatch):
        m = self.model(priority)
        assert m.dtype == np.float32
        assert [p.dtype for p in m.parameters()] == [np.float32] * len(m.parameters())
        x, target = np.random.default_rng(1).standard_normal((2, 21, 16, 16))   # a padded block
        steps = np.linspace(1.0, 100.0, 21)
        made = []

        def spy(fn):
            def recorded(*args, **kwargs):
                out = fn(*args, **kwargs)
                made.append((fn.__name__, out.dtype))
                return out
            return recorded

        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        for name in ("_blocks", "_in_order_sum"):
            monkeypatch.setattr(blocks, name, spy(getattr(blocks, name)))
        out = m.predict_epsilon(x, 40.5)
        grads = m.backward(x, steps, target)
        assert out.dtype == grads.prediction.dtype == np.float32
        assert [g.dtype for g in grads.parameters] == [np.float32] * len(m.parameters())
        assert {name for name, _ in made} >= {"zeros", "_blocks", "_in_order_sum"}
        assert [name for name, dtype in made if dtype != np.float32] == []

    @pytest.mark.parametrize("priority", [None, *Priority])
    def test_agrees_with_its_float64_copy_to_float32_rounding(self, priority):
        m = self.model(priority)
        wide = float64_copy(m)
        assert wide.dtype == np.float64 and all(p.dtype == np.float64 for p in wide.parameters())
        x, target = np.random.default_rng(2).standard_normal((2, 33, 16, 16))
        steps = np.random.default_rng(3).uniform(0.0, 100.0, 33)
        grads, grads64 = m.backward(x, steps, target), wide.backward(x, steps, target)
        for got, want in zip([grads.prediction, *grads.parameters],
                             [grads64.prediction, *grads64.parameters], strict=True):
            assert np.max(np.abs(got - want)) <= FLOAT32_ROUNDING * np.max(np.abs(want))

    def test_the_float64_copy_shares_no_array(self):
        m = self.model(Priority.LOCAL_FIRST)
        wide = float64_copy(float64_copy(m))
        assert not any(np.shares_memory(a, b) for a in wide.parameters() for b in m.parameters())

    @pytest.mark.parametrize("which", ["bias", "attention", "integer"])
    def test_parameters_of_mixed_dtypes_refused_with_one_line(self, which):
        m = self.model(Priority.GLOBAL_FIRST)
        weights, biases, att = list(m.weights), list(m.biases), m.attention
        if which == "bias":
            biases[1] = biases[1].astype(np.float64)
        elif which == "attention":
            att = float64_copy(att)
        else:   # cast to float64, as every array that is not float32 is
            weights[0] = weights[0].astype(np.int64)
        with pytest.raises(ValueError, match="^parameters must be all float32 or all float64, got float32 and float64$"):
            db.MlpDenoiser(m.field_shape, m.widths, m.steps_total, m.time_dim,
                           weights=weights, biases=biases, attention=att)

    def test_both_constructors_cast_integer_arrays_and_lists_to_float64(self):
        m = self.model(Priority.GLOBAL_FIRST)
        ints = [np.rint(4 * p).astype(np.int64) for p in m.parameters()]
        layers = len(m.weights)

        def build(dense, att_weights):
            names = ("w_query", "w_key", "w_value", "w_output")
            att = replace(m.attention, **dict(zip(names, att_weights, strict=True)))
            return db.MlpDenoiser(m.field_shape, m.widths, m.steps_total, m.time_dim,
                                  weights=dense[:layers], biases=dense[layers:], attention=att)

        wide = build([p.astype(np.float64) for p in ints[: 2 * layers]],
                     [p.astype(np.float64) for p in ints[2 * layers :]])
        cast = build([p.tolist() for p in ints[: 2 * layers]], ints[2 * layers :])
        assert cast.dtype == cast.attention.dtype == np.float64
        for got, want in zip(cast.parameters(), wide.parameters(), strict=True):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
