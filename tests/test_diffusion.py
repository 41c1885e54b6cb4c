"""Forward noising statistics and DDIM stepping identities."""

import numpy as np
import pytest

import diffbridge as db
from diffbridge.diffusion import SamplerConfig, SigmaMode, ddim_sample, ddim_sigma, ddim_step
from diffbridge.rng import step_rng
from diffbridge.train import energy_distance


class ConstantEpsilon(db.EpsilonModel):
    def __init__(self, eps):
        self.eps = np.asarray(eps)

    def predict_epsilon(self, x, t):
        return np.broadcast_to(self.eps, x.shape).copy()


class TestForwardNoise:
    def test_time_zero_returns_input_exactly(self):
        sched = db.linear_schedule(100)
        x0 = np.array([0.4, -1.2])
        x_t, eps = db.forward_noise(x0, 0, sched, np.random.default_rng(0))
        np.testing.assert_array_equal(x_t, x0)
        assert eps.shape == x0.shape

    def test_per_row_steps_are_the_textbook_formula(self):
        sched = db.linear_schedule(100)
        x0 = np.random.default_rng(1).standard_normal((5, 3, 2))
        ts = np.array([0, 1, 50, 99, 100])
        x_t, eps = db.forward_noise(x0, ts, sched, np.random.default_rng(2))
        for row, t in enumerate(ts):
            ab = sched.alpha_bar(int(t))
            want = np.sqrt(ab) * x0[row] + np.sqrt(1.0 - ab) * eps[row]
            assert x_t[row].tobytes() == want.tobytes()
        np.testing.assert_array_equal(x_t[0], x0[0])   # step 0 returns x0

    def test_noise_is_one_standard_normal_draw(self):
        sched = db.linear_schedule(100)
        x0 = np.zeros((4, 3))
        rng = np.random.default_rng(3)
        _, eps = db.forward_noise(x0, np.array([0, 7, 0, 100]), sched, rng)
        want = np.random.default_rng(3)
        assert eps.tobytes() == want.standard_normal(x0.shape).tobytes()
        assert rng.random() == want.random()   # and nothing else was drawn

    def test_rejects_out_of_range_step(self):
        sched = db.linear_schedule(10)
        for t, bad in ((-1, -1), (11, 11), ([0, 11, 5], 11), ([3, -1, 5], -1)):
            with pytest.raises(ValueError, match=rf"^step {bad} outside \[0, 10\]$"):
                db.forward_noise(np.zeros((3, 2)), t, sched, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [[1, 2], [[1], [2], [3]], [1.0, 2.0, 3.0], 2.0])
    def test_rejects_a_step_of_another_shape_or_type(self, t):
        sched = db.linear_schedule(10)
        with pytest.raises(ValueError, match="one integer step or one per row") as info:
            db.forward_noise(np.zeros((3, 2)), t, sched, np.random.default_rng(0))
        assert len(str(info.value).splitlines()) == 1


class TestDdimStep:
    def test_zero_model_is_pure_rescale(self):
        sched = db.linear_schedule(500)
        model = ConstantEpsilon(np.zeros(2))
        x = np.array([2.0, -3.0])
        t = 250
        out = ddim_step(x, t, model, sched, 0.0)
        scale = np.sqrt(sched.alpha_bar(t - 1) / sched.alpha_bar(t))
        np.testing.assert_allclose(out, scale * x, rtol=1e-14)

    def test_deterministic_repeat(self):
        sched = db.linear_schedule(100)
        mix = db.default_gmm_pair().source
        model = db.AnalyticGmmEpsilon(mix, sched)
        x = np.array([0.3, 0.9])
        a = ddim_step(x, 40, model, sched, 0.0)
        b = ddim_step(x, 40, model, sched, 0.0)
        np.testing.assert_array_equal(a, b)

    def test_one_step_consistency_identity(self):
        # Deterministically noised state, model returning the exact noise:
        # the step must land on the closed-form t-1 state for every t.
        sched = db.linear_schedule(1000)
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = int(rng.integers(1, 1001))
            x0 = rng.standard_normal(2)
            eps = rng.standard_normal(2)
            ab_t = sched.alpha_bar(t)
            ab_prev = sched.alpha_bar(t - 1)
            x_t = np.sqrt(ab_t) * x0 + np.sqrt(1 - ab_t) * eps
            out = ddim_step(x_t, t, ConstantEpsilon(eps), sched, 0.0)
            expected = np.sqrt(ab_prev) * x0 + np.sqrt(1 - ab_prev) * eps
            rel = np.abs(out - expected).max() / max(np.abs(expected).max(), 1e-12)
            assert rel < 1e-10

    def test_sigma_radicand_guard(self):
        sched = db.linear_schedule(100)
        t = 50
        too_big = np.sqrt(1 - sched.alpha_bar(t - 1)) + 1e-6
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), t, ConstantEpsilon(np.zeros(2)), sched, too_big)

    def test_stochastic_step_needs_noise_shaped_like_the_state(self):
        sched = db.linear_schedule(100)
        for noise in (None, np.zeros(1), np.zeros((3, 2))):
            with pytest.raises(ValueError):
                ddim_step(np.zeros(2), 50, ConstantEpsilon(np.zeros(2)), sched, 0.1, noise)

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_bytes_equal_the_textbook_formula(self, eta):
        """ddim_step runs the shared in-place transfer; its bytes equal the plain coefficient form.

        The x0_hat form it folds lies within 1e-13, a rounding difference only.
        """
        sched = db.linear_schedule(1000)
        tex = db.make_texture_pair("bandsplit", 16, seed=4)
        model = db.AnalyticFieldEpsilon(tex.source.mode_variances, sched)
        x = tex.source.sample(3, seed=5)
        for t in (1000, 731, 402, 37, 2, 1):
            sigma = ddim_sigma(sched, t, eta)
            assert (sigma > 0.0) == (eta > 0.0 and t > 1)
            ab_t, ab_prev = sched.alpha_bar(t), sched.alpha_bar(t - 1)
            eps = model.predict_epsilon(x, t)
            c_x = np.sqrt(ab_prev) / np.sqrt(ab_t)
            c_e = np.sqrt(1.0 - ab_prev - sigma**2) - c_x * np.sqrt(1.0 - ab_t)
            expected = c_x * x + c_e * eps
            x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
            textbook = np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev - sigma**2) * eps
            noise = None
            if sigma > 0.0:
                noise = step_rng(3, 0, t).standard_normal(x.shape)
                expected = expected + sigma * noise
                textbook = textbook + sigma * noise
            got = ddim_step(x, t, model, sched, sigma, noise)
            assert got.tobytes() == expected.tobytes()
            np.testing.assert_allclose(got, textbook, rtol=0, atol=1e-13)
            assert not np.shares_memory(got, x)
            x = expected

    def test_a_float32_eps_steps_as_that_eps_cast_to_float64(self):
        """A trained model's float32 eps is widened as it is read, not multiplied in float32."""
        sched = db.linear_schedule(100)
        rng = np.random.default_rng(6)
        x, eps = rng.standard_normal((2, 4, 3))
        narrow = eps.astype(np.float32)
        for t in (100, 50, 1):
            got = ddim_step(x, t, ConstantEpsilon(narrow), sched)
            assert got.dtype == np.float64
            assert got.tobytes() == ddim_step(x, t, ConstantEpsilon(narrow.astype(np.float64)), sched).tobytes()

    def test_eta_sigma_vanishes_at_first_step(self):
        sched = db.linear_schedule(100)
        assert ddim_sigma(sched, 1, eta=1.0) == 0.0


class TestDdimSample:
    def setup_method(self):
        self.sched = db.linear_schedule(1000)
        self.mix = db.default_gmm_pair().source
        self.model = db.AnalyticGmmEpsilon(self.mix, self.sched)

    def test_single_step_schedule_reduces_to_one_step(self):
        sched = db.linear_schedule(1)
        model = ConstantEpsilon(np.array([0.1, -0.2]))
        x = np.array([1.0, 2.0])
        cfg = SamplerConfig(schedule=sched)
        np.testing.assert_array_equal(
            ddim_sample(x, model, cfg), ddim_step(x, 1, model, sched, 0.0)
        )

    def test_deterministic_mode_bit_identical_rerun(self):
        cfg = SamplerConfig(schedule=self.sched)
        x = np.random.default_rng(3).standard_normal(2)
        np.testing.assert_array_equal(
            ddim_sample(x, self.model, cfg), ddim_sample(x, self.model, cfg)
        )

    def test_batched_rows_equal_individual_runs(self):
        sched = db.linear_schedule(200)
        model = db.AnalyticGmmEpsilon(self.mix, sched)
        cfg = SamplerConfig(schedule=sched)
        xs = np.random.default_rng(4).standard_normal((5, 2))
        batch = ddim_sample(xs, model, cfg)
        singles = np.stack([ddim_sample(x, model, cfg) for x in xs])
        np.testing.assert_array_equal(batch, singles)

    def test_population_matches_mixture(self):
        cfg = SamplerConfig(schedule=self.sched)
        n = 400
        latents = np.random.default_rng(5).standard_normal((n, 2))
        samples = ddim_sample(latents, self.model, cfg)
        reference = db.gmm_sample(self.mix, n, seed=6)
        # Same-distribution estimator noise at n=400 measured ~0.03.
        assert energy_distance(samples, reference) < 0.1

    def test_ancestral_reproducible(self):
        cfg = SamplerConfig(
            schedule=self.sched, sigma_mode=SigmaMode.ANCESTRAL, eta=1.0, seed=11
        )
        latents = np.random.default_rng(11).standard_normal((4, 2))
        runs = [ddim_sample(latents, self.model, cfg, sample_index=range(4)) for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_ancestral_seeds_decorrelate(self):
        n = 200
        sched = db.linear_schedule(400)
        model = db.AnalyticGmmEpsilon(self.mix, sched)
        outs = {}
        for seed in (11, 22):
            cfg = SamplerConfig(
                schedule=sched, sigma_mode=SigmaMode.ANCESTRAL, eta=1.0, seed=seed
            )
            latents = np.random.default_rng(seed).standard_normal((n, 2))
            outs[seed] = ddim_sample(latents, model, cfg, sample_index=range(n))
        # Per-coordinate correlation: raveling would conflate the two
        # coordinates' different population means into spurious structure.
        for axis in range(2):
            corr = np.corrcoef(outs[11][:, axis], outs[22][:, axis])[0, 1]
            assert abs(corr) < 0.2

    def test_ancestral_execution_order_invariant(self):
        # Counter-based streams: evaluating samples in reverse order gives
        # bit-identical per-sample results.
        cfg = SamplerConfig(
            schedule=db.linear_schedule(50),
            sigma_mode=SigmaMode.ANCESTRAL,
            eta=1.0,
            seed=7,
        )
        model = db.AnalyticGmmEpsilon(self.mix, cfg.schedule)
        latents = np.random.default_rng(8).standard_normal((4, 2))
        forward_order = [ddim_sample(x, model, cfg, i) for i, x in enumerate(latents)]
        reverse_order = [
            ddim_sample(latents[i], model, cfg, i) for i in reversed(range(4))
        ][::-1]
        for a, b in zip(forward_order, reverse_order):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["gmm", "field", "mlp"])
    def test_ancestral_batch_rows_equal_single_sample_runs(self, kind):
        """Row r of a batched ancestral call is byte-equal to a single-sample call with its index.

        The indices are shuffled and repeated, and the batch is F-ordered, so
        its rows are not contiguous in memory.
        """
        sched = db.linear_schedule(60)
        if kind == "field":
            tex = db.make_texture_pair("bandsplit", 16, seed=4)
            model = db.AnalyticFieldEpsilon(tex.source.mode_variances, sched)
            latents = np.asfortranarray(tex.source.sample(5, seed=5))
        else:
            model = (
                db.AnalyticGmmEpsilon(self.mix, sched) if kind == "gmm"
                else db.init_mlp((2,), (16,), steps_total=60, seed=3)
            )
            latents = np.random.default_rng(9).standard_normal((2, 5)).T
        assert not latents.flags.c_contiguous
        cfg = SamplerConfig(schedule=sched, sigma_mode=SigmaMode.ANCESTRAL, eta=0.8, seed=13)
        indices = [3, 0, 7, 3, 1]
        batch = ddim_sample(latents, model, cfg, sample_index=indices)
        for row, x, i in zip(batch, latents, indices):
            assert row.tobytes() == ddim_sample(x, model, cfg, sample_index=i).tobytes()
        assert not np.array_equal(batch[0], batch[3])  # same index, different latents

    def test_sample_index_needs_one_index_per_row(self):
        cfg = SamplerConfig(schedule=db.linear_schedule(5), sigma_mode=SigmaMode.ANCESTRAL)
        latents = np.zeros((3, 2))
        for bad in ([0, 1], [0, 1, 2, 3], [[0, 1, 2]], np.zeros((3, 1), dtype=int)):
            with pytest.raises(ValueError):
                ddim_sample(latents, self.model, cfg, sample_index=bad)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_sampler_config_refuses_a_non_finite_or_negative_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            SamplerConfig(schedule=self.sched, sigma_mode=SigmaMode.ANCESTRAL, eta=eta)
