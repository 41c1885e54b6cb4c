"""Training loop behavior and the energy-distance fit metric."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.diffusion import SamplerConfig, ddim_sample
from diffbridge.domains import make_texture_pair, sample_domain
from diffbridge.train import (
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    energy_distance,
    evaluate_fit,
    init_model,
    train_denoiser,
)


def reference_training(data, cfg, schedule, seed, priority=Priority.GLOBAL_FIRST, rows_per_call=1):
    """Reference: train_denoiser with one backward call per ``rows_per_call`` examples.

    Each minibatch draws its examples' steps in one call and then their
    noise in one call, as train_denoiser does.  With ``rows_per_call`` 1
    it is the loop train_denoiser ran before it batched its minibatches:
    one backward per example (a one-row call has a one-field call's bytes).
    Each call's gradient is divided by the field size before it joins
    the minibatch sum, in call order.
    """
    data = np.asarray(data, dtype=np.float64)
    field_shape = data.shape[1:]
    field_size = int(np.prod(field_shape))
    model = init_model(field_shape, cfg, schedule, seed, priority)
    _, loop_seed = np.random.SeedSequence(seed).generate_state(2)
    rng = np.random.default_rng(int(loop_seed))
    opt = _Adam(model.parameters(), cfg.learning_rate)
    n = data.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ts = [int(t) for t in rng.integers(1, schedule.steps_T + 1, size=len(batch))]
            noise = list(rng.standard_normal((len(batch), *field_shape)))
            x_t = []
            for idx, t, eps in zip(batch, ts, noise):
                ab = schedule.alpha_bar(t)
                x_t.append(np.sqrt(ab) * data[idx] + np.sqrt(1.0 - ab) * eps)
            grad_sum = None
            loss_sum = 0.0
            for lo in range(0, len(batch), rows_per_call):
                rows = slice(lo, lo + rows_per_call)
                grad = model.backward(np.stack(x_t[rows]), np.array(ts[rows]), np.stack(noise[rows]))
                for eps, prediction in zip(noise[rows], grad.prediction, strict=True):
                    loss_sum += float(np.mean((eps - prediction) ** 2))
                if grad_sum is None:
                    grad_sum = [g / field_size for g in grad.parameters]
                else:
                    for acc, g in zip(grad_sum, grad.parameters):
                        acc += g / field_size
            scale = 1.0 / len(batch)
            opt.step([g * scale for g in grad_sum])
            epoch_losses.append(loss_sum * scale)
        history.append(float(np.mean(epoch_losses)))
    return model, history


class TestEnergyDistance:
    def test_identical_sets_give_zero(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        assert energy_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_separated_sets_give_positive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal((100, 2)) + 5.0
        assert energy_distance(x, y) > 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((60, 3))
        assert energy_distance(x, y) == pytest.approx(energy_distance(y, x), rel=1e-12)

    @pytest.mark.parametrize("shapes", [((5, 2), (5, 3)), ((2, 2, 2), (2, 2))])
    def test_rejects_sets_of_different_dimension(self, shapes):
        x, y = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="need two sets of rows of one length"):
            energy_distance(x, y)

    @pytest.mark.parametrize("shapes", [((0, 2), (3, 2)), ((3, 2), (0, 2)), ((0, 2), (0, 2))])
    def test_rejects_an_empty_set(self, shapes):
        x, y = np.empty(shapes[0]), np.ones(shapes[1])
        with pytest.raises(ValueError, match=r"nonempty.*\(\d, 2\) and \(\d, 2\)"):
            energy_distance(x, y)

    @staticmethod
    def _cdist_form(x, y):
        return float(2.0 * cdist(x, y).mean() - cdist(x, x).mean() - cdist(y, y).mean())

    def test_bytes_equal_cdist_in_two_dimensions(self):
        # scipy is the oracle; the points are the shape evaluate_fit scores.
        rng = np.random.default_rng(3)
        for n, m in ((1, 1), (1, 7), (150, 150), (300, 200)):
            x = rng.standard_normal((n, 2)) * 3.0
            y = rng.standard_normal((m, 2)) + 1.0
            assert energy_distance(x, y).hex() == self._cdist_form(x, y).hex()

    def test_close_to_cdist_in_many_dimensions(self):
        # cdist's summation order in many dimensions is its own choice, so
        # only closeness is required here.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 256))
        y = rng.standard_normal((80, 256)) + 0.3
        assert energy_distance(x, y) == pytest.approx(self._cdist_form(x, y), rel=1e-12)


class TestTrainDenoiser:
    def setup_method(self):
        self.sched = db.linear_schedule(200)
        self.data = np.zeros((64, 2))

    def test_zero_learning_rate_leaves_weights_at_init(self):
        # More epochs of zero-rate training change nothing, and the weights
        # equal a freshly initialized model built from the same seed.
        cfgs = [
            TrainConfig(epochs=e, batch_size=32, learning_rate=0.0, hidden=(8,))
            for e in (1, 5)
        ]
        m1, _ = train_denoiser(self.data, cfgs[0], self.sched, seed=3)
        m5, _ = train_denoiser(self.data, cfgs[1], self.sched, seed=3)
        for a, b in zip(m1.parameters(), m5.parameters()):
            np.testing.assert_array_equal(a, b)
        init_seed = int(np.random.SeedSequence(3).generate_state(2)[0])
        fresh = db.init_mlp((2,), (8,), steps_total=200, seed=init_seed)
        for a, b in zip(m1.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_attention_weights_draw_from_their_own_stream(self):
        # One stream for both once made w_query a scaled copy of w0's first entries.
        cfg = TrainConfig(hidden=(8,), attention={"token_count": 16, "heads": 2, "windows": 4})
        model = init_model((16, 16), cfg, self.sched, seed=3)
        dense = init_model((16, 16), replace(cfg, attention=None), self.sched, seed=3)
        for a, b in zip(model.parameters(), dense.parameters()):
            assert a.tobytes() == b.tobytes()
        att_seed = int(np.random.SeedSequence(3).generate_state(3)[2])
        expected = db.init_attention(16, 16, heads=2, windows=4, seed=att_seed)
        assert model.attention.w_query.tobytes() == expected.w_query.tobytes()
        d = model.attention.model_dim
        corr = np.corrcoef(model.attention.w_query.ravel(), model.weights[0].ravel()[: d * d])
        assert abs(corr[0, 1]) < 0.25

    def test_single_point_dataset_collapses_samples_to_origin(self):
        cfg = TrainConfig(epochs=40, batch_size=32, learning_rate=3e-3, hidden=(32, 32))
        model, _ = train_denoiser(self.data, cfg, self.sched, seed=3)
        untrained = db.init_mlp((2,), (32, 32), steps_total=200, seed=77)
        scfg = SamplerConfig(schedule=self.sched)
        latents = np.random.default_rng(8).standard_normal((60, 2))
        norm_trained = np.mean(np.linalg.norm(ddim_sample(latents, model, scfg), axis=1))
        norm_untrained = np.mean(np.linalg.norm(ddim_sample(latents, untrained, scfg), axis=1))
        assert norm_untrained >= 5.0 * norm_trained

    def test_loss_decreases_on_gmm_data(self):
        mix = db.default_gmm_pair().source
        data = db.gmm_sample(mix, 1200, seed=0)
        cfg = TrainConfig(epochs=10, batch_size=128, learning_rate=3e-3, hidden=(32, 32))
        _, losses = train_denoiser(data, cfg, db.linear_schedule(1000), seed=1)
        assert losses[-1] < 0.7 * losses[0]

    def test_training_deterministic_under_seed(self):
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3, hidden=(12,))
        data = np.random.default_rng(4).standard_normal((40, 2))
        m1, h1 = train_denoiser(data, cfg, self.sched, seed=11)
        m2, h2 = train_denoiser(data, cfg, self.sched, seed=11)
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_attention_model_trains(self):
        mix = db.default_gmm_pair().source
        data = np.hstack(
            [db.gmm_sample(mix, 400, seed=3), db.gmm_sample(mix, 400, seed=4)]
        )
        cfg = TrainConfig(
            epochs=8, batch_size=64, learning_rate=3e-3, hidden=(24,),
            attention={"token_count": 2, "heads": 2, "windows": 1},
        )
        model, losses = train_denoiser(
            data, cfg, db.linear_schedule(1000), seed=7, priority=Priority.GLOBAL_FIRST
        )
        assert model.attention is not None
        assert losses[-1] < 0.8 * losses[0]

    def test_divergence_aborts_with_epoch(self):
        # Adam's step is bounded by the rate, so only a huge one overflows.
        cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=1e100, hidden=(32,))
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_denoiser(self.data, cfg, self.sched, seed=1)

    def test_rejects_empty_data_and_bad_config(self):
        with pytest.raises(ValueError):
            train_denoiser(np.zeros((0, 2)), TrainConfig(), self.sched)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("hidden", [(0,), (-1,), (64, 0)])
    def test_hidden_widths_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="train.hidden must be a list of integers >= 1"):
            train_denoiser(self.data, TrainConfig(hidden=hidden), self.sched)


class TestMinibatchTraining:
    """One backward call per minibatch gives the bytes of one call per 16-example block.

    Exact where the field size is a power of two, so that dividing the
    summed gradient by it equals dividing each block's gradient.  The
    per-example loop agrees to rounding.
    """

    @staticmethod
    def assert_same_bytes(data, cfg, schedule, seed, priority=Priority.GLOBAL_FIRST):
        model, history = train_denoiser(data, cfg, schedule, seed, priority)
        ref_model, ref_history = reference_training(data, cfg, schedule, seed, priority, 16)
        assert history == ref_history
        for got, want in zip(model.parameters(), ref_model.parameters(), strict=True):
            assert got.tobytes() == want.tobytes()
        loop_model, loop_history = reference_training(data, cfg, schedule, seed, priority)
        np.testing.assert_allclose(history, loop_history, rtol=1e-12, atol=0)
        for got, want in zip(model.parameters(), loop_model.parameters(), strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("batch_size", [20, 32, 80])   # 20 and 80 divide N = 80
    def test_gmm_matches_per_example_loop(self, batch_size):
        data = db.gmm_sample(db.default_gmm_pair().source, 80, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, learning_rate=1e-2, hidden=(16, 16))
        self.assert_same_bytes(data, cfg, db.linear_schedule(200), seed=6)

    @pytest.mark.parametrize("priority", [None, *Priority])
    @pytest.mark.parametrize("batch_size", [12, 16])   # 12 divides N = 36
    def test_texture_matches_per_example_loop(self, priority, batch_size):
        data = sample_domain(make_texture_pair("bandsplit", 16, 0).source, 36, seed=1)
        layout = None if priority is None else {"token_count": 16, "heads": 2, "windows": 4}
        cfg = TrainConfig(epochs=2, batch_size=batch_size, hidden=(32, 32), attention=layout)
        self.assert_same_bytes(
            data, cfg, db.linear_schedule(1000), seed=2,
            priority=priority or Priority.GLOBAL_FIRST,
        )

    def test_field_size_three_within_tolerance(self):
        # 3 is not a power of two: dividing the summed gradient by it once
        # rounds differently from dividing each example's gradient.
        data = np.random.default_rng(3).standard_normal((60, 3))
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=3e-3, hidden=(16,))
        sched = db.linear_schedule(200)
        model, history = train_denoiser(data, cfg, sched, seed=4)
        ref_model, ref_history = reference_training(data, cfg, sched, seed=4)
        np.testing.assert_allclose(history, ref_history, rtol=1e-12, atol=0)
        for got, want in zip(model.parameters(), ref_model.parameters(), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestAdam:
    def test_bytes_equal_the_textbook_update_and_params_update_in_place(self):
        rng = np.random.default_rng(0)
        params = [rng.standard_normal((5, 3)), rng.standard_normal(7)]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        ids = [id(p) for p in params]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = _Adam(params, lr)
        for step in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in params]
            grads[0][0, 0] = 0.0
            opt.step(grads)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                ref[i] = ref[i] - lr * (m[i] / (1.0 - b1**step)) / (
                    np.sqrt(v[i] / (1.0 - b2**step)) + eps
                )
            for got, want in zip(params, ref):
                assert got.tobytes() == want.tobytes()
        assert [id(p) for p in opt.params] == ids


class TestEvaluateFit:
    def test_trained_beats_untrained_and_respects_analytic_floor(self):
        sched = db.linear_schedule(200)
        mix = db.default_gmm_pair().source
        data = db.gmm_sample(mix, 600, seed=0)
        cfg = TrainConfig(epochs=12, batch_size=128, learning_rate=3e-3, hidden=(32, 32))
        model, _ = train_denoiser(data, cfg, sched, seed=1)
        untrained = db.init_mlp((2,), (32, 32), steps_total=200, seed=42)
        analytic = db.AnalyticGmmEpsilon(mix, sched)
        n = 100
        fit_trained = evaluate_fit(model, mix, n, sched, seed=5)
        fit_untrained = evaluate_fit(untrained, mix, n, sched, seed=5)
        fit_analytic = evaluate_fit(analytic, mix, n, sched, seed=5)
        assert fit_trained < fit_untrained
        # The exact predictor is the floor, up to estimator noise.
        assert fit_trained >= fit_analytic - 0.05


class TestEvaluateFitBatched:
    def test_equals_the_per_latent_loop(self):
        sched = db.linear_schedule(50)
        mix = db.default_gmm_pair().source
        model = db.init_mlp((2,), (16,), steps_total=50, seed=3)
        n, seed = 12, 5
        latents = np.random.default_rng(seed).standard_normal((n, mix.dimension))
        cfg = SamplerConfig(schedule=sched)
        samples = np.stack([ddim_sample(z, model, cfg) for z in latents])
        reference = db.gmm_sample(mix, n, seed=seed + 1)
        assert evaluate_fit(model, mix, n, sched, seed=seed) == energy_distance(samples, reference)
