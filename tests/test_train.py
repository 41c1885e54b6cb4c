"""Training loop behavior and the energy-distance fit metric."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.diffusion import SamplerConfig, ddim_sample
from diffbridge.domains import make_texture_pair, sample_domain
from diffbridge.train import (
    AttentionLayout,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    _Sgd,
    energy_distance,
    evaluate_fit,
    init_model,
    train_denoiser,
)


def per_example_training(data, cfg):
    """Reference: the loop train_denoiser ran before it batched its minibatches.

    One backward call per example, each example's gradient divided by the
    field size before it joins the minibatch sum.
    """
    data = np.asarray(data, dtype=np.float64)
    field_shape = data.shape[1:]
    field_size = int(np.prod(field_shape))
    model = init_model(field_shape, cfg)
    _, loop_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    rng = np.random.default_rng(int(loop_seed))
    opt_cls = _Adam if cfg.optimizer == "adam" else _Sgd
    opt = opt_cls(model.parameters(), cfg.learning_rate)
    n = data.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad_sum = None
            loss_sum = 0.0
            for idx in batch:
                x0 = data[idx]
                t = int(rng.integers(1, cfg.schedule.steps_T + 1))
                ab = cfg.schedule.alpha_bar(t)
                eps = rng.standard_normal(field_shape)
                x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
                grad = model.backward(x_t, t, eps)
                loss_sum += float(np.mean((eps - grad.prediction) ** 2))
                grads = grad.parameters()
                if grad_sum is None:
                    grad_sum = [g / field_size for g in grads]
                else:
                    for acc, g in zip(grad_sum, grads):
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
            TrainConfig(
                schedule=self.sched, epochs=e, batch_size=32, learning_rate=0.0,
                seed=3, hidden=(8,),
            )
            for e in (1, 5)
        ]
        m1, _ = train_denoiser(self.data, cfgs[0])
        m5, _ = train_denoiser(self.data, cfgs[1])
        for a, b in zip(m1.parameters(), m5.parameters()):
            np.testing.assert_array_equal(a, b)
        init_seed = int(np.random.SeedSequence(3).generate_state(2)[0])
        fresh = db.init_mlp((2,), (8,), steps_total=200, seed=init_seed)
        for a, b in zip(m1.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_single_point_dataset_collapses_samples_to_origin(self):
        cfg = TrainConfig(
            schedule=self.sched, epochs=40, batch_size=32, learning_rate=3e-3,
            seed=3, hidden=(32, 32),
        )
        model, _ = train_denoiser(self.data, cfg)
        untrained = db.init_mlp((2,), (32, 32), steps_total=200, seed=77)
        scfg = SamplerConfig(schedule=self.sched)
        latents = np.random.default_rng(8).standard_normal((60, 2))
        norm_trained = np.mean(np.linalg.norm(ddim_sample(latents, model, scfg), axis=1))
        norm_untrained = np.mean(np.linalg.norm(ddim_sample(latents, untrained, scfg), axis=1))
        assert norm_untrained >= 5.0 * norm_trained

    def test_loss_decreases_on_gmm_data(self):
        mix = db.default_gmm_pair().source
        data = db.gmm_sample(mix, 1200, seed=0)
        cfg = TrainConfig(
            schedule=db.linear_schedule(1000), epochs=10, batch_size=128,
            learning_rate=3e-3, seed=1, hidden=(32, 32),
        )
        _, losses = train_denoiser(data, cfg)
        assert losses[-1] < 0.7 * losses[0]

    def test_training_deterministic_under_seed(self):
        cfg = TrainConfig(
            schedule=self.sched, epochs=3, batch_size=16, learning_rate=1e-3,
            seed=11, hidden=(12,),
        )
        data = np.random.default_rng(4).standard_normal((40, 2))
        m1, h1 = train_denoiser(data, cfg)
        m2, h2 = train_denoiser(data, cfg)
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_sgd_option_trains(self):
        mix = db.default_gmm_pair().source
        data = db.gmm_sample(mix, 1200, seed=0)
        cfg = TrainConfig(
            schedule=db.linear_schedule(1000), epochs=10, batch_size=128,
            learning_rate=2e-2, optimizer="sgd", seed=2, hidden=(32,),
        )
        _, losses = train_denoiser(data, cfg)
        assert losses[-1] < 0.8 * losses[0]

    def test_attention_model_trains(self):
        from diffbridge.attention import Priority
        from diffbridge.train import AttentionLayout

        mix = db.default_gmm_pair().source
        data = np.hstack(
            [db.gmm_sample(mix, 400, seed=3), db.gmm_sample(mix, 400, seed=4)]
        )
        cfg = TrainConfig(
            schedule=db.linear_schedule(1000), epochs=8, batch_size=64,
            learning_rate=3e-3, seed=7, hidden=(24,),
            attention=AttentionLayout(token_count=2, heads=2, windows=1,
                                      priority=Priority.GLOBAL_FIRST),
        )
        model, losses = train_denoiser(data, cfg)
        assert model.attention is not None
        assert losses[-1] < 0.8 * losses[0]

    def test_divergence_aborts_with_epoch(self):
        cfg = TrainConfig(
            schedule=self.sched, epochs=3, batch_size=32, learning_rate=1e6,
            optimizer="sgd", seed=1, hidden=(32,),
        )
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_denoiser(self.data, cfg)

    def test_rejects_empty_data_and_bad_config(self):
        with pytest.raises(ValueError):
            train_denoiser(np.zeros((0, 2)), TrainConfig(schedule=self.sched))
        with pytest.raises(ValueError):
            TrainConfig(schedule=self.sched, optimizer="newton")
        with pytest.raises(ValueError):
            TrainConfig(schedule=self.sched, epochs=0)

    @pytest.mark.parametrize("hidden", [(0,), (-1,), (64, 0)])
    def test_hidden_widths_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="widths"):
            train_denoiser(self.data, TrainConfig(schedule=self.sched, hidden=hidden))


class TestMinibatchTraining:
    """One backward call per minibatch gives the per-example loop's bytes.

    Exact where the field size is a power of two, so that dividing the
    summed gradient by it equals dividing each example's gradient.
    """

    @staticmethod
    def assert_same_bytes(data, cfg):
        model, history = train_denoiser(data, cfg)
        ref_model, ref_history = per_example_training(data, cfg)
        assert history == ref_history
        for got, want in zip(model.parameters(), ref_model.parameters(), strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch_size", [20, 32, 80])   # 20 and 80 divide N = 80
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_gmm_matches_per_example_loop(self, batch_size, optimizer):
        data = db.gmm_sample(db.default_gmm_pair().source, 80, seed=0)
        cfg = TrainConfig(
            schedule=db.linear_schedule(200), epochs=3, batch_size=batch_size,
            learning_rate=1e-2, optimizer=optimizer, seed=6, hidden=(16, 16),
        )
        self.assert_same_bytes(data, cfg)

    @pytest.mark.parametrize("priority", [None, *Priority])
    @pytest.mark.parametrize("batch_size", [12, 16])   # 12 divides N = 36
    def test_texture_matches_per_example_loop(self, priority, batch_size):
        data = sample_domain(make_texture_pair("bandsplit", 16, 0).source, 36, seed=1)
        layout = None
        if priority is not None:
            layout = AttentionLayout(token_count=16, heads=2, windows=4, priority=priority)
        cfg = TrainConfig(
            schedule=db.linear_schedule(1000), epochs=2, batch_size=batch_size,
            seed=2, hidden=(32, 32), attention=layout,
        )
        self.assert_same_bytes(data, cfg)

    def test_field_size_three_within_tolerance(self):
        # 3 is not a power of two: dividing the summed gradient by it once
        # rounds differently from dividing each example's gradient.
        data = np.random.default_rng(3).standard_normal((60, 3))
        cfg = TrainConfig(
            schedule=db.linear_schedule(200), epochs=3, batch_size=16,
            learning_rate=3e-3, seed=4, hidden=(16,),
        )
        model, history = train_denoiser(data, cfg)
        ref_model, ref_history = per_example_training(data, cfg)
        np.testing.assert_allclose(history, ref_history, rtol=1e-12, atol=0)
        for got, want in zip(model.parameters(), ref_model.parameters(), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestEvaluateFit:
    def test_trained_beats_untrained_and_respects_analytic_floor(self):
        sched = db.linear_schedule(200)
        mix = db.default_gmm_pair().source
        data = db.gmm_sample(mix, 600, seed=0)
        cfg = TrainConfig(
            schedule=sched, epochs=12, batch_size=128, learning_rate=3e-3,
            seed=1, hidden=(32, 32),
        )
        model, _ = train_denoiser(data, cfg)
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
