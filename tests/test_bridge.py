"""Flow integration, migration, and depth control on analytic domains."""

import numpy as np
import pytest

import diffbridge as db
from conftest import even_variances, traced_peak
from diffbridge import bridge as bridge_module
from diffbridge.attention import Priority
from diffbridge.diffusion import ddim_transfer
from diffbridge.domains import sample_domain
from diffbridge.bridge import (
    BridgeConfig,
    NonFiniteStateError,
    depth_migrate,
    depth_sweep,
    flow_ode,
    migrate,
)
from diffbridge import verify
from diffbridge.verify import DRIFT_TIME_FLOOR, ddim_heun_deviation, heun_flow, round_trip_error


@pytest.fixture(scope="module")
def gmm_setup():
    sched = db.linear_schedule(1000)
    pair = db.default_gmm_pair()
    return {
        "sched": sched,
        "pair": pair,
        "model_a": db.AnalyticGmmEpsilon(pair.source, sched),
        "model_b": db.AnalyticGmmEpsilon(pair.target, sched),
        "x": db.gmm_sample(pair.source, 32, seed=0),
    }


class TestFlowOde:
    def test_empty_span_exact_identity(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        x = gmm_setup["x"]
        out = flow_ode(x, gmm_setup["model_a"], 0.4, 0.4, cfg)
        np.testing.assert_array_equal(out, x)
        # Sub-node spans snap to an empty walk as well.
        out = flow_ode(x, gmm_setup["model_a"], 0.401, 0.399, cfg)
        np.testing.assert_array_equal(out, x)

    def test_first_order_self_inversion(self, gmm_setup):
        x, model, sched = gmm_setup["x"], gmm_setup["model_a"], gmm_setup["sched"]
        errs = {}
        for n in (500, 1000):
            cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
            errs[n] = round_trip_error(flow_ode, x, model, cfg)
        ratio = errs[500] / errs[1000]
        assert 1.6 < ratio < 2.4

    def test_heun_self_inversion_second_order(self, gmm_setup):
        x, model, sched = gmm_setup["x"], gmm_setup["model_a"], gmm_setup["sched"]
        errs = {}
        for n in (250, 500):
            cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
            errs[n] = round_trip_error(heun_flow, x, model, cfg)
        assert errs[250] / errs[500] > 3.3

    def test_ddim_and_heun_converge_to_each_other(self, gmm_setup):
        x, model, sched = gmm_setup["x"], gmm_setup["model_a"], gmm_setup["sched"]
        devs = {n: ddim_heun_deviation(x, model, sched, n) for n in (500, 1000, 2000)}
        assert devs[2000] < devs[1000] < devs[500]

    def test_ddim_mode_matches_discrete_sampler_on_schedule_grid(self, gmm_setup):
        # With the grid equal to the discrete schedule, the reverse flow is
        # exactly the deterministic DDIM sampler.
        sched = db.linear_schedule(50)
        model = db.AnalyticGmmEpsilon(gmm_setup["pair"].source, sched)
        cfg = BridgeConfig(schedule=sched)
        x_T = np.random.default_rng(1).standard_normal((8, 2))
        via_flow = flow_ode(x_T, model, 1.0, 0.0, cfg)
        via_sampler = db.ddim_sample(x_T, model, db.SamplerConfig(schedule=sched))
        np.testing.assert_allclose(via_flow, via_sampler, atol=1e-12)

    def test_depth_composition_bit_exact_on_aligned_grids(self, gmm_setup):
        x, model = gmm_setup["x"], gmm_setup["model_a"]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=200)
        half = flow_ode(x, model, 0.0, 0.4, cfg)
        composed = flow_ode(half, model, 0.4, 1.0, cfg)
        direct = flow_ode(x, model, 0.0, 1.0, cfg)
        np.testing.assert_array_equal(composed, direct)

    def test_non_finite_state_reported_with_step(self, gmm_setup):
        class ExplodingModel(db.EpsilonModel):
            def predict_epsilon(self, x, t):
                return np.full_like(x, np.inf)

        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        with pytest.raises(NonFiniteStateError, match="node"):
            flow_ode(np.zeros(2), ExplodingModel(), 0.0, 1.0, cfg)

    def test_one_non_finite_row_stops_the_batch_at_a_node(self, gmm_setup):
        class PoisonedRow(db.EpsilonModel):
            """The analytic model, returning inf for row 2 from time 0.3 on."""

            def predict_epsilon(self, x, t):
                eps = gmm_setup["model_a"].predict_epsilon(x, t)
                if t >= 300:
                    eps[2] = np.inf
                return eps

        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        x = gmm_setup["x"][:4]
        with pytest.raises(NonFiniteStateError, match=r"grid node 4 \(time 0.400000\)"):
            migrate(x, PoisonedRow(), gmm_setup["model_b"], cfg)
        with pytest.raises(NonFiniteStateError, match="grid node"):
            depth_sweep(x, PoisonedRow(), gmm_setup["model_b"], cfg, [0.2, 0.5])
        # A sweep that never reaches the poisoned times completes.
        depth_sweep(x, PoisonedRow(), gmm_setup["model_b"], cfg, [0.2])

    def test_one_non_finite_row_stops_the_descent_at_its_node(self, gmm_setup):
        class PoisonedRow(db.EpsilonModel):
            """The target's analytic model, returning inf for row 2 from time 0.3 on."""

            def predict_epsilon(self, x, t):
                eps = gmm_setup["model_b"].predict_epsilon(x, t)
                if t >= 300:
                    eps[..., 2, :] = np.inf   # the descent stacks depths on a leading axis
                return eps

        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        x = gmm_setup["x"][:4]
        with pytest.raises(NonFiniteStateError, match=r"grid node 9 \(time 0.900000\)"):
            migrate(x, gmm_setup["model_a"], PoisonedRow(), cfg)
        with pytest.raises(NonFiniteStateError, match=r"grid node 4 \(time 0.400000\)"):
            depth_sweep(x, gmm_setup["model_a"], PoisonedRow(), cfg, [0.2, 0.5])
        # A sweep whose descent never reaches the poisoned times completes.
        depth_sweep(x, gmm_setup["model_a"], PoisonedRow(), cfg, [0.2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_lone_non_finite_value_names_its_grid_node(self, gmm_setup, value):
        class PoisonedValue(db.EpsilonModel):
            """The analytic model, with one coordinate of row 2 set to value from time 0.3 on."""

            def predict_epsilon(self, x, t):
                eps = gmm_setup["model_a"].predict_epsilon(x, t)
                if t >= 300:
                    eps[2, 1] = value
                return eps

        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        with pytest.raises(NonFiniteStateError, match=r"grid node 4 \(time 0.400000\)"):
            flow_ode(gmm_setup["x"][:4], PoisonedValue(), 0.0, 1.0, cfg)

    def test_a_finite_state_whose_sum_overflows_runs_on(self, gmm_setup):
        class Zero(db.EpsilonModel):
            def predict_epsilon(self, x, t):
                return np.zeros_like(x)

        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        x = np.full((8, 2), 1e308)   # every row finite, their sum past the largest float
        out = flow_ode(x, Zero(), 0.0, 0.5, cfg)
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)

    @staticmethod
    def _textbook_case(case):
        """(schedule, model, x, grid nodes per unit time) of one textbook-recursion row."""
        if case == "texture":
            sched = db.linear_schedule(1000)
            tex = db.make_texture_pair("bandsplit", 16, seed=4)
            model = db.AnalyticFieldEpsilon(tex.source.mode_variances, sched)
            return sched, model, tex.source.sample(3, seed=5), 40
        # On 50 steps alpha_bar rounds to 1 at the drift's floored first node.
        sched = db.linear_schedule(50)
        pair = db.default_gmm_pair()
        model = db.AnalyticGmmEpsilon(pair.source, sched)
        return sched, model, db.gmm_sample(pair.source, 8, seed=2), 40

    @pytest.mark.parametrize("case", ["texture", "gmm-50"])
    def test_in_place_steps_match_the_textbook_recursion(self, case):
        """flow_ode steps in place; its bytes equal the plain out-of-place coefficient form.

        Each step is c_x * x + c_e * eps; the x0_hat recursion it folds
        lies within 1e-13 of it, a rounding difference only.  The texture
        model's state steps in its basis, the ortho rfft2 half spectrum,
        as (real, imaginary) float pairs, and maps back to pixels once;
        that walk lies within 1e-13 of the x0_hat recursion on pixels.
        The GMM model has no basis and steps its points.
        """
        sched, model, x, n = self._textbook_case(case)
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
        times = np.arange(0, 31) / n
        ab = sched.alpha_bar_at(times)

        def coefficient_step(floats, eps, a0, a1):
            c_x = np.sqrt(a1) / np.sqrt(a0)
            c_e = np.sqrt(1.0 - a1) - c_x * np.sqrt(1.0 - a0)
            return c_x * floats + c_e * eps

        def x0_hat_step(floats, eps, a0, a1):
            x0_hat = (floats - np.sqrt(1.0 - a0) * eps) / np.sqrt(a0)
            return np.sqrt(a1) * x0_hat + np.sqrt(1.0 - a1) * eps

        def recursion(state, step):
            for j in range(30):
                eps = model.predict_epsilon(state, times[j] * sched.steps_T).view(np.float64)
                state = step(state.view(np.float64), eps, ab[j], ab[j + 1]).view(state.dtype)
            return state

        got = flow_ode(x, model, 0.0, 0.75, cfg)
        if model.basis is None:
            assert got.tobytes() == recursion(x, coefficient_step).tobytes()
        else:
            into, out_of = model.basis
            assert got.tobytes() == out_of(recursion(into(x), coefficient_step)).tobytes()
        np.testing.assert_allclose(got, recursion(x, x0_hat_step), rtol=0, atol=1e-13)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("case", ["texture", "gmm-50"])
    def test_heun_flow_matches_the_textbook_recursion(self, case):
        """verify.heun_flow's bytes equal Heun's formulas on the floored drift."""
        sched, model, x, n = self._textbook_case(case)
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
        times = np.arange(0, 31) / n
        eval_times = np.maximum(times, DRIFT_TIME_FLOOR)
        ab_eval, beta_eval = sched.alpha_bar_at(eval_times), sched.noise_rate_at(eval_times)
        # The GMM row starts where eps counts as 0.
        assert (ab_eval[0] == 1.0) == (case == "gmm-50")

        def drift(state, j):
            if ab_eval[j] == 1.0:
                return 0.5 * beta_eval[j] * (0.0 - state)
            eps = model.predict_epsilon(state, eval_times[j] * sched.steps_T)
            return 0.5 * beta_eval[j] * (eps / np.sqrt(1.0 - ab_eval[j]) - state)

        expected = x
        for j in range(30):
            h = times[j + 1] - times[j]
            k_a = drift(expected, j)
            k_b = drift(expected + h * k_a, j + 1)
            expected = expected + 0.5 * h * (k_a + k_b)
        got = heun_flow(x, model, 0.0, 0.75, cfg)
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, x)

    def test_in_place_steps_allocate_no_batch_sized_buffer(self):
        """A leg's traced peak stays flat in its node count, and a step allocates no batch.

        Measured on a texture-32 leg of 16 fields: 6.33 batch-sized
        buffers, reached at the transform back out of the basis; with the
        out-of-place step ``out[...] = c_x * x + c_e * eps``, 7.44.  The
        step ``np.add(c_x * x, c_e * eps, out=out)`` reads 6.38, under the
        leg's bound, so one step is traced alone too: 104 bytes.
        """
        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 32, seed=4)
        model = db.AnalyticFieldEpsilon(pair.source.mode_variances, sched)
        x = pair.source.sample(16, seed=5)
        peaks = []
        for n in (20, 200):
            cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
            peaks.append(traced_peak(lambda: flow_ode(x, model, 0.0, 1.0, cfg)))
        assert peaks[1] - peaks[0] < 0.1 * x.nbytes
        assert peaks[1] < 7 * x.nbytes
        spectrum = np.fft.rfft2(x, norm="ortho")
        floats, eps = spectrum.view(np.float64), model.predict_epsilon(spectrum, 500.0).view(np.float64)
        scratch = np.empty_like(floats)
        assert traced_peak(lambda: ddim_transfer(floats, eps, 0.5, 0.4, floats, scratch)) < 0.01 * x.nbytes

    def test_rejects_time_outside_unit_interval(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"])
        with pytest.raises(ValueError):
            flow_ode(np.zeros(2), gmm_setup["model_a"], 0.0, 1.5, cfg)


class TestMigrate:
    def test_degenerate_migration_is_identity_up_to_roundtrip(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=1000)
        model = gmm_setup["model_a"]
        x = gmm_setup["x"]
        migrated = migrate(x, model, model, cfg)
        assert np.abs(migrated - x).max() < 0.05

    def test_migration_raises_target_log_density(self, gmm_setup):
        pair = gmm_setup["pair"]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=1000)
        xs = db.gmm_sample(pair.source, 100, seed=5)
        migrated = migrate(xs, gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        gain = db.gmm_log_density(pair.target, migrated) - db.gmm_log_density(
            pair.target, xs
        )
        assert gain.mean() > 0

    def test_deterministic_trajectory(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=300)
        a = migrate(gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        b = migrate(gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        np.testing.assert_array_equal(a, b)
        # The latent migrate passes on is the source flow to depth 1.
        leg = (gmm_setup["x"], gmm_setup["model_a"], 0.0, 1.0, cfg)
        np.testing.assert_array_equal(flow_ode(*leg), flow_ode(*leg))

    def test_hybrid_priority_enforced_for_attention_models(self, gmm_setup):
        att_fwd = db.init_attention(1, 2, priority=Priority.GLOBAL_FIRST, seed=0)
        att_rev = db.init_attention(1, 2, priority=Priority.LOCAL_FIRST, seed=0)
        m_fwd = db.init_mlp((2,), (4,), steps_total=1000, time_dim=4, attention=att_fwd, seed=1)
        m_rev = db.init_mlp((2,), (4,), steps_total=1000, time_dim=4, attention=att_rev, seed=2)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=5)
        x = np.zeros(2)
        migrate(x, m_fwd, m_rev, cfg)  # correct orientation passes
        with pytest.raises(ValueError, match="forward leg"):
            migrate(x, m_rev, m_rev, cfg)
        with pytest.raises(ValueError, match="reverse leg"):
            migrate(x, m_fwd, m_fwd, cfg)


class TestDepthMigrate:
    def test_zero_depth_returns_source_exactly(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        x = gmm_setup["x"][0]
        migrated = depth_migrate(x, gmm_setup["model_a"], gmm_setup["model_b"], cfg, 0.0)
        np.testing.assert_array_equal(migrated, x)
        assert not np.shares_memory(migrated, x)

    def test_full_depth_bit_identical_to_migrate(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        args = (gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        np.testing.assert_array_equal(
            depth_migrate(*args, depth=1.0), migrate(*args)
        )

    def test_depth_snaps_to_grid(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        args = (gmm_setup["x"][0], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        assert cfg.snap(0.34) == pytest.approx(0.3) and cfg.node(0.34) == 3
        assert depth_migrate(*args, 0.34).tobytes() == depth_migrate(*args, 0.3).tobytes()

    def test_highpass_magnitude_tracks_depth_on_textures(self):
        from scipy.stats import spearmanr

        from diffbridge.softlabel import HighpassSpec, highpass_magnitude

        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 32, seed=3)
        m_src = db.AnalyticFieldEpsilon(pair.source.mode_variances, sched)
        m_tgt = db.AnalyticFieldEpsilon(pair.target.mode_variances, sched)
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=100)
        spec = HighpassSpec(0.25)
        grid = np.linspace(0.0, 1.0, 9)
        rhos = []
        for x in pair.source.sample(5, seed=7):
            mags = [
                highpass_magnitude(depth_migrate(x, m_src, m_tgt, cfg, float(i)), spec)
                for i in grid
            ]
            rhos.append(spearmanr(grid, mags).statistic)
        assert min(rhos) > 0.8

    def test_rejects_depth_outside_unit_interval(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"])
        with pytest.raises(ValueError):
            depth_migrate(
                gmm_setup["x"][0], gmm_setup["model_a"], gmm_setup["model_b"], cfg, 1.2
            )


class _CastEps(db.EpsilonModel):
    """The inner model's eps cast to dtype: a trained float32 model's eps, or its float64 cast."""

    def __init__(self, inner, dtype):
        self.inner, self.dtype = inner, dtype

    def predict_epsilon(self, x, t):
        return self.inner.predict_epsilon(x, t).astype(self.dtype)


class TestRealEpsOfEitherFloatDtype:
    """A real eps steps in float64, whatever its float dtype; only a complex eps is viewed as float64."""

    @pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (1.0, 0.0), (0.2, 0.7)])
    def test_a_float32_eps_walks_as_that_eps_cast_to_float64(self, gmm_setup, t0, t1):
        cfg = BridgeConfig(gmm_setup["sched"], 200)
        narrow = _CastEps(gmm_setup["model_a"], np.float32)
        got = flow_ode(gmm_setup["x"], narrow, t0, t1, cfg)
        want = flow_ode(gmm_setup["x"], _CastEps(narrow, np.float64), t0, t1, cfg)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_a_float32_eps_walk_stays_within_float32_rounding_of_the_float64_walk(self, gmm_setup):
        # Viewing a float32 eps as float64 once read each pair of values as one
        # number: this walk came out [[-0.019, 0.003], [-0.013, -0.006]].
        cfg = BridgeConfig(gmm_setup["sched"])
        x = np.array([[-3.0, 0.5], [-2.0, -1.0]])
        want = flow_ode(x, gmm_setup["model_a"], 0.0, 1.0, cfg)
        got = flow_ode(x, _CastEps(gmm_setup["model_a"], np.float32), 0.0, 1.0, cfg)
        np.testing.assert_allclose(want, [[-0.159, 0.336], [0.704, -0.618]], atol=5e-4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("priority", [None, Priority.LOCAL_FIRST])
    def test_a_float32_mlp_walks_as_its_eps_cast_to_float64(self, priority):
        att = None
        if priority is not None:
            att = db.init_attention(4, 4, heads=2, windows=2, priority=priority, seed=1)
        model = db.init_mlp((4, 4), (16,), steps_total=100, attention=att, seed=2)
        cfg = BridgeConfig(db.linear_schedule(100), 40)
        x = np.random.default_rng(3).standard_normal((5, 4, 4))
        got = flow_ode(x, model, 0.7, 0.0, cfg)
        want = flow_ode(x, _CastEps(model, np.float64), 0.7, 0.0, cfg)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class _Counting(db.EpsilonModel):
    """A model that records the input shape of each of its calls, walking in its inner model's basis."""

    def __init__(self, inner):
        self.inner, self.shapes = inner, []
        self.basis = inner.basis

    def predict_epsilon(self, x, t):
        self.shapes.append(x.shape)
        return self.inner.predict_epsilon(x, t)


class TestDepthSweep:
    # Unsorted, and 0.34 snaps between the other nodes.
    GRID = [1.0, 0.0, 0.5, 0.25, 0.34, 0.75, 0.125]

    @staticmethod
    def _pairs(gmm_setup):
        sched = gmm_setup["sched"]
        tex = db.make_texture_pair("bandsplit", 16, seed=4)
        return {
            "gmm": (gmm_setup["model_a"], gmm_setup["model_b"], gmm_setup["x"][:3], 100),
            "texture": (
                db.AnalyticFieldEpsilon(tex.source.mode_variances, sched),
                db.AnalyticFieldEpsilon(tex.target.mode_variances, sched),
                tex.source.sample(2, seed=5),
                40,
            ),
        }

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_every_depth_bit_identical_to_depth_migrate(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        for x in xs:
            frames = depth_sweep(x, m_src, m_tgt, cfg, self.GRID)
            assert frames.shape == (len(self.GRID), *x.shape)
            for depth, frame in zip(self.GRID, frames):
                ref = depth_migrate(x, m_src, m_tgt, cfg, depth)
                assert frame.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_one_descent_calls_the_target_model_once_per_grid_step(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        src, tgt = _Counting(m_src), _Counting(m_tgt)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        grid = [0.75, 0.0, 0.5, 0.25, 0.34, 0.125]
        frames = depth_sweep(xs, src, tgt, cfg, grid)
        assert len(src.shapes) == len(tgt.shapes) == round(max(grid) * steps)
        # The descent starts with the deepest depth's rows and ends with all five depths'.
        assert tgt.shapes[0][:2] == (1, len(xs)) and tgt.shapes[-1][:2] == (5, len(xs))
        for depth, frame in zip(grid, frames):
            ref = depth_migrate(xs, m_src, m_tgt, cfg, depth)
            assert frame.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_no_returned_array_aliases_the_source_or_another(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        before = xs.tobytes()
        frames = depth_sweep(xs, m_src, m_tgt, cfg, self.GRID)
        assert xs.tobytes() == before
        arrays = [xs, *frames]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_depths_on_one_node_give_equal_rows_of_their_own(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        grid = [0.5, 0.25, 0.5 + 0.4 / steps, 0.5]   # the third snaps to 0.5 as well
        frames = depth_sweep(xs, m_src, m_tgt, cfg, grid)
        for k in (2, 3):
            assert frames[k].tobytes() == frames[0].tobytes()
            assert not np.shares_memory(frames[k], frames[0])
        assert frames[1].tobytes() != frames[0].tobytes()

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_an_empty_grid_gives_no_frames_and_calls_no_model(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        src, tgt = _Counting(m_src), _Counting(m_tgt)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        for x in (xs, xs[0]):
            assert depth_sweep(x, src, tgt, cfg, []).shape == (0, *x.shape)
        assert src.shapes == tgt.shapes == []

    def test_hybrid_priority_enforced(self, gmm_setup):
        att_fwd = db.init_attention(1, 2, priority=Priority.GLOBAL_FIRST, seed=0)
        m_fwd = db.init_mlp((2,), (4,), steps_total=1000, time_dim=4, attention=att_fwd, seed=1)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=5)
        with pytest.raises(ValueError, match="reverse leg"):
            depth_sweep(np.zeros(2), m_fwd, m_fwd, cfg, [0.5])


class TestFlowOdeKeepAndStarts:
    """The two walk options a depth sweep's legs use, each against plain flow_ode runs."""

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    @pytest.mark.parametrize("t0,t1", [(0.0, 0.75), (0.75, 0.0)])
    def test_each_kept_state_equals_a_flow_to_its_node(self, gmm_setup, pair, t0, t1):
        m_src, _, xs, steps = TestDepthSweep._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        before = xs.tobytes()
        # The start node, two inner nodes and the end node.
        nodes = [0, steps // 4, steps // 2, round(0.75 * steps)]
        keep = {k: np.full_like(xs, np.nan) for k in nodes}
        out = flow_ode(xs, m_src, t0, t1, cfg, keep=keep)
        assert xs.tobytes() == before
        for k, kept in keep.items():
            ref = flow_ode(xs, m_src, t0, k / steps, cfg)
            assert kept.tobytes() == ref.tobytes()
            assert not np.shares_memory(kept, out)
        assert out.tobytes() == keep[cfg.node(t1)].tobytes()

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_each_row_of_a_staggered_descent_equals_its_own_flow(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = TestDepthSweep._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        # Descending, with two rows on one node and a row that never moves.
        starts = [steps, steps // 2, steps // 2, steps // 4, 0]
        stack = np.stack([flow_ode(xs, m_src, 0.0, k / steps, cfg) for k in starts])
        before = stack.tobytes()
        out = flow_ode(stack, m_tgt, 1.0, 0.0, cfg, starts=starts)
        assert stack.tobytes() == before
        assert not np.shares_memory(out, stack)
        for row, k, start in zip(out, starts, stack):
            ref = flow_ode(start, m_tgt, k / steps, 0.0, cfg)
            assert row.tobytes() == ref.tobytes()
        assert out[-1].tobytes() == stack[-1].tobytes()

    @pytest.mark.parametrize(
        "starts",
        [[10, 25, 50], [50, 25], [50, 40, 30, 20], [70, 25, 10], [50.0, 25.0, 10.0]],
        ids=["ascending", "too-short", "too-long", "outside-the-walk", "not-integer"],
    )
    def test_a_malformed_starts_is_refused(self, gmm_setup, starts):
        """A descent from node 50 over 3 rows takes one integer node per row, non-increasing, in [0, 50]."""
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        counting = _Counting(gmm_setup["model_b"])
        message = r"^starts must be one integer grid node per row, non-increasing, in \[0, 50\]$"
        with pytest.raises(ValueError, match=message):
            flow_ode(gmm_setup["x"][:3], counting, 0.5, 0.0, cfg, starts=starts)
        assert counting.shapes == []

    def test_the_moving_rows_are_sliced_only_where_a_start_node_changes_them(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        inner, seen = gmm_setup["model_b"], []

        class Recording(db.EpsilonModel):
            def predict_epsilon(self, x, t):
                seen.append(x)
                return inner.predict_epsilon(x, t)

        # The steps from nodes 50..31 move row 0, from 30..11 rows 0-2, from 10..1 all four.
        flow_ode(gmm_setup["x"][:4], Recording(), 0.5, 0.0, cfg, starts=[50, 30, 30, 10])
        runs = [seen[:20], seen[20:40], seen[40:]]
        assert [len(run) for run in runs] == [20, 20, 10]
        for run, rows in zip(runs, [1, 3, 4]):
            assert run[0].shape == (rows, 2)
            assert all(x is run[0] for x in run)
        # Without starts every step scores the same rows.
        seen.clear()
        flow_ode(gmm_setup["x"][:4], Recording(), 0.0, 0.2, cfg)
        assert len(seen) == 20 and all(x is seen[0] for x in seen)


class _PixelWalk(db.EpsilonModel):
    """A model scored with no basis, so flow_ode walks it on pixels."""

    def __init__(self, inner):
        self.inner = inner

    def predict_epsilon(self, x, t):
        return self.inner.predict_epsilon(x, t)


def skewed_variances(shape, seed):
    """Even variances whose self-conjugate columns are uneven by a relative 0.9e-6.

    In the half spectrum's columns 0 and W/2, mode (i, j) and its negation
    (-i, j) are both held and get their own gain, so there a walk in the
    basis keeps an unevenness that pixels drop at every step.
    """
    lam = even_variances(shape, seed)
    columns = [0, shape[1] // 2] if shape[1] % 2 == 0 else [0]
    lam[1 : (shape[0] + 1) // 2, columns] *= 1.0 + 0.9e-6
    return lam


class TestBasisWalk:
    """flow_ode walks a model with a basis there: one transform in, one out per kept or end node."""

    STEPS = 20

    @pytest.fixture
    def texture(self):
        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 16, seed=4)
        models = tuple(db.AnalyticFieldEpsilon(d.mode_variances, sched) for d in (pair.source, pair.target))
        return sched, models, pair.source.sample(3, seed=5)

    @staticmethod
    def _record(monkeypatch):
        """Log each flow_ode call, each rfft2 and irfft2, and each model input, in order."""
        log = []
        for name in ("rfft2", "irfft2"):
            def transform(a, *args, _name=name, _inner=getattr(np.fft, name), **kwargs):
                log.append((_name, a.shape))
                return _inner(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, transform)
        for cls in (db.AnalyticFieldEpsilon, db.AnalyticGmmEpsilon):
            def predict(model, x, t, _inner=cls.predict_epsilon):
                log.append(("predict", x.dtype, x.shape))
                return _inner(model, x, t)
            monkeypatch.setattr(cls, "predict_epsilon", predict)
        flow = bridge_module.flow_ode

        def flow_ode_logged(*args, **kwargs):
            log.append(("flow_ode",))
            return flow(*args, **kwargs)
        monkeypatch.setattr(bridge_module, "flow_ode", flow_ode_logged)
        return log

    @staticmethod
    def _legs(log):
        """The log cut at each flow_ode call."""
        legs = []
        for entry in log:
            if entry == ("flow_ode",):
                legs.append([])
            else:
                legs[-1].append(entry)
        return legs

    def test_a_migrate_leg_is_one_transform_pair_around_one_call_per_step(self, texture, monkeypatch):
        sched, (m_src, m_tgt), x = texture
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.STEPS)
        log = self._record(monkeypatch)
        migrate(x, m_src, m_tgt, cfg)
        legs = self._legs(log)
        assert len(legs) == 2
        # The descent walks the one-depth stack, (1, 3, 16, 16).
        for leg, lead in zip(legs, [(), (1,)]):
            spectrum = ("predict", np.dtype(complex), (*lead, 3, 16, 9))
            assert leg == [("rfft2", (*lead, 3, 16, 16)), *[spectrum] * self.STEPS, ("irfft2", spectrum[2])]

    def test_a_sweep_maps_out_at_each_kept_node_and_at_the_end(self, texture, monkeypatch):
        sched, (m_src, m_tgt), x = texture
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.STEPS)
        log = self._record(monkeypatch)
        depth_sweep(x, m_src, m_tgt, cfg, [0.0, 0.25, 0.5, 1.0])
        forward, descent = self._legs(log)
        # The start node's state is the source itself; node 20 is kept and the end.
        assert [e for e in forward if e[0] != "predict"] == [("rfft2", (3, 16, 16))] + [("irfft2", (3, 16, 9))] * 3
        assert [e[0] for e in forward].count("predict") == self.STEPS
        # Only the three rows that move enter the basis; the depth-0 row keeps its bytes.
        assert [e for e in descent if e[0] != "predict"] == [("rfft2", (3, 3, 16, 16)), ("irfft2", (3, 3, 16, 9))]
        assert [e[2][0] for e in descent if e[0] == "predict"] == [1] * 10 + [2] * 5 + [3] * 5

    def test_a_gmm_walk_passes_its_real_points_untouched(self, gmm_setup, monkeypatch):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=self.STEPS)
        x = gmm_setup["x"][:4]
        log = self._record(monkeypatch)
        migrate(x, gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        assert gmm_setup["model_a"].basis is None
        forward, descent = self._legs(log)
        assert forward == [("predict", np.dtype(float), (4, 2))] * self.STEPS
        assert descent == [("predict", np.dtype(float), (1, 4, 2))] * self.STEPS

    @pytest.mark.parametrize("shape", [(16, 16), (6, 9)])
    def test_variances_even_only_to_the_tolerance_walk_within_1e_12_of_pixels(self, shape):
        sched = db.linear_schedule(1000)
        lams = [skewed_variances(shape, seed) for seed in (1, 2)]
        models = [db.AnalyticFieldEpsilon(lam, sched) for lam in lams]
        assert [m.mode_variances.tobytes() for m in models] == [lam.tobytes() for lam in lams]
        x = 0.3 * np.random.default_rng(3).standard_normal((4, *shape))
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=200)
        got = migrate(x, *models, cfg)
        pixels = migrate(x, *map(_PixelWalk, models), cfg)
        np.testing.assert_allclose(got, pixels, rtol=0, atol=1e-12)

    def test_a_texture_source_holding_one_nan_stops_at_node_one(self, texture):
        sched, (m_src, m_tgt), x = texture
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.STEPS)
        x = x.copy()
        x[1, 4, 7] = np.nan
        with pytest.raises(NonFiniteStateError, match=r"grid node 1 \(time 0.050000\)"):
            migrate(x, m_src, m_tgt, cfg)


class TestTextureDdimOracle:
    """DDIM on the exact texture models against the per-mode product of its step gains.

    The oracle is ``verify.texture_ddim_gain`` applied through fft2/ifft2,
    arithmetic that shares nothing with the model's transform kernel.
    """

    N = 50  # grid nodes per unit time

    @pytest.fixture(scope="class")
    def setup(self):
        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 16, seed=4)
        lams = (pair.source.mode_variances, pair.target.mode_variances)
        models = tuple(db.AnalyticFieldEpsilon(lam, sched) for lam in lams)
        return sched, lams, models, pair.source.sample(4, seed=5)

    def test_migrate_is_the_product_of_step_gains(self, setup):
        sched, (lam_s, lam_t), (m_src, m_tgt), x = setup
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.N)
        latent = verify.apply_texture_gain(verify.texture_ddim_gain(lam_s, cfg, 0, self.N), x)
        (migrated,) = verify.texture_sweep_frames(verify.texture_ddim_gain, x, lam_s, lam_t, cfg, [1.0])
        # migrate's forward leg is this flow.
        np.testing.assert_allclose(flow_ode(x, m_src, 0.0, 1.0, cfg), latent, rtol=0, atol=1e-12)
        np.testing.assert_allclose(migrate(x, m_src, m_tgt, cfg), migrated, rtol=0, atol=1e-12)

    def test_depth_sweep_is_the_product_of_step_gains(self, setup):
        sched, (lam_s, lam_t), (m_src, m_tgt), x = setup
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.N)
        depths = [0.25, 1.0, 0.5]
        expected = verify.texture_sweep_frames(verify.texture_ddim_gain, x, lam_s, lam_t, cfg, depths)
        for depth, frame, migrated in zip(depths, depth_sweep(x, m_src, m_tgt, cfg, depths), expected):
            latent = verify.apply_texture_gain(verify.texture_ddim_gain(lam_s, cfg, 0, cfg.node(depth)), x)
            np.testing.assert_allclose(flow_ode(x, m_src, 0.0, depth, cfg), latent, rtol=0, atol=1e-12)
            np.testing.assert_allclose(frame, migrated, rtol=0, atol=1e-12)


class TestModelSchedule:
    """An analytic model must be built on the bridge's schedule, compared by value."""

    @staticmethod
    def _models(kind, sched):
        if kind == "gmm":
            pair = db.default_gmm_pair()
            make = lambda domain: db.AnalyticGmmEpsilon(domain, sched)
            xs = db.gmm_sample(pair.source, 4, seed=0)
        else:
            pair = db.make_texture_pair("bandsplit", 16, 0)
            make = lambda domain: db.AnalyticFieldEpsilon(domain.mode_variances, sched)
            xs = sample_domain(pair.source, 2, seed=1)
        return make(pair.source), make(pair.target), xs

    @staticmethod
    def _run(call, xs, m_src, m_tgt, cfg):
        if call == "migrate":
            return [migrate(xs, m_src, m_tgt, cfg)]
        return depth_sweep(xs, m_src, m_tgt, cfg, [0.5, 1.0])

    @pytest.mark.parametrize("kind", ["gmm", "texture"])
    @pytest.mark.parametrize("call", ["migrate", "depth_sweep"])
    def test_other_step_count_refused(self, kind, call):
        m_src, m_tgt, xs = self._models(kind, db.linear_schedule(1000))
        cfg = BridgeConfig(schedule=db.linear_schedule(200), steps_per_unit_time=20)
        with pytest.raises(
            ValueError, match="^forward leg model was built on a 1000-step schedule, the bridge's has 200$"
        ):
            self._run(call, xs, m_src, m_tgt, cfg)

    @pytest.mark.parametrize("kind", ["gmm", "texture"])
    @pytest.mark.parametrize("call", ["migrate", "depth_sweep"])
    def test_other_alpha_bars_refused(self, kind, call):
        sched = db.linear_schedule(200)
        m_src, _, xs = self._models(kind, sched)
        _, m_tgt, _ = self._models(kind, db.linear_schedule(200, beta_end=0.03))
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=20)
        with pytest.raises(ValueError, match="^reverse leg model was built on other alpha_bars"):
            self._run(call, xs, m_src, m_tgt, cfg)

    @pytest.mark.parametrize("kind", ["gmm", "texture"])
    @pytest.mark.parametrize("call", ["migrate", "depth_sweep"])
    def test_equal_schedule_of_another_object_runs(self, kind, call):
        m_src, m_tgt, xs = self._models(kind, db.linear_schedule(200))
        same = BridgeConfig(schedule=m_src.schedule, steps_per_unit_time=20)
        equal = BridgeConfig(schedule=db.linear_schedule(200), steps_per_unit_time=20)
        for a, b in zip(self._run(call, xs, m_src, m_tgt, same),
                        self._run(call, xs, m_src, m_tgt, equal), strict=True):
            assert a.tobytes() == b.tobytes()


class TestBridgeConfig:
    def test_validation(self):
        sched = db.linear_schedule(10)
        with pytest.raises(ValueError):
            BridgeConfig(schedule=sched, steps_per_unit_time=0)

    @pytest.mark.parametrize("steps", [2.5, 4.0, np.float64(4.0), True, np.bool_(True), "4"])
    def test_grid_size_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="^steps_per_unit_time must be an integer, got ") as err:
            BridgeConfig(schedule=db.linear_schedule(50), steps_per_unit_time=steps)
        assert "\n" not in str(err.value)

    def test_numpy_integer_grid_size_accepted(self):
        cfg = BridgeConfig(schedule=db.linear_schedule(50), steps_per_unit_time=np.int64(4))
        assert cfg.grid_steps == 4 and cfg.snap(1.0) == 1.0

    @pytest.mark.parametrize("steps_T, steps", [(50, np.int64(4)), (np.int64(4), None)])
    def test_numpy_integer_settings_give_python_numbers(self, steps_T, steps):
        cfg = BridgeConfig(schedule=db.linear_schedule(steps_T), steps_per_unit_time=steps)
        assert type(cfg.grid_steps) is int and type(cfg.node(0.3)) is int
        assert type(cfg.snap(0.3)) is float and cfg.snap(0.3) == 0.25

    def test_grid_defaults_to_schedule_steps(self):
        sched = db.linear_schedule(123)
        assert BridgeConfig(schedule=sched).grid_steps == 123

    @pytest.mark.parametrize("steps", [3, 7, 40, 200, 1000])
    def test_node_is_the_snapped_time_on_the_grid(self, steps):
        cfg = BridgeConfig(schedule=db.linear_schedule(50), steps_per_unit_time=steps)
        for t in np.linspace(0.0, 1.0, 101):
            k = cfg.node(float(t))
            assert type(k) is int and k == round(t * steps)
            assert cfg.snap(float(t)) == k / steps and round(cfg.snap(float(t)) * steps) == k
        with pytest.raises(ValueError, match="outside"):
            cfg.node(-0.01)

    def test_walk_nodes_run_from_the_first_node_to_the_last(self):
        cfg = BridgeConfig(schedule=db.linear_schedule(50), steps_per_unit_time=4)
        for (k0, k1), expected in {(0, 3): [0, 1, 2, 3], (3, 1): [3, 2, 1], (2, 2): [2]}.items():
            nodes, times = cfg.walk_nodes(k0, k1)
            assert nodes.tolist() == expected
            assert times.tolist() == [k / 4 for k in expected]
