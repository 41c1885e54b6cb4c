"""Flow integration, migration, and depth control on analytic domains."""

import numpy as np
import pytest

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.domains import sample_domain
from diffbridge.bridge import (
    DRIFT_TIME_FLOOR,
    BridgeConfig,
    Integrator,
    NonFiniteStateError,
    depth_migrate,
    depth_sweep,
    flow_ode,
    migrate,
)


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

    @pytest.mark.parametrize("integrator", [Integrator.DDIM, Integrator.EULER])
    def test_first_order_self_inversion(self, gmm_setup, integrator):
        x, model = gmm_setup["x"], gmm_setup["model_a"]
        errs = {}
        for n in (500, 1000):
            cfg = BridgeConfig(
                schedule=gmm_setup["sched"], steps_per_unit_time=n, integrator=integrator
            )
            rt = flow_ode(flow_ode(x, model, 0.0, 1.0, cfg), model, 1.0, 0.0, cfg)
            errs[n] = np.abs(rt - x).max()
        ratio = errs[500] / errs[1000]
        assert 1.6 < ratio < 2.4

    def test_heun_self_inversion_second_order(self, gmm_setup):
        x, model = gmm_setup["x"], gmm_setup["model_a"]
        errs = {}
        for n in (250, 500):
            cfg = BridgeConfig(
                schedule=gmm_setup["sched"], steps_per_unit_time=n, integrator=Integrator.HEUN
            )
            rt = flow_ode(flow_ode(x, model, 0.0, 1.0, cfg), model, 1.0, 0.0, cfg)
            errs[n] = np.abs(rt - x).max()
        assert errs[250] / errs[500] > 3.3

    def test_ddim_and_heun_converge_to_each_other(self, gmm_setup):
        x, model = gmm_setup["x"], gmm_setup["model_a"]
        devs = {}
        for n in (500, 1000, 2000):
            forward = {}
            for integ in (Integrator.DDIM, Integrator.HEUN):
                cfg = BridgeConfig(
                    schedule=gmm_setup["sched"], steps_per_unit_time=n, integrator=integ
                )
                forward[integ] = flow_ode(x, model, 0.0, 1.0, cfg)
            devs[n] = np.abs(forward[Integrator.DDIM] - forward[Integrator.HEUN]).max()
        assert devs[2000] < devs[1000] < devs[500]

    def test_ddim_mode_matches_discrete_sampler_on_schedule_grid(self, gmm_setup):
        # With the grid equal to the discrete schedule, the reverse flow is
        # exactly the deterministic DDIM sampler.
        sched = db.linear_schedule(50)
        model = db.AnalyticGmmEpsilon(gmm_setup["pair"].source, sched)
        cfg = BridgeConfig(schedule=sched, integrator=Integrator.DDIM)
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

    @pytest.mark.parametrize("integrator", list(Integrator))
    def test_in_place_steps_match_the_textbook_recursion(self, integrator):
        """flow_ode steps in place; its bytes equal the plain out-of-place formulas."""
        sched = db.linear_schedule(1000)
        tex = db.make_texture_pair("bandsplit", 16, seed=4)
        model = db.AnalyticFieldEpsilon(tex.source.mode_variances, sched)
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=40, integrator=integrator)
        x = tex.source.sample(3, seed=5)
        times = np.arange(0, 31) / 40
        ab = sched.alpha_bar_at(times)
        eval_times = np.maximum(times, DRIFT_TIME_FLOOR)
        ab_eval, beta_eval = sched.alpha_bar_at(eval_times), sched.noise_rate_at(eval_times)

        def drift(state, j):
            eps = model.predict_epsilon(state, eval_times[j] * 1000)
            return 0.5 * beta_eval[j] * (eps / np.sqrt(1.0 - ab_eval[j]) - state)

        expected = x
        for j in range(30):
            h = times[j + 1] - times[j]
            if integrator == Integrator.DDIM:
                eps = model.predict_epsilon(expected, times[j] * 1000)
                x0_hat = (expected - np.sqrt(1.0 - ab[j]) * eps) / np.sqrt(ab[j])
                expected = np.sqrt(ab[j + 1]) * x0_hat + np.sqrt(1.0 - ab[j + 1]) * eps
            elif integrator == Integrator.EULER:
                expected = expected + h * drift(expected, j)
            else:
                k_a = drift(expected, j)
                k_b = drift(expected + h * k_a, j + 1)
                expected = expected + 0.5 * h * (k_a + k_b)
        got = flow_ode(x, model, 0.0, 0.75, cfg)
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, x)

    def test_rejects_time_outside_unit_interval(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"])
        with pytest.raises(ValueError):
            flow_ode(np.zeros(2), gmm_setup["model_a"], 0.0, 1.5, cfg)


class TestMigrate:
    def test_degenerate_migration_is_identity_up_to_roundtrip(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=1000)
        model = gmm_setup["model_a"]
        x = gmm_setup["x"]
        traj = migrate(x, model, model, cfg)
        assert np.abs(traj.migrated - x).max() < 0.05

    def test_migration_raises_target_log_density(self, gmm_setup):
        pair = gmm_setup["pair"]
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=1000)
        xs = db.gmm_sample(pair.source, 100, seed=5)
        traj = migrate(xs, gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        gain = db.gmm_log_density(pair.target, traj.migrated) - db.gmm_log_density(
            pair.target, xs
        )
        assert gain.mean() > 0

    def test_deterministic_trajectory(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=300)
        a = migrate(gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        b = migrate(gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        np.testing.assert_array_equal(a.migrated, b.migrated)
        np.testing.assert_array_equal(a.latent, b.latent)

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
        traj = depth_migrate(x, gmm_setup["model_a"], gmm_setup["model_b"], cfg, 0.0)
        np.testing.assert_array_equal(traj.migrated, x)
        np.testing.assert_array_equal(traj.latent, x)
        assert traj.depth == 0.0

    def test_full_depth_bit_identical_to_migrate(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=100)
        args = (gmm_setup["x"], gmm_setup["model_a"], gmm_setup["model_b"], cfg)
        np.testing.assert_array_equal(
            depth_migrate(*args, depth=1.0).migrated, migrate(*args).migrated
        )

    def test_depth_snaps_to_grid(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        traj = depth_migrate(
            gmm_setup["x"][0], gmm_setup["model_a"], gmm_setup["model_b"], cfg, 0.34
        )
        assert traj.depth == pytest.approx(0.3)

    def test_highpass_magnitude_tracks_depth_on_textures(self):
        from scipy.stats import spearmanr

        from diffbridge.softlabel import HighpassSpec, highpass_magnitude

        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 32, seed=3)
        m_src = db.AnalyticFieldEpsilon(pair.source.mode_variances, sched)
        m_tgt = db.AnalyticFieldEpsilon(pair.target.mode_variances, sched)
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=100, integrator=Integrator.DDIM)
        spec = HighpassSpec(0.25)
        grid = np.linspace(0.0, 1.0, 9)
        rhos = []
        for x in pair.source.sample(5, seed=7):
            mags = [
                highpass_magnitude(depth_migrate(x, m_src, m_tgt, cfg, float(i)).migrated, spec)
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


class _Counting(db.EpsilonModel):
    """A model that records the input shape of each of its calls."""

    def __init__(self, inner):
        self.inner, self.shapes = inner, []

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
    @pytest.mark.parametrize("integrator", list(Integrator))
    def test_every_depth_bit_identical_to_depth_migrate(self, gmm_setup, pair, integrator):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        cfg = BridgeConfig(
            schedule=gmm_setup["sched"], steps_per_unit_time=steps, integrator=integrator
        )
        for x in xs:
            table = depth_sweep(x, m_src, m_tgt, cfg, self.GRID)
            assert len(table) == len(self.GRID)
            for depth, traj in zip(self.GRID, table):
                ref = depth_migrate(x, m_src, m_tgt, cfg, depth)
                assert traj.depth == ref.depth
                for field in ("latent", "migrated"):
                    assert getattr(traj, field).tobytes() == getattr(ref, field).tobytes()

    @pytest.mark.parametrize("pair", ["gmm", "texture"])
    def test_one_descent_calls_the_target_model_once_per_grid_step(self, gmm_setup, pair):
        m_src, m_tgt, xs, steps = self._pairs(gmm_setup)[pair]
        src, tgt = _Counting(m_src), _Counting(m_tgt)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=steps)
        grid = [0.75, 0.0, 0.5, 0.25, 0.34, 0.125]
        table = depth_sweep(xs, src, tgt, cfg, grid)
        assert len(src.shapes) == len(tgt.shapes) == round(max(grid) * steps)
        # The descent starts with the deepest depth's rows and ends with all five depths'.
        assert tgt.shapes[0] == (1, *xs.shape) and tgt.shapes[-1] == (5, *xs.shape)
        for depth, traj in zip(grid, table):
            ref = depth_migrate(xs, m_src, m_tgt, cfg, depth)
            assert traj.migrated.tobytes() == ref.migrated.tobytes()

    def test_hybrid_priority_enforced(self, gmm_setup):
        att_fwd = db.init_attention(1, 2, priority=Priority.GLOBAL_FIRST, seed=0)
        m_fwd = db.init_mlp((2,), (4,), steps_total=1000, time_dim=4, attention=att_fwd, seed=1)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=5)
        with pytest.raises(ValueError, match="reverse leg"):
            depth_sweep(np.zeros(2), m_fwd, m_fwd, cfg, [0.5])


class TestTextureDdimOracle:
    """DDIM on the exact texture models against the per-mode product of its step gains.

    The exact texture epsilon is diagonal in the unitary Fourier basis,
    so one DDIM node from a_j to a_{j+1} multiplies mode k by
        sqrt(a_{j+1}/a_j) * (1 - (1 - a_j)/v_j) + sqrt((1 - a_{j+1})(1 - a_j))/v_j,
    with v_j = a_j * lambda_k + 1 - a_j (sqrt(a_{j+1}) where a_j = 1).  The
    oracle is that product applied through fft2/ifft2, arithmetic that
    shares nothing with the model's transform kernel.
    """

    N = 50  # grid nodes per unit time

    @pytest.fixture(scope="class")
    def setup(self):
        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 16, seed=4)
        lams = (pair.source.mode_variances, pair.target.mode_variances)
        models = tuple(db.AnalyticFieldEpsilon(lam, sched) for lam in lams)
        return sched, lams, models, pair.source.sample(4, seed=5)

    def gain(self, sched, lam, k0, k1):
        """The per-mode DDIM gain from grid node k0 to node k1."""
        nodes = np.arange(k0, k1 + (1 if k1 > k0 else -1), 1 if k1 > k0 else -1)
        a = sched.alpha_bar_at(nodes / self.N)
        g = np.ones_like(lam)
        for a0, a1 in zip(a[:-1], a[1:]):
            v = a0 * lam + 1.0 - a0
            g *= np.sqrt(a1 / a0) * (1.0 - (1.0 - a0) / v) + np.sqrt((1.0 - a1) * (1.0 - a0)) / v
        return g

    @staticmethod
    def apply(g, x):
        return np.fft.ifft2(g * np.fft.fft2(x, norm="ortho"), norm="ortho").real

    def expected(self, setup, depth):
        """The exact latent and migrated fields of DDIM migration to a depth on the grid."""
        sched, (lam_s, lam_t), _, x = setup
        k = round(depth * self.N)
        forward = self.gain(sched, lam_s, 0, k)
        return self.apply(forward, x), self.apply(forward * self.gain(sched, lam_t, k, 0), x)

    def test_migrate_is_the_product_of_step_gains(self, setup):
        sched, _, (m_src, m_tgt), x = setup
        traj = migrate(x, m_src, m_tgt, BridgeConfig(schedule=sched, steps_per_unit_time=self.N))
        latent, migrated = self.expected(setup, 1.0)
        np.testing.assert_allclose(traj.latent, latent, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.migrated, migrated, rtol=0, atol=1e-12)

    def test_depth_sweep_is_the_product_of_step_gains(self, setup):
        sched, _, (m_src, m_tgt), x = setup
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=self.N)
        depths = [0.25, 1.0, 0.5]
        for depth, traj in zip(depths, depth_sweep(x, m_src, m_tgt, cfg, depths)):
            latent, migrated = self.expected(setup, depth)
            np.testing.assert_allclose(traj.latent, latent, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.migrated, migrated, rtol=0, atol=1e-12)


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
            assert a.migrated.tobytes() == b.migrated.tobytes()


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

    def test_grid_defaults_to_schedule_steps(self):
        sched = db.linear_schedule(123)
        assert BridgeConfig(schedule=sched).grid_steps == 123
