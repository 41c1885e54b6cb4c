"""Flow integration, migration, and depth control on analytic domains."""

import numpy as np
import pytest

import diffbridge as db
from diffbridge.attention import Priority
from diffbridge.bridge import (
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
        eval_times = np.maximum(times, cfg.drift_time_floor)
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

    def test_snapshots_record_every_substep(self, gmm_setup):
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=10)
        snaps = []
        flow_ode(gmm_setup["x"][0], gmm_setup["model_a"], 0.0, 0.5, cfg, snapshots=snaps)
        assert [t for t, _ in snaps] == pytest.approx(np.linspace(0.1, 0.5, 5).tolist())

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
                for field in ("source", "latent", "migrated"):
                    assert getattr(traj, field).tobytes() == getattr(ref, field).tobytes()

    def test_hybrid_priority_enforced(self, gmm_setup):
        att_fwd = db.init_attention(1, 2, priority=Priority.GLOBAL_FIRST, seed=0)
        m_fwd = db.init_mlp((2,), (4,), steps_total=1000, time_dim=4, attention=att_fwd, seed=1)
        cfg = BridgeConfig(schedule=gmm_setup["sched"], steps_per_unit_time=5)
        with pytest.raises(ValueError, match="reverse leg"):
            depth_sweep(np.zeros(2), m_fwd, m_fwd, cfg, [0.5])


class TestBridgeConfig:
    def test_validation(self):
        sched = db.linear_schedule(10)
        with pytest.raises(ValueError):
            BridgeConfig(schedule=sched, steps_per_unit_time=0)
        with pytest.raises(ValueError):
            BridgeConfig(schedule=sched, depth=1.5)

    def test_grid_defaults_to_schedule_steps(self):
        sched = db.linear_schedule(123)
        assert BridgeConfig(schedule=sched).grid_steps == 123
