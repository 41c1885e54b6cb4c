"""The built-in oracle suite and its shared measurement functions: all-pass defaults, fault injection."""

import numpy as np
import pytest

from diffbridge import verify
from diffbridge.bridge import BridgeConfig, NonFiniteStateError, flow_ode
from diffbridge.denoiser import AnalyticGmmEpsilon, MlpDenoiser, init_mlp
from diffbridge.domains import default_gmm_pair, gmm_sample
from diffbridge.schedule import NoiseSchedule, linear_schedule
from diffbridge.verify import check_gradient, run_all
from conftest import mlp_gradcheck

EXPECTED_CHECKS = [
    "schedule-product",
    "forward-noise-moments",
    "score-finite-difference",
    "flow-round-trip",
    "flow-round-trip-ddim",
    "ddim-ode-agreement",
    "mlp-gradient-check",
    "soft-label-identities",
]


def corrupted_schedule() -> NoiseSchedule:
    """Tampered cumulative table: a deep dip at a low-noise step."""
    good = linear_schedule(1000)
    ab = good.alpha_bars.copy()
    ab[30] = 1e-4
    return NoiseSchedule(1000, good.betas.copy(), good.alphas.copy(), ab)


class TestVerifySuite:
    def test_all_pass_on_shipped_defaults(self):
        results = run_all()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_report_enumerates_every_check(self):
        results = run_all()
        assert [r.name for r in results] == EXPECTED_CHECKS
        for r in results:
            line = r.line()
            assert r.name in line and ("PASS" in line or "FAIL" in line)
            assert "measured=" in line and "threshold=" in line

    @pytest.mark.parametrize("steps", [2, 10, 50, 100])
    def test_no_check_raises_on_short_schedules(self, steps):
        # At T <= 100 the default betas' interpolated alpha_bar rounds to
        # 1 at the drift's first node, where eps / sqrt(1 - alpha_bar) was 0/0.
        results = run_all(schedule=linear_schedule(steps))
        assert [r.detail for r in results if "raised" in r.detail] == []
        assert [r.line() for r in results if not r.passed] == []

    def test_flow_round_trip_spends_two_thousand_model_calls(self, monkeypatch):
        # Heun at 500 nodes per unit time: two calls per node, two legs.
        calls = []
        predict = AnalyticGmmEpsilon.predict_epsilon

        def counting(self, x, t):
            calls.append(x.shape)
            return predict(self, x, t)

        monkeypatch.setattr(AnalyticGmmEpsilon, "predict_epsilon", counting)
        assert verify.check_flow_round_trip(linear_schedule(1000)).passed
        assert calls == [(32, 2)] * 2000

    def test_schedule_corruption_fails_round_trip(self):
        results = {r.name: r for r in run_all(schedule=corrupted_schedule())}
        assert not results["flow-round-trip-ddim"].passed
        assert not results["schedule-product"].passed
        # The unrelated checks still run and report.
        assert results["mlp-gradient-check"].passed
        assert results["soft-label-identities"].passed

    def test_raising_check_reported_not_crashing(self):
        # alpha_bars of zero make the interpolant produce non-finite
        # values; the suite must degrade to FAIL results, not raise.
        good = linear_schedule(100)
        ab = good.alpha_bars.copy()
        ab[50] = np.nextafter(0.0, 1.0)
        broken = NoiseSchedule(100, good.betas.copy(), good.alphas.copy(), ab)
        results = run_all(schedule=broken)
        assert any(not r.passed for r in results)
        assert [r.name for r in results] == EXPECTED_CHECKS


def break_one_gradient_entry(monkeypatch, which):
    """Corrupt one entry of ``MlpDenoiser.backward``'s gradients, as ``which`` names."""
    real_backward = MlpDenoiser.backward

    def backward(self, x, t, target_eps):
        grads = real_backward(self, x, t, target_eps)
        flat = [g.reshape(-1) for g in grads.parameters]
        entries = [(p, i) for p, g in enumerate(flat) for i in range(g.size)]
        if which in ("largest", "nan"):
            p, i = max(entries, key=lambda e: abs(flat[e[0]][e[1]]))
        else:
            p, i = min(entries, key=lambda e: abs(np.log(abs(flat[e[0]][e[1]]) / 1e-7)))
            assert 5e-8 < abs(flat[p][i]) < 5e-7
        flat[p][i] = np.nan if which == "nan" else flat[p][i] * 1.01
        return grads

    monkeypatch.setattr(MlpDenoiser, "backward", backward)


class TestGradientCheck:
    def test_passes_where_an_entry_is_below_difference_resolution(self):
        # At seed 509 one gradient entry is about -1.1e-7, where central
        # differences of a loss near 4 resolve only about 1e-10.
        assert check_gradient(509).passed

    @pytest.mark.parametrize("which", ["largest", "near_1e-7", "nan"])
    def test_one_wrong_entry_fails(self, monkeypatch, which):
        break_one_gradient_entry(monkeypatch, which)
        assert not check_gradient(509).passed

    @pytest.mark.parametrize("which", ["largest", "near_1e-7", "nan"])
    def test_one_wrong_entry_fails_under_the_1e_8_floor(self, monkeypatch, which):
        """The tests' ``mlp_gradcheck``, which criterion 9 and the denoiser tests run."""
        # Seed 0, not 509: under this floor seed 509 reads 3.8e-4 even unbroken.
        rng = np.random.default_rng(0)
        model = init_mlp((3,), (10, 8), steps_total=100, time_dim=6, seed=0)
        x, target = rng.standard_normal(3), rng.standard_normal(3)
        assert mlp_gradcheck(model, x, 40, target) < 1e-4
        break_one_gradient_entry(monkeypatch, which)
        assert not mlp_gradcheck(model, x, 40, target) < 1e-4


class TestOracleFaults:
    """Each shared oracle reads past its callers' bounds on a broken input."""

    @pytest.mark.parametrize("fault", ["shift", "scale"])
    def test_noise_moments_see_a_moment_shift(self, monkeypatch, fault):
        real = verify.forward_noise
        wrong = {"shift": lambda x: x + 0.1, "scale": lambda x: x * 1.1}[fault]

        def broken(*args):
            x_t, eps = real(*args)
            return wrong(x_t), eps

        monkeypatch.setattr(verify, "forward_noise", broken)
        x0, sched, rng = np.array([1.5, -0.5]), linear_schedule(1000), np.random.default_rng(1)
        mean_dev, var_dev = verify.noise_moment_deviations(x0, 400, sched, rng, 4000)
        assert (mean_dev > 4.0) if fault == "shift" else (var_dev > 0.10)

    @pytest.mark.parametrize("fault", ["scale", "nan"])
    def test_score_sees_a_broken_epsilon(self, fault):
        calls = iter(range(25))

        class Broken(AnalyticGmmEpsilon):
            def predict_epsilon(self, x, t):
                # Off by a thousandth everywhere, or NaN at the third state.
                wrong = 1.001 if fault == "scale" else (np.nan if next(calls) == 2 else 1.0)
                return wrong * super().predict_epsilon(x, t)

        model = Broken(default_gmm_pair().source, linear_schedule(1000))
        assert not verify.score_error(model, np.random.default_rng(0), 25) < 1e-5

    def test_round_trip_sees_a_corrupted_schedule(self):
        sched, mix = corrupted_schedule(), default_gmm_pair().source
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=1000)
        model = AnalyticGmmEpsilon(mix, sched)
        assert verify.round_trip_error(flow_ode, gmm_sample(mix, 32, seed=0), model, cfg) > 2e-2

    def test_heun_flow_names_the_node_of_a_non_finite_state(self):
        class Poisoned(AnalyticGmmEpsilon):
            """The analytic model, returning inf for one row from time 0.3 on."""

            def predict_epsilon(self, x, t):
                eps = super().predict_epsilon(x, t)
                if t >= 300:
                    eps[1] = np.inf
                return eps

        sched, mix = linear_schedule(1000), default_gmm_pair().source
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=10)
        with pytest.raises(NonFiniteStateError, match=r"grid node 3 \(time 0.300000\)"):
            verify.heun_flow(gmm_sample(mix, 4, seed=0), Poisoned(mix, sched), 0.0, 1.0, cfg)


class TestChecksKeepNan:
    """A NaN among a check's per-item errors fails it and is its measurement."""

    def test_schedule_product(self):
        good = linear_schedule(100)
        ab = good.alpha_bars.copy()
        ab[50] = np.nan
        result = verify.check_schedule_product(NoiseSchedule(100, good.betas, good.alphas, ab))
        assert not result.passed and np.isnan(result.measured)

    def test_forward_noise_moments(self, monkeypatch):
        monkeypatch.setattr(verify, "noise_moment_deviations", lambda *a: (1.0, np.nan))
        result = verify.check_forward_noise_moments(linear_schedule(100))
        assert not result.passed and np.isnan(result.measured)

    def test_soft_label_identities(self, monkeypatch):
        monkeypatch.setattr(verify, "highpass_magnitude", lambda *a: np.nan)
        result = verify.check_soft_label_identities()
        assert not result.passed and np.isnan(result.measured)
