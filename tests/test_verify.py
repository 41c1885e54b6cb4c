"""The built-in oracle suite: all-pass defaults and fault injection."""

import numpy as np
import pytest

from diffbridge.denoiser import MlpDenoiser
from diffbridge.schedule import NoiseSchedule, linear_schedule
from diffbridge.verify import check_gradient, run_all

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

    @pytest.mark.parametrize("steps", [2, 10, 100])
    def test_no_check_raises_on_short_schedules(self, steps):
        # At T <= 100 the default betas' interpolated alpha_bar rounds to
        # 1 at the drift's first node, where eps / sqrt(1 - alpha_bar) was 0/0.
        results = run_all(schedule=linear_schedule(steps))
        assert [r.detail for r in results if "raised" in r.detail] == []

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


class TestGradientCheck:
    def test_passes_where_an_entry_is_below_difference_resolution(self):
        # At seed 509 one gradient entry is about -1.1e-7, where central
        # differences of a loss near 4 resolve only about 1e-10.
        assert check_gradient(509).passed

    @pytest.mark.parametrize("which", ["largest", "near_1e-7"])
    def test_one_wrong_entry_fails(self, monkeypatch, which):
        real_backward = MlpDenoiser.backward

        def backward(self, x, t, target_eps):
            grads = real_backward(self, x, t, target_eps)
            flat = [g.reshape(-1) for g in grads.parameters]
            entries = [(p, i) for p, g in enumerate(flat) for i in range(g.size)]
            if which == "largest":
                p, i = max(entries, key=lambda e: abs(flat[e[0]][e[1]]))
            else:
                p, i = min(entries, key=lambda e: abs(np.log(abs(flat[e[0]][e[1]]) / 1e-7)))
                assert 5e-8 < abs(flat[p][i]) < 5e-7
            flat[p][i] *= 1.01
            return grads

        monkeypatch.setattr(MlpDenoiser, "backward", backward)
        assert not check_gradient(509).passed
