"""Schedule construction, invariants, and the continuous-time extension."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from diffbridge.schedule import NoiseSchedule, linear_schedule


class TestLinearSchedule:
    def test_single_step(self):
        s = linear_schedule(1, 0.1, 0.1)
        np.testing.assert_allclose(s.betas, [0.1])
        np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9])

    def test_two_steps(self):
        s = linear_schedule(2, 0.1, 0.3)
        np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9, 0.9 * 0.7])

    def test_default_terminal_product_matches_extended_precision_oracle(self):
        """Brute-force product loop at 50-digit precision, frozen value.

        Oracle (mpmath, dps=50):
            prod over t of (1 - (1e-4 + (0.02 - 1e-4) * (t-1)/999))
              = 4.0358297653756833e-05
        """
        s = linear_schedule(1000, 1e-4, 0.02)
        assert s.alpha_bars[1000] == pytest.approx(4.0358297653756833e-05, rel=1e-12)

        # Re-run the oracle loop here in double precision as a cross-check
        # of the stored cumulative product (sequential, same order).
        prod = 1.0
        for t in range(1, 1001):
            beta = 1e-4 + (0.02 - 1e-4) * (t - 1) / 999
            prod *= 1.0 - beta
        assert s.alpha_bars[1000] == pytest.approx(prod, rel=1e-13)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        good = linear_schedule(10)
        mine = [a.copy() for a in (good.betas, good.alphas, good.alpha_bars)]
        s = NoiseSchedule(10, *mine)
        for a in mine:
            a[-1] = 0.5
        for kept, want in zip((s.betas, s.alphas, s.alpha_bars),
                              (good.betas, good.alphas, good.alpha_bars)):
            assert kept.tobytes() == want.tobytes()
            assert not kept.flags.writeable

    def test_stored_products_chain_exactly(self):
        s = linear_schedule(50, 1e-3, 0.1)
        for t in range(1, 51):
            assert s.alpha_bars[t] == s.alpha_bars[t - 1] * s.alphas[t - 1]

    def test_monotone_and_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            steps = int(rng.integers(1, 400))
            b0 = float(rng.uniform(1e-5, 0.01))
            b1 = float(rng.uniform(b0, 0.5))
            s = linear_schedule(steps, b0, b1)
            assert np.all(np.diff(s.alpha_bars) < 0)
            assert s.alpha_bars[0] == 1.0
            assert np.all(s.betas > 0) and np.all(s.betas < 1)
            root_signal = np.sqrt(s.alpha_bars[1:])
            root_noise = np.sqrt(1.0 - s.alpha_bars[1:])
            for arr in (root_signal, root_noise):
                assert np.all(np.isfinite(arr)) and np.all(arr > 0)

    @pytest.mark.parametrize(
        "steps,b0,b1",
        [
            (0, 1e-4, 0.02),
            (10, 0.0, 0.02),
            (10, 0.02, 1e-4),
            (10, 1e-4, 1.0),
            (10, np.nan, 0.02),
            (10, 1e-4, np.inf),
            (10, -0.1, 0.02),
        ],
    )
    def test_rejects_bad_parameters(self, steps, b0, b1):
        with pytest.raises(ValueError):
            linear_schedule(steps, b0, b1)

    def test_tables_immutable(self):
        s = linear_schedule(10)
        with pytest.raises(ValueError):
            s.betas[0] = 0.5


class TestContinuousExtension:
    def test_matches_table_at_knots(self):
        s = linear_schedule(200, 1e-4, 0.05)
        for t in (0, 1, 77, 200):
            assert s.alpha_bar_at(t / 200) == pytest.approx(s.alpha_bars[t], rel=1e-14)
        assert s.alpha_bar_at(0.0) == 1.0

    @pytest.mark.parametrize("steps", [2, 10, 50, 100, 1000, 4000, 10000])
    def test_knot_error_grows_with_log_alpha_bar(self, steps):
        # The log interpolant passes through the knots; exp of it rounds.
        s = linear_schedule(steps)
        ab = s.alpha_bars
        got = s.alpha_bar_at(np.arange(steps + 1) / steps)
        rel = np.abs(got - ab) / ab
        assert np.all(rel <= 4 * np.finfo(float).eps * (1.0 + np.abs(np.log(ab))))
        assert (got.tobytes() == ab.tobytes()) == (steps <= 50)

    def test_monotone_between_knots(self):
        s = linear_schedule(100)
        grid = np.linspace(0.0, 1.0, 1717)
        vals = s.alpha_bar_at(grid)
        assert np.all(np.diff(vals) < 0)

    def test_noise_rate_is_log_derivative(self):
        s = linear_schedule(100)
        h = 1e-7
        for u in (0.1, 0.33333, 0.5, 0.9):
            fd = (np.log(s.alpha_bar_at(u + h)) - np.log(s.alpha_bar_at(u - h))) / (2 * h)
            assert s.noise_rate_at(u) == pytest.approx(-fd, rel=1e-5)

    def test_rejects_out_of_range_time(self):
        s = linear_schedule(10)
        bad = (-0.01, 1.01, float("nan"), np.nan, np.inf, np.array([0.5, np.nan]),
               np.array([[0.0], [np.nan]]), np.array(np.nan), [0.2, -np.inf])
        for u in bad:
            for at in (s.alpha_bar_at, s.noise_rate_at):
                with pytest.raises(ValueError, match="time outside"):
                    at(u)

    @pytest.mark.parametrize("steps,grid", [(1000, 1000), (1000, 300), (200, 200), (200, 1000)])
    def test_scalar_time_gives_the_array_path_bytes(self, steps, grid):
        # Grid node k of n reaches a model as step k/n * T, which it
        # passes back as (k/n * T) / T; both forms of every node are checked.
        s = linear_schedule(steps)
        k = np.arange(grid + 1)
        times = sorted({*(k / grid).tolist(), *((k / grid * steps) / steps).tolist()})
        as_array = {f: f(np.array(times)) for f in (s.alpha_bar_at, s.noise_rate_at)}
        for i, u in enumerate(times):
            for f, column in as_array.items():
                got = f(u)
                assert type(got) is float
                assert got.hex() == float(f(np.asarray(u))).hex() == float(column[i]).hex()


class TestPchipIsScipys:
    """The numpy PCHIP gives PchipInterpolator's bytes (scipy is the oracle)."""

    @staticmethod
    def _same_bytes(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 10, 1000, 4000])
    def test_coefficients_values_and_rates(self, steps):
        s = linear_schedule(steps)
        interp = PchipInterpolator(np.arange(steps + 1), np.log(s.alpha_bars))
        deriv = interp.derivative()
        self._same_bytes(s._log_ab, interp.c)

        rng = np.random.default_rng(steps)
        times = np.concatenate((rng.random(20000), np.arange(steps + 1) / steps, [1.0]))
        want_ab = np.exp(interp(times * steps))
        want_rate = -deriv(times * steps) * steps
        self._same_bytes(s.alpha_bar_at(times), want_ab)
        self._same_bytes(s.noise_rate_at(times), want_rate)
        # Float times take the Python-float path: every knot, t = 1 and a
        # random subset.
        picks = np.concatenate((np.arange(steps + 1), [len(times) - 1], np.arange(0, 20000, 40)))
        for i in picks.tolist():
            u = times[i].item()
            assert s.alpha_bar_at(u).hex() == float(want_ab[i]).hex()
            assert s.noise_rate_at(u).hex() == float(want_rate[i]).hex()
