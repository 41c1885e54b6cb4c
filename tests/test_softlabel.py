"""Spectral magnitudes and soft labels against closed-form DFT oracles."""

import numpy as np
import pytest

import diffbridge as db
from diffbridge import softlabel, verify
from diffbridge.softlabel import (
    DegenerateEndpointsError,
    HighpassSpec,
    SweepLabels,
    highpass_magnitude,
    label_sweep,
    radial_frequency_grid,
    soft_label,
)


def naive_dft_magnitude(x, spec):
    """Direct matrix DFT (no FFT) averaged over the mask; the oracle."""
    h, w = x.shape
    m = np.arange(h)
    n = np.arange(w)
    rows = np.exp(-2j * np.pi * np.outer(np.arange(h), m) / h)
    cols = np.exp(-2j * np.pi * np.outer(n, np.arange(w)) / w)
    spectrum = rows @ x @ cols
    mask = spec.mask((h, w))
    return np.abs(spectrum[mask]).mean()


def cosine_image(shape, k, l, amplitude=1.0, phase=0.0):
    h, w = shape
    m, n = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return amplitude * np.cos(2 * np.pi * (k * m / h + l * n / w) + phase)


class TestHighpassSpec:
    def test_mask_symmetric_and_excludes_dc(self):
        spec = HighpassSpec(0.25)
        mask = spec.mask((16, 24))
        assert not mask[0, 0]
        flipped = mask.copy()
        flipped[1:, :] = flipped[:0:-1, :]
        flipped[:, 1:] = flipped[:, :0:-1]
        np.testing.assert_array_equal(mask, flipped)

    def test_radial_grid_reference_points(self):
        r = radial_frequency_grid((8, 8))
        assert r[0, 0] == 0.0
        assert r[4, 0] == pytest.approx(1.0)  # axis-aligned Nyquist
        assert r[4, 4] == pytest.approx(np.sqrt(2.0))

    def test_rejects_bad_cutoff(self):
        for cutoff in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                HighpassSpec(cutoff)


class TestHighpassMagnitude:
    def test_constant_image_is_zero(self):
        spec = HighpassSpec(0.25)
        assert highpass_magnitude(np.full((16, 16), 0.7), spec) == 0.0

    def test_cosine_above_cutoff_matches_direct_dft_oracle(self):
        # Two conjugate spikes of magnitude a*H*W/2 pass the mask, so the
        # mean over passed bins is a*H*W/count.  Frozen from the oracle.
        spec = HighpassSpec(0.25)
        x = cosine_image((32, 32), k=10, l=6, amplitude=0.7)
        count = spec.mask((32, 32)).sum()
        got = highpass_magnitude(x, spec)
        assert got == pytest.approx(0.7 * 32 * 32 / count, rel=1e-10)
        assert got == pytest.approx(0.7321756894790904, rel=1e-12)
        assert got == pytest.approx(naive_dft_magnitude(x, spec), rel=1e-10)

    def test_cosine_below_cutoff_is_masked_out(self):
        spec = HighpassSpec(0.25)
        x = cosine_image((32, 32), k=1, l=1)
        assert highpass_magnitude(x, spec) < 1e-10

    def test_translation_invariance(self):
        spec = HighpassSpec(0.25)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((16, 16))
            shifted = np.roll(x, (int(rng.integers(16)), int(rng.integers(16))), (0, 1))
            a = highpass_magnitude(x, spec)
            b = highpass_magnitude(shifted, spec)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)

    def test_linear_scaling(self):
        spec = HighpassSpec(0.25)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 16))
        base = highpass_magnitude(x, spec)
        for c in (-3.0, 0.5, 7.25):
            assert highpass_magnitude(c * x, spec) == pytest.approx(
                abs(c) * base, rel=1e-12
            )

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (64, 64), (16, 24)])
    def test_stack_rows_equal_one_field_calls_bytewise(self, shape):
        spec = HighpassSpec(0.25)
        fields = np.random.default_rng(4).standard_normal((3, 2, *shape))
        single = highpass_magnitude(fields[0, 0], spec)
        assert type(single) is float
        for stack in (fields[0], fields):  # (B, H, W) and (D, B, H, W)
            got = highpass_magnitude(stack, spec)
            assert got.shape == stack.shape[:-2]
            want = np.array([highpass_magnitude(x, spec) for x in stack.reshape(-1, *shape)])
            assert got.reshape(-1).tobytes() == want.tobytes()

    def test_degenerate_inputs_rejected(self):
        spec = HighpassSpec(0.25)
        for shape in ((1, 8), (4, 1, 8), (3, 8, 1), (16,)):
            with pytest.raises(ValueError):
                highpass_magnitude(np.zeros(shape), spec)
        # Odd dims have no exact-Nyquist bin: a 3x3 grid tops out at
        # radius ~0.94, so a 0.99 cutoff passes nothing.
        with pytest.raises(ValueError):
            highpass_magnitude(np.zeros((3, 3)), HighpassSpec(0.99))


class TestSoftLabel:
    def test_endpoint_identities(self):
        assert soft_label(10.0, 10.0, 2.0)[0] == 0.0
        assert soft_label(10.0, 2.0, 2.0)[0] == 1.0
        # Ascending endpoints as well (source below target).
        assert soft_label(2.0, 2.0, 10.0)[0] == 0.0
        assert soft_label(2.0, 10.0, 10.0)[0] == 1.0

    def test_direct_substitution(self):
        assert soft_label(10.0, 6.0, 2.0)[0] == 0.5

    def test_clamps_and_retains_raw(self):
        value, raw = soft_label(10.0, 0.5, 2.0)
        assert value == 1.0
        assert raw == pytest.approx(9.5 / 8.0)
        value, raw = soft_label(10.0, 11.0, 2.0)
        assert value == 0.0
        assert raw == pytest.approx(-0.125)

    def test_floats_give_floats(self):
        assert [type(v) for v in soft_label(10.0, np.float64(6.0), 2.0)] == [float, float]

    def test_broadcast_equals_float_calls_byte_for_byte(self):
        # Labels of (D, B) frames against (B,) endpoints, with exact zeros
        # (a_i == a_s) and ratios past both ends of [0, 1].
        rng = np.random.default_rng(11)
        a_s, a_t = rng.uniform(0.5, 10.0, 7), rng.uniform(0.5, 10.0, 7)
        a_i = a_s + (a_t - a_s) * rng.uniform(-0.5, 1.5, (9, 7))
        hit = rng.random(a_i.shape) < 0.2
        a_i[hit] = np.broadcast_to(a_s, a_i.shape)[hit]
        value, raw = soft_label(a_s, a_i, a_t)
        assert value.shape == raw.shape == (9, 7)
        assert (value == 0.0).any() and (raw < 0.0).any() and (raw > 1.0).any()
        # 0 / negative is -0.0 in raw; the clamped label is +0.0.
        assert np.signbit(raw[(a_i == a_s) & (a_s < a_t)]).all() and not np.signbit(value).any()
        flat = (np.broadcast_to(a, a_i.shape).ravel().tolist() for a in (a_s, a_i, a_t))
        pairs = [soft_label(s, i, t) for s, i, t in zip(*flat)]
        assert value.tobytes() == np.array([v for v, _ in pairs]).tobytes()
        assert raw.tobytes() == np.array([r for _, r in pairs]).tobytes()

    def test_a_degenerate_sample_in_an_array_is_named(self):
        a_s, a_t = np.array([10.0, 5.0, 3.0, 5.0]), np.array([2.0, 5.0 + 1e-12, 3.0, 1.0])
        # Samples 1 and 2 are degenerate; the first is named, as a float call names it.
        message = "endpoint magnitudes indistinguishable: |5.0 - 5.000000000001| <= 5.000000000001e-09"
        for args in ((a_s, np.full((3, 4), 4.0), a_t), (5.0, 4.0, 5.0 + 1e-12)):
            with pytest.raises(DegenerateEndpointsError) as err:
                soft_label(*args)
            assert str(err.value) == message
        # The floor is relative to the larger endpoint, but never below 1e-9.
        with pytest.raises(DegenerateEndpointsError):
            soft_label(np.array([1.0, 5e-10]), np.zeros((2, 2)), np.array([0.0, 0.0]))

    def test_degenerate_endpoints_raise_not_nan(self):
        with pytest.raises(DegenerateEndpointsError):
            soft_label(5.0, 4.0, 5.0)
        with pytest.raises(DegenerateEndpointsError):
            soft_label(5.0, 4.0, 5.0 + 1e-12)

    def test_invariant_under_global_magnitude_rescaling(self):
        # The transform normalization cancels in the ratio.
        rng = np.random.default_rng(2)
        for _ in range(20):
            a_s, a_i, a_t = rng.uniform(0.1, 10.0, size=3)
            if abs(a_s - a_t) < 1e-3:
                continue
            c = rng.uniform(0.01, 100.0)
            assert soft_label(c * a_s, c * a_i, c * a_t)[1] == pytest.approx(
                soft_label(a_s, a_i, a_t)[1], rel=1e-9
            )


def label_of_fields(x_i, x_s, x_t, spec):
    return soft_label(*highpass_magnitude(np.stack([x_s, x_i, x_t]), spec))


class TestLabelOfFields:
    def test_endpoint_fields(self):
        spec = HighpassSpec(0.25)
        x_s = cosine_image((16, 16), 5, 3, amplitude=0.3)
        x_t = cosine_image((16, 16), 5, 3, amplitude=0.9)
        assert label_of_fields(x_s, x_s, x_t, spec)[0] == 0.0
        assert label_of_fields(x_t, x_s, x_t, spec)[0] == 1.0

    def test_aligned_spectra_mean_gives_half(self):
        # Same mode, same phase: magnitudes add linearly, so the pixel
        # average has the average passed-band spectrum.
        spec = HighpassSpec(0.25)
        x_s = cosine_image((32, 32), 9, 4, amplitude=0.2)
        x_t = cosine_image((32, 32), 9, 4, amplitude=0.8)
        x_mid = 0.5 * (x_s + x_t)
        value, _ = label_of_fields(x_mid, x_s, x_t, spec)
        assert value == pytest.approx(0.5, abs=1e-9)


@pytest.fixture(scope="module")
def setup():
    sched = db.linear_schedule(200)
    pair = db.make_texture_pair("bandsplit", 16, seed=1)
    return {
        "cfg": db.BridgeConfig(schedule=sched, steps_per_unit_time=40),
        "m_src": db.AnalyticFieldEpsilon(pair.source.mode_variances, sched),
        "m_tgt": db.AnalyticFieldEpsilon(pair.target.mode_variances, sched),
        "x": pair.source.sample(1, seed=2)[0],
        "spec": HighpassSpec(0.25),
    }


class TestLabelSweep:
    @pytest.mark.parametrize("grid", [[0.0, 0.3, 0.7, 1.0], [0.75, 0.25, 0.5]])
    def test_rows_equal_per_sample_labels(self, setup, grid):
        cfg, m_src, m_tgt, spec = setup["cfg"], setup["m_src"], setup["m_tgt"], setup["spec"]
        xs = np.stack([setup["x"], -setup["x"], 0.5 * setup["x"]])

        def one(x, depth):
            return db.depth_migrate(x, m_src, m_tgt, cfg, depth)

        sweep = label_sweep(xs, m_src, m_tgt, cfg, grid, spec)
        assert sweep.depths == [cfg.snap(d) for d in grid]
        assert sweep.frames.shape == (len(grid), *xs.shape)
        for per_frame in (sweep.value, sweep.raw, sweep.a_frame):
            assert per_frame.shape == sweep.frames.shape[:2]
        assert sweep.a_source.shape == sweep.a_target.shape == (len(xs),)
        for i, x in enumerate(xs):
            a_s = highpass_magnitude(x, spec)
            a_t = highpass_magnitude(one(x, 1.0), spec)
            assert (sweep.a_source[i], sweep.a_target[i]) == (a_s, a_t)
            for k, depth in enumerate(grid):
                frame = one(x, depth)
                assert sweep.frames[k, i].tobytes() == frame.tobytes()
                a_i = highpass_magnitude(frame, spec)
                assert sweep.a_frame[k, i] == a_i
                assert (sweep.value[k, i], sweep.raw[k, i]) == soft_label(a_s, a_i, a_t)

    def test_labels_are_those_of_the_exact_ddim_map(self):
        sched = db.linear_schedule(1000)
        pair = db.make_texture_pair("bandsplit", 16, seed=1)
        lam_s, lam_t = pair.source.mode_variances, pair.target.mode_variances
        m_src, m_tgt = (db.AnalyticFieldEpsilon(lam, sched) for lam in (lam_s, lam_t))
        cfg, spec = db.BridgeConfig(schedule=sched, steps_per_unit_time=50), HighpassSpec(0.25)
        xs = pair.source.sample(4, seed=2)
        grid = [0.5, 0.0, 1.0, 0.1, 0.25, 0.26]  # unsorted, with 0
        sweep = label_sweep(xs, m_src, m_tgt, cfg, grid, spec)
        # The target endpoint is the full-depth frame, appended as label_sweep does.
        frames = verify.texture_sweep_frames(verify.texture_ddim_gain, xs, lam_s, lam_t, cfg, [*grid, 1.0])
        mags = highpass_magnitude(frames, spec)
        value, raw = soft_label(highpass_magnitude(xs, spec), mags[:-1], mags[-1])
        for got, want in ((sweep.frames, frames[:-1]), (sweep.value, value), (sweep.raw, raw)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_unbatched_sources(self, setup):
        x, models = setup["x"], (setup["m_src"], setup["m_tgt"], setup["cfg"])
        with pytest.raises(ValueError):
            label_sweep(x, *models, [0.5], setup["spec"])


class TestCalibrateDepth:
    @staticmethod
    def _calibrate(setup, targets, grid, xs=None):
        xs = setup["x"][None] if xs is None else xs
        models = (setup["m_src"], setup["m_tgt"], setup["cfg"])
        return db.calibrate_depth(targets, xs, *models, grid, setup["spec"])

    @staticmethod
    def _crafted_sweep(monkeypatch, depths, value, raw):
        """label_sweep replaced by one that returns these labels: ``(D, B)``, or one field's ``(D,)``."""
        value, raw = (np.reshape(v, (len(depths), -1)).astype(np.float64) for v in (value, raw))
        batch = value.shape[1]
        sweep = SweepLabels(
            depths, np.zeros((*value.shape, 2, 2)), value, raw, np.full(value.shape, 0.5),
            np.ones(batch), np.zeros(batch),
        )
        monkeypatch.setattr(softlabel, "label_sweep", lambda *args: sweep)

    def _picked_rows(self, setup, targets, depths):
        return self._calibrate(setup, targets, depths)[1][0].tolist()

    def test_target_zero_picks_depth_zero(self, setup):
        sweep, [[k]] = self._calibrate(setup, [0.0], np.linspace(0.0, 1.0, 9))
        assert sweep.depths[k] == 0.0 and sweep.value[k, 0] == 0.0

    def test_target_one_picks_depth_one(self, setup):
        sweep, [[k]] = self._calibrate(setup, [1.0], np.linspace(0.0, 1.0, 9))
        assert sweep.depths[k] == 1.0 and sweep.value[k, 0] == 1.0

    def test_midpoint_target_is_grid_optimal(self, setup):
        grid = np.linspace(0.0, 1.0, 9)
        sweep, [[k]] = self._calibrate(setup, [0.5], grid)
        value = sweep.value[k, 0]
        # Exhaustive re-sweep is its own oracle.
        x_t = db.migrate(setup["x"], setup["m_src"], setup["m_tgt"], setup["cfg"])
        a_s = highpass_magnitude(setup["x"], setup["spec"])
        a_t = highpass_magnitude(x_t, setup["spec"])
        gaps = []
        for i in grid:
            one = db.depth_migrate(setup["x"], setup["m_src"], setup["m_tgt"], setup["cfg"], float(i))
            val, _ = soft_label(a_s, highpass_magnitude(one, setup["spec"]), a_t)
            gaps.append(abs(val - 0.5))
        assert abs(value - 0.5) <= min(gaps) + 1e-12
        depth = sweep.depths[k]
        frame = db.depth_migrate(setup["x"], setup["m_src"], setup["m_tgt"], setup["cfg"], depth)
        assert sweep.frames[k, 0].tobytes() == frame.tobytes()

    def test_empty_grid_rejected(self, setup):
        with pytest.raises(ValueError):
            self._calibrate(setup, [0.5], [])

    @pytest.mark.parametrize("target", [-0.1, 1.5, float("nan")])
    def test_target_outside_unit_interval_rejected_before_any_model_call(
        self, setup, monkeypatch, target
    ):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the targets were checked")

        monkeypatch.setattr(softlabel, "label_sweep", no_sweep)
        with pytest.raises(ValueError, match="outside"):
            self._calibrate(setup, [0.5, target], np.linspace(0.0, 1.0, 9))

    def test_clamped_labels_tie_toward_smallest_depth(self, setup, monkeypatch):
        # Labels clamped to 1.0 at several depths are a three-way tie that
        # must resolve to the smallest tying depth, whatever its index.
        self._crafted_sweep(monkeypatch, [1.0, 0.5, 0.75], [1.0, 1.0, 1.0], [1.4, 1.0, 1.2])
        assert self._picked_rows(setup, [1.0], [1.0, 0.5, 0.75]) == [1]

    @pytest.mark.parametrize("depths", [[0.8, 0.3], [0.3, 0.8]])
    def test_equal_distances_tie_toward_smaller_depth(self, setup, monkeypatch, depths):
        # Equal distances on either side of the target tie as well.
        self._crafted_sweep(monkeypatch, depths, [0.75, 0.25], [0.75, 0.25])
        assert self._picked_rows(setup, [0.5], depths) == [depths.index(0.3)]

    def test_equal_depths_tie_toward_the_earlier_row(self, setup, monkeypatch):
        # Two rows at one depth with one label: grid order decides.
        self._crafted_sweep(monkeypatch, [0.75, 0.5, 0.5], [0.4, 0.6, 0.6], [0.4, 0.6, 0.6])
        assert self._picked_rows(setup, [0.5], [0.75, 0.5, 0.5]) == [1]

    def test_picks_follow_the_min_rule_on_tie_heavy_sweeps(self, setup, monkeypatch):
        # The rule in its first form: per field and target, the grid row of
        # least (distance to the target, snapped depth), the earliest on a tie.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            rows, batch = range(rng.integers(1, 7)), rng.integers(1, 4)
            depths = rng.choice([0.0, 0.25, 0.5, 1.0], len(rows)).tolist()
            value = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (len(rows), batch))
            targets = rng.choice([0.0, 0.125, 0.375, 0.5, 1.0], rng.integers(0, 4)).tolist()
            self._crafted_sweep(monkeypatch, depths, value, value)
            _, picks = self._calibrate(setup, targets, depths)
            expected = [
                [min(rows, key=lambda k: (abs(v[k] - t), depths[k])) for t in targets]
                for v in value.T.tolist()
            ]
            assert picks.dtype.kind == "i" and picks.shape == (batch, len(targets))
            assert picks.tolist() == expected

    def test_batch_picks_equal_one_field_picks(self, setup):
        xs = np.stack([setup["x"], 0.5 * setup["x"]])
        grid, targets = np.linspace(0.0, 1.0, 9), [0.25, 0.5, 0.75]
        sweep, picks = self._calibrate(setup, targets, grid, xs)
        assert picks.dtype.kind == "i" and picks.shape == (2, 3)
        for i, x in enumerate(xs):
            one, [alone] = self._calibrate(setup, targets, grid, x[None])
            assert picks[i].tolist() == alone.tolist()
            for k in alone:
                assert (sweep.value[k, i], sweep.raw[k, i]) == (one.value[k, 0], one.raw[k, 0])
                assert sweep.frames[k, i].tobytes() == one.frames[k, 0].tobytes()
