"""Mixtures, texture pairs, and PGM round trips against direct oracles."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import diffbridge as db
from diffbridge.blocks import _pairwise_sum
from diffbridge.domains import GaussianMixture, SpectralTexture, _logsumexp
from diffbridge.softlabel import HighpassSpec, highpass_magnitude
from diffbridge.train import energy_distance
from conftest import traced_peak


def two_blob_mixture():
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=[[3.0, 0.0], [-3.0, 0.0]],
        variances=[0.25, 0.25],
    )


class TestGaussianMixture:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.6, 0.5], [[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [1.0, -1.0])
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="^means must have at least one coordinate$"):
            GaussianMixture([1.0], [[]], [1.0])

    @pytest.mark.parametrize("field,args", [
        ("weights", ([np.nan], [[0.0, 0.0]], [1.0])),
        ("weights", ([np.inf, 0.5], [[0.0], [1.0]], [1.0, 1.0])),
        ("means", ([1.0], [[np.inf, 0.0]], [1.0])),
        ("means", ([0.5, 0.5], [[0.0], [np.nan]], [1.0, 1.0])),
        ("variances", ([1.0], [[0.0, 0.0]], [np.nan])),
        ("variances", ([1.0], [[0.0, 0.0]], [np.inf])),
    ])
    def test_rejects_non_finite_naming_the_field(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            GaussianMixture(*args)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        w, m, v = np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.array([1.0, 2.0])
        mix = GaussianMixture(w, m, v)
        w[0], m[0, 0], v[0] = 0.9, 5.0, 3.0
        assert mix.weights.tolist() == [0.5, 0.5]
        assert mix.means.tolist() == [[0.0], [1.0]]
        assert mix.variances.tolist() == [1.0, 2.0]
        assert not any(a.flags.writeable for a in (mix.weights, mix.means, mix.variances))

    def test_degenerate_variance_collapses_to_mean(self):
        mix = GaussianMixture([1.0], [[0.4, -0.7]], [1e-14])
        samples = db.gmm_sample(mix, 100, seed=3)
        assert np.abs(samples - np.array([0.4, -0.7])).max() < 1e-6

    def test_component_occupancy_monte_carlo(self):
        # Equal-weight blobs at +-(3, 0): sign of the first coordinate
        # identifies the component essentially surely.
        samples = db.gmm_sample(two_blob_mixture(), 10_000, seed=0)
        occupancy = np.mean(samples[:, 0] > 0)
        assert abs(occupancy - 0.5) < 0.02

    def test_sampling_deterministic(self):
        mix = two_blob_mixture()
        a = db.gmm_sample(mix, 64, seed=42)
        b = db.gmm_sample(mix, 64, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            db.gmm_sample(two_blob_mixture(), 0, seed=0)


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        mix = GaussianMixture([1.0], [[0.0, 0.0]], [1.0])
        assert db.gmm_log_density(mix, [0.0, 0.0]) == pytest.approx(
            np.log(1.0 / (2.0 * np.pi)), rel=1e-14
        )

    def test_heaviest_component_lower_bound(self):
        # With uniform weights, log p(x) >= max_k log N_k(x) - log K.
        third = 1.0 / 3.0
        mix = GaussianMixture(
            [third, third, third],
            [[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]],
            [0.5, 1.5, 0.7],
        )
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=2)
            per_comp = [
                db.gmm_log_density(GaussianMixture([1.0], [m], [v]), x)
                for m, v in zip(mix.means, mix.variances)
            ]
            assert db.gmm_log_density(mix, x) >= max(per_comp) - np.log(3) - 1e-12

    def test_matches_extended_precision_direct_summation(self):
        import mpmath as mp

        mp.mp.dps = 40
        mix = GaussianMixture(
            [0.25, 0.35, 0.4],
            [[1.0, -2.0], [-1.5, 0.5], [2.0, 2.0]],
            [0.4, 0.8, 0.2],
        )
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = rng.normal(scale=2.5, size=2)
            total = mp.mpf(0)
            for w, m, v in zip(mix.weights, mix.means, mix.variances):
                sq = sum((mp.mpf(xi) - mp.mpf(mi)) ** 2 for xi, mi in zip(x, m))
                total += mp.mpf(w) / (2 * mp.pi * mp.mpf(v)) * mp.e ** (
                    -sq / (2 * mp.mpf(v))
                )
            oracle = float(mp.log(total))
            assert db.gmm_log_density(mix, x) == pytest.approx(oracle, abs=1e-10)


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _lse_cases():
    rng = np.random.default_rng(11)
    for shape in ((3,), (1, 3), (6, 3), (5, 9), (4, 3, 7), (2, 5, 1), (3, 300)):
        yield rng.normal(scale=4.0, size=shape)
        # Integer values tie exactly, often several times in a row.
        yield rng.integers(-2, 3, size=shape).astype(np.float64)
        yield np.full(shape, -1.5)
        yield rng.normal(size=shape) + 700.0
        yield rng.normal(size=shape) - 700.0
        yield np.where(rng.random(shape) < 0.5, 709.5, -745.0)
    edges = rng.normal(size=(9, 4))
    edges[0] = -np.inf
    edges[1, :2] = -np.inf
    edges[2, 1] = np.inf
    edges[3, [0, 3]] = np.inf
    edges[4, 2] = np.nan
    edges[5] = [np.inf, -np.inf, np.nan, 0.0]
    edges[6] = [710.0, 710.0, 709.0, 0.0]
    edges[7] = 1.7e308
    edges[8] = [-1.7e308, 1.7e308, 0.0, 1.0]
    yield edges
    yield np.array([-np.inf])
    yield np.array([np.nan])
    # NaNs of both signs among infinities: which NaN comes out depends on
    # the order the sum meets them in, so only scipy's fallback gives its bytes.
    pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, 1.0, -3.0])
    yield pool[rng.integers(0, len(pool), size=(64, 9))]
    yield pool[rng.integers(0, len(pool), size=(13, 3))]
    yield pool[rng.integers(0, len(pool), size=(21, 300))]


class TestLogSumExp:
    """The numpy kernel gives scipy.special.logsumexp's bytes (scipy is the oracle).

    The kernel sums the components on axis 0 of a (K, n) array; each case
    holds its components on the last axis, as scipy is given them.
    """

    @pytest.mark.parametrize("a", list(_lse_cases()))
    def test_bytes_equal_scipy(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(a.reshape(-1, a.shape[-1]).T)
        with np.errstate(over="ignore"):
            want = logsumexp(a, axis=-1).reshape(-1)
        _assert_same_bytes(got, want)


class TestPairwiseSum:
    """``_pairwise_sum`` over a first axis has the bytes of numpy's sum over a contiguous last axis.

    n = 1..300 covers every remainder mod 8, the in-order sums below 8
    terms and the split above 128.
    """

    @staticmethod
    def _rows(n):
        """Rows of n terms: random, mixed in magnitude, and signed zeros alone or among values."""
        rng = np.random.default_rng(n)
        mixed = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-12, 13, (6, n))
        zeros = rng.choice([-0.0, 0.0], (3, n))
        among = np.where(rng.random((3, n)) < 0.7, -0.0, rng.standard_normal((3, n)))
        lone = np.full((2, n), -0.0)
        lone[1, -1] = 0.0
        return np.concatenate([rng.standard_normal((6, n)), mixed, zeros, among, lone])

    def test_bytes_equal_the_last_axis_sum(self):
        for n in range(1, 301):
            a = self._rows(n)
            kept = a.copy()
            want = a.sum(-1)
            for terms in (a.T, np.ascontiguousarray(a.T)):
                got = _pairwise_sum(terms) + 0.0
                assert got.tobytes() == want.tobytes(), n
            _assert_same_bytes(a, kept)   # the terms are read, never written


def _scipy_log_components(mix, x):
    d = mix.dimension
    sq = np.sum((x[..., None, :] - mix.means) ** 2, axis=-1)
    return (
        np.log(mix.weights)
        - 0.5 * d * np.log(2.0 * np.pi * mix.variances)
        - 0.5 * sq / mix.variances
    )


def _scipy_gmm_log_density(mix, x):
    x = np.asarray(x, dtype=np.float64)
    out = logsumexp(_scipy_log_components(mix, x), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _scipy_gmm_score(mix, x):
    x = np.asarray(x, dtype=np.float64)
    log_comp = _scipy_log_components(mix, x)
    resp = np.exp(log_comp - logsumexp(log_comp, axis=-1, keepdims=True))
    pulls = (mix.means - x[..., None, :]) / mix.variances[:, None]
    return np.sum(resp[..., None] * pulls, axis=-2)


class TestScoreBytes:
    """gmm_score and gmm_log_density keep the bytes of the scipy-based formula."""

    @staticmethod
    def mixtures():
        pair = db.default_gmm_pair()
        sched = db.linear_schedule(1000)
        yield pair.source
        for t in (1, 250, 999, 1000):
            yield db.noised_mixture(pair.target, sched, t)
        yield GaussianMixture([0.2, 0.3, 0.5], [[1.0, -2.0], [-1.5, 0.5], [2.0, 2.0]], [0.4, 0.8, 0.2])
        # Two identical components tie exactly wherever they are scored.
        yield GaussianMixture([0.25, 0.25, 0.5], [[1.0, 1.0], [1.0, 1.0], [-1.0, 0.0]], [0.5, 0.5, 2.0])
        yield GaussianMixture([1.0], [[0.5, -0.5, 2.0]], [1e-3])

    @staticmethod
    def points(d):
        rng = np.random.default_rng(d)
        yield rng.normal(scale=3.0, size=d)
        yield rng.normal(scale=3.0, size=(64, d))
        yield rng.normal(scale=50.0, size=(4, 8, d))
        yield np.zeros(d)
        yield np.full((3, d), 1e3) * [[1.0], [-1.0], [0.5]]
        yield np.full(d, 1e200)

    def test_same_bytes_as_scipy_formula(self):
        compared = 0
        for mix in self.mixtures():
            for x in self.points(mix.dimension):
                with np.errstate(all="ignore"):
                    _assert_same_bytes(db.gmm_score(mix, x), _scipy_gmm_score(mix, x))
                    got = db.gmm_log_density(mix, x)
                    want = _scipy_gmm_log_density(mix, x)
                assert type(got) is type(want)
                _assert_same_bytes(got, want)
                compared += 1
        assert compared == 48

    @staticmethod
    def wide_mixtures():
        """K of 8 or more components, or d of 8 or more coordinates, change
        the order numpy sums in: pairwise on a contiguous axis, in order
        across an inner one."""
        rng = np.random.default_rng(17)
        for k in (1, 7, 8, 9, 17, 130):
            for d in (1, 8, 9):
                weights = rng.uniform(0.5, 1.5, k)
                yield GaussianMixture(
                    weights / weights.sum(), rng.normal(scale=1.5, size=(k, d)), rng.uniform(0.5, 2.0, k)
                )

    def test_wide_mixtures_same_bytes_as_scipy_formula(self):
        compared = 0
        for mix in self.wide_mixtures():
            d = mix.dimension
            rng = np.random.default_rng(d)
            for shape in ((d,), (64, d), (4, 8, d), (0, d)):
                x = rng.normal(scale=1.5, size=shape)
                _assert_same_bytes(db.gmm_score(mix, x), _scipy_gmm_score(mix, x))
                got, want = db.gmm_log_density(mix, x), _scipy_gmm_log_density(mix, x)
                assert type(got) is type(want)
                _assert_same_bytes(got, want)
                compared += 1
        assert compared == 72

    @pytest.mark.parametrize("mix", [
        # The first two components tie wherever the second coordinate is 0.
        GaussianMixture([0.25, 0.25, 0.5], [[0.0, 1.0], [0.0, -1.0], [3.0, 0.0]], [0.5, 0.5, 0.5]),
        # Eight equal components on two rings: ties between mirror images.
        GaussianMixture(np.full(8, 0.125), [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                                            [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
                        np.ones(8)),
    ], ids=["K3", "K8"])
    def test_tied_and_non_finite_rows_score_as_their_own_calls(self, mix):
        x = np.array([
            [0.0, 0.0], [0.7, 0.0], [0.0, -0.3], [0.3, 0.2], [-1.1, 0.4],
            [np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.inf], [1e200, 1e200], [0.0, -np.nan],
        ])
        with np.errstate(all="ignore"):
            score, density = db.gmm_score(mix, x), db.gmm_log_density(mix, x)
            _assert_same_bytes(score, _scipy_gmm_score(mix, x))
            _assert_same_bytes(density, _scipy_gmm_log_density(mix, x))
            for i, row in enumerate(x):
                _assert_same_bytes(score[i], db.gmm_score(mix, row))
                _assert_same_bytes(score[i : i + 1], db.gmm_score(mix, x[i : i + 1]))
                _assert_same_bytes(density[i], db.gmm_log_density(mix, row))
        # The batch holds tied rows (more than one component at the maximum), untied and non-finite ones.
        comps = _scipy_log_components(mix, x[:5])
        ties = (comps == comps.max(axis=-1, keepdims=True)).sum(axis=-1)
        assert (ties > 1).any() and (ties == 1).any()
        assert not np.isfinite(score[5:]).any()

    @pytest.mark.parametrize("d", [1, 2])
    def test_pulls_of_negative_zero_sum_to_positive_zero(self, d):
        # -0.0 - 0.0 is -0.0, so every pull on the first coordinate is -0.0;
        # numpy's sums start from +0.0 and return +0.0 for them.
        means = np.column_stack([np.full(9, -0.0), np.arange(9.0)])[:, :d]
        mix = GaussianMixture(np.full(9, 1 / 9), means, np.ones(9))
        x = np.array([[0.0, 4.0], [0.0, 1.5]])[:, :d]
        got = db.gmm_score(mix, x)
        _assert_same_bytes(got, _scipy_gmm_score(mix, x))
        assert not np.signbit(got[:, 0]).any()

    def test_log_normaliser_is_read_only_and_not_a_field(self):
        mix = db.default_gmm_pair().source
        assert not mix._log_norm.flags.writeable
        assert "_log_norm" not in repr(mix)
        assert mix == GaussianMixture(mix.weights, mix.means, mix.variances)


class TestNoisedMixture:
    def test_no_noise_limit_is_identity(self):
        mix = two_blob_mixture()
        sched = db.linear_schedule(1000, 1e-9, 1e-9)
        noised = db.noised_mixture(mix, sched, 1)
        np.testing.assert_allclose(noised.means, mix.means, atol=1e-8)
        np.testing.assert_allclose(noised.variances, mix.variances, atol=1e-7)

    def test_terminal_limit_is_standard_normal(self):
        mix = two_blob_mixture()
        sched = db.linear_schedule(1000)
        noised = db.noised_mixture(mix, sched, 1000)
        assert np.abs(noised.means).max() < 0.03
        np.testing.assert_allclose(noised.variances, 1.0, atol=1e-3)

    def test_midpoint_marginal_matches_forward_samples(self):
        mix = two_blob_mixture()
        sched = db.linear_schedule(1000)
        t = 500
        x0 = db.gmm_sample(mix, 4000, seed=1)
        rng = np.random.default_rng(2)
        pushed, _ = db.forward_noise(x0, t, sched, rng)
        direct = db.gmm_sample(db.noised_mixture(mix, sched, t), 4000, seed=3)
        # Threshold ~15x the same-distribution estimator noise at n=4000
        # (measured 6e-4) and ~50x below a wrong-step contrast (0.5).
        assert energy_distance(pushed, direct) < 0.01

    def test_moments_compose(self):
        mix = two_blob_mixture()
        sched = db.linear_schedule(1000)
        t = 700
        ab = sched.alpha_bar(t)
        n = 20_000
        x0 = db.gmm_sample(mix, n, seed=5)
        rng = np.random.default_rng(6)
        eps = rng.standard_normal(x0.shape)
        pushed = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        direct = db.gmm_sample(db.noised_mixture(mix, sched, t), n, seed=7)
        for axis in range(2):
            se_mean = np.sqrt(direct[:, axis].var() / n)
            assert abs(pushed[:, axis].mean() - direct[:, axis].mean()) < 3 * np.sqrt(2) * se_mean
            ratio = pushed[:, axis].var() / direct[:, axis].var()
            assert 0.9 < ratio < 1.1

    def test_bytes_equal_checked_constructor_and_read_only(self):
        mix = GaussianMixture([0.2, 0.3, 0.5], [[1.0, -2.0], [-1.5, 0.5], [2.0, 2.0]], [0.4, 0.8, 0.2])
        for sched in (db.linear_schedule(50), db.linear_schedule(1000)):
            for t in range(1, sched.steps_T + 1):
                ab = sched.alpha_bar(t)
                got = db.noised_mixture(mix, sched, t)
                want = GaussianMixture(mix.weights, np.sqrt(ab) * mix.means, ab * mix.variances + (1.0 - ab))
                for name in ("weights", "means", "variances", "_log_norm"):
                    _assert_same_bytes(getattr(got, name), getattr(want, name))
                    assert not getattr(got, name).flags.writeable

    def test_rejects_bad_step(self):
        sched = db.linear_schedule(100)
        with pytest.raises(ValueError):
            db.noised_mixture(two_blob_mixture(), sched, 0)
        with pytest.raises(ValueError):
            db.noised_mixture(two_blob_mixture(), sched, 101)


class TestTexturePair:
    def test_source_highpass_below_ten_percent_of_target(self):
        spec = HighpassSpec(0.25)
        pair = db.make_texture_pair("bandsplit", 32, seed=5)
        src = pair.source.sample(8, seed=11)
        tgt = pair.target.sample(8, seed=12)
        a_src = np.mean([highpass_magnitude(x, spec) for x in src])
        a_tgt = np.mean([highpass_magnitude(x, spec) for x in tgt])
        assert a_src < 0.10 * a_tgt

    def test_deterministic_pair_and_samples(self):
        p1 = db.make_texture_pair("bandsplit", 32, seed=9)
        p2 = db.make_texture_pair("bandsplit", 32, seed=9)
        np.testing.assert_array_equal(p1.source.mode_variances, p2.source.mode_variances)
        np.testing.assert_array_equal(
            p1.target.sample(3, seed=1), p2.target.sample(3, seed=1)
        )

    def test_samples_normalized(self):
        pair = db.make_texture_pair("bandsplit", 32, seed=2)
        for domain in (pair.source, pair.target):
            x = domain.sample(16, seed=3)
            assert x.min() >= -1.0 and x.max() <= 1.0

    @pytest.mark.parametrize("size", [16, 32])
    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_samples_have_the_bytes_of_the_textbook_formula(self, size, count):
        pair = db.make_texture_pair("bandsplit", size, seed=4)
        for seed, domain in enumerate((pair.source, pair.target)):
            white = np.random.default_rng(seed).standard_normal((count, size, size))
            spectrum = np.fft.fft2(white, norm="ortho") * np.sqrt(domain.mode_variances)
            want = np.clip(np.fft.ifft2(spectrum, norm="ortho").real, -1, 1)
            got = domain.sample(count, seed)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # A batch's first rows are the smaller batch's, from the same seed.
            for k in {1, (count + 1) // 2}:
                assert got[:k].tobytes() == domain.sample(k, seed).tobytes()

    def test_sampling_peaks_below_four_outputs(self):
        domain = db.make_texture_pair("bandsplit", 16, seed=0).target
        out_bytes = domain.sample(256, seed=3).nbytes
        assert traced_peak(lambda: domain.sample(256, seed=3)) < 4 * out_bytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_mode_variances(self, bad):
        mv = np.ones((16, 16))
        mv[3, 5] = bad
        with pytest.raises(ValueError, match="^mode_variances must be finite and positive$"):
            SpectralTexture(mv)

    def test_keeps_a_read_only_copy_of_the_variances(self):
        mv = np.ones((16, 16))
        texture = SpectralTexture(mv)
        mv[0, 0] = 2.0
        assert texture.mode_variances[0, 0] == 1.0
        assert not texture.mode_variances.flags.writeable

    def test_rejects_variances_uneven_under_negation_like_the_exact_model(self):
        # v[0, 1] pairs with v[0, -1] = v[0, 15], which stays 1.0.
        mv = np.ones((16, 16))
        mv[0, 1] = 2.0
        exact = lambda v: db.AnalyticFieldEpsilon(v, db.linear_schedule(10))  # noqa: E731
        message = "^mode_variances must be even under frequency negation$"
        for build in (SpectralTexture, exact):
            with pytest.raises(ValueError, match=message):
                build(mv)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_texture_pair_maps_are_even_enough(self, size, seed):
        pair = db.make_texture_pair("bandsplit", size, seed=seed)
        for domain in (pair.source, pair.target):
            db.AnalyticFieldEpsilon(domain.mode_variances, db.linear_schedule(10))

    def test_rejects_non_square_mode_variances_and_mismatched_members(self):
        with pytest.raises(ValueError, match="^mode_variances must be square, got shape"):
            SpectralTexture(np.ones((16, 8)))
        small, large = (SpectralTexture(np.ones((n, n))) for n in (16, 32))
        with pytest.raises(ValueError, match=r"^target shape \(32, 32\) != source shape"):
            db.DomainPair(small, large)
        with pytest.raises(ValueError, match=r"^target shape \(32, 32\) != source shape \(2,\)"):
            db.DomainPair(db.default_gmm_pair().source, large)

    def test_rejects_bad_kind_and_size(self):
        with pytest.raises(ValueError):
            db.make_texture_pair("nosuch", 32, seed=0)
        for size in (8, 24):
            with pytest.raises(ValueError):
                db.make_texture_pair("bandsplit", size, seed=0)


class TestPgmRoundTrip:
    def test_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(17, 23))
        path = tmp_path / "field.pgm"
        db.save_pgm(x, path)
        back = db.load_pgm(path)
        assert back.shape == x.shape
        assert np.abs(back - x).max() <= 1.0 / 127.5

    def test_constant_extremes(self, tmp_path):
        lo = tmp_path / "lo.pgm"
        hi = tmp_path / "hi.pgm"
        db.save_pgm(-np.ones((4, 6)), lo)
        db.save_pgm(np.ones((4, 6)), hi)
        assert lo.read_bytes().endswith(b"\x00" * 24)
        assert hi.read_bytes().endswith(b"\xff" * 24)

    def test_save_rejects_bad_fields(self, tmp_path):
        with pytest.raises(ValueError):
            db.save_pgm(np.zeros(5), tmp_path / "x.pgm")
        one_nan = np.zeros((2, 2))
        one_nan[1, 0] = np.nan
        for x in (np.full((3, 3), 1.5), np.full((2, 2), np.nan), one_nan):
            with pytest.raises(ValueError, match=r"^pixel values must lie in \[-1, 1\]$"):
                db.save_pgm(x, tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()

    def test_save_bytes_are_the_rounded_linear_map(self, tmp_path):
        x = np.random.default_rng(1).uniform(-1.0, 1.0, size=(5, 7))
        x[0, :4] = [-1.0, -0.0, 0.0, 1.0]
        path = tmp_path / "field.pgm"
        db.save_pgm(x, path)
        want = np.floor((x + 1.0) * 127.5 + 0.5).astype(np.uint8).tobytes()
        assert path.read_bytes() == b"P5\n7 5\n255\n" + want

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n----")
        with pytest.raises(ValueError):
            db.load_pgm(bad)
        truncated = tmp_path / "trunc.pgm"
        truncated.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError):
            db.load_pgm(truncated)
        wrong_max = tmp_path / "max.pgm"
        wrong_max.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            db.load_pgm(wrong_max)

    @pytest.mark.parametrize("blob", [b"P5\n4 4\n255\n\x00\x00", b"P5\n4 4\n255"])
    def test_short_payload_named(self, tmp_path, blob):
        path = tmp_path / "short.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="PGM pixel payload shorter than header promises"):
            db.load_pgm(path)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        np.testing.assert_allclose(db.load_pgm(path), [[-1.0, 1.0]])
