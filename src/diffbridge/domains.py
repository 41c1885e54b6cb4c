"""Paired toy data domains with closed-form structure.

Two families, both cheap enough that every downstream operation has an
independent oracle:

* Isotropic Gaussian mixtures in R^d.  Their density, score, and exact
  forward-noised marginal are all closed-form.
* Stationary Gaussian random textures on an HxW grid, defined by
  per-frequency-mode variances.  The source member of a texture pair
  carries only low-frequency power (smooth blobs), the target only a
  high-frequency oriented band (fine stripes), so spectral statistics
  separate the two domains sharply.

Samples are plain float64 numpy arrays: shape (d,) for points and
(H, W) for images, with image values normalized to [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, read_only_float64

# Pixel standard deviation for texture samples; small enough that the
# [-1, 1] clip almost never engages (4 sigma).
_TEXTURE_PIXEL_STD = 0.25


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture: weights (K,), means (K, d), variances (K,).

    Its arrays are ``read_only_float64``'s, so the caller's stay writable.  The
    x-free part of each component's log density, log w_k - d/2 *
    log(2 pi v_k), is computed once here (read-only ``_log_norm``), so a
    mixture scored many times pays for it once.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = read_only_float64(self.weights)
        m = read_only_float64(np.atleast_2d(self.means))
        v = read_only_float64(self.variances)
        if w.ndim != 1 or m.ndim != 2 or v.ndim != 1:
            raise ValueError("weights and variances must be 1-D, means 2-D")
        if not (len(w) == len(m) == len(v)):
            raise ValueError("component counts disagree")
        if m.shape[1] < 1:
            raise ValueError("means must have at least one coordinate")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (w <= 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        if (v <= 0).any():
            raise ValueError("variances must be positive")
        log_norm = _log_normaliser(w, m.shape[1], v)
        log_norm.setflags(write=False)
        vars(self).update(weights=w, means=m, variances=v, _log_norm=log_norm)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


def _log_normaliser(weights: np.ndarray, d: int, variances: np.ndarray) -> np.ndarray:
    """log w_k - d/2 * log(2 pi v_k); variances may carry leading axes."""
    return np.log(weights) - 0.5 * d * np.log(2.0 * np.pi * variances)


def gmm_sample(mix: GaussianMixture, count: int, seed: int) -> np.ndarray:
    """count i.i.d. draws, shape (count, d); deterministic given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    comps = rng.choice(len(mix.weights), size=count, p=mix.weights)
    noise = rng.standard_normal((count, mix.dimension))
    return mix.means[comps] + np.sqrt(mix.variances[comps])[:, None] * noise


def gmm_points(mix: GaussianMixture, x) -> np.ndarray:
    """x as float64 points of the mixture's dimension, shape (..., d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != mix.means.shape[1:]:
        got = x.shape[-1] if x.ndim else "()"
        raise ValueError(f"point dimension {got} != mixture dimension {mix.dimension}")
    return x


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms summed along axis 0 in order, from the first term."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """terms summed along axis 0 in the order numpy sums a contiguous last axis.

    Below 8 terms that is in order.  Up to 128, terms j, j+8, j+16, ...
    are summed in order into 8 partial sums, which are added as a
    balanced tree, then the remaining terms in order; above 128 the two
    halves (the first a multiple of 8) are summed so and added.  numpy
    also adds the result to +0.0, which only turns a -0.0 sum into +0.0;
    callers whose terms can be -0.0 add it.
    """
    n = len(terms)
    if n < 8:
        return _sum_in_order(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    whole = n - n % 8
    r = terms[:8].copy()
    for start in range(8, whole, 8):
        r += terms[start : start + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[whole:]:
        total += term
    return total


def _log_components(x, means, variances, log_norm) -> tuple[np.ndarray, np.ndarray]:
    """means - x and log(w_k N_k(x)) for points x of shape (..., d).

    Component-major, shapes (K, d, n) and (K, n): the n points (the
    flattened leading axes of x) are the last axis, so each reduction
    runs over a leading axis and numpy's inner loops run over the points.
    The squared distance is summed over d as numpy sums the last axis of
    (..., K, d) offsets: in order below 8 coordinates, pairwise from 8.
    """
    d = means.shape[1]
    offsets = means[:, :, None] - np.ascontiguousarray(x.reshape(-1, d).T)
    squares = np.square(offsets)
    log_comp = np.add.reduce(squares, 1) if d < 8 else _pairwise_sum(squares.transpose(1, 0, 2))
    log_comp *= 0.5
    log_comp /= variances[:, None]
    return offsets, np.subtract(log_norm[:, None], log_comp, out=log_comp)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, the K components of a (K, n) array.

    The arithmetic of scipy.special.logsumexp on real input, so the same
    bytes: the maximum is taken out of the sum, the m entries tied with
    it (a - max == 0) are counted, the others are summed as exp(a - max),
    pairwise as numpy sums a contiguous axis, and divided by m, and the
    result is log1p(s) + log(m) + max.  Where that is not finite (all
    -inf, or holding +inf or nan), the result is log(sum(exp(a))), NaN
    signs included.

    With one maximum in a row, m = 1 and log1p(s) + max has the same
    bytes, so when every row has one the count is skipped.  A row whose
    maximum is infinite counts no ties (inf - inf is nan) and gets
    log(sum(exp(a))), which is that infinity, as scipy's formula gives.
    """
    a_max = np.maximum.reduce(a, 0)
    s = np.subtract(a, a_max)
    at_max = s == 0.0
    np.exp(s, out=s)
    np.putmask(s, at_max, 0.0)
    s = np.add.reduce(s, 0) if len(s) < 8 else _pairwise_sum(s)
    if np.count_nonzero(at_max) == s.size:
        # One maximum in every row, unless a row with none (a nan or an
        # infinite maximum) offsets a tie; such a row makes out non-finite.
        out = np.log1p(s)
        out += a_max
        if math.isfinite(out @ out):
            return out
    m = np.add.reduce(at_max, 0, np.float64)
    out = s / m
    np.log1p(out, out=out)
    out += np.log(m)
    out += a_max
    finite = np.isfinite(out)
    if not finite.all():
        # Summed by numpy in scipy's (n, K) layout: which NaN a sum of NaNs
        # returns depends on numpy's loop, so only that gives scipy's bytes.
        out = np.where(finite, out, np.log(np.ascontiguousarray(np.exp(a).T).sum(axis=-1)))
    return out


def gmm_log_density(mix: GaussianMixture, x: np.ndarray):
    """Log mixture density via a stable log-sum-exp.

    x may be a single point (d,) -> float, or a batch (..., d) -> (...,).
    """
    x = gmm_points(mix, x)
    _, log_comp = _log_components(x, mix.means, mix.variances, mix._log_norm)
    out = _logsumexp(log_comp).reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def gmm_score(mix: GaussianMixture, x: np.ndarray, noised=None) -> np.ndarray:
    """Gradient of the log density: responsibility-weighted component pulls.

    Broadcasts over leading axes of x like gmm_log_density.  With
    ``noised``, one alpha_bar's ``noised_constants`` (scale, variances,
    log-normaliser), it scores that noised mixture without building it:
    the means are scaled here.  The offsets array becomes the pulls in
    place; every operation rounds as in resp * (means - x) / variances
    summed over the components as numpy sums (..., K, d) pulls over K:
    in order, or pairwise for d = 1 and 8 or more components.
    """
    x = gmm_points(mix, x)
    if noised is None:
        means, variances, log_norm = mix.means, mix.variances, mix._log_norm
    else:
        scale, variances, log_norm = noised
        means = scale * mix.means
    pulls, resp = _log_components(x, means, variances, log_norm)
    resp -= _logsumexp(resp)
    np.exp(resp, out=resp)
    pulls /= variances[:, None, None]
    pulls *= resp[:, None]
    out = np.empty(x.shape)
    total = out.reshape(-1, x.shape[-1]).T
    if len(pulls) < 8:
        np.add.reduce(pulls, 0, None, total)
    else:
        total[...] = _pairwise_sum(pulls) if x.shape[-1] == 1 else _sum_in_order(pulls)
        total += 0.0  # numpy's sums start from +0.0, so -0.0 pulls sum to +0.0
    return out


def noised_mixture(mix: GaussianMixture, schedule: NoiseSchedule, t: int) -> GaussianMixture:
    """Exact marginal of x_t when x_0 is mixture-distributed.

    Means scale by sqrt(alpha_bar_t); each component variance maps to
    alpha_bar_t * var + (1 - alpha_bar_t); weights are unchanged.
    """
    if not 1 <= t <= schedule.steps_T:
        raise ValueError(f"step {t} outside [1, {schedule.steps_T}]")
    scale, variances, _ = noised_constants(mix, schedule.alpha_bar(t))
    return GaussianMixture(mix.weights, scale * mix.means, variances)


def noised_constants(mix: GaussianMixture, alpha_bar) -> tuple[np.ndarray, ...]:
    """The x-free parts of ``noised_mixture``, at one alpha_bar or an array of them.

    sqrt(alpha_bar), which scales the means, then the noised variances
    and log-normaliser, each with a trailing K axis: for n alpha_bars,
    shapes (n,), (n, K) and (n, K).  All three are read-only.  The
    (K, d) means are left out, so the rows do not grow with the dimension.
    One alpha_bar's three are the ``noised`` argument of ``gmm_score``,
    which scores the noised mixture without building it.
    """
    ab = np.asarray(alpha_bar, dtype=np.float64)[..., None]
    variances = ab * mix.variances + (1.0 - ab)
    out = (np.sqrt(ab[..., 0]), variances, _log_normaliser(mix.weights, mix.dimension, variances))
    for arr in out:
        arr.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Texture domains
# ---------------------------------------------------------------------------


def checked_mode_variances(mode_variances) -> np.ndarray:
    """Texture mode variances as ``read_only_float64`` makes them, once checked.

    They must be a nonempty 2-D array, finite and positive, and even
    under frequency negation: a real field's spectrum pairs mode (i, j)
    with (-i, -j), so a real texture's variances must have
    ``v[i, j] == v[-i, -j]``; this allows a relative 1e-6.
    """
    v = read_only_float64(mode_variances)
    if v.ndim != 2 or v.size == 0:
        raise ValueError(f"mode_variances must be a nonempty 2-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("mode_variances must be finite and positive")
    negated = np.roll(v[::-1, ::-1], 1, axis=(0, 1))  # negated[i, j] = v[-i, -j]
    if np.any(np.abs(v - negated) > 1e-6 * v):
        raise ValueError("mode_variances must be even under frequency negation")
    return v


@dataclass(frozen=True)
class SpectralTexture:
    """Stationary Gaussian texture with known per-mode variances.

    ``mode_variances`` holds the eigenvalues of the (circulant) pixel
    covariance on the full fft2 grid under the unitary transform
    convention, so a sample is white noise filtered by
    sqrt(mode_variances).  The variances must be square and pass
    ``checked_mode_variances``, the check ``AnalyticFieldEpsilon`` makes,
    and the texture keeps the read-only array it returns.  Samples are
    clipped to [-1, 1]; the pixel standard deviation is kept small
    enough that clipping is a negligible-mass tail event.
    """

    mode_variances: np.ndarray  # (size, size)

    def __post_init__(self):
        shape = np.shape(self.mode_variances)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"mode_variances must be square, got shape {shape}")
        object.__setattr__(self, "mode_variances", checked_mode_variances(self.mode_variances))

    @property
    def size(self) -> int:
        return self.mode_variances.shape[0]

    def sample(self, count: int, seed: int) -> np.ndarray:
        """count fields of shape (size, size) in [-1, 1]; seeded."""
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        white = rng.standard_normal((count, self.size, self.size))
        spectrum = np.fft.fft2(white, norm="ortho")
        spectrum *= np.sqrt(self.mode_variances)[None, :, :]
        fields = np.fft.ifft2(spectrum, norm="ortho").real
        return np.clip(fields, -1.0, 1.0)


@dataclass(frozen=True)
class DomainPair:
    """Source/target domains producing fields of one shared shape."""

    source: GaussianMixture | SpectralTexture
    target: GaussianMixture | SpectralTexture

    def __post_init__(self):
        got = _field_shape(self.target)
        if got != self.shape:
            raise ValueError(f"target shape {got} != source shape {self.shape}")

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of one sample: (d,) for mixtures, (size, size) for textures."""
        return _field_shape(self.source)


def _field_shape(domain) -> tuple[int, ...]:
    if isinstance(domain, GaussianMixture):
        return (domain.dimension,)
    return domain.mode_variances.shape


def sample_domain(domain, count: int, seed: int) -> np.ndarray:
    """Uniform sampling entry point for either domain family."""
    if isinstance(domain, GaussianMixture):
        return gmm_sample(domain, count, seed)
    return domain.sample(count, seed)


def default_gmm_pair() -> DomainPair:
    """Desk-scale default: two 3-component planar mixtures with disjoint means.

    Component variances sit near the latent's unit variance, which keeps
    the probability-flow drift mild enough for accurate low-order
    integration while the domains stay clearly multimodal and disjoint.
    """
    var = np.array([0.9, 0.9, 0.9])
    w = np.array([1 / 3, 1 / 3, 1 / 3])
    a = GaussianMixture(w, np.array([[-3.6, 0.0], [-2.4, 1.2], [-2.4, -1.2]]), var)
    b = GaussianMixture(w, np.array([[3.6, 0.0], [2.4, 1.2], [2.4, -1.2]]), var)
    return DomainPair(source=a, target=b)


def radial_frequency_grid(shape: tuple[int, int]) -> np.ndarray:
    """Radial frequency of each FFT2 bin as a fraction of Nyquist.

    DC is 0; an axis-aligned Nyquist bin is 1; corners reach sqrt(2).
    """
    h, w = shape
    fu = np.fft.fftfreq(h)[:, None]
    fv = np.fft.fftfreq(w)[None, :]
    return np.sqrt(fu * fu + fv * fv) / 0.5


def _band_profile(kind: str, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode variance maps (source, target) for a texture pair."""
    if kind != "bandsplit":
        raise ValueError(f"unsupported texture pair kind: {kind!r}")

    radius = radial_frequency_grid((size, size))
    fu = np.fft.fftfreq(size)[:, None]
    fv = np.fft.fftfreq(size)[None, :]
    # Both profiles are even under frequency negation up to rounding: the
    # radius exactly, the orientation term because negation shifts the
    # angle by pi, but sin(angle - theta) rounds differently at angle + pi,
    # so the target is even only to about 2e-9 relative and the implied
    # pixel covariance is real only to that accuracy.
    angle = np.arctan2(fu + 0.0 * fv, fv + 0.0 * fu)

    theta = np.random.default_rng(seed).uniform(0.0, np.pi)
    # Source: smooth isotropic blobs, power confined well below the
    # default 0.25-Nyquist high-pass cutoff.
    low = np.exp(-((radius / 0.10) ** 2))
    # Target: oriented annulus at 0.55 Nyquist -> fine stripes.
    annulus = np.exp(-(((radius - 0.55) / 0.08) ** 2))
    orientation = np.exp(-((np.sin(angle - theta) / 0.35) ** 2))
    high = annulus * (0.15 + 0.85 * orientation)

    out = []
    for profile in (low, high):
        profile = profile + 1e-6 * profile.max()
        # Scale to the target pixel variance (the per-pixel variance is the
        # mean of the mode variances under the unitary FFT).
        profile = profile * (_TEXTURE_PIXEL_STD**2 / profile.mean())
        out.append(profile)
    return out[0], out[1]


def make_texture_pair(kind: str, size: int, seed: int) -> DomainPair:
    """Frequency-separated texture pair; deterministic in (kind, size, seed)."""
    if size < 16 or size & (size - 1) != 0:
        raise ValueError("size must be a power of two >= 16")
    low, high = _band_profile(kind, size, seed)
    return DomainPair(source=SpectralTexture(low), target=SpectralTexture(high))


# ---------------------------------------------------------------------------
# PGM sample I/O
# ---------------------------------------------------------------------------


def save_pgm(x: np.ndarray, path) -> None:
    """Write a 2-D field in [-1, 1] as binary PGM (P5, maxval 255).

    The linear map -1 -> 0, +1 -> 255 rounds half up.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"PGM output needs a 2-D field, got shape {x.shape}")
    h, w = x.shape
    if h < 1 or w < 1 or h > 65535 or w > 65535:
        raise ValueError(f"PGM dimensions out of range: {h}x{w}")
    if not np.all((x >= -1.0) & (x <= 1.0)):  # NaN fails too
        raise ValueError("pixel values must lie in [-1, 1]")
    quantized = np.floor((x + 1.0) * 127.5 + 0.5)
    data = np.clip(quantized, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM back into a float64 field in [-1, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ValueError("not a binary PGM (missing P5 magic)")
    # Header: magic, width, height, maxval, separated by whitespace with
    # optional '#' comments, then a single whitespace byte before pixels.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError("malformed PGM header") from exc
    if w < 1 or h < 1 or w > 65535 or h > 65535:
        raise ValueError(f"PGM dimensions out of range: {w}x{h}")
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=pos)
    if pixels.size != h * w:
        raise ValueError("PGM pixel payload shorter than header promises")
    return pixels.reshape(h, w).astype(np.float64) / 127.5 - 1.0
