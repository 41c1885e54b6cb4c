"""Spectral soft labels for cross-domain intermediate samples.

An intermediate image is labeled by how far its high-frequency content
has moved from the source endpoint toward the target endpoint:

    A(x) = mean of |FFT2(x)| over the high-pass mask
    label = (A_source - A_intermediate) / (A_source - A_target)

clamped to [0, 1], with endpoints labeled 0 (source) and 1 (target).
The FFT is the plain unnormalized forward transform; the label is a
ratio of magnitudes, so it is invariant to any global rescaling of the
transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateEndpointsError(ValueError):
    """Source and target spectral magnitudes are indistinguishable."""


def radial_frequency_grid(shape: tuple[int, int]) -> np.ndarray:
    """Radial frequency of each FFT2 bin as a fraction of Nyquist.

    DC is 0; an axis-aligned Nyquist bin is 1; corners reach sqrt(2).
    """
    h, w = shape
    fu = np.fft.fftfreq(h)[:, None]
    fv = np.fft.fftfreq(w)[None, :]
    return np.sqrt(fu * fu + fv * fv) / 0.5


@dataclass(frozen=True)
class HighpassSpec:
    """Radial high-pass mask: keep bins with radius >= cutoff_fraction.

    cutoff_fraction is relative to Nyquist, in (0, 1).  The mask is
    symmetric under frequency negation and excludes DC for any positive
    cutoff.
    """

    cutoff_fraction: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.cutoff_fraction < 1.0:
            raise ValueError("cutoff_fraction must lie in (0, 1)")

    def mask(self, shape: tuple[int, int]) -> np.ndarray:
        return radial_frequency_grid(shape) >= self.cutoff_fraction


@dataclass(frozen=True)
class SoftLabel:
    """Clamped label in [0, 1] plus the raw unclamped ratio."""

    value: float
    raw: float


def highpass_magnitude(x: np.ndarray, spec: HighpassSpec) -> float:
    """Average FFT magnitude over the mask-passed bins of a 2-D field."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValueError(f"expected a 2-D field of size >= 2x2, got shape {x.shape}")
    mask = spec.mask(x.shape)
    count = int(mask.sum())
    if count == 0:
        raise ValueError(
            f"cutoff {spec.cutoff_fraction} passes no frequency bins for shape {x.shape}"
        )
    spectrum = np.fft.fft2(x)
    return float(np.abs(spectrum[mask]).sum() / count)


def soft_label(a_source: float, a_intermediate: float, a_target: float) -> SoftLabel:
    """Label an intermediate magnitude against its two endpoints.

    Raises DegenerateEndpointsError when |a_source - a_target| falls
    below the relative floor, rather than returning NaN.
    """
    floor = 1e-9 * max(a_source, a_target, 1.0)
    denom = a_source - a_target
    if abs(denom) <= floor:
        raise DegenerateEndpointsError(
            f"endpoint magnitudes indistinguishable: "
            f"|{a_source} - {a_target}| <= {floor}"
        )
    raw = (a_source - a_intermediate) / denom
    # + 0.0 normalizes the negative zero produced by 0/negative.
    return SoftLabel(value=float(np.clip(raw, 0.0, 1.0)) + 0.0, raw=float(raw))


def label_intermediate(
    x_intermediate: np.ndarray,
    x_source: np.ndarray,
    x_target: np.ndarray,
    spec: HighpassSpec,
) -> SoftLabel:
    """Soft label of an intermediate field given both endpoint fields."""
    if not (x_intermediate.shape == x_source.shape == x_target.shape):
        raise ValueError("intermediate and endpoint fields must share one shape")
    a_s = highpass_magnitude(x_source, spec)
    a_i = highpass_magnitude(x_intermediate, spec)
    a_t = highpass_magnitude(x_target, spec)
    return soft_label(a_s, a_i, a_t)


def nearest_label(target_label: float, depths, labels) -> int:
    """Index of the label nearest the target; ties break toward the smaller depth."""
    if not 0.0 <= target_label <= 1.0:
        raise ValueError("target_label must lie in [0, 1]")
    return min(
        range(len(labels)), key=lambda k: (abs(labels[k].value - target_label), depths[k])
    )


def calibrate_depth(
    target_label: float,
    x_source: np.ndarray,
    model_src,
    model_tgt,
    cfg,
    depth_grid,
    spec: HighpassSpec,
    x_target_ref: np.ndarray | None = None,
):
    """Find the sweep depth whose label lands nearest the target label.

    The label-depth relation is not a simple invertible curve, so every
    grid depth is labeled, all from one ``bridge.depth_sweep``.  Ties
    break toward the smaller depth.  When ``x_target_ref`` is omitted the
    full-depth migration of ``x_source`` serves as the per-sample target
    endpoint; it rides along in the same sweep.

    Returns ``(best_depth, SoftLabel)`` for the winning grid point.
    """
    from . import bridge

    depth_grid = sorted(float(d) for d in depth_grid)
    if not depth_grid:
        raise ValueError("depth grid must be nonempty")

    full = [1.0] if x_target_ref is None else []
    table = bridge.depth_sweep(x_source, model_src, model_tgt, cfg, depth_grid + full)
    if x_target_ref is None:
        x_target_ref = table.pop().migrated
    a_s = highpass_magnitude(x_source, spec)
    a_t = highpass_magnitude(x_target_ref, spec)
    labels = [soft_label(a_s, highpass_magnitude(t.migrated, spec), a_t) for t in table]
    best = nearest_label(target_label, depth_grid, labels)
    return table[best].depth, labels[best]
