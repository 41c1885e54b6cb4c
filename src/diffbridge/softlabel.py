"""Spectral soft labels for cross-domain intermediate samples.

An intermediate image is labeled by how far its high-frequency content
has moved from the source endpoint toward the target endpoint:

    A(x) = mean of |FFT2(x)| over the high-pass mask
    label = (A_source - A_intermediate) / (A_source - A_target)

clamped to [0, 1], with endpoints labeled 0 (source) and 1 (target).
The FFT is the plain unnormalized forward transform; the label is a
ratio of magnitudes, so it is invariant to any global rescaling of the
transform.

Batch contract: ``highpass_magnitude`` takes a field ``(H, W)`` or a stack
``(..., H, W)``, each magnitude with the bytes of a one-field call;
``soft_label`` broadcasts, each label with the bytes of a float call;
``label_sweep`` labels every frame of one depth sweep of a batch ``(B, H, W)``
into ``(D, B)`` arrays, and ``calibrate_depth`` picks, from that one sweep,
each field's grid row for each target label, the pick of a one-field call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bridge
from .domains import radial_frequency_grid


class DegenerateEndpointsError(ValueError):
    """Source and target spectral magnitudes are indistinguishable."""


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


def highpass_magnitude(x: np.ndarray, spec: HighpassSpec):
    """Average FFT magnitude over the mask-passed bins of each 2-D field.

    A field gives a float; a stack ``(..., H, W)`` an array of one magnitude per field.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2 or x.shape[-1] < 2:
        raise ValueError(f"expected 2-D fields of size >= 2x2, got shape {x.shape}")
    mask = spec.mask(x.shape[-2:])
    count = int(mask.sum())
    if count == 0:
        raise ValueError(
            f"cutoff {spec.cutoff_fraction} passes no frequency bins for shape {x.shape}"
        )
    # A contiguous copy sums each field's bins in the one-field order.
    magnitudes = np.ascontiguousarray(np.abs(np.fft.fft2(x)[..., mask])).sum(axis=-1) / count
    return float(magnitudes) if x.ndim == 2 else magnitudes


def soft_label(a_source, a_intermediate, a_target):
    """Label intermediate magnitudes against their two endpoints: ``(value, raw)``.

    raw is the unclamped ratio and value raw clamped to [0, 1].  Floats
    give floats; arrays broadcast, each entry with the bytes of its own
    float call.  Raises DegenerateEndpointsError, naming the first
    degenerate entry, when |a_source - a_target| falls below the relative
    floor, rather than returning NaN.
    """
    a_s, a_i, a_t = (np.asarray(a, dtype=np.float64) for a in (a_source, a_intermediate, a_target))
    floor = 1e-9 * np.maximum(np.maximum(a_s, a_t), 1.0)
    denom = a_s - a_t
    degenerate = np.abs(denom) <= floor
    if degenerate.any():
        s, t, f = (v[degenerate][0] for v in np.broadcast_arrays(a_s, a_t, floor))
        raise DegenerateEndpointsError(
            f"endpoint magnitudes indistinguishable: |{s} - {t}| <= {f}"
        )
    raw = (a_s - a_i) / denom
    # + 0.0 normalizes the negative zero produced by 0/negative.
    value = np.clip(raw, 0.0, 1.0) + 0.0
    return (float(value), float(raw)) if raw.ndim == 0 else (value, raw)


@dataclass(frozen=True)
class SweepLabels:
    """A labelled sweep in the frames' layout: ``value[k, i]`` is sample i's label at depth k."""

    depths: list[float]             # the snapped grid, grid order
    frames: np.ndarray              # (D, B, H, W): frames[k, i] is sample i at depth k
    value: np.ndarray               # (D, B) clamped labels
    raw: np.ndarray                 # (D, B) unclamped ratios
    a_frame: np.ndarray             # (D, B) high-pass magnitudes of the frames
    a_source: np.ndarray            # (B,) high-pass magnitudes of the sources
    a_target: np.ndarray            # (B,) and of their full-depth migrations


def label_sweep(x_sources, model_src, model_tgt, cfg, depths, spec: HighpassSpec) -> SweepLabels:
    """Soft label of every frame of one ``bridge.depth_sweep`` of a batch ``(B, H, W)``.

    Sample i's target endpoint is its full-depth migration, which rides
    along in the same sweep as the stack's last row.
    """
    if len(depths) == 0:
        raise ValueError("depth grid must be nonempty")
    if np.ndim(x_sources) != 3:
        raise ValueError("label_sweep needs a batch of fields")
    stack = bridge.depth_sweep(x_sources, model_src, model_tgt, cfg, [*depths, 1.0])
    a_s = highpass_magnitude(x_sources, spec)
    magnitudes = highpass_magnitude(stack, spec)
    a_i, a_t = magnitudes[:-1], magnitudes[-1]
    value, raw = soft_label(a_s, a_i, a_t)
    return SweepLabels([cfg.snap(float(d)) for d in depths], stack[:-1], value, raw, a_i, a_s, a_t)


def calibrate_depth(targets, x_sources, model_src, model_tgt, cfg, depth_grid, spec: HighpassSpec):
    """Per field of ``x_sources`` and per target label, the grid depth whose label lands nearest.

    The label-depth relation is not a simple invertible curve, so one
    ``label_sweep`` of the batch ``(B, H, W)`` labels every grid depth;
    ties break toward the smaller snapped depth, then the earlier grid
    row.  Every target must lie in [0, 1], which is checked before any
    model call.

    Returns ``(sweep, picks)``: the ``SweepLabels`` and the integer array
    ``picks`` ``(B, J)``, where ``picks[i, j]`` is the grid row of field i's
    pick for target j, so its frame is ``sweep.frames[k, i]`` and its label
    ``sweep.value[k, i]``.
    """
    for target in targets:
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target label {target} outside [0, 1]")
    sweep = label_sweep(x_sources, model_src, model_tgt, cfg, depth_grid, spec)
    # A stable sort by depth puts the tie rule in argmin's first minimum.
    order = np.argsort(sweep.depths, kind="stable")
    gaps = np.abs(sweep.value[order][..., None] - np.asarray(targets, dtype=np.float64))
    return sweep, order[np.argmin(gaps, axis=0)]
