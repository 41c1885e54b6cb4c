"""Walkthrough: depth-controlled intermediates and spectral soft labels.

Descending only partway to the latent before denoising with the target
model yields intermediates between the two texture domains.  The
high-pass spectral magnitude tracks the depth, and the label
  (A_source - A_intermediate) / (A_source - A_target)
places each intermediate on a 0..1 scale between the endpoints.  A
Gaussian texture's flow has closed forms, so beside each label the table
prints the label of the walk's own DDIM map (equal up to rounding) and
the label of the exact probability-flow map (off by the integrator's
error at this grid).

Frames are written as PGM images under demos_out/depth_sweep/.
"""

from pathlib import Path

import numpy as np

import diffbridge as db
from diffbridge import verify
from diffbridge.bridge import BridgeConfig
from diffbridge.softlabel import HighpassSpec, highpass_magnitude, label_sweep, soft_label

out = Path("demos_out/depth_sweep")
out.mkdir(parents=True, exist_ok=True)

sched = db.linear_schedule(1000)
pair = db.make_texture_pair("bandsplit", 32, seed=3)
lams = (pair.source.mode_variances, pair.target.mode_variances)
m_src, m_tgt = (db.AnalyticFieldEpsilon(lam, sched) for lam in lams)
cfg = BridgeConfig(schedule=sched, steps_per_unit_time=200)
spec = HighpassSpec(0.25)

# One sweep serves every depth; its full-depth row is the endpoint.
x = pair.source.sample(1, seed=7)[0]
grid = np.linspace(0.0, 1.0, 11)
sweep = label_sweep(x[None], m_src, m_tgt, cfg, grid, spec)
print(f"source high-pass magnitude {sweep.a_source[0]:.3f}, "
      f"migrated endpoint {sweep.a_target[0]:.3f}")

# The same labels from the closed-form maps of a Gaussian texture: the
# walk's own DDIM map, which the sweep reproduces to rounding, and the
# exact flow, from which the walk's integrator error moves the labels.
exact = []
for gain in (verify.texture_ddim_gain, verify.texture_flow_gain):
    a = highpass_magnitude(verify.texture_sweep_frames(gain, x, *lams, cfg, [*grid, 1.0]), spec)
    exact.append(soft_label(sweep.a_source[0], a[:-1], a[-1])[0])

print(f"\n{'depth':>6} {'A(x_i)':>8} {'label':>7} {'DDIM map':>9} {'flow':>7}")
mags = sweep.a_frame[:, 0]
rows = zip(sweep.depths, sweep.frames[:, 0], mags, sweep.value[:, 0], *exact)
for depth, frame, a_i, label, ddim_map, flow in rows:
    db.save_pgm(np.clip(frame, -1, 1), out / f"depth_{depth:.2f}.pgm")
    print(f"{depth:6.2f} {a_i:8.3f} {label:7.3f} {ddim_map:9.3f} {flow:7.3f}")

# Spearman's rho is the correlation of the ranks (no ties here).
ranks = [np.argsort(np.argsort(v)) for v in (grid, mags)]
rho = np.corrcoef(*ranks)[0, 1]
print(f"\nSpearman(depth, high-pass magnitude) = {rho:.3f}")
print(f"frames written to {out}/")

print("\ninverting the relation: pick depths for requested labels")
targets = (0.25, 0.5, 0.75)
sweep, picks = db.calibrate_depth(targets, x[None], m_src, m_tgt, cfg, np.linspace(0, 1, 17), spec)
for target, k in zip(targets, picks[0]):
    achieved = sweep.value[k, 0]
    print(f"  target {target:.2f} -> depth {sweep.depths[k]:.4f} (achieved {achieved:.3f})")
