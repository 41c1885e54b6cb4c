"""Walkthrough: depth-controlled intermediates and spectral soft labels.

Descending only partway to the latent before denoising with the target
model yields intermediates between the two texture domains.  The
high-pass spectral magnitude tracks the depth, and the label
  (A_source - A_intermediate) / (A_source - A_target)
places each intermediate on a 0..1 scale between the endpoints.

Frames are written as PGM images under demos_out/depth_sweep/.
"""

from pathlib import Path

import numpy as np

import diffbridge as db
from diffbridge.bridge import BridgeConfig, depth_sweep
from diffbridge.softlabel import HighpassSpec, highpass_magnitude, soft_label

out = Path("demos_out/depth_sweep")
out.mkdir(parents=True, exist_ok=True)

sched = db.linear_schedule(1000)
pair = db.make_texture_pair("bandsplit", 32, seed=3)
m_src = db.AnalyticFieldEpsilon(pair.source.mode_variances, sched)
m_tgt = db.AnalyticFieldEpsilon(pair.target.mode_variances, sched)
cfg = BridgeConfig(schedule=sched, steps_per_unit_time=200)
spec = HighpassSpec(0.25)

# One forward leg serves every depth; the depth-1.0 row is the endpoint.
x = pair.source.sample(1, seed=7)[0]
grid = np.linspace(0.0, 1.0, 11)
table = depth_sweep(x, m_src, m_tgt, cfg, grid)
endpoint = table[-1].migrated
a_s = highpass_magnitude(x, spec)
a_t = highpass_magnitude(endpoint, spec)
print(f"source high-pass magnitude {a_s:.3f}, migrated endpoint {a_t:.3f}")

print(f"\n{'depth':>6} {'A(x_i)':>8} {'label':>7}")
mags = []
for traj in table:
    a_i = highpass_magnitude(traj.migrated, spec)
    label = soft_label(a_s, a_i, a_t)
    mags.append(a_i)
    db.save_pgm(np.clip(traj.migrated, -1, 1), out / f"depth_{traj.depth:.2f}.pgm")
    print(f"{traj.depth:6.2f} {a_i:8.3f} {label.value:7.3f}")

# Spearman's rho is the correlation of the ranks (no ties here).
ranks = [np.argsort(np.argsort(v)) for v in (grid, mags)]
rho = np.corrcoef(*ranks)[0, 1]
print(f"\nSpearman(depth, high-pass magnitude) = {rho:.3f}")
print(f"frames written to {out}/")

print("\ninverting the relation: pick depths for requested labels")
targets = (0.25, 0.5, 0.75)
picks = db.calibrate_depth(targets, x[None], m_src, m_tgt, cfg, np.linspace(0, 1, 17), spec)[0]
for target, (traj, achieved) in zip(targets, picks):
    print(f"  target {target:.2f} -> depth {traj.depth:.4f} (achieved {achieved.value:.3f})")
