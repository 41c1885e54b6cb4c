"""Walkthrough: bridging two domains through a shared latent space.

A sample is carried from domain A to noise with A's flow and back to
data with B's flow.  The migrated population lands in B (its log-density
under B rises sharply) while staying deterministically tied to its
source: rerunning reproduces every output bit for bit.
"""

import numpy as np

import diffbridge as db
from diffbridge.bridge import BridgeConfig, flow_ode, migrate

sched = db.linear_schedule(1000)
pair = db.default_gmm_pair()
model_a = db.AnalyticGmmEpsilon(pair.source, sched)
model_b = db.AnalyticGmmEpsilon(pair.target, sched)
cfg = BridgeConfig(schedule=sched, steps_per_unit_time=1000)

print("the forward flow is invertible: 0 -> 1 -> 0 returns the inputs")
x = db.gmm_sample(pair.source, 8, seed=0)
rt = flow_ode(flow_ode(x, model_a, 0.0, 1.0, cfg), model_a, 1.0, 0.0, cfg)
print(f"  round-trip max error: {np.abs(rt - x).max():.2e}")

print("\nmigrating 200 samples A -> B:")
xs = db.gmm_sample(pair.source, 200, seed=1)
migrated = migrate(xs, model_a, model_b, cfg)
logq_before = db.gmm_log_density(pair.target, xs)
logq_after = db.gmm_log_density(pair.target, migrated)
print(f"  mean log-density under B: {logq_before.mean():8.2f} before")
print(f"  mean log-density under B: {logq_after.mean():8.2f} after")
print(f"  improved samples: {np.mean(logq_after > logq_before):.1%}")

# Migration's first leg is this flow, so these are the latents it passes on.
latent = flow_ode(xs, model_a, 0.0, 1.0, cfg)
print("\nsource / latent / migrated for three samples:")
for i in range(3):
    print(f"  {xs[i]} -> {latent[i]} -> {migrated[i]}")

rerun = migrate(xs, model_a, model_b, cfg)
print(f"\nrerun bit-identical: {np.array_equal(rerun, migrated)}")
