"""Walkthrough: noise schedules and the forward noising process.

Builds the default linear schedule, shows how the cumulative signal
retention decays, and verifies the forward marginal's moments against
a Monte Carlo draw.
"""

import numpy as np

import diffbridge as db

sched = db.linear_schedule(1000)
print("linear schedule: T=1000, beta 1e-4 -> 0.02")
print(f"{'t':>6} {'beta_t':>10} {'alpha_bar_t':>12} {'t/T':>6}")
for t in (1, 100, 350, 700, 1000):
    print(f"{t:6d} {sched.beta(t):10.5f} {sched.alpha_bar(t):12.6f} {t / sched.steps_T:6.2f}")

print("\nforward noising x_t = sqrt(ab_t) x0 + sqrt(1-ab_t) eps at t=400:")
t = 400
ab = sched.alpha_bar(t)
x0 = np.array([1.5, -0.5])
rng = np.random.default_rng(0)
draws, _ = db.forward_noise(np.broadcast_to(x0, (10_000, 2)), t, sched, rng)
print(f"  expected mean {np.sqrt(ab) * x0}, sample mean {draws.mean(axis=0)}")
print(f"  expected var  {1 - ab:.4f}, sample var {draws.var(axis=0)}")

print("\nthe same marginal in closed form (noisy mixture):")
mix = db.default_gmm_pair().source
noised = db.noised_mixture(mix, sched, t)
print(f"  component means shrink: {mix.means[0]} -> {noised.means[0]}")
print(f"  component variance blends toward 1: {mix.variances[0]} -> {noised.variances[0]:.4f}")
