"""Walkthrough: exact noise prediction and deterministic sampling.

The Gaussian-mixture domain admits the optimal noise prediction in
closed form.  Plugging it into the deterministic reverse process turns
standard-normal latents into mixture samples; the energy distance to
direct mixture draws quantifies the match.  Ancestral sampling batches
too: one call with one sample index per row gives the bytes of one call
per sample.
"""

import numpy as np

import diffbridge as db
from diffbridge.diffusion import SamplerConfig, SigmaMode, ddim_sample
from diffbridge.train import energy_distance

sched = db.linear_schedule(1000)
mix = db.default_gmm_pair().source
model = db.AnalyticGmmEpsilon(mix, sched)

print("sanity: prediction matches finite differences of the noised log density")
t = 300
q_t = db.noised_mixture(mix, sched, t)
x = db.gmm_sample(q_t, 1, seed=0)[0]
h = 1e-4
fd = np.array(
    [
        (db.gmm_log_density(q_t, x + np.eye(2)[d] * h) - db.gmm_log_density(q_t, x - np.eye(2)[d] * h))
        / (2 * h)
        for d in range(2)
    ]
)
print(f"  analytic: {model.predict_epsilon(x, t)}")
print(f"  via FD:   {-np.sqrt(1 - sched.alpha_bar(t)) * fd}")

print("\ndeterministic sampling from standard-normal latents:")
n = 400
latents = np.random.default_rng(1).standard_normal((n, 2))
samples = ddim_sample(latents, model, SamplerConfig(schedule=sched))
reference = db.gmm_sample(mix, n, seed=2)
print(f"  energy distance sampled vs direct draws: {energy_distance(samples, reference):.4f}")
print(f"  (same-distribution noise floor at n={n} is about 0.03)")

print("\nancestral mode draws differ per seed but reproduce exactly per seed:")
cfg = SamplerConfig(schedule=sched, sigma_mode=SigmaMode.ANCESTRAL, eta=1.0, seed=7)
k = 4
batch = ddim_sample(latents[:k], model, cfg, sample_index=range(k))
singles = np.stack([ddim_sample(latents[i], model, cfg, sample_index=i) for i in range(k)])
print(f"  one batched call of {k} equals {k} single-sample calls: {np.array_equal(batch, singles)}")
rerun = ddim_sample(latents[:k], model, cfg, sample_index=range(k))
print(f"  rerun identical: {np.array_equal(batch, rerun)}")
