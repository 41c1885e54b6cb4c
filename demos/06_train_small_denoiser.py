"""Walkthrough: training a small denoiser with hand-written gradients.

An MLP learns the noise-prediction objective on mixture data; its
gradients come from the package's own reverse-mode implementation (no
autodiff framework).  Sampling quality is scored by energy distance
against direct mixture draws, for five training seeds and their median,
with the exact predictor as the floor.
"""

import numpy as np

import diffbridge as db
from diffbridge.train import TrainConfig, evaluate_fit, train_denoiser

sched = db.linear_schedule(1000)
mix = db.default_gmm_pair().source
data = db.gmm_sample(mix, 2000, seed=0)

cfg = TrainConfig(epochs=15, batch_size=128, learning_rate=3e-3, hidden=(64, 64))
print("training a (64, 64) denoiser on 2000 mixture points...")
model, losses = train_denoiser(data, cfg, sched, seed=1)
print(f"{'epoch':>6} {'loss':>8}")
for e, loss in enumerate(losses):
    print(f"{e:6d} {loss:8.4f}")

# One training seed's fit is one draw from a wide spread; five seeds and their median show it.
print("\nenergy distance of 150 deterministic samples to direct draws:")
untrained = db.init_mlp((2,), (64, 64), steps_total=1000, seed=99)
print(f"  {'untrained':>16}: {evaluate_fit(untrained, mix, 150, sched, seed=5):.4f}")
fits = []
for seed in range(1, 6):
    trained = model if seed == 1 else train_denoiser(data, cfg, sched, seed=seed)[0]
    fits.append(evaluate_fit(trained, mix, 150, sched, seed=5))
    print(f"  {f'trained, seed {seed}':>16}: {fits[-1]:.4f}")
print(f"  {'trained, median':>16}: {np.median(fits):.4f}")
exact = db.AnalyticGmmEpsilon(mix, sched)
print(f"  {'exact':>16}: {evaluate_fit(exact, mix, 150, sched, seed=5):.4f}")

print("\ngradient sanity on one example (manual vs finite difference):")
x, target = data[0], np.zeros(2)
grads = model.backward(x, 100, target)
w = model.weights[0]
g = grads.parameters[0][0, 0]
h = 1e-6
orig = w[0, 0]
w[0, 0] = orig + h
up = float(np.sum((target - model.predict_epsilon(x, 100)) ** 2))
w[0, 0] = orig - h
down = float(np.sum((target - model.predict_epsilon(x, 100)) ** 2))
w[0, 0] = orig
print(f"  manual {g:+.6e}  finite-difference {(up - down) / (2 * h):+.6e}")
