"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with plain ``pytest`` (lines print through capture) or
``pytest tests/test_acceptance.py`` for just this suite.  Every tolerance
is pinned here; nothing is calibrated at runtime.  The oracles live in
``diffbridge.verify`` (moments, score, round trip, DDIM against Heun,
central differences); each criterion passes them its own sizes and
seeds and applies its own bounds and error rule.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import diffbridge as db
from diffbridge import verify
from diffbridge.attention import Priority
from diffbridge.bridge import BridgeConfig, depth_sweep, migrate
from diffbridge.cli import main as cli_main
from diffbridge.domains import gmm_log_density, gmm_sample
from diffbridge.softlabel import HighpassSpec, highpass_magnitude, soft_label
from diffbridge.train import TrainConfig, evaluate_fit, train_denoiser
from conftest import ACCEPTANCE_LINES, mlp_gradcheck


def report(num: int, name: str, passed: bool, detail: str, seconds: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name} ({detail}; {seconds:.1f}s)"
    print(line)
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def sched():
    return db.linear_schedule(1000)


@pytest.fixture(scope="module")
def pair():
    return db.default_gmm_pair()


def test_criterion_1_forward_noising_statistics(sched):
    start = time.monotonic()
    x0, rng = np.array([1.5, -0.5]), np.random.default_rng(1)
    mean_dev, var_dev = verify.noise_moment_deviations(x0, 400, sched, rng, 10_000)
    elapsed = time.monotonic() - start
    passed = mean_dev < 4.0 and var_dev < 0.10 and elapsed < 5.0
    report(1, "forward-noising statistics", passed,
           f"mean dev {mean_dev:.2f} est-sigma (<4), var dev {var_dev:.3f} (<0.10)", elapsed)
    assert mean_dev < 4.0
    assert var_dev < 0.10
    assert elapsed < 5.0


def test_criterion_2_analytic_score_oracle(sched, pair):
    start = time.monotonic()
    model = db.AnalyticGmmEpsilon(pair.source, sched)
    worst = verify.score_error(model, np.random.default_rng(2), 100)
    elapsed = time.monotonic() - start
    passed = worst < 1e-5 and elapsed < 10.0
    report(2, "analytic score vs finite differences", passed,
           f"worst rel err {worst:.2e} (<1e-5) over 100 states", elapsed)
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_3_deterministic_round_trip(sched, pair):
    start = time.monotonic()
    model = db.AnalyticGmmEpsilon(pair.source, sched)
    x = gmm_sample(pair.source, 64, seed=0)
    errs = {}
    for n in (500, 1000):
        cfg = BridgeConfig(schedule=sched, steps_per_unit_time=n)
        errs[n] = verify.round_trip_error(verify.heun_flow, x, model, cfg)
    ratio = errs[500] / errs[1000]
    elapsed = time.monotonic() - start
    passed = errs[500] < 1e-3 and 6.4 < ratio < 9.6 and elapsed < 30.0
    report(3, "flow round-trip 0->1->0", passed,
           f"max err {errs[500]:.2e} (<1e-3) at 500 Heun sub-steps, "
           f"halving ratio {ratio:.2f} (6.4..9.6)", elapsed)
    assert errs[500] < 1e-3
    assert 6.4 < ratio < 9.6
    assert elapsed < 30.0


def test_criterion_4_ddim_ode_agreement(sched, pair):
    start = time.monotonic()
    model = db.AnalyticGmmEpsilon(pair.source, sched)
    x = gmm_sample(pair.source, 32, seed=4)
    devs = {n: verify.ddim_heun_deviation(x, model, sched, n) for n in (2000, 4000)}
    elapsed = time.monotonic() - start
    passed = devs[2000] < 5.0 * devs[4000] and elapsed < 60.0
    report(4, "deterministic DDIM vs Heun flow agreement", passed,
           f"deviation {devs[2000]:.2e} at 2000 steps < 5 x {devs[4000]:.2e} at 4000", elapsed)
    assert devs[2000] < 5.0 * devs[4000]
    assert elapsed < 60.0


def test_criterion_5_migration_effectiveness(sched, pair):
    start = time.monotonic()
    model_a = db.AnalyticGmmEpsilon(pair.source, sched)
    model_b = db.AnalyticGmmEpsilon(pair.target, sched)
    xs = gmm_sample(pair.source, 200, seed=1)
    cfg = BridgeConfig(schedule=sched, steps_per_unit_time=1000)
    migrated = migrate(xs, model_a, model_b, cfg)
    gain = gmm_log_density(pair.target, migrated) - gmm_log_density(pair.target, xs)
    frac = float(np.mean(gain > 0))
    elapsed = time.monotonic() - start
    passed = frac >= 0.95 and elapsed < 60.0
    report(5, "migration raises target log-density", passed,
           f"{frac:.1%} of 200 samples improved (>=95%), mean gain {gain.mean():.1f}", elapsed)
    assert frac >= 0.95
    assert elapsed < 60.0


def test_criterion_6_depth_control(sched):
    start = time.monotonic()
    tex = db.make_texture_pair("bandsplit", 32, seed=3)
    m_src = db.AnalyticFieldEpsilon(tex.source.mode_variances, sched)
    m_tgt = db.AnalyticFieldEpsilon(tex.target.mode_variances, sched)
    cfg = BridgeConfig(schedule=sched, steps_per_unit_time=200)
    spec = HighpassSpec(0.25)
    grid = np.linspace(0.0, 1.0, 17)
    xs = tex.source.sample(20, seed=7)
    # One batched sweep; its last depth, 1.0, is each sample's full migration.
    frames = depth_sweep(xs, m_src, m_tgt, cfg, grid.tolist())
    all_mags = highpass_magnitude(frames, spec).T   # (sample, depth)
    rhos = []
    endpoint_ok = True
    for a_s, mags in zip(highpass_magnitude(xs, spec), all_mags):
        a_t = mags[-1]
        rhos.append(spearmanr(grid, mags).statistic)
        labels = (soft_label(a_s, mags[0], a_t)[0], soft_label(a_s, mags[-1], a_t)[0])
        endpoint_ok = endpoint_ok and labels == (0.0, 1.0)
    min_rho = float(min(rhos))
    elapsed = time.monotonic() - start
    passed = min_rho >= 0.8 and endpoint_ok and elapsed < 300.0
    report(6, "depth-controlled migration extent", passed,
           f"min Spearman(depth, highpass) {min_rho:.3f} (>=0.8) over 20 samples, "
           f"endpoint labels exact: {endpoint_ok}", elapsed)
    assert min_rho >= 0.8
    assert endpoint_ok
    assert elapsed < 300.0


def test_criterion_7_soft_label_identities():
    start = time.monotonic()
    ok_endpoints = (
        soft_label(10.0, 10.0, 2.0)[0] == 0.0
        and soft_label(10.0, 2.0, 2.0)[0] == 1.0
        and soft_label(10.0, 6.0, 2.0)[0] == 0.5
    )
    spec = HighpassSpec(0.25)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((32, 32))
        a = highpass_magnitude(x, spec)
        shifted = np.roll(x, (int(rng.integers(32)), int(rng.integers(32))), (0, 1))
        worst = max(worst, abs(a - highpass_magnitude(shifted, spec)) / max(a, 1.0))
        c = float(rng.uniform(0.5, 4.0))
        worst = max(worst, abs(highpass_magnitude(c * x, spec) - c * a) / max(c * a, 1.0))
    elapsed = time.monotonic() - start
    passed = ok_endpoints and worst < 1e-9
    report(7, "soft-label identities and spectral invariances", passed,
           f"endpoint/midpoint identities exact: {ok_endpoints}, "
           f"invariance worst rel {worst:.1e} (<1e-9)", elapsed)
    assert ok_endpoints
    assert worst < 1e-9


def test_criterion_8_attention_properties():
    from diffbridge.attention import AttentionConfig, attention_forward

    start = time.monotonic()
    rng = np.random.default_rng(8)
    coincidence_worst = 0.0
    equivariance_worst = 0.0
    locality_exact = True
    for trial in range(50):
        heads = int(rng.choice([1, 2, 4]))
        g = db.init_attention(8, 8, heads=heads, windows=1, priority=Priority.GLOBAL_FIRST, seed=trial)
        l = AttentionConfig(
            token_count=8, model_dim=8, heads=heads, windows=1,
            priority=Priority.LOCAL_FIRST, w_query=g.w_query, w_key=g.w_key,
            w_value=g.w_value, w_output=g.w_output,
        )
        x = rng.standard_normal((8, 8))
        coincidence_worst = max(
            coincidence_worst,
            float(np.abs(attention_forward(l, x) - attention_forward(g, x)).max()),
        )
        perm = rng.permutation(8)
        equivariance_worst = max(
            equivariance_worst,
            float(np.abs(attention_forward(g, x[perm]) - attention_forward(g, x)[perm]).max()),
        )
        l4 = AttentionConfig(
            token_count=8, model_dim=8, heads=heads, windows=4,
            priority=Priority.LOCAL_FIRST, w_query=g.w_query, w_key=g.w_key,
            w_value=g.w_value, w_output=g.w_output,
        )
        base = attention_forward(l4, x)
        bumped = x.copy()
        bumped[2] += 1.0  # window 1 of 4
        out = attention_forward(l4, bumped)
        outside = [0, 1, 4, 5, 6, 7]
        locality_exact = locality_exact and np.array_equal(out[outside], base[outside])
    elapsed = time.monotonic() - start
    passed = (
        coincidence_worst < 1e-9 and equivariance_worst < 1e-9
        and locality_exact and elapsed < 5.0
    )
    report(8, "attention priority properties", passed,
           f"w=1 coincidence {coincidence_worst:.1e} (<1e-9), equivariance "
           f"{equivariance_worst:.1e} (<1e-9), strict locality: {locality_exact}", elapsed)
    assert coincidence_worst < 1e-9
    assert equivariance_worst < 1e-9
    assert locality_exact
    assert elapsed < 5.0


def test_criterion_9_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(9)
    model = db.init_mlp((4,), (16, 16), steps_total=100, time_dim=8, seed=9)
    x = rng.standard_normal(4)
    target = rng.standard_normal(4)
    worst = mlp_gradcheck(model, x, 50, target)
    n_params = sum(p.size for p in model.parameters())
    elapsed = time.monotonic() - start
    passed = worst < 1e-4 and elapsed < 30.0
    report(9, "manual gradients vs finite differences", passed,
           f"worst rel err {worst:.2e} (<1e-4) over all {n_params} parameters "
           f"of a 3-layer model", elapsed)
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_10_training_smoke(sched, pair):
    start = time.monotonic()
    data = gmm_sample(pair.source, 2000, seed=0)
    cfg = TrainConfig(epochs=15, batch_size=128, learning_rate=3e-3, hidden=(64, 64))
    model, losses = train_denoiser(data, cfg, sched, seed=1)
    ratio = losses[-1] / losses[0]
    untrained = db.init_mlp((2,), (64, 64), steps_total=1000, seed=99)
    fit_trained = evaluate_fit(model, pair.source, 150, sched, seed=5)
    fit_untrained = evaluate_fit(untrained, pair.source, 150, sched, seed=5)
    elapsed = time.monotonic() - start
    passed = ratio < 0.7 and fit_trained < fit_untrained and elapsed < 300.0
    report(10, "training smoke test", passed,
           f"loss ratio {ratio:.2f} (<0.7), energy distance trained "
           f"{fit_trained:.3f} < untrained {fit_untrained:.1f}", elapsed)
    assert ratio < 0.7
    assert fit_trained < fit_untrained
    assert elapsed < 300.0


def test_criterion_11_end_to_end_reproducibility(tmp_path):
    start = time.monotonic()
    config = {
        "seed": 11,
        "domains": {"kind": "texture", "size": 32},
        "schedule": {"steps": 400},
        "bridge": {"steps_per_unit_time": 100},
        "sweep_count": 2,
        "sweep_depths": [0.0, 0.25, 0.5, 0.75, 1.0],
    }
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps({**config, "out": str(out)}))
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
        digests.append(
            {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"
            }
        )
    identical = digests[0] == digests[1]
    elapsed = time.monotonic() - start
    report(11, "sweep rerun byte-identical", identical,
           f"{len(digests[0])} frames+CSVs compared across reruns", elapsed)
    assert identical
    assert len(digests[0]) > 0
