"""Built-in oracle suite: independent cross-checks of the core numerics.

Each check compares an implementation path against an independent route
to the same quantity (product loop, Monte Carlo moments, finite
differences, a second integrator) and reports the measured error against
a fixed threshold.  ``run_all`` executes every check; a schedule override
exists so harnesses can inject a corrupted schedule and watch the
round-trip check fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import BridgeConfig, Integrator, flow_ode
from .denoiser import AnalyticGmmEpsilon, init_mlp
from .diffusion import forward_noise
from .domains import default_gmm_pair, gmm_log_density, gmm_sample, noised_mixture
from .schedule import NoiseSchedule, linear_schedule
from .softlabel import highpass_magnitude, soft_label, HighpassSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.name}: measured={self.measured:.3e} "
            f"threshold={self.threshold:.3e}{extra}"
        )


def check_schedule_product(schedule: NoiseSchedule) -> CheckResult:
    """Every stored cumulative product vs an independent sequential loop."""
    prod = 1.0
    worst = 0.0
    for t, alpha in enumerate(schedule.alphas, start=1):
        prod *= float(alpha)
        rel = abs(schedule.alpha_bars[t] - prod) / max(abs(prod), 1e-300)
        worst = max(worst, rel)
    return CheckResult("schedule-product", worst < 1e-12, worst, 1e-12)


def check_forward_noise_moments(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Sample moments of the forward marginal vs the closed form."""
    rng = np.random.default_rng(seed)
    t = max(1, schedule.steps_T // 2)
    ab = schedule.alpha_bar(t)
    x0 = np.array([1.0, -2.0])
    n = 4000
    draws = forward_noise(np.broadcast_to(x0, (n, 2)), t, schedule, rng)
    se = np.sqrt((1 - ab) / n)
    mean_dev = np.abs(draws.mean(axis=0) - np.sqrt(ab) * x0).max() / se
    var_dev = np.abs(draws.var(axis=0) / (1 - ab) - 1.0).max()
    passed = mean_dev < 4.0 and var_dev < 0.10
    return CheckResult(
        "forward-noise-moments",
        bool(passed),
        float(max(mean_dev / 4.0, var_dev / 0.10)),
        1.0,
        f"mean {mean_dev:.2f} est-sigma, variance off by {var_dev:.3f}",
    )


def check_score_finite_difference(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Analytic noise prediction vs central differences of the log density."""
    mix = default_gmm_pair().source
    model = AnalyticGmmEpsilon(mix, schedule)
    rng = np.random.default_rng(seed)
    h = 1e-4
    worst = 0.0
    for _ in range(25):
        t = int(rng.integers(1, schedule.steps_T + 1))
        q_t = noised_mixture(mix, schedule, t)
        x = gmm_sample(q_t, 1, seed=int(rng.integers(1 << 31)))[0]
        fd = np.zeros(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd[d] = (gmm_log_density(q_t, x + e) - gmm_log_density(q_t, x - e)) / (2 * h)
        expected = -np.sqrt(1 - schedule.alpha_bar(t)) * fd
        got = model.predict_epsilon(x, t)
        rel = np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-12)
        worst = max(worst, rel)
    return CheckResult("score-finite-difference", worst < 1e-5, worst, 1e-5)


def check_flow_round_trip(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Euler flow 0 -> 1 -> 0 must return to the inputs."""
    err = _round_trip_error(schedule, Integrator.EULER, seed)
    return CheckResult("flow-round-trip", err < 1e-3, err, 1e-3)


def check_flow_round_trip_ddim(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """The sub-stepped DDIM recursion must round-trip as well.

    Unlike the drift-form legs, whose first-order errors largely cancel
    on reversal, the recursion evaluates its prediction at asymmetric
    cell endpoints, so tampered schedule tables blow this check up.
    """
    err = _round_trip_error(schedule, Integrator.DDIM, seed)
    return CheckResult("flow-round-trip-ddim", err < 2e-2, err, 2e-2)


def _round_trip_error(schedule: NoiseSchedule, integrator: Integrator, seed: int) -> float:
    mix = default_gmm_pair().source
    model = AnalyticGmmEpsilon(mix, schedule)
    x = gmm_sample(mix, 32, seed=seed)
    cfg = BridgeConfig(schedule=schedule, steps_per_unit_time=1000, integrator=integrator)
    rt = flow_ode(flow_ode(x, model, 0.0, 1.0, cfg), model, 1.0, 0.0, cfg)
    return float(np.abs(rt - x).max())


def check_ddim_ode_agreement(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Sub-stepped DDIM recursion vs Heun drift integration, refining grid."""
    mix = default_gmm_pair().source
    model = AnalyticGmmEpsilon(mix, schedule)
    x = gmm_sample(mix, 16, seed=seed)
    devs = {}
    for n in (500, 1000):
        outs = {}
        for integ in (Integrator.DDIM, Integrator.HEUN):
            cfg = BridgeConfig(schedule=schedule, steps_per_unit_time=n, integrator=integ)
            outs[integ] = flow_ode(x, model, 0.0, 1.0, cfg)
        devs[n] = float(np.abs(outs[Integrator.DDIM] - outs[Integrator.HEUN]).max())
    passed = devs[1000] < devs[500] and devs[1000] < 0.05
    return CheckResult(
        "ddim-ode-agreement",
        bool(passed),
        devs[1000],
        0.05,
        f"deviation {devs[500]:.2e} -> {devs[1000]:.2e} as grid doubles",
    )


def gradient_error(model, x, t, target, threshold: float = 1e-4) -> float:
    """Worst relative error of ``model.backward``'s gradients against central differences.

    The loss is the squared error summed over every value of x, one field
    or a minibatch with one step per row.  Central differences (step h)
    resolve a slope only to about eps * loss / h, so the denominator floor
    puts an error of that size at ``threshold``.
    """
    grads = model.backward(x, t, target).parameters
    h = 1e-5
    loss = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
    floor = np.finfo(np.float64).eps * loss / h / threshold
    worst = 0.0
    for p, g in zip(model.parameters(), grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig - h
            down = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(flat_g[idx]), floor)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
    return worst


def check_gradient(seed: int = 0) -> CheckResult:
    """Manual reverse-mode gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    model = init_mlp((3,), (10, 8), steps_total=100, time_dim=6, seed=seed)
    x = rng.standard_normal(3)
    target = rng.standard_normal(3)
    threshold = 1e-4
    worst = gradient_error(model, x, 40, target, threshold=threshold)
    return CheckResult("mlp-gradient-check", worst < threshold, worst, threshold)


def check_soft_label_identities() -> CheckResult:
    """Endpoint identities, the 10/6/2 substitution, and shift invariance."""
    errs = [
        abs(soft_label(10.0, 10.0, 2.0).value - 0.0),
        abs(soft_label(10.0, 2.0, 2.0).value - 1.0),
        abs(soft_label(10.0, 6.0, 2.0).value - 0.5),
    ]
    spec = HighpassSpec(0.25)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 16))
    a = highpass_magnitude(x, spec)
    b = highpass_magnitude(np.roll(x, (3, 5), (0, 1)), spec)
    errs.append(abs(a - b) / max(a, 1.0))
    worst = float(max(errs))
    return CheckResult("soft-label-identities", worst < 1e-9, worst, 1e-9)


def run_all(schedule: NoiseSchedule | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every check; a corrupted schedule override makes them observable.

    A check that raises (e.g. non-finite states from a broken schedule)
    is reported as a failure rather than aborting the suite.
    """
    sched = schedule if schedule is not None else linear_schedule(1000)
    checks = [
        ("schedule-product", lambda: check_schedule_product(sched)),
        ("forward-noise-moments", lambda: check_forward_noise_moments(sched, seed)),
        ("score-finite-difference", lambda: check_score_finite_difference(sched, seed)),
        ("flow-round-trip", lambda: check_flow_round_trip(sched, seed)),
        ("flow-round-trip-ddim", lambda: check_flow_round_trip_ddim(sched, seed)),
        ("ddim-ode-agreement", lambda: check_ddim_ode_agreement(sched, seed)),
        ("mlp-gradient-check", lambda: check_gradient(seed)),
        ("soft-label-identities", lambda: check_soft_label_identities()),
    ]
    results = []
    for name, runner in checks:
        try:
            results.append(runner())
        except Exception as exc:  # surfaced as a failed check, not a crash
            results.append(
                CheckResult(name, False, float("nan"), float("nan"), f"raised {exc!r}")
            )
    return results
