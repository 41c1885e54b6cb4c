"""Built-in oracle suite: independent cross-checks of the core numerics.

Each check compares an implementation path against an independent route
to the same quantity (product loop, Monte Carlo moments, finite
differences, a second integrator) and reports the measured error against
a fixed threshold.  ``run_all`` executes every check; a schedule override
exists so harnesses can inject a corrupted schedule and watch the
round-trip check fail.

The second integrator is ``heun_flow``: Heun's second-order method on
the variance-preserving probability-flow drift

    v(u, x) = beta(u)/2 * (eps(x, u)/sqrt(1 - alpha_bar(u)) - x),

written as the plain out-of-place recursion, over the same snapped grid
nodes as ``bridge.flow_ode`` but sharing no loop with it.  Converting a
noise prediction to a score divides by sqrt(1 - alpha_bar), which
vanishes at u = 0, so the drift is evaluated at times floored at
``DRIFT_TIME_FLOOR``.  That is negligible for analytic models; a trained
network's raw output near u = 0 does not shrink with the divisor, which
is why the bridge itself steps with DDIM.  Where alpha_bar still rounds
to 1 at the floor (the interpolant starts flat when the second beta is
at least three times the first: T <= 100 at the default betas), the eps
term is taken as 0, the optimal prediction's value there, and the noise
rate is below 1e-8, so the drift stays finite.

Each oracle has one home: a measurement function here that takes its
inputs and returns the measured numbers.  The checks, the acceptance
criteria and the unit tests all measure through these functions, and
each caller pins its own sizes, seeds, bounds and error rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import BridgeConfig, _check_finite, flow_ode
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
    """Every stored cumulative product vs an independent sequential loop; a NaN fails it."""
    prod = 1.0
    rels = []
    for t, alpha in enumerate(schedule.alphas, start=1):
        prod *= float(alpha)
        rels.append(abs(schedule.alpha_bars[t] - prod) / max(abs(prod), 1e-300))
    worst = float(np.max(rels))
    return CheckResult("schedule-product", worst < 1e-12, worst, 1e-12)


def noise_moment_deviations(x0, t, schedule: NoiseSchedule, rng, count) -> tuple[float, float]:
    """Worst coordinate's mean deviation, in estimated sigmas, and relative variance error.

    The sample is one batched ``forward_noise`` draw of ``count`` copies of x0 at step t.
    """
    ab = schedule.alpha_bar(t)
    draws, _ = forward_noise(np.broadcast_to(x0, (count, *np.shape(x0))), t, schedule, rng)
    se = np.sqrt((1 - ab) / count)
    mean_dev = np.abs(draws.mean(axis=0) - np.sqrt(ab) * x0).max() / se
    var_dev = np.abs(draws.var(axis=0) / (1 - ab) - 1.0).max()
    return float(mean_dev), float(var_dev)


def check_forward_noise_moments(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Sample moments of the forward marginal vs the closed form."""
    t = max(1, schedule.steps_T // 2)
    x0, rng = np.array([1.0, -2.0]), np.random.default_rng(seed)
    mean_dev, var_dev = noise_moment_deviations(x0, t, schedule, rng, 4000)
    passed = mean_dev < 4.0 and var_dev < 0.10
    return CheckResult(
        "forward-noise-moments",
        bool(passed),
        float(np.max([mean_dev / 4.0, var_dev / 0.10])),
        1.0,
        f"mean {mean_dev:.2f} est-sigma, variance off by {var_dev:.3f}",
    )


def score_error(model: AnalyticGmmEpsilon, rng, states: int) -> float:
    """Worst relative error of the model's epsilon at ``states`` random (step, point) pairs.

    The oracle is -sqrt(1 - alpha_bar) times central differences (h = 1e-4)
    of the log density of ``model.mixture`` noised to that step.  A NaN at
    any state makes the result NaN.
    """
    schedule = model.schedule
    h = 1e-4
    rels = []
    for _ in range(states):
        t = int(rng.integers(1, schedule.steps_T + 1))
        q_t = noised_mixture(model.mixture, schedule, t)
        x = gmm_sample(q_t, 1, seed=int(rng.integers(1 << 31)))[0]
        fd = np.zeros_like(x)
        for d in range(x.size):
            e = np.zeros_like(x)
            e[d] = h
            fd[d] = (gmm_log_density(q_t, x + e) - gmm_log_density(q_t, x - e)) / (2 * h)
        expected = -np.sqrt(1 - schedule.alpha_bar(t)) * fd
        got = model.predict_epsilon(x, t)
        rels.append(np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-12))
    return float(np.max(rels))


def check_score_finite_difference(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Analytic noise prediction vs central differences of the log density."""
    model = AnalyticGmmEpsilon(default_gmm_pair().source, schedule)
    worst = score_error(model, np.random.default_rng(seed), 25)
    return CheckResult("score-finite-difference", worst < 1e-5, worst, 1e-5)


DRIFT_TIME_FLOOR = 1e-9  # earliest time at which heun_flow evaluates the drift


def heun_flow(x, model, t0: float, t1: float, cfg: BridgeConfig) -> np.ndarray:
    """Heun's method on the probability-flow drift from time t0 to t1.

    The textbook reference for ``bridge.flow_ode``: the same snapped grid
    nodes, each step x + h/2 * (v(u_j, x) + v(u_{j+1}, x + h * v(u_j, x))),
    with new arrays at every step.  x may be a batch; a non-finite state
    raises ``NonFiniteStateError`` at its node, as the bridge does.
    """
    sched = cfg.schedule
    nodes, times = cfg.walk_nodes(cfg.node(t0), cfg.node(t1))
    eval_times = np.maximum(times, DRIFT_TIME_FLOOR)
    ab, beta = sched.alpha_bar_at(eval_times), sched.noise_rate_at(eval_times)

    def drift(state, j):
        scale = np.sqrt(1.0 - ab[j])
        if scale == 0.0:  # alpha_bar rounds to 1: eps counts as 0
            return 0.5 * beta[j] * (0.0 - state)
        eps = model.predict_epsilon(state, eval_times[j] * sched.steps_T)
        return 0.5 * beta[j] * (eps / scale - state)

    x = np.array(x, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(len(nodes) - 1):
            h = times[j + 1] - times[j]
            k_a = drift(x, j)
            k_b = drift(x + h * k_a, j + 1)
            x = x + 0.5 * h * (k_a + k_b)
            _check_finite(x, nodes[j + 1], times[j + 1])
    return x


def round_trip_error(flow, x, model, cfg: BridgeConfig) -> float:
    """Max error of ``flow`` (``flow_ode`` or ``heun_flow``) 0 -> 1 -> 0 from x back to x."""
    rt = flow(flow(x, model, 0.0, 1.0, cfg), model, 1.0, 0.0, cfg)
    return float(np.abs(rt - x).max())


def check_flow_round_trip(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Heun flow 0 -> 1 -> 0 at 500 nodes per unit time must return to the inputs."""
    err = _source_round_trip_error(schedule, heun_flow, 500, seed)
    return CheckResult("flow-round-trip", err < 1e-3, err, 1e-3)


def check_flow_round_trip_ddim(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """The sub-stepped DDIM recursion must round-trip as well.

    Unlike Heun's drift-form legs, whose steps read both ends of a cell
    and so nearly undo each other on reversal, the recursion evaluates
    its prediction at asymmetric cell endpoints, so tampered schedule
    tables blow this check up.
    """
    err = _source_round_trip_error(schedule, flow_ode, 1000, seed)
    return CheckResult("flow-round-trip-ddim", err < 2e-2, err, 2e-2)


def _source_round_trip_error(schedule: NoiseSchedule, flow, steps: int, seed: int) -> float:
    mix = default_gmm_pair().source
    cfg = BridgeConfig(schedule=schedule, steps_per_unit_time=steps)
    x, model = gmm_sample(mix, 32, seed=seed), AnalyticGmmEpsilon(mix, schedule)
    return round_trip_error(flow, x, model, cfg)


def ddim_heun_deviation(x, model, schedule: NoiseSchedule, steps: int) -> float:
    """Max difference between the DDIM and Heun flows of x over 0 -> 1, ``steps`` per unit time."""
    cfg = BridgeConfig(schedule=schedule, steps_per_unit_time=steps)
    ddim, heun = (flow(x, model, 0.0, 1.0, cfg) for flow in (flow_ode, heun_flow))
    return float(np.abs(ddim - heun).max())


def check_ddim_ode_agreement(schedule: NoiseSchedule, seed: int = 0) -> CheckResult:
    """Sub-stepped DDIM recursion vs Heun drift integration, refining grid."""
    mix = default_gmm_pair().source
    model = AnalyticGmmEpsilon(mix, schedule)
    x = gmm_sample(mix, 16, seed=seed)
    devs = {n: ddim_heun_deviation(x, model, schedule, n) for n in (500, 1000)}
    passed = devs[1000] < devs[500] and devs[1000] < 0.05
    return CheckResult(
        "ddim-ode-agreement",
        bool(passed),
        devs[1000],
        0.05,
        f"deviation {devs[500]:.2e} -> {devs[1000]:.2e} as grid doubles",
    )


_GRADIENT_STEP = 1e-5


def central_differences(model, x, t, target) -> tuple[np.ndarray, np.ndarray, float]:
    """``model.backward``'s gradients, central differences (step 1e-5) and the loss.

    The loss is the squared error summed over every value of x, one field or a
    minibatch with one step per row.  The gradients and differences come flat, in
    ``model.parameters()`` order.
    """
    analytic = np.concatenate([g.reshape(-1) for g in model.backward(x, t, target).parameters])
    loss = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
    h = _GRADIENT_STEP
    numeric = []
    for p in model.parameters():
        flat_p = p.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig - h
            down = float(np.sum((target - model.predict_epsilon(x, t)) ** 2))
            flat_p[idx] = orig
            numeric.append((up - down) / (2 * h))
    return analytic, np.array(numeric), loss


def gradient_error(model, x, t, target, threshold: float) -> float:
    """Worst relative error of ``model.backward``'s gradients against central differences.

    Central differences (step h) resolve a slope only to about
    eps * loss / h, so the denominator floor puts an error of that size
    at ``threshold``.
    """
    analytic, numeric, loss = central_differences(model, x, t, target)
    floor = np.finfo(np.float64).eps * loss / _GRADIENT_STEP / threshold
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), floor)
    return float(np.max(np.abs(numeric - analytic) / denom))


def check_gradient(seed: int = 0) -> CheckResult:
    """Manual reverse-mode gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    model = init_mlp((3,), (10, 8), steps_total=100, time_dim=6, seed=seed)
    x = rng.standard_normal(3)
    target = rng.standard_normal(3)
    threshold = 1e-4
    worst = gradient_error(model, x, 40, target, threshold)
    return CheckResult("mlp-gradient-check", worst < threshold, worst, threshold)


def check_soft_label_identities() -> CheckResult:
    """Endpoint identities, the 10/6/2 substitution, and shift invariance; a NaN fails it."""
    value, _ = soft_label(10.0, np.array([10.0, 2.0, 6.0]), 2.0)
    errs = [*np.abs(value - [0.0, 1.0, 0.5])]
    spec = HighpassSpec(0.25)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 16))
    a = highpass_magnitude(x, spec)
    b = highpass_magnitude(np.roll(x, (3, 5), (0, 1)), spec)
    errs.append(abs(a - b) / max(a, 1.0))
    worst = float(np.max(errs))
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
