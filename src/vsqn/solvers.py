"""Variable sample-size stochastic quasi-Newton solvers and baselines.

Eight schemes share one contract: an update x <- x - gamma_k H_k u_k where
u_k is a batch-average (possibly smoothed and/or regularized) gradient,
queried through ``core.evaluate_on_handle`` at the scheme's smoothing level,
and H_k is the limited-memory approximation rebuilt from curvature pairs
formed at odd iterations.  A pair at iteration k uses the previous
iteration's batch S_{k-1}: y = g(x_k; S_{k-1}) - g(x_{k-1}; S_{k-1}).  The
second term is the previous step's raw oracle output whenever the pair is
taken at the same smoothing level as that step, so it is reused rather than
recomputed; the problem's one-slot batch cache serves the first term
without a redraw.  The schemes differ only in their schedules, in what u_k
is, and in how pairs are built:

  vs_sqn              strongly convex, smooth; geometric batches
  svs_sqn_moreau      strongly convex composite; envelope gradients, fixed eta
  svs_sqn_diminishing strongly convex smoothable; eta_k decreasing
  rvs_sqn             convex, smooth; vanishing quadratic regularization
  rsvs_sqn            convex, smoothable; constant horizon-tuned gamma/mu/eta
                      plus a weighted averaged iterate
  sgd, sqn_unit, apg_baseline   comparison baselines

apg_baseline takes that step with H = I from an extrapolated query point,
through the loop's momentum hook.

Theorem-prescribed default schedules are built when the config leaves them
unset; explicit overrides are honored and the theoretical steplength is
recorded alongside the used one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    Array,
    BatchSchedule,
    RngStream,
    ScalarSchedule,
    assert_finite,
    evaluate_on_handle,
)
from .hessian import LbfgsMemory, collect_pair, theoretical_bounds
from .smoothing import eta_schedule_diminishing

MAX_ITERS_DEFAULT = 2_000_000

# RunResult.extras keys of the quasi-Newton loop's pair counters
PAIR_COUNTERS = ("pairs_formed", "pairs_skipped", "pair_grads_reused")


class ConfigError(ValueError):
    """Invalid solver configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass
class SolverConfig:
    scheme: str
    m: int = 5
    horizon: Optional[int] = None          # iteration count K
    sample_budget: Optional[int] = None    # stop once sum N_k reaches this
    batch: Optional[BatchSchedule] = None
    step: Optional[ScalarSchedule] = None
    mu: Optional[ScalarSchedule] = None
    eta: Union[None, float, ScalarSchedule] = None  # a float becomes "constant"
    epsilon: float = 0.1
    c_gamma: float = 1.0
    delta: Optional[float] = None
    delta_bar: Optional[float] = None
    seed: int = 0
    x0: Optional[Array] = None
    max_iters: Optional[int] = None  # iteration cap; None means MAX_ITERS_DEFAULT
    average_iterates: bool = False   # uniform averaging (sgd baseline)
    value_every: int = 1             # objective evaluation cadence in records
    record_trace: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}; "
                                        f"choose one of {', '.join(SCHEMES)}")
        if self.m < 1:
            raise ConfigError("m", "memory depth must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", "must be > 0")
        if self.eta is not None and not isinstance(self.eta, ScalarSchedule):
            if not self.eta > 0:
                raise ConfigError("eta", f"smoothing level must be > 0, "
                                         f"got {self.eta!r}")
            self.eta = ScalarSchedule("constant", float(self.eta))
        if self.scheme == "rsvs_sqn" and self.horizon is None:
            raise ConfigError("horizon", "rsvs_sqn fixes its parameters from "
                                         "the horizon K; set horizon")
        if (self.horizon is None and self.sample_budget is None
                and self.max_iters is None):
            raise ConfigError("horizon", "set horizon, sample_budget or max_iters")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError("max_iters", "must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        _, batch_kinds, _, fixed = _SCHEMES[self.scheme]
        for name in ("step", "mu", "eta"):
            sched = getattr(self, name)
            if sched is not None and sched.kind == "horizon_constant":
                if self.horizon is None:
                    raise ConfigError(name, "a horizon_constant schedule is "
                                            "fixed from the horizon K; set horizon")
                sched = ScalarSchedule(
                    "constant", sched.base * float(self.horizon) ** sched.exponent)
                setattr(self, name, sched)
            if sched is not None and name in fixed and sched.kind != "constant":
                raise ConfigError(name, f"{self.scheme} holds {name} fixed over "
                                        f"the run; got a {sched.kind!r} schedule")
        if self.sample_budget is not None and self.sample_budget < 1:
            raise ConfigError("sample_budget", "must be >= 1")
        if self.batch is not None and self.batch.kind not in batch_kinds:
            raise ConfigError("batch", f"{self.scheme} takes batch kinds "
                                       f"{batch_kinds}, got {self.batch.kind!r}")
        for name in ("delta", "delta_bar"):
            v = getattr(self, name)
            if v is not None and not (0 < v <= 1):
                raise ConfigError(name, "must lie in (0, 1]")
        if self.value_every < 1:
            raise ConfigError("value_every", "must be >= 1")


@dataclass
class IterateRecord:
    """One log row: the state at iteration k before its update (the closing
    row holds the final iterate); under momentum, f_value and gap are taken
    at the reported iterate z_k, not at the query point.

    ``samples_cum`` counts drawn samples, sum N_j over j <= k.
    ``grad_evals_cum`` counts per-sample gradients by the pair formula:
    N_j for each step plus 2 N_{j-1} for each pair formed at j, the second
    of which is the reused step gradient whenever the pair's smoothing
    level equals that step's.
    """

    k: int
    samples_cum: int
    grad_evals_cum: int
    f_value: Optional[float]
    gap: Optional[float]
    grad_norm: float
    step_norm: float
    wall_time: float
    gamma_k: Optional[float] = None


@dataclass
class RunResult:
    scheme: str
    records: list
    x_final: Array
    x_averaged: Optional[Array]
    termination: str               # budget | horizon
    theoretical_step: Optional[float] = None
    used_step: Optional[float] = None
    extras: dict = field(default_factory=dict)
    trace: Optional[list] = None

    @property
    def final_gap(self) -> Optional[float]:
        return self.records[-1].gap if self.records else None

    @property
    def total_samples(self) -> int:
        return self.records[-1].samples_cum if self.records else 0


# ---------------------------------------------------------------------------
# shared quasi-Newton loop
# ---------------------------------------------------------------------------


@dataclass
class _Plan:
    """One scheme's schedules for the shared loop.

    The raw gradient at k is ``evaluate_on_handle`` on S_k at smoothing
    level ``level(k)`` (None: unsmoothed); the step direction is that, plus
    mu(k) (x_k - x_0) when ``mu`` is set.  With ``pairs`` set, the pair at
    odd k is taken on S_{k-1} at level level(k)**delta with eta_i =
    level(k); with ``mu`` set it is a C-mode pair holding mu_i = mu(k - 1),
    the weight of the even step before it, since the weight changes only at
    even k.  With ``momentum`` set, the step lands on the reported iterate
    z_{k+1} = x_k - gamma_k H_k u_k and the next query point is
    x_{k+1} = z_{k+1} + momentum(k) (z_{k+1} - z_k); the loop calls it once
    per iteration, in order.  The averaged iterate is the mean of z_k
    weighted by ``weight(k)``, or by 1 under ``SolverConfig.average_iterates``.
    """

    start_k: int
    gamma: Callable[[int], float]
    batch_n: Callable[[int], int]
    level: Callable[[int], Optional[float]] = lambda k: None
    pairs: bool = True
    mu: Optional[Callable[[int], float]] = None
    momentum: Optional[Callable[[int], float]] = None
    weight: Optional[Callable[[int], float]] = None
    delta: float = 1.0
    delta_bar: float = 1.0


def _norm(v: Array) -> float:
    """np.linalg.norm of a 1-D float array (that is sqrt(v . v)), without
    its dispatch."""
    return math.sqrt(float(v @ v))


def _value_of(problem, x) -> Optional[float]:
    fn = getattr(problem, "true_value", None)
    return None if fn is None else float(fn(x))


def _gap_of(problem, f_value) -> Optional[float]:
    f_star = problem.meta.f_star
    if f_value is None or f_star is None:
        return None
    return f_value - f_star


def _qn_loop(problem, config: SolverConfig, plan: _Plan,
             theoretical_step: Optional[float]) -> RunResult:
    x = (np.zeros(problem.meta.n) if config.x0 is None
         else assert_finite(config.x0, "x0").copy())
    x0 = x  # the regularization center; no iterate is updated in place
    z = x  # the reported iterate; a sequence of its own only under momentum
    weight = plan.weight
    if weight is None and config.average_iterates:
        weight = lambda k: 1.0
    max_iters = MAX_ITERS_DEFAULT if config.max_iters is None else config.max_iters
    if config.horizon is not None:
        max_iters = min(max_iters, config.horizon)
    rng = RngStream(config.seed, stream_id=0)
    mem = LbfgsMemory(config.m)
    records: list[IterateRecord] = []
    trace = [] if config.record_trace else None
    samples = 0
    grad_evals = 0
    counters = dict.fromkeys(PAIR_COUNTERS, 0)
    # (x, handle, batch size, smoothing level, raw oracle output) of the
    # previous step
    prev: Optional[tuple] = None
    avg_acc = np.zeros_like(x)
    avg_weight = 0.0
    t0 = time.perf_counter()
    k = plan.start_k
    iters = 0
    termination = "horizon"

    while True:
        if iters >= max_iters:
            termination = "horizon"
            break

        if plan.pairs and k % 2 == 1 and prev is not None:
            x_prev, h_prev, n_prev, level_prev, g_prev = prev
            # a step at rounding scale carries no curvature information:
            # y would be pure cancellation noise, so skip the pair
            if _norm(x - x_prev) > 1e-13 * (1.0 + _norm(x)):
                eta = plan.level(k)
                level = None if eta is None else eta ** plan.delta
                # evaluate_on_handle is looked up at call time, so the
                # module global can be wrapped
                g_hi = evaluate_on_handle(problem, x, h_prev, eta=level)
                if level == level_prev:
                    g_lo = g_prev
                    counters["pair_grads_reused"] += 1
                else:
                    g_lo = evaluate_on_handle(problem, x_prev, h_prev, eta=level)
                grad_evals += 2 * n_prev
                mem.push(collect_pair(
                    x, x_prev, g_hi, g_lo, k,
                    mu_i=None if plan.mu is None else plan.mu(k - 1),
                    eta_i=eta, delta_bar=plan.delta_bar,
                ))
                counters["pairs_formed"] += 1
            else:
                counters["pairs_skipped"] += 1

        n_k = plan.batch_n(k)
        handle = rng.next_handle(n_k)
        level = plan.level(k)
        raw = evaluate_on_handle(problem, x, handle, eta=level)
        g = raw if plan.mu is None else raw + plan.mu(k) * (x - x0)
        samples += n_k
        grad_evals += n_k
        gamma = plan.gamma(k)
        # H is the identity while no pair is stored
        step_vec = gamma * (mem.apply(g) if mem.pairs else g)

        if weight is not None:
            w = weight(k)
            avg_acc += w * z
            avg_weight += w

        want_value = iters % config.value_every == 0
        f_value = _value_of(problem, z) if want_value else None
        records.append(IterateRecord(
            k, samples, grad_evals, f_value, _gap_of(problem, f_value),
            _norm(g), _norm(step_vec),
            time.perf_counter() - t0, gamma_k=gamma,
        ))
        if trace is not None:
            trace.append({"k": k, "x": x.copy(), "handle": handle,
                          "gamma": gamma, "pairs": list(mem.pairs)})

        prev = (x, handle, n_k, level, raw)
        z_next = x - step_vec
        x = z_next if plan.momentum is None else (
            z_next + plan.momentum(k) * (z_next - z))
        z = z_next
        iters += 1
        k += 1
        if config.sample_budget is not None and samples >= config.sample_budget:
            termination = "budget"
            break

    f_final = _value_of(problem, z)
    records.append(IterateRecord(
        k, samples, grad_evals, f_final, _gap_of(problem, f_final),
        float("nan"), 0.0, time.perf_counter() - t0,
    ))
    x_avg = avg_acc / avg_weight if avg_weight > 0 else None
    return RunResult(
        scheme=config.scheme, records=records, x_final=z, x_averaged=x_avg,
        termination=termination, theoretical_step=theoretical_step,
        used_step=records[0].gamma_k if records else None,
        extras=counters, trace=trace,
    )


# ---------------------------------------------------------------------------
# scheme setups
# ---------------------------------------------------------------------------


def _run_vs_sqn(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    theoretical = None
    batch = config.batch or BatchSchedule("geometric", N0=1, rate=0.95)
    if meta.tau is not None and meta.lipschitz_L is not None:
        bounds = theoretical_bounds("SC-smooth", m=config.m, n=meta.n,
                                    L=meta.lipschitz_L, tau=meta.tau)
        theoretical = 1.0 / (meta.lipschitz_L * bounds.lambda_hi)
        if meta.nu1 is not None and meta.nu1 > 0:
            floor = 2 * meta.nu1**2 * bounds.lambda_hi / (
                meta.tau**2 * bounds.lambda_lo)
            if batch.N0 < floor:
                batch = replace(batch, N0=int(math.ceil(floor)))
    if config.step is None and theoretical is None:
        missing = "tau" if meta.tau is None else "lipschitz_L"
        raise ConfigError("step", f"vs_sqn needs problem meta field {missing!r} "
                                  f"(or an explicit override)")
    step = config.step or ScalarSchedule("constant", theoretical)

    plan = _Plan(
        start_k=0,
        gamma=step.eval,
        batch_n=batch.eval,
    )
    return _qn_loop(problem, config, plan, theoretical)


def _run_svs_moreau(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    tau = getattr(problem, "sample_tau", None) or meta.tau
    L = getattr(problem, "sample_L", None) or meta.lipschitz_L
    if tau is None or L is None:
        raise ConfigError("step", "svs_sqn_moreau needs tau and lipschitz_L")
    n = meta.n
    cap = min(2.0 / L, (4.0 * (n + 1) ** 2 / tau**2) ** (1.0 / 3.0))
    if config.eta is None:
        eta = 0.99 * cap
    else:
        eta = config.eta.eval(0)
        if eta > cap:
            raise ConfigError(
                "eta", f"fixed envelope smoothing must satisfy eta <= "
                       f"min(2/L, (4(n+1)^2/tau^2)^(1/3)) = {cap:.6g}")
    bounds = theoretical_bounds("SC-Moreau", m=config.m, n=n, eta_k=eta, tau=tau)
    theoretical = eta / (4.0 * bounds.lambda_hi)
    step = config.step or ScalarSchedule("constant", theoretical)
    batch = config.batch or BatchSchedule("geometric", N0=1, rate=0.9)

    plan = _Plan(
        start_k=0,
        gamma=step.eval,
        batch_n=batch.eval,
        level=lambda k: eta,
    )
    return _qn_loop(problem, config, plan, theoretical)


def _run_svs_diminishing(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    if meta.tau is None:
        raise ConfigError("step", "svs_sqn_diminishing needs tau")
    n, tau, m = meta.n, meta.tau, config.m

    if config.eta is not None:
        eta_at = config.eta.eval
    else:
        eta_at = lambda k: eta_schedule_diminishing(n, tau, k)

    def lam_hi(eta):
        return ((n + m) / (eta * tau)) ** m

    if config.step is None:
        gamma_at = lambda k: eta_at(k) / lam_hi(eta_at(k))
    else:
        gamma_at = config.step.eval
    theoretical = eta_at(0) / lam_hi(eta_at(0))

    batch = config.batch
    if batch is None:
        n0 = 1
        if meta.nu1 is not None and meta.nu1 > 0:
            n0 = math.ceil(2 ** (4.0 / 3.0) * meta.nu1**2 * (n + 1) ** (1.0 / 3.0)
                           / tau ** (5.0 / 3.0))
        batch = BatchSchedule("polynomial", N0=max(1, n0),
                              exponent=1.5 + 2.0 / 3.0, offset=2)

    plan = _Plan(start_k=0, gamma=gamma_at, batch_n=batch.eval, level=eta_at)
    return _qn_loop(problem, config, plan, theoretical)


def _run_rvs_sqn(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    if meta.lipschitz_L is None and config.step is None:
        raise ConfigError("step", "rvs_sqn needs lipschitz_L or a step override")
    n, m, eps = meta.n, config.m, config.epsilon
    delta_bar = config.delta_bar if config.delta_bar is not None else (
        eps / (2.0 * (n + m)))
    mu_sched = config.mu or ScalarSchedule("power", base=1.0,
                                           exponent=-(1.0 - 2.0 * eps / 3.0))
    if mu_sched.kind != "power" or not mu_sched.eval(2) < mu_sched.eval(1):
        raise ConfigError("mu", "rvs_sqn needs a strictly decreasing power "
                                "schedule (exponent < 0, offset >= 0; epsilon < 1.5)")
    mu0 = mu_sched.eval(1)
    L = meta.lipschitz_L
    bounds0 = None
    theoretical = None
    if L is not None:
        bounds0 = theoretical_bounds("C-smooth", m=m, n=n, L=L, mu0=mu0,
                                     mu_k=mu0, delta_bar=delta_bar)
        # steplength ceiling gamma <= lo/(hi^2 (L+mu0)) evaluated at k=1
        theoretical = bounds0.lambda_lo / (bounds0.lambda_hi**2 * (L + mu0))
    step = config.step or ScalarSchedule(
        "power", base=1.0 / (2.0 * L), exponent=-eps)
    batch = config.batch or BatchSchedule("polynomial", N0=1,
                                          exponent=2.0 + eps, offset=0)
    if (meta.nu1 is not None and meta.nu1 > 0 and L is not None
            and meta.alpha_growth is not None and bounds0 is not None):
        lam = bounds0.lambda_hi * mu0 ** (delta_bar * (n + m))
        floor = ((L + mu0) * lam**2 * meta.nu1**2 * step.eval(1)
                 / (meta.alpha_growth * bounds0.lambda_lo * mu0))
        if batch.N0 < floor:
            batch = replace(batch, N0=int(math.ceil(floor)))

    plan = _Plan(
        start_k=1,
        gamma=step.eval,
        batch_n=batch.eval,
        mu=mu_sched.eval,
        delta_bar=delta_bar,
    )
    result = _qn_loop(problem, config, plan, theoretical)
    result.extras["delta_bar"] = delta_bar
    return result


def _run_rsvs_sqn(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    n, m, eps = meta.n, config.m, config.epsilon
    K = config.horizon
    eps_bar = 5.0 * eps / 3.0
    mu = config.mu.eval(0) if config.mu else K ** (-1.0 / 3.0)
    eta = config.eta.eval(0) if config.eta else K ** (-1.0 / 3.0)
    gamma = (config.step.eval(0) if config.step
             else config.c_gamma * K ** (-1.0 / 3.0 + eps_bar))
    delta = config.delta if config.delta is not None else eps / (n + m - 1)
    delta_bar = config.delta_bar if config.delta_bar is not None else (
        eps / (n + m))
    bounds = theoretical_bounds("C-smoothed", m=m, n=n, eta_k=eta, mu0=mu,
                                mu_k=mu, delta=delta, delta_bar=delta_bar)
    nu1 = meta.nu1 or 0.0
    alpha = meta.alpha_growth or meta.tau or 1.0
    C = 2.0 * (1.0 + mu * eta) * bounds.lambda_hi**2 * nu1**2 * gamma**2 / (
        alpha * eta)
    batch = config.batch or BatchSchedule("polynomial", N0=1,
                                          exponent=1.0 + eps, offset=1)
    ceiling = C / (bounds.lambda_lo * mu * gamma)
    if batch.N0 <= ceiling:
        raise ConfigError(
            "batch", f"averaging weights need N0 > C/(lo*mu*gamma) = "
                     f"{ceiling:.6g}; got N0 = {batch.N0}")

    plan = _Plan(
        start_k=0,
        gamma=lambda k: gamma,
        batch_n=batch.eval,
        level=lambda k: eta,
        mu=lambda k: mu,
        weight=lambda k: bounds.lambda_lo * mu * gamma - C / batch.eval(k),
        delta=delta, delta_bar=delta_bar,
    )
    result = _qn_loop(problem, config, plan, None)
    result.extras.update(
        {"mu": mu, "eta": eta, "gamma": gamma, "delta": delta,
         "delta_bar": delta_bar, "noise_constant_C": C}
    )
    return result


def _run_sqn_unit(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    theoretical = None
    if meta.tau is not None and meta.lipschitz_L is not None:
        bounds = theoretical_bounds("SC-smooth", m=config.m, n=meta.n,
                                    L=meta.lipschitz_L, tau=meta.tau)
        theoretical = 2.0 / (meta.lipschitz_L * bounds.lambda_hi)
    if config.step is None and theoretical is None:
        raise ConfigError("step", "sqn_unit needs tau/lipschitz_L or a step")
    step = config.step or ScalarSchedule("power", base=theoretical, exponent=-1.0)
    batch = config.batch or BatchSchedule("constant", N0=1)
    plan = _Plan(
        start_k=1,
        gamma=step.eval,
        batch_n=batch.eval,
    )
    return _qn_loop(problem, config, plan, theoretical)


def _run_sgd(problem, config: SolverConfig) -> RunResult:
    meta = problem.meta
    if config.step is None and meta.lipschitz_L is None:
        raise ConfigError("step", "sgd needs lipschitz_L or a step schedule")
    step = config.step or ScalarSchedule("constant", 1.0 / meta.lipschitz_L)
    batch = config.batch or BatchSchedule("constant", N0=1)
    plan = _Plan(
        start_k=1,
        gamma=step.eval,
        batch_n=batch.eval,
        pairs=False,
    )
    return _qn_loop(problem, config, plan, None)


def _run_apg(problem, config: SolverConfig) -> RunResult:
    """Two-sequence accelerated gradient with the compared scheme's batch
    schedule; momentum from tau/L when strongly convex, otherwise the
    vanishing-momentum sequence."""
    meta = problem.meta
    if meta.lipschitz_L is None and config.step is None:
        raise ConfigError("step", "apg_baseline needs lipschitz_L or a step")
    step = config.step or ScalarSchedule("constant", 1.0 / meta.lipschitz_L)
    batch = config.batch or BatchSchedule("constant", N0=1)
    if meta.tau is not None and meta.lipschitz_L is not None:
        root = math.sqrt(meta.lipschitz_L / meta.tau)
        beta = (root - 1.0) / (root + 1.0)
        momentum = lambda k: beta
    else:
        betas = _vanishing_momentum()
        momentum = lambda k: next(betas)
    plan = _Plan(
        start_k=0,
        gamma=step.eval,
        batch_n=batch.eval,
        pairs=False,
        momentum=momentum,
    )
    return _qn_loop(problem, config, plan, None)


def _vanishing_momentum():
    """beta_k = (t_k - 1)/t_{k+1} with t_0 = 1 and
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2."""
    t = 1.0
    while True:
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        yield (t - 1.0) / t_next
        t = t_next


_UNSMOOTHED = (None, "smoothable")

# per scheme: its setup, the batch kinds it takes, the problem smoothing
# kinds (ProblemMeta.smoothing) whose oracle answers the levels it queries,
# and the schedules it fixes from their k = 0 value, which must be constant
_SCHEMES = {
    "vs_sqn": (_run_vs_sqn, ("geometric", "constant"), _UNSMOOTHED, ()),
    "svs_sqn_moreau": (_run_svs_moreau, ("geometric", "constant"),
                       ("moreau",), ("eta",)),
    "svs_sqn_diminishing": (_run_svs_diminishing, ("polynomial", "constant"),
                            ("smoothable",), ()),
    "rvs_sqn": (_run_rvs_sqn, ("polynomial", "constant"), _UNSMOOTHED, ()),
    "rsvs_sqn": (_run_rsvs_sqn, ("polynomial", "constant"), ("smoothable",),
                 ("step", "mu", "eta")),
    "sgd": (_run_sgd, ("constant",), _UNSMOOTHED, ()),
    "sqn_unit": (_run_sqn_unit, ("constant",), _UNSMOOTHED, ()),
    "apg_baseline": (_run_apg, ("geometric", "polynomial", "constant"),
                     _UNSMOOTHED, ()),
}
SCHEMES = tuple(_SCHEMES)


def run(problem, config: SolverConfig) -> RunResult:
    """Run the configured scheme on a problem and return the full log.

    Raises ConfigError("scheme") when the problem's oracle does not take
    the smoothing levels the scheme queries (``ProblemMeta.smoothing``).
    """
    setup, _, fits, _ = _SCHEMES[config.scheme]
    if problem.meta.smoothing not in fits:
        raise ConfigError(
            "scheme", f"{config.scheme} needs a problem whose meta.smoothing is "
                      f"one of {fits}; this one's is {problem.meta.smoothing!r}")
    return setup(problem, config)
