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
                      plus the averaged iterate
  sgd, sqn_unit, apg_baseline   comparison baselines

sgd takes that step with H = I and also reports the averaged iterate;
apg_baseline takes it with H = I from an extrapolated query point, through
the loop's momentum hook.  The averaged iterate is the plain mean of the
iterates the run steps from.

Each scheme's defaults have one home.  Its default batch schedule, a
function of epsilon alone, is in ``_SCHEMES``, and ``SolverConfig`` fills an
unset batch from it, so every check of the config sees it.  Its default
step, which the problem's constants decide, goes through ``_step``; an
explicit step or batch is honored as given (eta is one fixed level, mu
always the theorem's) and the theoretical steplength is recorded alongside
the used one.  A default step the problem's constants cannot give (no tau
or L, or not finite and > 0 where L, the eigenvalue bound or rsvs_sqn's
c_gamma K^(-1/3 + 5 epsilon/3) leaves float range) is ConfigError("step").

A run that leaves the paper's assumptions ends, as ``RunResult.termination``
says, rather than raising: "diverged" (a step is not finite), "secant" (s.y <=
0) or "prox-stall" (the inner prox solve stalls).  Its log closes at z_k, finite.
"""

from __future__ import annotations

import math
import struct
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    BatchSchedule,
    ConfigError,
    RngStream,
    ScalarSchedule,
    assert_finite,
    evaluate_on_handle,
)
from .hessian import (LbfgsMemory, SecantError, _or_inf, collect_pair,
                      theoretical_bounds)
from .smoothing import ProxSolverError, eta_schedule_diminishing

# RunResult.extras keys of the quasi-Newton loop's pair counters
PAIR_COUNTERS = ("pairs_formed", "pairs_skipped", "pair_grads_reused")
# RunResult.termination of a run that ends on a breakdown, by the exception
# that ends it; a non-finite step ends one "diverged"
BREAKDOWNS = {SecantError: "secant", ProxSolverError: "prox-stall"}


@dataclass
class SolverConfig:
    """One run of one scheme.

    Stopping rules: ``horizon`` is the iteration count K, honoured
    exactly; ``sample_budget`` stops the run once sum N_k reaches it.  Set
    at least one.  A budget-only run ends too, since every iteration draws
    at least one sample, and its log stays bounded (``IterateLog``).
    An unset batch is the scheme's default (``_SCHEMES``).  Every other
    rule (the default step, whether to average) is the scheme's own and
    lives in its plan: rsvs_sqn and sgd report the mean iterate, the rest
    do not average.
    """

    scheme: str
    m: int = 5
    horizon: Optional[int] = None          # iteration count K
    sample_budget: Optional[int] = None    # stop once sum N_k reaches this
    batch: Optional[BatchSchedule] = None  # unset: the scheme's default
    step: Optional[ScalarSchedule] = None  # rsvs_sqn takes only a constant
    eta: Optional[float] = None  # svs_sqn_moreau's and rsvs_sqn's fixed level
    epsilon: float = 0.1
    c_gamma: float = 1.0
    delta: Optional[float] = None
    delta_bar: Optional[float] = None
    seed: int = 0
    x0: Optional[Array] = None
    value_every: int = 1  # objective cadence in records; thinned rows all take one
    record_trace: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {self.scheme!r}; "
                                        f"choose one of {', '.join(SCHEMES)}")
        _, batch_kinds, _, default_batch, reads = _SCHEMES[self.scheme]
        for name in _SCHEME_FIELDS:  # class attributes hold the defaults
            if name not in reads and getattr(self, name) != getattr(SolverConfig, name):
                raise ConfigError(name, f"{self.scheme} does not read it; it reads "
                                        f"{', '.join(reads) or 'none of them'}")
        if self.m < 1:
            raise ConfigError("m", "memory depth must be >= 1")
        for name in ("epsilon", "c_gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(name, f"must be finite and > 0, "
                                        f"got {getattr(self, name)!r}")
        if self.batch is None:
            self.batch = default_batch(self.epsilon)
        if self.eta is not None and not 0 < self.eta < math.inf:
            raise ConfigError("eta", f"smoothing level must be finite and "
                                     f"> 0, got {self.eta!r}")
        if self.scheme == "rsvs_sqn":
            if self.horizon is None:
                raise ConfigError("horizon", "rsvs_sqn fixes its parameters "
                                             "from the horizon K; set horizon")
            if self.step is not None and self.step.kind != "constant":
                raise ConfigError("step", f"rsvs_sqn holds step fixed over the "
                                          f"run; got a {self.step.kind!r} schedule")
        if self.horizon is None and self.sample_budget is None:
            raise ConfigError("horizon", "set horizon or sample_budget")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
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
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")


@dataclass
class IterateRecord:
    """One log row: the state at iteration k before its update (the closing
    row holds the final iterate); under momentum, f_value and gap are taken
    at the reported iterate z_k, not at the query point.  A run keeps its
    rows in an ``IterateLog``, which builds each one when it is read.

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


_NAN = float("nan")
# an IterateLog row: the three counts, the six float fields, and a byte whose
# bits mark which of f_value, gap and gamma_k is None (73 bytes)
_ROW = struct.Struct("<3q6dB")
# a row's first eight fields, k to wall_time; gamma_k and the byte are skipped
_CSV_FIELDS = struct.Struct("<3q5d9x")
FULL_FIDELITY_ROWS = 10_000
THIN_FACTOR = 1.05


class IterateLog(Sequence):
    """A run's kept ``IterateRecord`` rows, each packed into 73 bytes of
    one buffer (``_ROW``) rather than held as a dataclass instance.  Rows
    thin as they arrive: the i-th row offered is kept when it is the closing
    row, when i < FULL_FIDELITY_ROWS, or when i is a mark
    ceil(FULL_FIDELITY_ROWS * THIN_FACTOR**j), j >= 1.  So a K-iteration run
    keeps all K + 1 rows up to K = 10^4, and 10^4 + (marks below K) + 1
    past that.  The writer asks ``keeps_next`` before it builds a row: a
    row the log keeps, and the closing row, it ``append``s; a row the log
    drops it only ``skip``s, so it computes none of that row's fields.
    Reading a row, by index from either end, by slice (a list) or by
    iteration, builds an equal ``IterateRecord``: ints for the counts,
    floats, and None where no value was taken; ``csv_fields`` reads the
    rows as tuples of the CSV's columns.
    """

    def __init__(self):
        self._rows = bytearray()
        self._offered = 0
        self._mark = FULL_FIDELITY_ROWS * THIN_FACTOR
        self._next_mark = math.ceil(self._mark)

    def keeps_next(self) -> bool:
        """Whether the next row offered is kept (a closing row always is)."""
        return self._offered < FULL_FIDELITY_ROWS or self._offered == self._next_mark

    def skip(self) -> None:
        """Offer a row that ``keeps_next`` says is dropped, without its fields."""
        self._offered += 1

    def append(self, k: int, samples_cum: int, grad_evals_cum: int,
               f_value: Optional[float], gap: Optional[float], grad_norm: float,
               step_norm: float, wall_time: float,
               gamma_k: Optional[float] = None) -> None:
        """Keep one row, its fields in ``IterateRecord``'s order."""
        if self._offered == self._next_mark:
            self._mark *= THIN_FACTOR
            self._next_mark = math.ceil(self._mark)
        self._offered += 1
        self._rows += _ROW.pack(
            k, samples_cum, grad_evals_cum, _NAN if f_value is None else f_value,
            _NAN if gap is None else gap, grad_norm, step_norm, wall_time,
            _NAN if gamma_k is None else gamma_k,
            (f_value is None) | (gap is None) << 1 | (gamma_k is None) << 2)

    def csv_fields(self) -> Iterator[tuple]:
        """Each row's first eight fields, the CSV's columns, NaN where None."""
        return _CSV_FIELDS.iter_unpack(self._rows)

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self._rows) // _ROW.size
        if not -n <= i < n:
            raise IndexError("IterateLog index out of range")
        return _record(_ROW.unpack_from(self._rows, i % n * _ROW.size))

    def __iter__(self):
        return map(_record, _ROW.iter_unpack(self._rows))


def _record(row: tuple) -> IterateRecord:
    k, samples, evals, f_value, gap, grad_norm, step_norm, wall, gamma, none = row
    return IterateRecord(k, samples, evals, None if none & 1 else f_value,
                         None if none & 2 else gap, grad_norm, step_norm, wall,
                         None if none & 4 else gamma)


@dataclass
class RunResult:
    """A finished run.  ``records`` is its ``IterateLog``: a sequence of
    the ``IterateRecord`` rows it kept, the first iteration's and the
    closing row among them."""

    scheme: str
    records: Sequence
    x_final: Array
    x_averaged: Optional[Array]
    # "horizon": the loop ran horizon iterations; "budget": sum N_k reached
    # sample_budget; else the breakdown "diverged" or a BREAKDOWNS value, at
    # the closing row's k, its message in extras["breakdown"]
    termination: str
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
    """One scheme's schedules for the shared loop, which takes N_k from
    the config's batch schedule and gamma_k from ``gamma`` (``_step``).

    The raw gradient at k is ``evaluate_on_handle`` on S_k at smoothing
    level ``level(k)`` (None: unsmoothed); the step direction is that, plus
    mu(k) (x_k - x_0) when ``mu`` is set.  With ``pairs`` set, the pair at
    odd k is taken on S_{k-1} at level level(k)**delta with eta_i =
    level(k); with ``mu`` set it is a C-mode pair holding mu_i = mu(k - 1),
    the weight of the even step before it, since the weight changes only at
    even k.  With ``momentum`` set, the step lands on the reported iterate
    z_{k+1} = x_k - gamma_k H_k u_k and the next query point is
    x_{k+1} = z_{k+1} + momentum(k) (z_{k+1} - z_k); the loop calls it once
    per iteration, in order.  With ``average`` set, the result also carries
    the mean of the iterates z_k the run steps from.  ``theoretical`` is the
    theorem steplength recorded beside the used one, and ``extras`` the
    scheme's constants, reported after the loop's pair counters.
    """

    start_k: int
    gamma: Callable[[int], float]
    level: Callable[[int], Optional[float]] = lambda k: None
    pairs: bool = True
    mu: Optional[Callable[[int], float]] = None
    momentum: Optional[Callable[[int], float]] = None
    average: bool = False
    delta: float = 1.0
    delta_bar: float = 1.0
    theoretical: Optional[float] = None
    extras: dict = field(default_factory=dict)


def _norm(v: Array) -> float:
    """The 2-norm of a 1-D float array, sqrt(v . v) without np.linalg.norm's
    dispatch; where v . v overflows, math.hypot's scaled sum."""
    sq = float(v @ v)
    return math.sqrt(sq) if math.isfinite(sq) else math.hypot(*v)


def _value_of(problem, x) -> Optional[float]:
    fn = getattr(problem, "true_value", None)
    return None if fn is None else float(fn(x))


def _gap_of(problem, f_value) -> Optional[float]:
    f_star = problem.meta.f_star
    if f_value is None or f_star is None:
        return None
    return f_value - f_star


@np.errstate(over="ignore", invalid="ignore")  # overflow ends a run "diverged"
def _qn_loop(problem, config: SolverConfig, plan: _Plan) -> RunResult:
    x = (np.zeros(problem.meta.n) if config.x0 is None
         else assert_finite(config.x0, "x0").copy())
    x0 = x  # the regularization center; no iterate is updated in place
    z = x  # the reported iterate; a sequence of its own only under momentum
    rng = RngStream(config.seed, stream_id=0)
    mem = LbfgsMemory(config.m)
    records = IterateLog()
    trace = [] if config.record_trace else None
    samples = 0
    grad_evals = 0
    counters = dict.fromkeys(PAIR_COUNTERS, 0)
    # (x, handle, batch size, smoothing level, raw oracle output) of the
    # previous step
    prev: Optional[tuple] = None
    avg_acc = np.zeros_like(x) if plan.average else None
    t0 = time.perf_counter()
    k = plan.start_k
    iters = 0
    termination = "horizon"
    extras = {}

    try:
        while iters != config.horizon:
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

            n_k = config.batch.eval(k)
            handle = rng.next_handle(n_k)
            level = plan.level(k)
            raw = evaluate_on_handle(problem, x, handle, eta=level)
            g = raw if plan.mu is None else raw + plan.mu(k) * (x - x0)
            samples += n_k
            grad_evals += n_k
            gamma = plan.gamma(k)
            # H is the identity while no pair is stored
            step_vec = gamma * (mem.apply(g) if mem.pairs else g)
            z_next = x - step_vec
            x_next = z_next if plan.momentum is None else (
                z_next + plan.momentum(k) * (z_next - z))
            # the run's one finite check, before row k: a non-finite gradient
            # or pair makes x_next non-finite, and a finite x_next has a finite
            # z_next; the entries are read only when x . x is not finite
            if (not math.isfinite(np.vdot(x_next, x_next))
                    and not np.isfinite(x_next).all()):
                termination = "diverged"
                extras["breakdown"] = f"the step from iteration {k} is not finite"
                break

            if avg_acc is not None:
                avg_acc += z

            if records.keeps_next():
                want_value = (iters % config.value_every == 0
                              or iters >= FULL_FIDELITY_ROWS)
                f_value = _value_of(problem, z) if want_value else None
                records.append(k, samples, grad_evals, f_value,
                               _gap_of(problem, f_value), _norm(g), _norm(step_vec),
                               time.perf_counter() - t0, gamma)
            else:  # a dropped row costs no objective, norm or clock reading
                records.skip()
            if trace is not None:
                trace.append({"k": k, "x": x.copy(), "handle": handle,
                              "gamma": gamma, "pairs": list(mem.pairs)})

            prev = (x, handle, n_k, level, raw)
            x, z = x_next, z_next
            iters += 1
            k += 1
            if config.sample_budget is not None and samples >= config.sample_budget:
                termination = "budget"
                break
    except tuple(BREAKDOWNS) as exc:
        termination = BREAKDOWNS[type(exc)]
        extras["breakdown"] = str(exc)

    # the closing row: z_k, the last iterate, finite after a breakdown too
    f_final = _value_of(problem, z)
    records.append(k, samples, grad_evals, f_final, _gap_of(problem, f_final),
                   _NAN, 0.0, time.perf_counter() - t0)
    # a run that broke down at its first iteration stepped from no iterate
    x_avg = None if avg_acc is None or not iters else avg_acc / iters
    return RunResult(
        scheme=config.scheme, records=records, x_final=z, x_averaged=x_avg,
        termination=termination, theoretical_step=plan.theoretical,
        used_step=records[0].gamma_k if records else None,
        extras={**counters, **plan.extras, **extras}, trace=trace,
    )


# ---------------------------------------------------------------------------
# scheme plans: each builds its _Plan from the problem and the config
# ---------------------------------------------------------------------------


def _step(config: SolverConfig, default: Optional[float],
          rule: Optional[Callable[[int], float]] = None,
          needs: str = "tau and lipschitz_L",
          cause: Optional[str] = None) -> Callable[[int], float]:
    """The run's steplength k -> gamma_k: the config's step schedule, else
    the scheme's default ``rule`` (None: the constant ``default``) once
    ``default``, its first steplength, is finite and > 0.  Otherwise
    ConfigError("step"), saying that the problem states no ``needs`` or
    that ``cause`` leaves float range: by default the theorem step's
    eigenvalue bound at m, and lipschitz_L for a 1/L default."""
    if config.step is not None:
        return config.step.eval
    if default is None:
        raise ConfigError("step", f"{config.scheme}'s default step needs problem "
                                  f"meta {needs}; set step")
    if not 0 < default < math.inf:
        if cause is None:
            cause = ("lipschitz_L leaves float range" if needs == "lipschitz_L" else
                     f"its eigenvalue bound leaves float range at m = {config.m}")
        raise ConfigError("step", f"{config.scheme}'s default step is "
                                  f"{default:.3g}: {cause}; set step")
    return rule or (lambda k: default)


def _sc_smooth_step(meta, m: int, c: float) -> Optional[float]:
    """c / (L lambda_hi), lambda_hi the SC-smooth eigenvalue bound at m, or
    None where the problem states no tau or L."""
    if meta.tau is None or meta.lipschitz_L is None:
        return None
    bounds = theoretical_bounds("SC-smooth", m=m, n=meta.n, L=meta.lipschitz_L,
                                tau=meta.tau)
    return c / (meta.lipschitz_L * bounds.lambda_hi)


def _plan_vs_sqn(problem, config: SolverConfig) -> _Plan:
    theoretical = _sc_smooth_step(problem.meta, config.m, 1.0)
    return _Plan(start_k=0, gamma=_step(config, theoretical), theoretical=theoretical)


def _plan_svs_moreau(problem, config: SolverConfig) -> _Plan:
    meta = problem.meta
    tau = getattr(problem, "sample_tau", None) or meta.tau
    L = getattr(problem, "sample_L", None) or meta.lipschitz_L
    if tau is None or L is None:
        raise ConfigError("scheme", "svs_sqn_moreau bounds eta by tau and "
                                    "lipschitz_L; this problem lacks one")
    n = meta.n
    cap = min(2.0 / L, (4.0 * (n + 1) ** 2 / tau**2) ** (1.0 / 3.0))
    eta = 0.99 * cap if config.eta is None else config.eta
    if eta > cap:
        raise ConfigError("eta", f"fixed envelope smoothing must satisfy eta <= "
                                 f"min(2/L, (4(n+1)^2/tau^2)^(1/3)) = {cap:.6g}")
    bounds = theoretical_bounds("SC-Moreau", m=config.m, n=n, eta_k=eta, tau=tau)
    theoretical = eta / (4.0 * bounds.lambda_hi)
    return _Plan(start_k=0, gamma=_step(config, theoretical), level=lambda k: eta,
                 theoretical=theoretical)


def _plan_svs_diminishing(problem, config: SolverConfig) -> _Plan:
    meta = problem.meta
    if meta.tau is None:
        raise ConfigError("step", "svs_sqn_diminishing needs tau")
    n, tau, m = meta.n, meta.tau, config.m
    eta_at = lambda k: eta_schedule_diminishing(n, tau, k)

    def theorem_step(k):
        eta = eta_at(k)
        return eta / theoretical_bounds("SC-Moreau", m=m, n=n, eta_k=eta,
                                        tau=tau).lambda_hi

    theoretical = theorem_step(0)
    return _Plan(start_k=0, gamma=_step(config, theoretical, theorem_step),
                 level=eta_at, theoretical=theoretical)


def _plan_rvs_sqn(problem, config: SolverConfig) -> _Plan:
    meta = problem.meta
    n, m, eps, L = meta.n, config.m, config.epsilon, meta.lipschitz_L
    step0 = None if L is None else 1.0 / (2.0 * L)
    # gamma_k = k^-epsilon / (2L), k >= 1
    gamma = _step(config, step0, lambda k: step0 * float(k) ** -eps,
                  needs="lipschitz_L")
    if not eps < 1.5:
        raise ConfigError("epsilon", "rvs_sqn's weight mu_k = k^-(1 - 2 epsilon/3) "
                                     "decreases only for epsilon < 1.5")
    delta_bar = eps / (2.0 * (n + m))
    mu_sched = ScalarSchedule("power", base=1.0, exponent=-(1.0 - 2.0 * eps / 3.0))
    mu0 = mu_sched.eval(1)
    theoretical = None
    if L is not None:
        bounds0 = theoretical_bounds("C-smooth", m=m, n=n, L=L, mu0=mu0,
                                     mu_k=mu0, delta_bar=delta_bar)
        # steplength ceiling gamma <= lo/(hi^2 (L+mu0)) evaluated at k=1
        theoretical = bounds0.lambda_lo / (bounds0.lambda_hi**2 * (L + mu0))
    return _Plan(start_k=1, gamma=gamma, mu=mu_sched.eval, delta_bar=delta_bar,
                 theoretical=theoretical, extras={"delta_bar": delta_bar})


def _plan_rsvs_sqn(problem, config: SolverConfig) -> _Plan:
    n, m, eps = problem.meta.n, config.m, config.epsilon
    K = config.horizon
    mu = K ** (-1.0 / 3.0)
    eta = mu if config.eta is None else config.eta
    default = config.c_gamma * _or_inf(pow, K, -1.0 / 3.0 + 5.0 * eps / 3.0)
    gamma = _step(config, default,
                  cause="c_gamma K^(-1/3 + 5 epsilon/3) leaves float range")(0)
    delta = config.delta if config.delta is not None else eps / (n + m - 1)
    delta_bar = config.delta_bar if config.delta_bar is not None else (
        eps / (n + m))
    return _Plan(
        start_k=0, gamma=lambda k: gamma, level=lambda k: eta, mu=lambda k: mu,
        average=True, delta=delta, delta_bar=delta_bar,
        extras={"mu": mu, "eta": eta, "gamma": gamma, "delta": delta,
                "delta_bar": delta_bar},
    )


def _plan_sqn_unit(problem, config: SolverConfig) -> _Plan:
    theoretical = _sc_smooth_step(problem.meta, config.m, 2.0)
    # gamma_k = theoretical / k, k >= 1
    gamma = _step(config, theoretical, lambda k: theoretical * float(k) ** -1.0)
    return _Plan(start_k=1, gamma=gamma, theoretical=theoretical)


def _plan_sgd(problem, config: SolverConfig) -> _Plan:
    L = problem.meta.lipschitz_L
    gamma = _step(config, None if L is None else 1.0 / L, needs="lipschitz_L")
    return _Plan(start_k=1, gamma=gamma, pairs=False, average=True)


def _plan_apg(problem, config: SolverConfig) -> _Plan:
    """Two-sequence accelerated gradient with the compared scheme's batch
    schedule; momentum from tau/L when strongly convex, otherwise the
    vanishing-momentum sequence."""
    meta = problem.meta
    L = meta.lipschitz_L
    gamma = _step(config, None if L is None else 1.0 / L, needs="lipschitz_L")
    if meta.tau is not None and L is not None:
        root = math.sqrt(L / meta.tau)
        beta = (root - 1.0) / (root + 1.0)
        momentum = lambda k: beta
    else:
        betas = _vanishing_momentum()
        momentum = lambda k: next(betas)
    return _Plan(start_k=0, gamma=gamma, pairs=False, momentum=momentum)


def _vanishing_momentum():
    """beta_k = (t_k - 1)/t_{k+1} with t_0 = 1 and
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2."""
    t = 1.0
    while True:
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        yield (t - 1.0) / t_next
        t = t_next


_UNSMOOTHED = (None, "smoothable")
_UNIT_BATCH = lambda eps: BatchSchedule("constant")

# SolverConfig fields that only some schemes read; unread, they keep defaults
_SCHEME_FIELDS = ("m", "eta", "epsilon", "c_gamma", "delta", "delta_bar")

# per scheme: the function that makes its plan, the batch kinds it takes, the
# problem smoothing kinds (ProblemMeta.smoothing) whose oracle answers the
# levels it queries, its default batch schedule as a function of epsilon
# (the paper's N_k; one of the kinds it takes), and the _SCHEME_FIELDS it reads
_SCHEMES = {
    "vs_sqn": (_plan_vs_sqn, ("geometric", "constant"), _UNSMOOTHED,
               lambda eps: BatchSchedule("geometric", rate=0.95), ("m",)),
    "svs_sqn_moreau": (_plan_svs_moreau, ("geometric", "constant"), ("moreau",),
                       lambda eps: BatchSchedule("geometric", rate=0.9),
                       ("m", "eta")),
    "svs_sqn_diminishing": (
        _plan_svs_diminishing, ("polynomial", "constant"), ("smoothable",),
        lambda eps: BatchSchedule("polynomial", exponent=1.5 + 2.0 / 3.0, offset=2),
        ("m",)),
    "rvs_sqn": (_plan_rvs_sqn, ("polynomial", "constant"), _UNSMOOTHED,
                lambda eps: BatchSchedule("polynomial", exponent=2.0 + eps),
                ("m", "epsilon")),
    "rsvs_sqn": (_plan_rsvs_sqn, ("polynomial", "constant"), ("smoothable",),
                 lambda eps: BatchSchedule("polynomial", exponent=1.0 + eps, offset=1),
                 _SCHEME_FIELDS),
    "sgd": (_plan_sgd, ("constant",), _UNSMOOTHED, _UNIT_BATCH, ()),
    "sqn_unit": (_plan_sqn_unit, ("constant",), _UNSMOOTHED, _UNIT_BATCH, ("m",)),
    "apg_baseline": (_plan_apg, ("geometric", "polynomial", "constant"),
                     _UNSMOOTHED, _UNIT_BATCH, ()),
}
SCHEMES = tuple(_SCHEMES)


def run(problem, config: SolverConfig) -> RunResult:
    """Run the configured scheme on a problem and return the full log; a
    breakdown ends the run with its ``termination``.

    Raises ConfigError("scheme") when the problem's oracle does not take
    the smoothing levels the scheme queries (``ProblemMeta.smoothing``),
    and ConfigError("x0") when the start point is not of length n.
    """
    plan_of, _, fits, *_ = _SCHEMES[config.scheme]
    if problem.meta.smoothing not in fits:
        raise ConfigError(
            "scheme", f"{config.scheme} needs a problem whose meta.smoothing is "
                      f"one of {fits}; this one's is {problem.meta.smoothing!r}")
    n = problem.meta.n
    if config.x0 is not None and np.shape(config.x0) != (n,):
        raise ConfigError("x0", f"start point of shape {np.shape(config.x0)}; "
                                f"the problem has n = {n}")
    return _qn_loop(problem, config, plan_of(problem, config))
