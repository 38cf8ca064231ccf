"""Flat key=value experiment configuration.

A config file fully determines a run given the code version: one problem,
one solver, a seed list, and output/metric toggles.  Unknown keys, bad
values and keys that the chosen problem or schedule kind does not read are
rejected with the offending key named, before anything runs.
``KNOWN_KEYS`` lists every key and ``config_from_keys`` shows where each
one goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import BatchSchedule, RngStream, ScalarSchedule
from ..problems import (
    CompositeProblem,
    L1LocationProblem,
    LewisOvertonProblem,
    load_sparse_dataset,
    make_isotonic,
    make_synthetic_sparse_logistic,
    quad_make,
)
from ..smoothing import L1Function, ProxSpec
from ..solvers import ConfigError, SolverConfig


# per problem kind, the problem keys that build_problem reads for it; n is
# legal for every kind, since x0_value reads it
_LOGISTIC_KEYS = ("mu_l2", "lambda_l1", "l1_smoothing", "l1_eta")
PROBLEM_KEYS = {
    "quadratic_sc": ("n", "kappa", "noise"),
    "quadratic_c": ("n", "kappa", "noise"),
    "logistic_synth": ("n", "num_samples", "support_frac", "density",
                       *_LOGISTIC_KEYS),
    "logistic_file": ("n", "dataset_path", *_LOGISTIC_KEYS),
    "isotonic": ("n", "p", "iso_eta"),
    "lewis_overton": ("n", "lo_eta"),
    "l1_location": ("n", "loc_width", "loc_sc"),
    "l1_quadratic": ("n", "kappa", "noise", "l1_weight"),
}
PROBLEM_KINDS = tuple(PROBLEM_KEYS)

# per schedule kind, the keys it reads, named without the schedule's prefix
_SCALAR_READS = {"constant": ("base",), "power": ("base", "exponent", "offset"),
                 "horizon_constant": ("base", "exponent")}
_BATCH_READS = {"constant": ("n0",), "geometric": ("n0", "rate", "offset"),
                "polynomial": ("n0", "exponent", "offset")}

_STR_KEYS = {
    "name", "scheme", "problem", "batch_kind", "step_kind", "mu_kind",
    "eta_kind", "l1_smoothing", "dataset_path",
}
_INT_KEYS = {
    "m", "horizon", "budget", "seed", "repeats", "n", "num_samples", "p",
    "batch_n0", "batch_offset", "step_offset", "mu_offset", "eta_offset",
    "value_every",
}
_FLOAT_KEYS = {
    "kappa", "noise", "epsilon", "c_gamma", "delta", "delta_bar",
    "batch_rate", "batch_exponent", "step_base", "step_exponent", "mu_base",
    "mu_exponent", "eta", "eta_base", "eta_exponent", "mu_l2", "lambda_l1",
    "l1_eta", "density", "support_frac", "iso_eta", "lo_eta", "loc_width",
    "loc_sc", "l1_weight", "sparsity_threshold", "x0_value",
}
KNOWN_KEYS = _STR_KEYS | _INT_KEYS | _FLOAT_KEYS


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' starts a comment)."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown configuration key")
        try:
            if key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            else:
                out[key] = value
        except ValueError as exc:
            raise ConfigError(key, f"bad value {value!r}") from exc
    return out


def _schedule_from(keys: dict, prefix: str, batch: bool = False):
    """The schedule that the ``<prefix>_*`` keys give, or None if none is
    set.  Without ``<prefix>_kind`` a lone ``<prefix>_base`` is a constant;
    any other key needs the kind, and every key must be one its kind reads."""
    reads = _BATCH_READS if batch else _SCALAR_READS
    names = dict.fromkeys(name for kind_reads in reads.values() for name in kind_reads)
    given = {name: keys[f"{prefix}_{name}"] for name in names
             if f"{prefix}_{name}" in keys}
    kind = keys.get(f"{prefix}_kind")
    if kind is None:
        if not given:
            return None
        lone = [name for name in given if name != "base"]
        if lone:
            raise ConfigError(f"{prefix}_{lone[0]}", f"needs {prefix}_kind")
        kind = "constant"
    for name in given:  # an unknown kind is left to the constructor to reject
        if name not in reads.get(kind, names):
            raise ConfigError(
                f"{prefix}_{name}", f"a {kind} {prefix} schedule does not read it; "
                f"it reads {', '.join(f'{prefix}_{n}' for n in reads[kind])}")
    try:
        if batch:
            return BatchSchedule(kind, N0=given.pop("n0", 1), **given)
        return ScalarSchedule(kind, base=given.pop("base", 1.0), **given)
    except ValueError as exc:
        raise ConfigError(f"{prefix}_kind", str(exc)) from exc


@dataclass
class ExperimentConfig:
    """One runnable cell family: a problem, a solver, and seeds.

    ``problem_params`` holds only keys that ``build_problem`` reads for
    ``problem_kind`` (``PROBLEM_KEYS``).  ``solver_params`` holds the
    ``SolverConfig`` fields other than the seed, the starting point ``x0``
    among them.  Both are checked here, when the cell is built.
    """

    name: str
    problem_kind: str
    problem_params: dict = field(default_factory=dict)
    solver_params: dict = field(default_factory=dict)
    seeds: tuple = (0,)
    sparsity_threshold: Optional[float] = None

    def __post_init__(self):
        if self.problem_kind not in PROBLEM_KINDS:
            raise ConfigError("problem", f"unknown problem kind "
                                         f"{self.problem_kind!r}")
        reads = PROBLEM_KEYS[self.problem_kind]
        for key in self.problem_params:
            if key not in reads:
                raise ConfigError(key, f"problem {self.problem_kind} does not "
                                       f"read it; it reads {', '.join(reads)}")
        SolverConfig(**self.solver_params)

    def solver_config(self, seed: int) -> SolverConfig:
        return SolverConfig(seed=seed, **self.solver_params)


def config_from_keys(keys: dict) -> ExperimentConfig:
    keys = dict(keys)
    problem_kind = keys.get("problem")
    if problem_kind is None:
        raise ConfigError("problem", "missing (which problem to solve?)")
    scheme = keys.get("scheme")
    if scheme is None:
        raise ConfigError("scheme", "missing (which scheme to run?)")

    problem_keys = dict.fromkeys(k for ks in PROBLEM_KEYS.values() for k in ks)
    problem_params = {k: keys[k] for k in problem_keys if k in keys}

    solver_params: dict = {"scheme": scheme}
    for k in ("m", "horizon", "epsilon", "c_gamma", "delta", "delta_bar",
              "value_every"):
        if k in keys:
            solver_params[k] = keys[k]
    if "budget" in keys:
        solver_params["sample_budget"] = keys["budget"]
    batch = _schedule_from(keys, "batch", batch=True)
    if batch is not None:
        solver_params["batch"] = batch
    step = _schedule_from(keys, "step")
    if step is not None:
        solver_params["step"] = step
    mu = _schedule_from(keys, "mu")
    if mu is not None:
        solver_params["mu"] = mu
    if "eta" in keys:
        clash = [k for k in keys if k.startswith("eta_")]
        if clash:
            raise ConfigError(clash[0], "a constant eta is given; set eta or "
                                        "an eta schedule, not both")
        solver_params["eta"] = keys["eta"]
    else:
        eta_sched = _schedule_from(keys, "eta")
        if eta_sched is not None:
            solver_params["eta"] = eta_sched

    base_seed = keys.get("seed", 0)
    repeats = keys.get("repeats", 1)
    if repeats < 1:
        raise ConfigError("repeats", "must be >= 1")
    if "x0_value" in keys:
        if "n" not in keys:
            raise ConfigError("x0_value", "needs n, the length of the start point")
        solver_params["x0"] = np.full(keys["n"], keys["x0_value"], dtype=float)

    return ExperimentConfig(
        name=keys.get("name", f"{problem_kind}_{scheme}"),
        problem_kind=problem_kind,
        problem_params=problem_params,
        solver_params=solver_params,
        seeds=tuple(range(base_seed, base_seed + repeats)),
        sparsity_threshold=keys.get("sparsity_threshold"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_keys(parse_config_text(fh.read()))


def build_problem(cfg: ExperimentConfig, seed: int):
    """Instantiate the problem for one cell; construction randomness comes
    from a stream disjoint from the solver's."""
    rng = RngStream(seed, stream_id=1)
    p = cfg.problem_params
    kind = cfg.problem_kind
    if kind in ("quadratic_sc", "quadratic_c"):
        return quad_make(
            p.get("n", 20), p.get("kappa", 100.0),
            "SC" if kind == "quadratic_sc" else "C",
            rng, noise_half_width=p.get("noise", 0.5),
        )
    if kind == "logistic_synth":
        problem, _ = make_synthetic_sparse_logistic(
            p.get("n", 100), p.get("num_samples", 1000), rng,
            support_frac=p.get("support_frac", 0.1),
            density=p.get("density", 0.05),
            mu_l2=p.get("mu_l2", 0.0),
            lambda_l1=p.get("lambda_l1", 0.0),
            l1_smoothing=p.get("l1_smoothing", "none"),
            l1_eta=p.get("l1_eta", 1e-3),
        )
        return problem
    if kind == "logistic_file":
        path = p.get("dataset_path")
        if path is None:
            raise ConfigError("dataset_path", "required for logistic_file")
        return load_sparse_dataset(
            path, mu_l2=p.get("mu_l2", 0.0), lambda_l1=p.get("lambda_l1", 0.0),
            l1_smoothing=p.get("l1_smoothing", "none"),
            l1_eta=p.get("l1_eta", 1e-3),
        )
    if kind == "isotonic":
        return make_isotonic(p.get("n", 12), p.get("p", 24), rng,
                             eta=p.get("iso_eta", 1e-2))
    if kind == "lewis_overton":
        return LewisOvertonProblem(eta=p.get("lo_eta", 0.05))
    if kind == "l1_location":
        gen = rng.generator()
        center = gen.uniform(-2.0, 2.0, size=p.get("n", 10))
        return L1LocationProblem(center, noise_half_width=p.get("loc_width", 1.0),
                                 sc_weight=p.get("loc_sc", 0.0))
    # l1_quadratic: l1 piece + strongly convex sampled quadratic
    quad = quad_make(p.get("n", 10), p.get("kappa", 10.0), "SC", rng,
                     noise_half_width=p.get("noise", 0.5))
    return CompositeProblem(L1Function(p.get("l1_weight", 0.5)), quad,
                            prox_spec=ProxSpec())
