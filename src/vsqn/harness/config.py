"""Flat key=value experiment configuration.

A config file fully determines a run given the code version: one problem,
one solver, a seed list, and output/metric toggles.  ``KNOWN_KEYS`` lists
every key and ``config_from_keys`` maps each to its field.  Each rule lives
with the value it governs: the fields a schedule kind reads in ``core``, the
fields a scheme reads in ``solvers``, a problem kind's keys and defaults in
``PROBLEM_KEYS``.  Only the file's own rules live here, in
``_schedule_from``, ``config_from_keys`` and ``_check_sizes`` (no array made
from n, p, num_samples or repeats may pass 256 MiB).  Every fault is a
``ConfigError`` naming its key, raised before anything runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core import (BATCH_READS, SCALAR_READS, BatchSchedule, ConfigError,
                    RngStream, ScalarSchedule)
from ..problems import (
    CompositeProblem,
    L1LocationProblem,
    LewisOvertonProblem,
    load_sparse_dataset,
    make_isotonic,
    make_synthetic_sparse_logistic,
    quad_make,
)
from ..smoothing import L1Function
from ..solvers import SolverConfig


# per problem kind, the keys that build_problem reads and their defaults; n
# is legal for every kind, since x0_value reads it (None: read from the file);
# the logistic kinds pass theirs to the builder by name
_LOGISTIC_KEYS = {"mu_l2": 0.0, "lambda_l1": 0.0, "l1_smoothing": "none",
                  "l1_eta": 1e-3}
PROBLEM_KEYS = {
    "quadratic_sc": {"n": 20, "kappa": 100.0, "noise": 0.5},
    "quadratic_c": {"n": 20, "kappa": 100.0, "noise": 0.5},
    "logistic_synth": {"n": 100, "num_samples": 1000, "support_frac": 0.1,
                       "density": 0.05, **_LOGISTIC_KEYS},
    "logistic_file": {"n": None, "dataset_path": None, **_LOGISTIC_KEYS},
    "isotonic": {"n": 12, "p": 24, "iso_eta": 1e-2},
    "lewis_overton": {"n": 2, "lo_eta": 0.05},
    "l1_location": {"n": 10, "loc_width": 1.0, "loc_sc": 0.0},
    "l1_quadratic": {"n": 10, "kappa": 10.0, "noise": 0.5, "l1_weight": 0.5},
}
PROBLEM_KINDS = tuple(PROBLEM_KEYS)
# per problem kind, the key behind each builder or constructor argument whose
# name differs from it, so that a ConfigError naming the argument names the key
_ARGUMENT_KEYS = {
    "quadratic_sc": {"noise_half_width": "noise"},
    "quadratic_c": {"noise_half_width": "noise"},
    "isotonic": {"eta": "iso_eta"},
    "lewis_overton": {"eta": "lo_eta"},
    "l1_location": {"noise_half_width": "loc_width", "sc_weight": "loc_sc"},
    "l1_quadratic": {"noise_half_width": "noise", "lam": "l1_weight"},
}

# the SolverConfig field each solver key sets, beside the scheme, the seed,
# the schedules and x0; its inverse names the key of a field's ConfigError
_SOLVER_KEYS = {"m": "m", "horizon": "horizon", "eta": "eta", "epsilon": "epsilon",
                "c_gamma": "c_gamma", "delta": "delta", "delta_bar": "delta_bar",
                "value_every": "value_every", "budget": "sample_budget"}
_FIELD_KEYS = {field: key for key, field in _SOLVER_KEYS.items()}

_STR_KEYS = {
    "name", "scheme", "problem", "batch_kind", "step_kind", "l1_smoothing",
    "dataset_path",
}
_INT_KEYS = {
    "m", "horizon", "budget", "seed", "repeats", "n", "num_samples", "p",
    "batch_n0", "batch_offset", "step_offset", "value_every",
}
_FLOAT_KEYS = {
    "kappa", "noise", "epsilon", "c_gamma", "delta", "delta_bar",
    "batch_rate", "batch_exponent", "step_base", "step_exponent", "eta",
    "mu_l2", "lambda_l1", "l1_eta", "density", "support_frac", "iso_eta",
    "lo_eta", "loc_width", "loc_sc", "l1_weight", "sparsity_threshold",
    "x0_value",
}
KNOWN_KEYS = _STR_KEYS | _INT_KEYS | _FLOAT_KEYS


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' starts a comment); a key may
    be set once."""
    out: dict = {}
    lines: dict = {}
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
        if key in lines:
            raise ConfigError(key, f"set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
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
    any other key needs the kind, and every key must be one its kind reads.
    Field N0's key is ``batch_n0``: ``<prefix>_<field>`` in lower case."""
    reads = BATCH_READS if batch else SCALAR_READS
    key = lambda name: _schedule_key(prefix, name)
    names = dict.fromkeys(name for kind_reads in reads.values() for name in kind_reads)
    given = {name: keys[key(name)] for name in names if key(name) in keys}
    kind = keys.get(f"{prefix}_kind")
    if kind is None:
        if not given:
            return None
        lone = [name for name in given if name != "base"]
        if lone:
            raise ConfigError(key(lone[0]), f"needs {prefix}_kind")
        kind = "constant"
    for name in given:  # an unknown kind is left to the constructor to reject
        if name not in reads.get(kind, names):
            raise ConfigError(key(name), f"a {kind} {prefix} schedule does not "
                              f"read it; it reads {', '.join(map(key, reads[kind]))}")
    if batch:
        return keyed(key, BatchSchedule, kind, **given)
    return keyed(key, ScalarSchedule, kind, **{"base": 1.0, **given})


def _schedule_key(prefix: str, name: str) -> str:
    """The config key of a schedule field: ``<prefix>_<name>`` in lower case."""
    return f"{prefix}_{name.lower()}"


def batch_key(name: str) -> str:
    """The config key of batch schedule field ``name``."""
    return _schedule_key("batch", name)


def keyed(key, call, *args, catch=ConfigError, note="", **kwargs):
    """``call(*args, **kwargs)``, its ``catch`` error renamed to
    ``key(field)``, the config key that holds the field it names, and its
    message followed by ``note``."""
    try:
        return call(*args, **kwargs)
    except catch as exc:
        raise ConfigError(key(exc.field),
                          str(exc).removeprefix(f"{exc.field}: ") + note) from exc


@dataclass
class ExperimentConfig:
    """One runnable cell family: a problem, a solver, and seeds.  Its
    name is the stem of its output files, so it holds no path separator.

    ``problem_params`` holds only keys that ``build_problem`` reads for
    ``problem_kind`` (``PROBLEM_KEYS``).  ``solver_params`` holds the
    ``SolverConfig`` fields other than the seed, the starting point ``x0``
    among them.  Both are checked here, when the cell is built, and so are
    the size keys (n >= 1, and no array the builder makes from them past
    256 MiB) and the sparsity threshold.  The solver settings are checked
    once, as one ``SolverConfig`` at the smallest seed: a run's config is
    built only as the run starts, and seed >= 0 is the one check that
    reads the seed.  A run bounded by its horizon K alone is also checked
    to stay within its batch schedule's ``MAX_BATCH`` at k = K, which
    bounds the last iteration of every scheme; the schedule is the
    scheme's default where the config sets none, and the error then says
    so.  A run that a budget may end first is checked as it goes (``cli``).
    """

    name: str
    problem_kind: str
    problem_params: dict = field(default_factory=dict)
    solver_params: dict = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    sparsity_threshold: Optional[float] = None

    def __post_init__(self):
        if self.name in ("", ".", "..") or os.path.basename(self.name) != self.name:
            raise ConfigError("name", f"must be a plain file stem, got {self.name!r}")
        if self.problem_kind not in PROBLEM_KINDS:
            raise ConfigError("problem", f"unknown problem kind "
                                         f"{self.problem_kind!r}")
        reads = PROBLEM_KEYS[self.problem_kind]
        for key in self.problem_params:
            if key not in reads:
                raise ConfigError(key, f"problem {self.problem_kind} does not "
                                       f"read it; it reads {', '.join(reads)}")
        _check_sizes(self.problem_kind, self.problem_params)
        n = self.problem_params.get("n")
        if self.problem_kind == "lewis_overton" and n not in (None, 2):
            raise ConfigError("n", f"lewis_overton is a 2-D problem; got n = {n}")
        t = self.sparsity_threshold
        if t is not None and not 0 <= t < np.inf:
            raise ConfigError("sparsity_threshold", f"must be finite and >= 0, "
                                                    f"got {t!r}")
        # seed >= 0 is the one SolverConfig check that reads the seed, and
        # the smallest seed decides it, so one config checks every seed; a
        # range's smallest is one of its ends, found without walking it
        seeds = self.seeds
        if isinstance(seeds, range) and seeds:
            seeds = (seeds[0], seeds[-1])
        config = keyed(lambda name: _FIELD_KEYS.get(name, name),
                       self.solver_config, min(seeds, default=0))
        if config.sample_budget is None:  # then SolverConfig saw a horizon
            note = ("" if "batch" in self.solver_params else
                    f" ({config.scheme}'s default batch schedule; set batch_kind)")
            keyed(batch_key, config.batch.eval, config.horizon, note=note)

    def solver_config(self, seed: int) -> SolverConfig:
        return SolverConfig(seed=seed, **self.solver_params)


# per problem kind, the dimensions (by key) of each array of doubles that its
# builder makes beyond length-n vectors, which every kind makes (the start point)
_ARRAYS = {"quadratic_sc": (("n", "n"),), "quadratic_c": (("n", "n"),),
           "l1_quadratic": (("n", "n"),), "isotonic": (("p", "n"), ("n", "n")),
           "logistic_synth": (("num_samples", "n"),)}
_MAX_ARRAY_BYTES = 2**28


def _check_sizes(problem_kind, params: dict) -> None:
    """A given n must be >= 1, and no array that the kind's builder or the
    start point makes from the size keys may pass ``_MAX_ARRAY_BYTES``: the
    key of its larger dimension is named (n on a tie) before numpy fails.
    ``ProblemMeta`` checks n >= 1 for problems built outside a config."""
    sizes = {**PROBLEM_KEYS.get(problem_kind, {}), **params}
    if sizes.get("n") is None:  # logistic_file reads n from its file
        return
    if sizes["n"] < 1:
        raise ConfigError("n", f"dimension must be >= 1, got {sizes['n']}")
    for dims in (*_ARRAYS.get(problem_kind, ()), ("n",)):
        size = 8 * math.prod(sizes[d] for d in dims)
        if size <= _MAX_ARRAY_BYTES:
            continue
        key = max(dims, key=lambda d: (sizes[d], d == "n"))
        cap = _MAX_ARRAY_BYTES // (size // sizes[key] ** dims.count(key))
        raise ConfigError(key, f"{problem_kind} makes a {size / 2**30:.3g} GiB array "
                               f"({' x '.join(dims)}) at {key} = {sizes[key]}, past "
                               f"the {_MAX_ARRAY_BYTES // 2**20} MiB limit ({key} <= "
                               f"{math.isqrt(cap) if dims == ('n', 'n') else cap})")


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
    solver_params.update({field: keys[key] for key, field in _SOLVER_KEYS.items()
                          if key in keys})
    for prefix in ("batch", "step"):
        schedule = _schedule_from(keys, prefix, batch=prefix == "batch")
        if schedule is not None:
            solver_params[prefix] = schedule

    base_seed = keys.get("seed", 0)
    repeats = keys.get("repeats", 1)
    if not 1 <= repeats <= _MAX_ARRAY_BYTES // 8:  # 8 bytes a seed
        raise ConfigError("repeats", f"must lie in [1, {_MAX_ARRAY_BYTES // 8}] (the "
                                     f"seeds' 256 MiB limit); got {repeats}")
    if "x0_value" in keys:
        if "n" not in keys:
            raise ConfigError("x0_value", "needs n, the length of the start point")
        if not np.isfinite(keys["x0_value"]):
            raise ConfigError("x0_value", f"must be finite, got {keys['x0_value']!r}")
        _check_sizes(problem_kind, problem_params)
        solver_params["x0"] = np.full(keys["n"], keys["x0_value"], dtype=float)

    return ExperimentConfig(
        name=keys.get("name", f"{problem_kind}_{scheme}"),
        problem_kind=problem_kind,
        problem_params=problem_params,
        solver_params=solver_params,
        seeds=range(base_seed, base_seed + repeats),
        sparsity_threshold=keys.get("sparsity_threshold"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_keys(parse_config_text(fh.read()))


def build_problem(cfg: ExperimentConfig, seed: int):
    """Instantiate the problem for one cell; construction randomness comes
    from a stream disjoint from the solver's.  A constructor's ConfigError
    names the key of its argument (``_ARGUMENT_KEYS``)."""
    kind = cfg.problem_kind
    keys = _ARGUMENT_KEYS.get(kind, {})
    return keyed(lambda name: keys.get(name, name), _build, kind,
                 {**PROBLEM_KEYS[kind], **cfg.problem_params}, seed)


def _build(kind: str, p: dict, seed: int):
    rng = RngStream(seed, stream_id=1)
    if kind in ("quadratic_sc", "quadratic_c"):
        return quad_make(p["n"], p["kappa"], "SC" if kind == "quadratic_sc" else "C",
                         rng, noise_half_width=p["noise"])
    if kind == "logistic_synth":
        problem, _ = make_synthetic_sparse_logistic(
            p.pop("n"), p.pop("num_samples"), rng, **p)
        return problem
    if kind == "logistic_file":
        if p["dataset_path"] is None:
            raise ConfigError("dataset_path", "required for logistic_file")
        return load_sparse_dataset(p.pop("dataset_path"), **p)
    if kind == "isotonic":
        return make_isotonic(p["n"], p["p"], rng, eta=p["iso_eta"])
    if kind == "lewis_overton":
        return LewisOvertonProblem(eta=p["lo_eta"])
    if kind == "l1_location":
        gen = rng.generator()
        center = gen.uniform(-2.0, 2.0, size=p["n"])
        return L1LocationProblem(center, noise_half_width=p["loc_width"],
                                 sc_weight=p["loc_sc"])
    # l1_quadratic: l1 piece + strongly convex sampled quadratic
    quad = quad_make(p["n"], p["kappa"], "SC", rng, noise_half_width=p["noise"])
    return CompositeProblem(L1Function(p["l1_weight"]), quad)
