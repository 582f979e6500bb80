"""Experiment configuration files: what a config may say and what it means.

A config is a flat INI file of [problem], [optimizer], [run] and an
optional [sweep] (a sweep's axis and values), read, checked and resolved
here and nowhere else. Each rule has one home, by what it reads:

- one key's value alone: that key's parser in ``_SCHEMAS`` (its type,
  finite numbers, allowed names and bounds), which refuses a value in
  the file as ``<path>: section.key: ...`` and a sweep value as
  ``<axis>: ...``. Unknown sections and keys are refused too: a
  misspelled key would silently corrupt a sweep;
- the keys a section requires, a [sweep] section's when the file has
  one, empty or not: ``_REQUIRED`` alone, applied by ``load_config``;
- what a subcommand reads (``_READERS`` alone) and how its conditions
  are drawn, the [problem] keys problem.name requires included:
  ``conditions``;
- the settings of one run together, the keys ``optimizer.auto`` reads
  or computes included (``AUTO_MODES``): ``resolve_run``.

``conditions`` resolves every condition before ``runner`` runs the first
seed, so a config that exits 2 runs nothing.

A known key that the chosen algorithm or kind does not run is dropped,
not refused: ``source`` on ``rmsprop``, ``r`` and ``t_thresh`` outside
``large_step``, ``run.burn_in_c`` without burn-in, or ``beta_spec`` under
``kind = identity``. That lets one config serve a sweep over
``optimizer.kind`` or ``optimizer.algorithm``; ``resolve_run`` leaves
each dropped key unset. No key sets the burn-in length W or the
hallucination count S: they follow from eta (``burn_in_length``, scaled
by ``run.burn_in_c``, and ``hallucination_count``).
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import ConfigError, InvalidParamError, PrecondSgdError
from .estimation import beta_schedule, burn_in_length, hallucination_count
from .optimizer import ETA_DECAYS, Run, first_order_params, second_order_params
from .precond import SOURCES, VARIANTS, PreconditionerConstants, PreconditionerKind, estimates
from .problems import PROBLEMS


class Algorithm(NamedTuple):
    source: str  # default preconditioner source
    source_configurable: bool  # optimizer.source may override it
    burn_in: bool  # W estimate-only samples precede the run, when the source is estimated
    large_steps: bool


# The values of optimizer.algorithm: each is optimizer.run_sgd with one of these settings.
ALGORITHMS = {
    "sgd": Algorithm("idealized", False, False, False),
    "preconditioned_sgd": Algorithm("idealized", True, False, False),
    "rmsprop": Algorithm("estimated", False, False, False),
    "rmsprop_burnin": Algorithm("estimated", False, True, False),
    "large_step": Algorithm("estimated", True, True, True),
}


class AutoMode(NamedTuple):
    requires: tuple[str, ...]  # optimizer keys the calculator must be given
    reads: tuple[str, ...]  # optional optimizer keys it reads
    computes: tuple[str, ...]  # optimizer keys it sets, so a config may not


# The optimizer.auto modes: optimizer.first_order_params (exact or inexact)
# and optimizer.second_order_params, by the config keys each takes. As in
# any run, second_order's W and S follow from the eta and r it computes.
_FIRST_ORDER = AutoMode(("l", "c3", "lambda_minus", "delta_f", "tau"), (), ("eta",))
AUTO_MODES = {
    "first_order_exact": _FIRST_ORDER,
    "first_order_inexact": _FIRST_ORDER,
    "second_order": AutoMode(("l", "rho", "c3", "c4", "lambda_minus", "tau", "delta"),
                             ("nu1", "nu2", "m_bound", "omega", "k_const"), ("eta", "r", "t_thresh")),
}

# The optimizer keys that only the optimizer.auto calculators read.
AUTO_KEYS = tuple(dict.fromkeys(key for mode in AUTO_MODES.values() for key in mode.requires + mode.reads))


def _parse_float(s):
    try:
        value = float(s)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {s!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _parse_int(s):
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {s!r}") from exc


def _parse_bool(s):
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_str(s):
    return s.strip()


def _parse_list(s, parse_item=_parse_str, what="values"):
    items = [v.strip() for v in s.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list of {what}")
    return [parse_item(v) for v in items]


_parse_float_list = partial(_parse_list, parse_item=_parse_float, what="numbers")
_parse_int_list = partial(_parse_list, parse_item=_parse_int, what="integers")


def parse_beta_spec(s):
    """'0.99' -> ('fixed', 0.99); 'schedule' / 'schedule:C' -> ('schedule', C)."""
    s = s.strip()
    head, colon, rest = s.partition(":")
    if head.rstrip() == "schedule":
        c = _parse_float(rest) if colon else 1.0
        if c <= 0.0:
            raise ConfigError("beta schedule constant must be positive")
        return ("schedule", c)
    v = _parse_float(s)
    if not 0.0 <= v < 1.0:
        raise ConfigError(f"fixed beta must be in [0, 1), got {v}")
    return ("fixed", v)


def _checked(parse, ok, refusal, s):
    """``parse(s)``, refused with ``refusal.format(value)`` unless ``ok(value)``; bound by ``partial`` in ``_SCHEMAS``."""
    value = parse(s)
    if not ok(value):
        raise ConfigError(refusal.format(value))
    return value


def _parse_seeds(s):
    """run.seeds: each >= 0 and occurring once."""
    seeds = _parse_int_list(s)
    if min(seeds) < 0:
        raise ConfigError(f"seed {min(seeds)} is negative")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError(f"seed {repeated[0]} occurs more than once")
    return seeds


def _parse_axis(s):
    """sweep.axis: a 'section.key' that each condition of a run reads."""
    axis = s.strip()
    section, _, key = axis.partition(".")
    if key not in _SCHEMAS.get(section, ()):
        raise ConfigError(f"unknown sweep axis {axis!r} (expected 'section.key')")
    readers, each_condition = _READERS.get(axis) or _READERS.get(f"[{section}]", (("run",), True))
    if "run" not in readers or not each_condition:
        raise ConfigError(f"{axis}: no condition of a sweep reads it, so it cannot be a sweep axis")
    return axis


def _parse_etas(s):
    """run.etas: at least two stepsizes, each positive and occurring once."""
    etas = _parse_float_list(s)
    if len(etas) < 2:
        raise ConfigError("estimation scaling needs at least two stepsizes")
    for eta in etas:
        if etas.count(eta) > 1:
            raise ConfigError(f"eta {eta} occurs more than once")
        if not eta > 0.0:
            raise ConfigError(f"eta {eta} must be positive")
    return etas


_SCHEMAS = {
    "problem": {
        "name": partial(_checked, _parse_str, PROBLEMS.__contains__,
                        f"unknown problem {{!r}} (expected one of {tuple(PROBLEMS)})"),
        "c": _parse_float,
        "zeta": _parse_float,
        "dim": _parse_int,
        "h_diag": _parse_float_list,
        "noise_diag": _parse_float_list,
        "x0": _parse_float_list,
        "n": _parse_int,
        "d": _parse_int,
        "data_seed": _parse_int,
        "label_noise": _parse_float,
        "batch": _parse_int,
        "path": _parse_str,
    },
    "optimizer": {
        "algorithm": partial(_checked, _parse_str, ALGORITHMS.__contains__, "unknown algorithm {!r}"),
        "kind": partial(_checked, _parse_str, VARIANTS.__contains__, "unknown kind {!r}"),
        "source": partial(_checked, _parse_str, SOURCES.__contains__, "unknown source {!r}"),
        "eta": _parse_float,
        "eta_decay": partial(_checked, _parse_str, ETA_DECAYS.__contains__, "unknown schedule {!r}"),
        "beta_spec": parse_beta_spec,
        "epsilon": _parse_float,
        "exponent": _parse_float,
        "r": _parse_float,
        "t_thresh": _parse_int,
        "bias_corrected": _parse_bool,
        "auto": partial(_checked, _parse_str, AUTO_MODES.__contains__, "unknown mode {!r}"),
        # Every calculator input is a positive constant; k_const is also below 1, the probability delta at most 1.
        **dict.fromkeys(AUTO_KEYS, partial(_checked, _parse_float, lambda v: v > 0.0, "must be in (0, inf), got {}")),
        "k_const": partial(_checked, _parse_float, lambda v: 0.0 < v < 1.0, "must be in (0, 1.0), got {}"),
        "delta": partial(_checked, _parse_float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1.0], got {}"),
    },
    "run": {
        "seeds": _parse_seeds,
        **dict.fromkeys(("t", "log_every"), partial(_checked, _parse_int, lambda v: v >= 1, "must be >= 1")),
        "track_est_error": _parse_bool,
        "lambda_min_every": partial(_checked, _parse_int, lambda v: v >= 0, "must be >= 0"),
        "escape_level": _parse_float,
        "f_threshold": _parse_float,
        "etas": _parse_etas,
        **dict.fromkeys(("est_window_factor", "burn_in_c"),
                        partial(_checked, _parse_float, lambda v: v > 0.0, "must be positive, got {}")),
    },
    "sweep": {
        "axis": _parse_axis,
        "values": _parse_list,  # each value kept as written: it names its condition
    },
}

_REQUIRED = {"problem": ("name",), "optimizer": ("algorithm",), "run": ("seeds", "t"), "sweep": ("axis", "values")}

# Each part of a config that not every condition reads: the subcommands
# that read it, and whether each of their conditions reads it (else the
# subcommand reads it once, for all its conditions). A subcommand refuses
# a part it does not read, naming the first in this order; a sweep axis
# must be a part that each condition of a run reads.
_READERS = {
    **dict.fromkeys(("run.etas", "run.est_window_factor"), (("estimation-scaling",), False)),
    "[sweep]": (("run",), False),
    **dict.fromkeys(("optimizer.auto", "run.escape_level", "run.f_threshold", "run.lambda_min_every",
                     "run.log_every", "run.track_est_error"), (("run",), True)),
    "run.seeds": (("run", "estimation-scaling"), False),
}


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment configuration."""

    problem: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def clone(self) -> "ExperimentConfig":
        return copy.deepcopy(self)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(dict.fromkeys(("problem", "optimizer", "run"), {}))  # always; [sweep] only when the file has it
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: file not found or unreadable")

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SCHEMAS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        schema = _SCHEMAS[section]
        out = getattr(cfg, section)
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            try:
                out[key] = schema[key](raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}: {section}.{key}: {exc}") from exc
    for section in parser.sections():
        for key in _REQUIRED[section]:
            if key not in getattr(cfg, section):
                raise ConfigError(f"{path}: missing required key {section}.{key}")
    return cfg


def _safe_name(value: str) -> str:
    return "".join(c if (c.isalnum() or c in "._=-") else "-" for c in value)


def _problem_entry(problem: dict):
    """The ``problems.PROBLEMS`` entry of problem.name; a [problem] key it requires that is unset is a ConfigError."""
    name = problem["name"]
    for key in PROBLEMS[name].requires:
        if key not in problem:
            raise ConfigError(f"problem.{key}: required for {name}")
    return PROBLEMS[name]


def _auto_mode(optimizer: dict):
    """optimizer.auto, or None; an auto input set without it is a ConfigError."""
    auto = optimizer.get("auto")
    if auto is None:
        for key in AUTO_KEYS:
            if key in optimizer:
                raise ConfigError(f"optimizer.{key}: read only by optimizer.auto, which is not set")
    return auto


def conditions(cfg: ExperimentConfig, command: str) -> list[tuple[str, ExperimentConfig, Run]]:
    """The (run_id, cfg, run) conditions that ``command`` runs, each over all the seeds of cfg.run.

    ``run`` runs cfg as "run" or, when [sweep] holds a key, one
    "<axis>=<value>" per value of [sweep] as written; ``estimation-scaling``
    runs one "eta <eta>" per eta (``_scaling_conditions``). The config as
    written must pass the rules on keys together (a sweep value cannot make
    up what it lacks), then a part that only another subcommand reads
    (section.key or [section]) is refused; then each condition is drawn and
    resolved against its own problem, in turn, so every error of the config
    comes before the first seed runs. An error of a sweep value's problem or
    run is prefixed with its "<axis>=<value>".
    """
    _problem_entry(cfg.problem)
    _auto_mode(cfg.optimizer)
    for part, (readers, _) in _READERS.items():
        section, _, key = part.strip("[]").partition(".")
        if command not in readers and (key in getattr(cfg, section) if key else getattr(cfg, section)):
            raise ConfigError(f"{part}: read only by {' and '.join(readers)}, not by {command}")
    if command == "estimation-scaling":
        drawn = _scaling_conditions(cfg)
    elif cfg.sweep:
        drawn = _sweep_conditions(cfg)
    else:
        drawn = [("run", cfg)]

    def resolved(run_id, sub):
        try:
            return resolve_run(sub, _problem_entry(sub.problem).build(sub.problem))
        except (PrecondSgdError, OSError) as exc:
            if not cfg.sweep:
                raise
            raise type(exc)(f"{run_id}: {exc}") from exc

    return [(run_id, sub, resolved(run_id, sub)) for run_id, sub in drawn]


def _sweep_conditions(cfg: ExperimentConfig):
    """One condition per value of sweep.axis; a value that repeats one before it, or writes its files, is a ConfigError."""
    axis = cfg.sweep["axis"]
    section, _, key = axis.partition(".")
    parse = _SCHEMAS[section][key]
    done = []
    for value in cfg.sweep["values"]:
        sub = cfg.clone()
        try:
            getattr(sub, section)[key] = parse(value)
        except ConfigError as exc:
            raise ConfigError(f"{axis}: {exc}") from exc
        if any(getattr(sub, section)[key] == getattr(other, section)[key] for _, other in done):
            raise ConfigError(f"sweep.values: {axis} value {value} occurs more than once")
        name = _safe_name(f"{axis}={value}")
        clash = [run_id.split("=", 1)[1] for run_id, _ in done if _safe_name(run_id) == name]
        if clash:
            raise ConfigError(f"sweep.values: {axis} values {clash[0]} and {value} would both write {name}_seed*.csv")
        done.append((f"{axis}={value}", sub))
        yield done[-1]


def _scaling_conditions(cfg: ExperimentConfig):
    """The estimation-scaling study's conditions: one per eta of run.etas, largest first.

    Each runs RMSProp with burn-in, W = ceil(c_w eta^(-2/3)) with c_w
    from run.burn_in_c, under the fixed beta(eta) = 1 - C eta^(2/3), C
    from optimizer.beta_spec = schedule:C (1 if unset), tracking
    ||Ahat_t - A(x_t)|| over ~est_window_factor EMA time constants: it
    replaces optimizer.algorithm, eta and beta_spec, and run.t (by the
    window, if longer), track_est_error and log_every (``_READERS`` keeps
    these two and optimizer.auto out of its config). A fixed beta_spec
    (one beta cannot serve several etas), kind = identity, an eta_decay
    other than none (each row is fitted against its constant eta), no
    run.etas, an eta with no beta(eta) in (0, 1), and more than one seed
    are ConfigErrors.
    """
    if "etas" not in cfg.run:
        raise ConfigError("run.etas: estimation scaling needs at least two stepsizes")
    etas = cfg.run["etas"]
    mode, c_sched = cfg.optimizer.get("beta_spec", ("schedule", 1.0))
    if mode == "fixed":
        raise ConfigError("optimizer.beta_spec: one fixed beta cannot serve several etas; set schedule:C or nothing")
    betas = {}
    for eta in etas:
        try:
            betas[eta] = beta_schedule(eta, c_sched)
        except InvalidParamError:
            raise ConfigError(f"run.etas: eta {eta} must be positive with beta = 1 - C eta^(2/3) in (0, 1), "
                              f"C = {c_sched}") from None
    if cfg.optimizer.get("kind") == "identity":
        raise ConfigError("optimizer.kind: identity has no estimate for estimation scaling to measure")
    if cfg.optimizer.get("eta_decay", "none") != "none":
        raise ConfigError("optimizer.eta_decay: estimation scaling runs each eta as a constant stepsize")
    if len(cfg.run["seeds"]) > 1:
        raise ConfigError(f"run.seeds: estimation scaling runs one seed, got {len(cfg.run['seeds'])}")
    factor = cfg.run.get("est_window_factor", 40.0)

    for eta in sorted(etas, reverse=True):
        beta = betas[eta]
        sub = cfg.clone()
        sub.optimizer.update(algorithm="rmsprop_burnin", eta=eta, beta_spec=("fixed", beta))
        sub.run.update(t=max(cfg.run["t"], math.ceil(factor / (1.0 - beta))), track_est_error=True, log_every=1)
        yield f"eta {eta}", sub


def resolve_run(cfg: ExperimentConfig, problem) -> Run:
    """The run a condition asks for, each setting read once and checked by ``Run``.

    The ``Run`` sets only what the algorithm runs: W = ``burn_in_length``
    (eta, run.burn_in_c) only with burn-in, r and t_thresh only for
    ``large_step``, S = ``hallucination_count`` (r, eta) only when it
    hallucinates, beta or beta_c only when estimating; plus the
    f_thresh/g_thresh of ``auto = second_order``. An auto input set
    without ``optimizer.auto`` is a ConfigError; under it, so is setting a
    key its mode computes (``AUTO_MODES``; second_order also computes a
    fixed beta, and the first-order modes replace the required run.t with
    their T) or an auto input the mode does not read, or leaving out one
    it requires; so is a run needing the exact_G oracle the problem lacks.
    """
    ocfg, rcfg = cfg.optimizer, cfg.run
    algo = ocfg["algorithm"]
    spec = ALGORITHMS[algo]
    variant = "identity" if algo == "sgd" else ocfg.get("kind", "full_matrix")
    kind = PreconditionerKind(variant, ocfg.get("epsilon", 0.0), ocfg.get("exponent", -0.5))
    source = ocfg.get("source", spec.source) if spec.source_configurable else spec.source
    estimating = estimates(kind, source)
    track_est_error = rcfg.get("track_est_error", False)
    if kind.variant != "identity" and (source == "idealized" or track_est_error) and not problem.has_exact_g:
        needs = "idealized preconditioning" if source == "idealized" else "est_error tracking"
        raise ConfigError(f"problem.name: {cfg.problem['name']} has no exact_G oracle, which {needs} needs")

    mode, value = ocfg.get("beta_spec", (None, None))
    if mode is None and estimating:
        raise ConfigError("optimizer.beta_spec: required for estimated preconditioning")
    beta, beta_c = (value, None) if mode == "fixed" else (None, value)

    eta, r, t_thresh = (ocfg.get(key) for key in ("eta", "r", "t_thresh"))
    T = rcfg["t"]
    # The calculators' optional constants, passed only when set: each default is the calculator's own.
    burn_in_c = {"c_w": rcfg["burn_in_c"]} if "burn_in_c" in rcfg else {}
    f_thresh = g_thresh = None

    auto = _auto_mode(ocfg)
    if auto is not None:
        calc = AUTO_MODES[auto]
        for key in calc.computes:
            if key in ocfg:
                raise ConfigError(f"optimizer.{key}: computed by optimizer.auto={auto}, so it may not be set")
        for key in AUTO_KEYS:
            if key in ocfg and key not in calc.requires + calc.reads:
                raise ConfigError(f"optimizer.{key}: not read by optimizer.auto={auto}")
        if auto == "second_order" and beta is not None:
            raise ConfigError("optimizer.beta_spec: a fixed beta is computed by optimizer.auto=second_order; "
                              "set schedule:C or nothing")
        for key in calc.requires:
            if key not in ocfg:
                raise ConfigError(f"optimizer.{key}: required for auto={auto}")
    if auto in ("first_order_exact", "first_order_inexact"):
        eta, T = first_order_params(
            ocfg["l"], ocfg["c3"], ocfg["lambda_minus"], ocfg["delta_f"], ocfg["tau"],
            exact=auto == "first_order_exact",
        )
    elif auto == "second_order":
        consts = PreconditionerConstants(
            nu1=ocfg.get("nu1", 1.0), nu2=ocfg.get("nu2", 1.0), c3=ocfg["c3"], c4=ocfg["c4"],
            lambda_minus=ocfg["lambda_minus"], M_bound=ocfg.get("m_bound", math.sqrt(ocfg["c3"])),
        )
        found = second_order_params(
            consts, ocfg["l"], ocfg["rho"], ocfg["tau"], ocfg["delta"],
            **{key: ocfg[key] for key in ("omega", "k_const") if key in ocfg},
            **({"beta_c": beta_c} if beta_c is not None else {}),
        )
        eta, beta, beta_c, r, t_thresh = found["eta"], found["beta"], None, found["r"], found["t_thresh"]
        f_thresh, g_thresh = found["f_thresh"], found["g_thresh"]
    if eta is None:
        raise ConfigError("optimizer.eta: required (or supply optimizer.auto)")

    W = burn_in_length(eta, **burn_in_c) if spec.burn_in and source == "estimated" else 0
    if not spec.large_steps:
        r = t_thresh = None
    elif r is None or t_thresh is None:
        raise ConfigError("optimizer.r and optimizer.t_thresh: required for large_step")
    S = hallucination_count(r, eta) if spec.large_steps and estimating else None
    if not estimating:
        beta = beta_c = None

    x0 = cfg.problem.get("x0", [0.0] * problem.dim)
    if len(x0) != problem.dim:
        raise ConfigError("problem.x0: length must equal the problem dimension")

    return Run(
        kind=kind, source=source, bias_corrected=ocfg.get("bias_corrected", False), T=T,
        eta=eta, eta_decay=ocfg.get("eta_decay", "none"), beta=beta, beta_c=beta_c, r=r, t_thresh=t_thresh,
        W=W, S=S, f_thresh=f_thresh, g_thresh=g_thresh, x0=x0, log_every=rcfg.get("log_every", 1),
        track_est_error=track_est_error, lambda_min_every=rcfg.get("lambda_min_every", 0),
    )
