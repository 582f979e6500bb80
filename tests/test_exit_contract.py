"""The CLI's exit-code contract, as a property of drawn configs.

Each example is an INI config drawn key by key from ``config._SCHEMAS``:
a coherent base that a run can take, a part of ``config._READERS`` given to
the subcommand that reads it, and up to two edge values (0, negatives,
nan, inf, text, empty and repeated lists, an unknown key or section, or a
part of ``_READERS`` given to a subcommand that does not read it). Each
algorithm x kind x ``optimizer.auto`` mode is its own test. The config runs
through ``cli.main`` in this process with ``--jobs 1``, and:

- the exit code is 0, 2 or 3, and no exception escapes;
- on 2, the output directory does not exist;
- on 3, ``run`` and ``sweep`` have written every seed's trajectory and no
  summary, and ``estimation-scaling`` has written nothing.

Every size a drawn config implies is kept small: ``run.t``, ``w``, ``s``,
r/eta, ``n``, ``d``, the seeds, the T and W the ``run.etas`` imply, and the
T, W and S of each ``optimizer.auto`` mode (the calculators' inputs come
from the golden configs). A large size runs for long before it can fail:
a run of ``run.t = 10**12`` steps takes days, so it is not drawn, and each
example checks the events its conditions imply before it runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import zlib

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lemmas import PROPERTY
from precondsgd import ConfigError, PrecondSgdError, cli, config
from precondsgd.config import _READERS, _SCHEMAS, ALGORITHMS, AUTO_KEYS, AUTO_MODES, _safe_name
from precondsgd.precond import VARIANTS, estimates
from precondsgd.problems import PROBLEMS

COMMANDS = ("run", "sweep", "estimation-scaling")

# The calculator inputs of each mode, from the golden configs: first order
# derives T = 2 (32 inexact), second order eta ~ 0.005, so W, S and
# t_thresh stay small with or without the optional constants.
AUTO_VALUES = {
    None: {},
    "first_order_exact": {"l": "1", "c3": "1", "lambda_minus": "1", "delta_f": "1", "tau": "1"},
    "second_order": {"l": "1", "rho": "1", "c3": "2", "c4": "0.5", "lambda_minus": "0.5", "tau": "100", "delta": "1",
                     "omega": "1", "nu1": "1.2", "nu2": "0.9", "m_bound": "1.5", "k_const": "0.2"},
}
AUTO_VALUES["first_order_inexact"] = AUTO_VALUES["first_order_exact"]

BAD_NUMBER = ("nan", "inf", "-inf", "x")

# section.key -> (values a run can take, edge values). A key whose valid
# value depends on the problem's dimension or the auto mode gets it from
# valid_values; its entry here holds only the edges.
VALUES = {
    "problem.name": (tuple(PROBLEMS), ("bogus",)),
    "problem.c": (("3",), ("1", "0", "-1", *BAD_NUMBER)),
    "problem.zeta": (("0.5",), ("0", "3", "-1")),
    "problem.dim": (("1", "2"), ("0", "-1", "1.5")),
    "problem.h_diag": ((), ("", "1,1,1,1", "nan,1", "1e308,1e308")),
    "problem.noise_diag": ((), ("", "-1,1", "0,0")),
    "problem.x0": ((), ("", "0,0,0,0", "inf,0", "1e6,1e6")),
    "problem.n": (("20", "60"), ("0", "-5", "1")),
    "problem.d": (("2", "3"), ("0", "-2")),
    "problem.data_seed": (("0", "3"), ("-1",)),
    "problem.label_noise": (("0", "0.1"), ("0.5", "-0.1", "nan")),
    "problem.batch": (("5", "20"), ("0", "-1", "61")),
    "problem.path": (("{tmp}/data.csv",), ("{tmp}/labels.csv", "{tmp}/header.csv", "{tmp}/empty.csv",
                                           "{tmp}/missing.csv", "{tmp}")),
    "optimizer.algorithm": (tuple(ALGORITHMS), ("bogus",)),
    "optimizer.kind": (VARIANTS, ("bogus",)),
    "optimizer.source": (("idealized", "estimated"), ("bogus",)),
    "optimizer.eta": (("0.01", "0.05"), ("0", "-0.01", "1e6", *BAD_NUMBER)),
    "optimizer.eta_decay": (("none", "inv_sqrt"), ("bogus",)),
    "optimizer.beta_spec": (("0.9", "schedule", "schedule:0.5"),
                            ("0", "1", "-0.1", "schedule:0", "schedule:100", "schedule:x", "schedule2", "nan")),
    "optimizer.epsilon": (("1e-8", "0.1"), ("0", "-1", "nan")),
    "optimizer.exponent": (("-0.5", "-1"), ("0", "2")),
    "optimizer.r": (("0.05", "0.1"), ("0", "-0.1")),
    "optimizer.t_thresh": (("1", "5"), ("0", "-1")),
    "optimizer.bias_corrected": (("true", "false"), ("maybe",)),
    "optimizer.auto": ((), ("bogus",)),
    **{f"optimizer.{key}": ((), ("0", "-1", "1.5" if key in ("delta", "k_const") else "inf")) for key in AUTO_KEYS},
    "run.seeds": (("0", "2", "0,1"), ("", "-1", "1,1", "x", "0,-2")),
    "run.t": (("1", "5", "20"), ("0", "-1")),
    "run.log_every": (("1", "3"), ("0", "-1")),
    "run.track_est_error": (("true", "false"), ("maybe",)),
    "run.lambda_min_every": (("0", "1", "3"), ("-1",)),
    "run.escape_level": (("-0.01", "0.5"), ("nan", "inf")),
    "run.f_threshold": (("0.1",), ("-inf",)),
    "run.etas": (("0.1,0.2", "0.3,0.1,0.2"), ("", "0.1", "0.1,0.1", "0,0.1", "-0.1,0.2", "nan,0.1", "0.9,0.5")),
    "run.est_window_factor": (("2", "10"), ("0", "-1")),
    "run.burn_in_c": (("0.5", "2"), ("0", "-1")),
    "sweep.axis": ((), ("run.seeds", "run.etas", "bogus", "problem", "problem.bogus", "sweep.axis")),
    "sweep.values": ((), ("", "a/b,a-b")),
}


def is_axis(part):
    try:
        config._parse_axis(part)
    except ConfigError:
        return False
    return True


# The sweep axes: each key that ``_READERS`` lets every condition of a sweep read.
AXES = tuple(filter(is_axis, VALUES))

# The dimension of each problem whose [problem] keys do not set it (data.csv has two feature columns).
DIMS = {"saddle": 2, "counterexample": 1, "logistic_csv": 2}
# The [problem] keys each problem reads but does not require.
OPTIONAL_PROBLEM_KEYS = {"logistic_synthetic": ("x0", "label_noise", "batch"), "logistic_csv": ("x0", "batch")}

# Each example's events, over its conditions and seeds, at most: a few hundred per condition.
MAX_EVENTS = 3000
EXAMPLES = 5  # per algorithm x kind x auto mode


def test_every_key_has_edge_values():
    assert set(VALUES) == {f"{section}.{key}" for section, schema in _SCHEMAS.items() for key in schema}
    assert all(edges for _, edges in VALUES.values())
    assert {part for part in _READERS if not part.startswith("[")} <= set(VALUES)


def dim_values(dim):
    """The [problem] lists of a quadratic of dimension ``dim``, and an x0 of that length."""
    return {key: ",".join(values[:dim]) for key, values in
            (("h_diag", ("1", "0.5", "-0.2")), ("noise_diag", ("0.5", "0.2", "0.1")), ("x0", ("0.1", "0.05", "-0.1")))}


def valid_values(part, auto, dim):
    """The values of section.key ``part`` that a run can take, under optimizer.auto ``auto`` at dimension ``dim``."""
    key = part.partition(".")[2]
    if key in AUTO_KEYS:
        return (AUTO_VALUES[auto].get(key, "1"),)
    if key == "auto":
        return tuple(AUTO_MODES)
    return (dim_values(dim)[key],) if key in ("h_diag", "noise_diag", "x0") else VALUES[part][0]


@st.composite
def drawn_configs(draw, algorithm, kind, auto):
    """(command, {section: {key: raw value}}) with a base a run can take, then up to two edge values."""
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(tuple(PROBLEMS)))
    problem = {"name": name}
    first = [key for key in PROBLEMS[name].requires if VALUES[f"problem.{key}"][0]]  # the rest follow from dim
    for key in first:
        problem[key] = draw(st.sampled_from(VALUES[f"problem.{key}"][0]))
    dim = int(problem.get("dim") or problem.get("d") or DIMS[name])
    then = [key for key in PROBLEMS[name].requires if key not in first]
    for key in then + draw(st.lists(st.sampled_from(OPTIONAL_PROBLEM_KEYS.get(name, ("x0",))), unique=True)):
        problem[key] = draw(st.sampled_from(valid_values(f"problem.{key}", auto, dim)))
    ini = {"problem": problem, "optimizer": {"algorithm": algorithm, "kind": kind}, "run": {}}
    optimizer = ini["optimizer"]
    # A key the algorithm or kind does not run is dropped, so beta_spec, r and t_thresh are always there.
    schedules = auto == "second_order" or command == "estimation-scaling"  # where a fixed beta is refused
    optimizer["beta_spec"] = draw(st.sampled_from(VALUES["optimizer.beta_spec"][0][1 if schedules else 0:]))
    if auto is None:
        base = ("eta", "r", "t_thresh")
    else:
        calc = AUTO_MODES[auto]
        optimizer["auto"] = auto
        base = (*calc.requires, *(draw(st.lists(st.sampled_from(calc.reads), unique=True)) if calc.reads else ()))
        base += () if auto == "second_order" else ("r", "t_thresh")
    for key in base:
        optimizer[key] = draw(st.sampled_from(valid_values(f"optimizer.{key}", auto, dim)))
    computed = AUTO_MODES[auto].computes if auto else ()
    optional = [part for part in VALUES if part.startswith(("optimizer.", "run."))
                and command in _READERS.get(part, (COMMANDS, True))[0]
                and part.partition(".")[2] not in (*AUTO_KEYS, *computed, *optimizer, "auto", "seeds", "etas")]
    for part in draw(st.lists(st.sampled_from(optional), unique=True, max_size=6)):
        section, _, key = part.partition(".")
        ini[section][key] = draw(st.sampled_from(valid_values(part, auto, dim)))
    ini["run"].setdefault("t", draw(st.sampled_from(VALUES["run.t"][0])))
    ini["run"]["seeds"] = draw(st.sampled_from(VALUES["run.seeds"][0][:2 if command == "estimation-scaling" else 3]))
    if command == "estimation-scaling":
        ini["run"]["etas"] = draw(st.sampled_from(VALUES["run.etas"][0]))
    elif command == "sweep":
        axis = draw(st.sampled_from(AXES))
        values = draw(st.lists(st.sampled_from(valid_values(axis, auto, dim)), min_size=1, max_size=3, unique=True))
        ini["sweep"] = {"axis": axis, "values": ", ".join(values)}
    # Up to two edge values: of a key the config sets, and of any key, or an unknown key or section.
    present = tuple(f"{section}.{key}" for section, keys in ini.items() for key in keys)
    for part in draw(st.lists(st.sampled_from(present), max_size=1)) + draw(
            st.lists(st.sampled_from((*VALUES, "unknown key", "unknown section")), max_size=1)):
        section, _, key = part.partition(".")
        if part == "unknown key":
            ini[draw(st.sampled_from(tuple(ini)))]["bogus"] = "1"
        elif part == "unknown section":
            ini["bogus"] = {"key": "1"}
        else:
            ini.setdefault(section, {})[key] = draw(st.sampled_from(VALUES[part][1] + VALUES[part][0]))
    return command, ini


def ini_text(ini, tmp):
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value.format(tmp=tmp)}\n" for key, value in keys.items())
                   for section, keys in ini.items())


def events(run):
    """The events a run makes: W burn-in samples, T steps and, when it hallucinates (t_thresh set and
    estimating), S+1 samples per large step."""
    hallucinating = run.t_thresh is not None and estimates(run.kind, run.source)
    return run.W + run.T + (-(-run.T // run.t_thresh) * (run.S + 1) if hallucinating else 0)


def planned(path, command):
    """The (run_id, seeds) of each condition that ``command`` would run, or None if the config cannot run."""
    try:
        cfg = config.load_config(path)
        runs = config.conditions(cfg, command)
    except (PrecondSgdError, OSError):
        return None
    seeds = cfg.run["seeds"]
    for run_id, _, run in runs:
        assert events(run) * len(seeds) * len(runs) <= MAX_EVENTS, f"{run_id}: {events(run)} events per seed"
    return [(run_id, seeds) for run_id, _, _ in runs]


def write_data_files(tmp):
    for name, text in (("data.csv", "x_0,x_1,label\n1.0,0.5,1\n-0.5,2.0,0\n0.25,-1.0,1\n0.1,0.1,0\n"),
                       ("labels.csv", "label\n1\n0\n"), ("header.csv", "x_0,x_1,label\n"), ("empty.csv", "")):
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def check_the_contract(command, ini):
    """Run the config ``ini`` with ``command`` in a fresh directory and check the exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        write_data_files(tmp)
        path = os.path.join(tmp, "c.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ini_text(ini, tmp))
        plan = planned(path, command)
        out = os.path.join(tmp, "o")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, path, "--out", out, "--jobs", "1"])
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert not os.path.exists(out), err.getvalue()
        elif command == "estimation-scaling":
            assert os.path.exists(out) == (code == 0), err.getvalue()
        else:
            written = set(os.listdir(out))
            for run_id, seeds in plan:
                assert {f"{_safe_name(run_id)}_seed{seed}.csv" for seed in seeds} <= written, err.getvalue()
            assert ("summary.csv" in written) == (code == 0), err.getvalue()


@pytest.mark.parametrize("auto", AUTO_VALUES)
@pytest.mark.parametrize("kind", VARIANTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_config_exits_0_2_or_3_and_an_exit_2_writes_nothing(algorithm, kind, auto):
    # Each combination draws its own examples: with one derandomized stream they would all make the same choices.
    @seed(zlib.crc32(f"{algorithm} {kind} {auto}".encode()))
    @settings(PROPERTY, max_examples=EXAMPLES)
    @given(drawn=drawn_configs(algorithm, kind, auto))
    def check(drawn):
        check_the_contract(*drawn)

    check()
