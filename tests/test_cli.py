import argparse
import concurrent.futures
import contextlib
import csv
import inspect
import io
import math
import os
import pickle
import re
import resource
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lemmas import PROPERTY

from precondsgd import ConfigError, StochasticProblem, cli, config, errors, problems, runner
from precondsgd.cli import build_parser, main
from precondsgd.config import AUTO_KEYS, AUTO_MODES, load_config, parse_beta_spec, resolve_run
from precondsgd.estimation import beta_schedule, burn_in_length
from precondsgd.optimizer import (
    STEP_BURNIN, STEP_HALLUCINATED, STEP_LARGE, STEP_NORMAL, Run, Trajectory, first_order_params, run_sgd,
)
from precondsgd.problems import PROBLEMS
from precondsgd.runner import (
    Summary,
    build_problem,
    cmd_run,
    cmd_sweep,
    execute_records,
    make_rng,
    read_trajectory,
    trajectory_columns,
    write_trajectory,
)


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_summary(path):
    """The header and row dicts of a CSV file the runner wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def the_run(cfg):
    """The resolved run of a ``run`` config's one condition."""
    [(_, _, run)] = config.conditions(cfg, "run")
    return run


def with_sweep(text, axis, values):
    """A config's ``text`` with a [sweep] section of ``axis`` and ``values``."""
    return f"{text}\n[sweep]\naxis = {axis}\nvalues = {values}\n"


SADDLE_CFG = """
[problem]
name = saddle
x0 = 0,0

[optimizer]
algorithm = rmsprop
kind = diagonal
eta = 0.01
beta_spec = 0.9
epsilon = 1e-8

[run]
seeds = 0,1,2
t = 200
"""


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SADDLE_CFG))
        assert cfg.problem["name"] == "saddle"
        assert cfg.optimizer["beta_spec"] == ("fixed", 0.9)
        assert cfg.run["seeds"] == [0, 1, 2]

    def test_a_config_saved_with_a_byte_order_mark_runs_the_same_bytes(self, tmp_path):
        text = SADDLE_CFG.replace("t = 200", "t = 20").lstrip()
        plain = run_files(tmp_path, "plain", text)
        assert run_files(tmp_path, "bom", "\ufeff" + text) == plain

    def test_unknown_key_is_an_error(self, tmp_path):
        bad = SADDLE_CFG + "\n[sweep]\nbogus = 1\n"
        with pytest.raises(ConfigError, match="sweep.bogus"):
            load_config(write_config(tmp_path / "b.ini", bad))

    def test_beta_spec_forms(self):
        assert parse_beta_spec("0.97") == ("fixed", 0.97)
        assert parse_beta_spec("schedule") == ("schedule", 1.0)
        assert parse_beta_spec("schedule:0.3") == parse_beta_spec(" schedule : 0.3 ") == ("schedule", 0.3)
        with pytest.raises(ConfigError):
            parse_beta_spec("1.5")
        # without its colon a constant is no schedule: the text goes to the number parser
        for text in ("schedule2", "schedulexyz", "schedule0.5"):
            with pytest.raises(ConfigError, match=f"expected a number, got '{text}'"):
                parse_beta_spec(text)
        with pytest.raises(ConfigError, match="expected a number, got ''"):
            parse_beta_spec("schedule:")

    def test_missing_required_key(self, tmp_path):
        bad = SADDLE_CFG.replace("t = 200", "")
        with pytest.raises(ConfigError, match="run.t"):
            load_config(write_config(tmp_path / "d.ini", bad))

    @pytest.mark.parametrize("key", AUTO_KEYS)
    def test_auto_only_key_without_auto_exits_2_naming_it(self, tmp_path, capsys, key):
        bad = SADDLE_CFG.replace("[optimizer]\n", f"[optimizer]\n{key} = 0.5\n")
        cfg = write_config(tmp_path / "e.ini", bad)
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert f"optimizer.{key}: read only by optimizer.auto" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # with optimizer.auto set, the key loads
        with_auto = bad.replace("[optimizer]\n", "[optimizer]\nauto = second_order\n")
        assert load_config(write_config(tmp_path / "f.ini", with_auto)).optimizer[key] == 0.5

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("eta = 0.01", "eta = fast", "optimizer.eta: expected a number, got 'fast'"),
            ("t = 200", "t = 2.5", "run.t: expected an integer, got '2.5'"),
            ("t = 200", "t = 200\ntrack_est_error = maybe", "run.track_est_error: expected a boolean, got 'maybe'"),
            ("seeds = 0,1,2", "seeds = ,", "run.seeds: expected a comma-separated list of integers"),
            ("[run]", "[bogus]\nkey = 1\n[run]", "unknown section [bogus]"),
            ("t = 200", "t = 200\na line with no value", "Source contains parsing errors"),
            ("beta_spec = 0.9", "beta_spec = schedule:0", "optimizer.beta_spec: beta schedule constant must be positive"),
            ("beta_spec = 0.9", "beta_spec = schedule2", "optimizer.beta_spec: expected a number, got 'schedule2'"),
            ("x0 = 0,0", "x0 = ,", "problem.x0: expected a comma-separated list of numbers"),
        ],
        ids=("number", "integer", "boolean", "empty-list", "unknown-section", "unparsable-line", "beta-schedule-zero",
             "beta-schedule-no-colon", "empty-number-list"),
    )
    def test_a_value_its_parser_rejects_exits_2_naming_the_key(self, tmp_path, capsys, old, new, message):
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace(old, new))
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 2
        assert f"c.ini: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parse, text", [
        (config._parse_float, "nan"), (config._parse_float, "-inf"),
        pytest.param(config._parse_float_list, "1, nan", id="_parse_float_list-1, nan"),  # a partial has no name
        (parse_beta_spec, "nan"), (parse_beta_spec, "schedule:inf"),
    ])
    def test_every_number_parser_refuses_nan_and_inf(self, parse, text):
        with pytest.raises(ConfigError, match="expected a finite number"):
            parse(text)

    def test_sweeping_an_auto_only_key_without_auto_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.ini", with_sweep(SADDLE_CFG, "optimizer.tau", "1,2"))
        assert main(["sweep", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert "optimizer.tau: read only by optimizer.auto" in capsys.readouterr().err


ESCAPE_CFG = """
[problem]
name = saddle
x0 = 0,0

[optimizer]
algorithm = {algorithm}
eta = 0.01
{extra}

[run]
seeds = 0,1,2,3,4,5,6,7
t = 1000
log_every = 10
"""


class TestCmdRun:
    def test_produces_trajectories_and_summary(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        out = tmp_path / "out"
        path = cmd_run(cfg, str(out))
        assert os.path.basename(path) == "summary.csv"
        header, rows = read_summary(path)
        assert len(rows) == 3
        for row in rows:
            traj = out / row["trajectory"]
            assert traj.read_text(encoding="utf-8").partition("\n")[0] == ",".join(trajectory_columns(2))  # x_0, x_1
            assert len(read_trajectory(traj)) == 200

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        out = tmp_path / "out"
        path = cmd_run(cfg, str(out))
        blobs = {p.name: p.read_bytes() for p in out.iterdir()}
        cmd_run(cfg, str(out))
        for p in out.iterdir():
            assert p.read_bytes() == blobs[p.name]

    def test_summary_recomputable_from_trajectory(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        out = tmp_path / "out"
        header, rows = read_summary(cmd_run(cfg, str(out)))
        for row in rows:
            traj = read_trajectory(out / row["trajectory"])
            redo = whole_summary(traj, None, -0.01)
            assert repr(redo["final_f"]) == row["final_f"]
            assert repr(redo["min_f"]) == row["min_f"]
            assert repr(redo["mean_last_1000_f"]) == row["mean_last_1000_f"]
            assert (row["escape_time"] or None) == (
                None if redo["escape_time"] is None else str(redo["escape_time"])
            )

    def test_parallel_matches_serial(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        cmd_run(cfg, str(serial), jobs=1)
        cmd_run(cfg, str(parallel), jobs=3)
        assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
        cmd_run(cfg, str(tmp_path / "zero"), jobs=0)  # below 1, as one group
        assert (serial / "summary.csv").read_bytes() == (tmp_path / "zero" / "summary.csv").read_bytes()

    def test_other_seeds_run_other_streams(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        other_seeds = SADDLE_CFG.replace("seeds = 0,1,2", "seeds = 100,101,102")
        other = load_config(write_config(tmp_path / "other.ini", other_seeds))
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_run(cfg, str(a))
        cmd_run(other, str(b))
        _, rows_a = read_summary(a / "summary.csv")
        _, rows_b = read_summary(b / "summary.csv")
        assert {r["seed"] for r in rows_b} == {"100", "101", "102"}
        assert rows_a[0]["final_f"] != rows_b[0]["final_f"]

    def test_full_matrix_rmsprop_escapes_the_saddle_where_sgd_stays(self, tmp_path):
        # The paper's claim at the CLI: from the saddle point, full-matrix
        # RMSProp escapes at 100-250 in every seed; SGD escapes in no seed
        # by T = 1000 (in 3 of 8 by T = 3000, at 2440-2730).
        escapes = {}
        for algorithm, extra in (("sgd", ""), ("rmsprop", "kind = full_matrix\nbeta_spec = 0.99\nepsilon = 1e-8")):
            cfg = write_config(tmp_path / f"{algorithm}.ini", ESCAPE_CFG.format(algorithm=algorithm, extra=extra))
            assert main(["run", cfg, "--out", str(tmp_path / algorithm), "--jobs", "1"]) == 0
            _, rows = read_summary(tmp_path / algorithm / "summary.csv")
            escapes[algorithm] = [int(r["escape_time"]) for r in rows if r["escape_time"]]
        assert len(escapes["rmsprop"]) == 8 and max(escapes["rmsprop"]) <= 1000 // 2
        assert len(escapes["sgd"]) <= 2


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.ini", SADDLE_CFG.replace("name = saddle", "name = nosuch"))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "problem.name" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "o")]) == 2

    def test_divergence_demo_exit_3_with_partial_output(self, tmp_path, capsys):
        demo = """
[problem]
name = quadratic_gaussian
dim = 1
h_diag = 1
noise_diag = 0
x0 = 1e-60

[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.001
beta_spec = 0.0
epsilon = 0
exponent = -1

[run]
seeds = 0
t = 10
"""
        cfg = write_config(tmp_path / "demo.ini", demo)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        partials = list(out.glob("*.csv"))
        assert len(partials) == 1
        assert len(read_trajectory(partials[0])) >= 1

    def test_an_overflowing_iterate_exits_3_and_keeps_the_step_0_row(self, tmp_path, capsys):
        text = ("[problem]\nname = quadratic_gaussian\ndim = 1\nh_diag = 1\nnoise_diag = 0\nx0 = 10\n"
                "[optimizer]\nalgorithm = sgd\neta = 1e308\n[run]\nseeds = 0\nt = 5\n")
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 3
        assert "iterate diverged at step 0" in capsys.readouterr().err
        assert read_trajectory(out / "run_seed0.csv").iteration.tolist() == [0]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [("x0 = 0,0", "x0 = 0,0,0", "problem.x0: length must equal the problem dimension"),
         ("beta_spec = 0.9\n", "", "optimizer.beta_spec: required for estimated preconditioning"),
         ("eta = 0.01\n", "", "optimizer.eta: required (or supply optimizer.auto)"),
         ("eta = 0.01", "auto = first_order_exact\nl = 1\nc3 = 1\nlambda_minus = 1\ndelta_f = 1",
          "optimizer.tau: required for auto=first_order_exact")],
        ids=("x0-length", "no-beta-spec", "no-eta", "auto-without-tau"),
    )
    def test_a_run_the_config_cannot_describe_exits_2_naming_the_key(self, tmp_path, capsys, old, new, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace(old, new))
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("", "axis"), ("[sweep]\n", "axis"),
                                              ("[sweep]\naxis = optimizer.eta\n", "values")],
                             ids=("no-section", "empty-section", "no-values"))
    def test_a_sweep_without_its_axis_or_values_exits_2_naming_the_key(self, tmp_path, capsys, section, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG + section)
        assert main(["sweep", cfg, "--out", str(out), "--jobs", "1"]) == 2
        assert f"error: sweep.{key}: required for sweep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--out", "X"], ["--jobs", "1"]])
    def test_a_flag_before_the_subcommand_is_a_usage_error(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PRECONDSGD_OUT", raising=False)
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 5"))
        with pytest.raises(SystemExit) as exc:
            main([*flags, "run", cfg])
        assert exc.value.code == 2
        assert f"argument {flags[0]}: must follow the subcommand" in capsys.readouterr().err
        assert not (tmp_path / "X").exists() and not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "estimation-scaling"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exits_2_and_writes_nothing(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG + "etas = 0.01, 0.001\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: must be an integer of at least 1, got '{jobs}'" in capsys.readouterr().err
        assert not out.exists()

    EXIT_CODES = {
        errors.NumericError: 3, errors.NonFiniteError: 3, errors.SingularMatrixError: 3,
        errors.PreconditionViolatedError: 3, errors.PrecondSgdError: 2, errors.InvalidParamError: 2,
        errors.MissingOracleError: 2, errors.DimMismatchError: 2, errors.DataFormatError: 2, errors.ConfigError: 2,
        FileExistsError: 2, PermissionError: 2,
    }

    @pytest.mark.parametrize("error", EXIT_CODES, ids=lambda cls: cls.__name__)
    def test_an_error_exits_with_the_code_of_its_class(self, tmp_path, monkeypatch, capsys, error):
        def fail(cfg, out_dir, jobs):
            raise error("raised by the subcommand")

        monkeypatch.setattr(cli, "cmd_run", fail)
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG)
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == self.EXIT_CODES[error]
        assert "raised by the subcommand" in capsys.readouterr().err

    def test_every_package_error_has_an_exit_code(self):
        package_errors = {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)}
        assert package_errors <= set(self.EXIT_CODES)

    def test_a_negative_eta_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("eta = 0.01", "eta = -0.01"))
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 2
        assert "error: eta must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_a_write_failing_mid_file_keeps_the_old_bytes_and_no_temp_file(self, tmp_path, error):
        path = tmp_path / "summary.csv"
        path.write_bytes(b"old,bytes\n")

        def rows():
            yield {"a": 1.5}
            raise error("the disk is full")

        with pytest.raises(error, match="the disk is full"):
            runner.write_csv(str(path), ("a",), rows())
        assert path.read_bytes() == b"old,bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 20"))
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("PRECONDSGD_OUT", str(env_dir))
        assert main(["run", cfg]) == 0
        assert (env_dir / "summary.csv").exists()
        # an explicit flag overrides the environment
        flag_dir = tmp_path / "flagout"
        assert main(["run", cfg, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "summary.csv").exists()


DIVERGES_FOR_SEED_1 = """
[problem]
name = saddle
x0 = 1.08,0

[optimizer]
algorithm = sgd
eta = 0.1

[run]
seeds = 1,2,3
t = 20
"""

SINGULAR_AT_FIRST_STEP = """
[problem]
name = quadratic_gaussian
dim = 10
h_diag = 1,1,1,1,1,1,1,1,1,1
noise_diag = 1,1,1,1,1,1,1,1,1,1

[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 0

[run]
seeds = 0,1
t = 5
"""


# Ghat overflows to inf at seed 0's step 6 (and seed 1's step 22), and eigh then gives NaN eigenvalues.
NAN_SPECTRUM = """
[problem]
name = quadratic_gaussian
dim = 2
h_diag = 1,1
noise_diag = 8e307,1
x0 = 0.1,0.1

[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
epsilon = 1e-8
beta_spec = 0.9

[run]
seeds = 0,1
t = 30
track_est_error = true
"""


class TestNumericFailures:
    def test_a_nan_spectrum_stops_its_seed_before_the_step(self, tmp_path, capsys):
        """NaN is not a positive eigenvalue: the seed stops at step 6's direction, not at a NaN iterate after it."""
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "c.ini", NAN_SPECTRUM), "--out", str(out), "--jobs", "1"]) == 3
        assert "numeric failure: run seed 0: lambda_min(Ghat) + eps not positive" in capsys.readouterr().err
        traj = read_trajectory(out / "run_seed0.csv")
        assert traj.iteration.tolist() == list(range(6))
        assert read_trajectory(out / "run_seed1.csv").iteration.tolist() == list(range(22))
        assert not (out / "summary.csv").exists()

    def test_a_diverging_seed_leaves_the_same_files_for_any_jobs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", DIVERGES_FOR_SEED_1)
        files = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", cfg, "--out", str(out), "--jobs", str(jobs)]) == 3
            assert "run seed 1: objective diverged" in capsys.readouterr().err
            files[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files[1] == files[2] == files[3]
        assert sorted(files[1]) == ["run_seed1.csv", "run_seed2.csv", "run_seed3.csv"]  # no summary
        out = tmp_path / "jobs1"
        assert 1 <= len(read_trajectory(out / "run_seed1.csv")) < 20
        # the other seeds finish, with the bytes of a run without seed 1
        alone = write_config(tmp_path / "alone.ini", DIVERGES_FOR_SEED_1.replace("seeds = 1,2,3", "seeds = 2,3"))
        assert main(["run", alone, "--out", str(tmp_path / "alone"), "--jobs", "1"]) == 0
        for name in ("run_seed2.csv", "run_seed3.csv"):
            assert len(read_trajectory(out / name)) == 20
            assert files[1][name] == (tmp_path / "alone" / name).read_bytes()

    def test_a_trillion_step_run_whose_seeds_diverge_exits_3_within_a_capped_address_space(self, tmp_path):
        """The log is one chunk whatever run.t: SGD at eta = 100 on the saddle diverges at event 2, and with
        run.t = 10**12 the run still exits 3 with each seed's partial trajectory, in a child process that may
        map 1 GiB at most (a log of the whole run would ask for terabytes)."""
        text = f"[problem]\nname = saddle\n[optimizer]\nalgorithm = sgd\neta = 100\n[run]\nseeds = 0,1,2\nt = {10**12}"
        cfg = write_config(tmp_path / "c.ini", text + "\n")
        out = tmp_path / "o"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "precondsgd.cli", "run", cfg, "--out", str(out), "--jobs", "1"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "run seed 0: objective diverged" in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["run_seed0.csv", "run_seed1.csv", "run_seed2.csv"]
        for p in out.iterdir():
            assert read_trajectory(p).iteration.tolist() == [0, 1]

    def test_an_error_while_streaming_leaves_the_old_files_and_no_temp_file(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        out = tmp_path / "out"
        cmd_run(cfg, str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write, calls = runner.write_trajectory, []

        def fail_on_the_third(fh, rows):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("the disk is full")
            write(fh, rows)

        monkeypatch.setattr(runner, "write_trajectory", fail_on_the_third)
        with pytest.raises(OSError, match="the disk is full"):
            cmd_run(cfg, str(out))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_singular_estimate_flushes_every_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", SINGULAR_AT_FIRST_STEP)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 3
        assert "run seed 0: lambda_min(Ghat) + eps not positive" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run_seed0.csv", "run_seed1.csv"]
        for p in out.iterdir():
            assert len(read_trajectory(p)) == 0  # the failure came before the first logged event


def child_env():
    """The environment of a child process that imports this package."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


def run_child(cfg, out, preexec_fn=None, command="run", jobs=1):
    """``precondsgd command cfg --out out --jobs jobs`` in a child process on this package."""
    argv = [sys.executable, "-m", "precondsgd.cli", command, cfg, "--out", str(out), "--jobs", str(jobs)]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
                            preexec_fn=preexec_fn)


def pool_workers(pid):
    """The pids of the pool worker processes of the process pid (not its resource tracker), from /proc."""
    workers = []
    for stat in os.listdir("/proc"):
        try:
            with open(f"/proc/{stat}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{stat}/cmdline") as fh:
                spawned = "spawn_main" in fh.read()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid and spawned:
            workers.append(int(stat))
    return workers


def ended(proc, timeout, workers=()):
    """proc's stderr once it exits within timeout seconds; else it and its workers are killed, and the
    wait fails."""
    try:
        return proc.communicate(timeout=timeout)[1]
    except subprocess.TimeoutExpired:
        for pid in [*workers, proc.pid]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        raise


def wait_for_rows(proc, out, files, dim=2):
    """Wait until ``files`` temp files in out hold rows (past the header) while proc runs."""
    header = len(",".join(trajectory_columns(dim))) + 1
    deadline = time.monotonic() + 60
    while sum(p.stat().st_size > header for p in out.glob("*.tmp")) < files:
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)


class TestStreamedFiles:
    def test_a_group_of_more_seeds_than_the_open_file_limit_runs_with_the_same_bytes(self, tmp_path):
        """100 seeds under a limit of 64 open files: one trajectory file is open at a time."""
        text = SADDLE_CFG.replace("seeds = 0,1,2", "seeds = " + ",".join(map(str, range(100)))).replace("t = 200", "t = 30")
        cfg = write_config(tmp_path / "c.ini", text)
        files = {}
        for limit in (None, 64):
            out = tmp_path / f"limit{limit}"
            limited = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (limit, limit))
            with run_child(cfg, out, limited) as proc:
                _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            files[limit] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files[64]) == 101 and files[64] == files[None]

    def test_sigterm_exits_143_and_leaves_no_temp_file_and_the_old_files(self, tmp_path):
        """SIGTERM, once the first rows of a long run are in its temp file, unwinds it as Ctrl-C would."""
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 20"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", f"t = {10**9}"))
        with run_child(cfg, out) as proc:
            wait_for_rows(proc, out, 1)
            proc.terminate()
            err = ended(proc, 60)
        assert proc.returncode == cli.EXIT_TERMINATED == 143
        assert err == "terminated by SIGTERM\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="lists the workers from /proc")
    @pytest.mark.parametrize("target", ["parent", "worker"])
    def test_sigterm_stops_a_sweep_with_jobs_2_at_once_and_leaves_no_temp_file(self, tmp_path, target):
        """SIGTERM to the parent, or to one pool worker, while both workers run a group that would not end:
        each worker unwinds its group and the sweep exits 143 within seconds, with no worker left."""
        text = with_sweep(SADDLE_CFG.replace("seeds = 0,1,2", "seeds = 0,1,2,3").replace("t = 200", f"t = {10**9}"),
                          "optimizer.eta", "0.01, 0.003, 0.001, 0.0003")
        out = tmp_path / "out"
        with run_child(write_config(tmp_path / "c.ini", text), out, command="sweep", jobs=2) as proc:
            wait_for_rows(proc, out, 4)  # two seeds in each worker's group
            workers = pool_workers(proc.pid)
            assert len(workers) == 2
            os.kill(proc.pid if target == "parent" else workers[0], signal.SIGTERM)
            err = ended(proc, 20, workers)
        assert proc.returncode == 143
        assert err == "terminated by SIGTERM\n"
        assert list(out.iterdir()) == []
        assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]

    def test_sigterm_in_this_process_returns_143_and_restores_the_handler(self, tmp_path, monkeypatch, capsys):
        caught = []

        def net(signum, frame):  # catches the signal should main not handle it, so that pytest lives on
            caught.append(signum)

        previous = signal.signal(signal.SIGTERM, net)
        try:
            monkeypatch.setattr(cli, "cmd_run", lambda cfg, out_dir, jobs: signal.raise_signal(signal.SIGTERM))
            cfg = write_config(tmp_path / "c.ini", SADDLE_CFG)
            assert main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "1"]) == cli.EXIT_TERMINATED
            assert caught == [] and signal.getsignal(signal.SIGTERM) is net
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert capsys.readouterr().err == "terminated by SIGTERM\n"

    def test_main_runs_in_another_thread_and_leaves_sigterm_alone_there(self, tmp_path):
        """Only the main thread may set a signal handler."""
        cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 5"))
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(["run", cfg, "--out", str(tmp_path / "o"),
                                                                    "--jobs", "1"])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0]

    def test_main_leaves_the_sigterm_handler_it_found(self, tmp_path):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 5"))
            assert main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestSweep:
    def test_eta_sweep_merges_and_sorts(self, tmp_path):
        text = with_sweep(SADDLE_CFG.replace("t = 200", "t = 50"), "optimizer.eta", "0.01, 0.003, 0.001")
        out = tmp_path / "out"
        path = cmd_sweep(load_config(write_config(tmp_path / "cfg.ini", text)), str(out))
        header, rows = read_summary(path)
        assert header[:2] == ["axis", "axis_value"]
        assert len(rows) == 9
        values = [float(r["axis_value"]) for r in rows]
        assert values == sorted(values)
        seeds = [int(r["seed"]) for r in rows[:3]]
        assert seeds == sorted(seeds)
        assert len(list(out.glob("*.csv"))) == 10  # 9 trajectories + summary

    @pytest.mark.parametrize("axis, values, message", [
        ("optimizer.eta", "", "cfg.ini: sweep.values: expected a comma-separated list of values"),
        ("optimizer.eta", " , ", "cfg.ini: sweep.values: expected a comma-separated list of values"),
        ("optimizer.nope", "1,2", "cfg.ini: sweep.axis: unknown sweep axis 'optimizer.nope' (expected 'section.key')"),
        ("eta", "0.01", "cfg.ini: sweep.axis: unknown sweep axis 'eta' (expected 'section.key')"),
    ], ids=("empty-values", "blank-values", "unknown-axis", "axis-without-section"))
    def test_a_sweep_section_it_cannot_run_exits_2_and_writes_nothing(self, tmp_path, capsys, axis, values, message):
        cfg = write_config(tmp_path / "cfg.ini", with_sweep(SADDLE_CFG, axis, values))
        out = tmp_path / "o"
        assert main(["sweep", cfg, "--out", str(out), "--jobs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [("optimizer.eta", "0.1,0.1", "0.1"), ("optimizer.eta", "0.1,0.01,0.10", "0.10"),
         ("optimizer.beta_spec", "schedule,schedule:1", "schedule:1")],
    )
    def test_a_repeated_value_exits_2_naming_sweep_values(self, tmp_path, capsys, axis, values, repeated):
        out = tmp_path / "o"
        argv = ["sweep", write_config(tmp_path / "c.ini", with_sweep(SADDLE_CFG, axis, values)), "--out", str(out),
                "--jobs", "1"]
        assert main(argv) == 2
        assert f"error: sweep.values: {axis} value {repeated} occurs more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_two_values_naming_one_trajectory_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = with_sweep(SADDLE_CFG, "run.escape_level", "1e-2,1e+2")
        argv = ["sweep", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        assert ("error: sweep.values: run.escape_level values 1e-2 and 1e+2 would both write "
                "run.escape_level=1e-2_seed*.csv") in capsys.readouterr().err
        assert not out.exists()

    def test_a_file_name_clash_names_both_values_whole(self, tmp_path, capsys):
        """A problem.path value may hold '=': the message names each value as written, not cut at it."""
        first, second = tmp_path / "a=1+b.csv", tmp_path / "a=1-b.csv"
        first.write_text("x_0,x_1,label\n1.0,0.5,1\n-0.5,2.0,0\n0.25,-1.0,1\n", encoding="utf-8")
        text = (f"[problem]\nname = logistic_csv\npath = {first}\n[optimizer]\nalgorithm = sgd\neta = 0.01\n"
                "[run]\nseeds = 0\nt = 3\n")
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "c.ini", with_sweep(text, "problem.path", f"{first}, {second}"))
        assert main(["sweep", cfg, "--out", str(out), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"error: sweep.values: problem.path values {first} and {second} would both write" in err
        assert not out.exists()

    def test_beta_spec_axis_mixes_fixed_and_schedule(self, tmp_path):
        text = with_sweep(SADDLE_CFG.replace("t = 200", "t = 40"), "optimizer.beta_spec", "0.9, schedule:1")
        out = tmp_path / "out"
        path = cmd_sweep(load_config(write_config(tmp_path / "c.ini", text)), str(out))
        _, rows = read_summary(path)
        assert {r["axis_value"] for r in rows} == {"0.9", "schedule:1"}


# Each [run] and [sweep] key as a sweep axis: two values whose conditions
# differ in their resolved Run or their summary, or None for a key no
# condition reads, which a sweep rejects.
SWEEP_AXES = {
    "run.seeds": None,
    "run.t": "20,30",
    "run.log_every": "1,2",
    "run.track_est_error": "false,true",
    "run.lambda_min_every": "0,1",
    "run.escape_level": "-0.01,1",
    "run.f_threshold": "-0.01,1",
    "run.etas": None,
    "run.est_window_factor": None,
    "run.burn_in_c": "1,2",
    "sweep.axis": None,
    "sweep.values": None,
}


@pytest.mark.parametrize("axis", [f"{section}.{key}" for section in ("run", "sweep") for key in config._SCHEMAS[section]])
def test_every_run_and_sweep_key_changes_a_condition_or_is_no_sweep_axis(tmp_path, capsys, axis):
    values = SWEEP_AXES[axis]  # a key added to the schema must be classified here
    text = SADDLE_CFG.replace("rmsprop", "rmsprop_burnin").replace("seeds = 0,1,2\nt = 200", "seeds = 0\nt = 30")
    path = write_config(tmp_path / "c.ini", with_sweep(text, axis, values or "5,6"))
    out = tmp_path / "o"
    argv = ["sweep", path, "--out", str(out), "--jobs", "1"]
    if values is None:  # refused at load, by the axis's parser
        assert main(argv) == 2
        assert f"error: {path}: sweep.axis: {axis}: no condition of a sweep reads it" in capsys.readouterr().err
        assert not out.exists()
        return
    base = load_config(path)
    assert main(argv) == 0
    runs = [run for _, _, run in config.conditions(base, "sweep")]
    _, rows = read_summary(out / "summary.csv")
    labels = ("axis", "axis_value", "run_id", "trajectory")
    summaries = [{k: v for k, v in row.items() if k not in labels} for row in rows]
    assert len(summaries) == 2
    assert runs[0] != runs[1] or summaries[0] != summaries[1]


ESTIMATION_CFG = """
[problem]
name = quadratic_gaussian
dim = 2
h_diag = 1,1
noise_diag = {noise}
x0 = 0,0

[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
epsilon = 0.0001

[run]
seeds = 5
t = 1
etas = {etas}
est_window_factor = 20
"""


class TestEstimationScaling:
    def test_numeric_failure_names_eta_and_seed(self, tmp_path, capsys):
        # eps = 0: the d=3 estimate after one sample is singular.
        cfg = write_config(tmp_path / "e.ini", """
[problem]
name = quadratic_gaussian
dim = 3
h_diag = 1.0,0.5,0.2
noise_diag = 1.0,0.3,0.1
x0 = 1.0,-1.0,0.5
[optimizer]
algorithm = rmsprop_burnin
kind = full_matrix
epsilon = 0
[run]
seeds = 5
t = 1
etas = 0.01,0.003
""")
        for jobs in ("1", "2"):  # the serial loop and the process pool
            out = tmp_path / f"jobs{jobs}"
            assert main(["estimation-scaling", cfg, "--out", str(out), "--jobs", jobs]) == 3
            err = capsys.readouterr().err
            assert "numeric failure: eta 0.01 seed 5: lambda_min(Ghat) + eps not positive" in err
            assert not out.exists()  # no scaling.csv

    def test_jobs_runs_the_etas_in_a_process_pool_with_the_same_bytes(self, tmp_path, monkeypatch):
        pools = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        cfg = write_config(tmp_path / "e.ini", ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01,0.001"))
        files = {}
        for jobs in ("1", "2", "5"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["estimation-scaling", cfg, "--out", str(out), "--jobs", jobs]) == 0
            files[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert [pool["max_workers"] for pool in pools] == [2, 3]  # no more workers than etas
        assert [pool["mp_context"].get_start_method() for pool in pools] == ["spawn", "spawn"]
        assert sorted(pools[0]) == ["initializer", "max_workers", "mp_context"]
        assert [pool["initializer"] for pool in pools] == [runner._worker_start] * 2  # SIGTERM unwinds a worker's group
        assert sorted(files["1"]) == ["scaling.csv", "scaling_fit.csv"]
        assert files["1"] == files["2"] == files["5"]

    @pytest.mark.parametrize(
        "setting, replacement, key",
        [
            ("kind = full_matrix\n", "kind = identity\n", "optimizer.kind"),
            ("eta = 0.01\n", "auto = first_order_exact\nl = 1\nc3 = 1\nlambda_minus = 1\ndelta_f = 1\ntau = 0.3\n",
             "optimizer.auto"),
            ("eta = 0.01\n", "eta = 0.01\neta_decay = inv_sqrt\n", "optimizer.eta_decay"),
        ],
        ids=("identity", "auto", "eta-decay"),
    )
    def test_what_it_cannot_run_exits_2_and_writes_nothing(self, tmp_path, capsys, setting, replacement, key):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01").replace(setting, replacement)
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        assert f"error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "etas, beta_spec, message",
        [
            ("0.01, 1.0", "", "run.etas: eta 1.0 must be positive with beta = 1 - C eta^(2/3) in (0, 1), C = 1.0"),
            ("0.01, 0.1", "schedule:5", "run.etas: eta 0.1 must be positive with beta = 1 - C eta^(2/3) in (0, 1), "
             "C = 5.0"),
            ("0.01, 1e-26", "", "run.etas: eta 1e-26 must be positive with beta = 1 - C eta^(2/3) in (0, 1), "
             "C = 1.0"),
            ("0.01, 0.1", "schedule:0", "optimizer.beta_spec: beta schedule constant must be positive"),
            ("0.01, 0.1", "0.9", "optimizer.beta_spec: one fixed beta cannot serve several etas"),
        ],
        ids=("beta-not-positive", "beta-c-too-large", "beta-rounds-to-1", "beta-c-zero", "fixed-beta"),
    )
    def test_bad_etas_exit_2_name_the_key_and_write_nothing(self, tmp_path, capsys, etas, beta_spec, message):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas=etas)
        if beta_spec:
            text = text.replace("[optimizer]\n", f"[optimizer]\nbeta_spec = {beta_spec}\n")
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err  # a value the loader refuses follows the file name
        assert not out.exists()

    def test_no_etas_exit_2_naming_run_etas_and_write_nothing(self, tmp_path, capsys):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01").replace("etas = 0.1,0.01\n", "")
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: run.etas: estimation scaling needs at least two stepsizes\n"
        assert not out.exists()

    def test_run_beta_c_is_an_unknown_key(self, tmp_path, capsys):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01") + "beta_c = 0.5\n"
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        assert "e.ini: unknown key run.beta_c" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta_spec, c, c_w", [
        (None, 1.0, None), ("schedule", 1.0, None), ("schedule:0.5", 0.5, 0.2), (None, 1.0, 3.0)])
    def test_each_eta_takes_its_beta_from_beta_spec_and_its_burn_in_from_burn_in_c(
            self, tmp_path, beta_spec, c, c_w):
        # The golden config estimation-scaling-diagonal-constants pins the bytes of schedule:0.5.
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.01,0.003")
        if beta_spec is not None:
            text = text.replace("[optimizer]\n", f"[optimizer]\nbeta_spec = {beta_spec}\n")
        if c_w is not None:
            text += f"burn_in_c = {c_w}\n"
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 0
        _, rows = read_summary(out / "scaling.csv")
        burn_in_c = {} if c_w is None else {"c_w": c_w}
        assert [(r["eta"], r["beta"], r["W"]) for r in rows] == [
            (repr(eta), repr(beta_schedule(eta, c)), str(burn_in_length(eta, **burn_in_c))) for eta in (0.01, 0.003)]

    def test_more_than_one_seed_exits_2_naming_run_seeds(self, tmp_path, capsys):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01").replace("seeds = 5", "seeds = 17,18,19")
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        assert "error: run.seeds: estimation scaling runs one seed, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_two_seeds_exit_2_naming_run_seeds(self, tmp_path, capsys):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01").replace("seeds = 5", "seeds = 17,18")
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(out)]) == 2
        assert "error: run.seeds: estimation scaling runs one seed, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_each_eta_is_one_condition_with_its_six_keys_rewritten(self, tmp_path):
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.001, 0.01").replace("t = 1", "t = 1\nlog_every = 5")
        cfg = load_config(write_config(tmp_path / "e.ini", text))
        before = cfg.clone()
        conditions = config.conditions(cfg, "estimation-scaling")
        assert [run_id for run_id, _, _ in conditions] == ["eta 0.01", "eta 0.001"]
        for (_, sub, run), eta in zip(conditions, (0.01, 0.001)):
            beta = beta_schedule(eta, 1.0)
            assert sub.optimizer == {**cfg.optimizer, "algorithm": "rmsprop_burnin", "eta": eta,
                                     "beta_spec": ("fixed", beta)}
            assert sub.run == {**cfg.run, "t": math.ceil(20 / (1.0 - beta)), "track_est_error": True, "log_every": 1}
            assert run == resolve_run(sub, build_problem(sub.problem))
        assert cfg == before

    def test_noiseless_errors_vanish(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", ESTIMATION_CFG.format(noise="0,0", etas="0.1,0.01"))
        out = tmp_path / "o"
        assert main(["estimation-scaling", cfg, "--out", str(out)]) == 0
        import csv

        with open(out / "scaling.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["sup_error"]) <= 1e-12 for r in rows)

    def test_noisy_run_emits_slope(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01,0.001"))
        out = tmp_path / "o"
        assert main(["estimation-scaling", cfg, "--out", str(out)]) == 0
        fit = (out / "scaling_fit.csv").read_text().splitlines()
        assert fit[0] == "slope"
        assert 0.0 < float(fit[1]) < 1.0


class TestReport:
    def test_no_summary_files_is_a_config_error_that_creates_nothing(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^report: no summary files given$"):
            runner.cmd_report([], str(tmp_path / "o"))
        assert list(tmp_path.iterdir()) == []

    def test_bands_from_multi_seed_run(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "cfg.ini",
                SADDLE_CFG.replace("seeds = 0,1,2", "seeds = 0,1,2,3,4").replace("t = 200", "t = 60"),
            )
        )
        out = tmp_path / "out"
        summary = cmd_run(cfg, str(out))
        assert main(["report", summary, "--out", str(out)]) == 0
        import csv

        with open(out / "bands.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        traj = read_trajectory(out / "run_seed0.csv")
        assert [int(r["iter"]) for r in rows] == traj.iteration[traj.steps()].tolist()
        for r in rows:
            assert float(r["f_p10"]) <= float(r["f_p50"]) <= float(r["f_p90"])

    def test_single_seed_bands_coincide_with_trajectory(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("seeds = 0,1,2", "seeds = 7").replace("t = 200", "t = 30"))
        )
        out = tmp_path / "out"
        summary = cmd_run(cfg, str(out))
        main(["report", summary, "--out", str(out)])
        import csv

        with open(out / "bands.csv", newline="") as fh:
            bands = list(csv.DictReader(fh))
        _, rows = read_summary(summary)
        traj = read_trajectory(out / rows[0]["trajectory"])
        assert len(bands) == len(traj)
        for band, f in zip(bands, traj.f):
            assert float(band["f_p10"]) == f
            assert float(band["f_p50"]) == f
            assert float(band["f_p90"]) == f

    def test_mixed_schema_exit_2(self, tmp_path, capsys):
        text = SADDLE_CFG.replace("t = 200", "t = 20")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        sum_a = cmd_run(load_config(write_config(tmp_path / "run.ini", text)), str(out_a))
        sum_b = cmd_sweep(load_config(write_config(tmp_path / "sweep.ini", with_sweep(text, "optimizer.eta", "0.01"))),
                          str(out_b))
        assert main(["report", sum_a, sum_b, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {sum_b}: summary schema does not match {sum_a}\n"

    def test_differing_iteration_grids_exit_2_and_write_nothing(self, tmp_path, capsys):
        summaries = []
        for t in (20, 30):
            text = SADDLE_CFG.replace("t = 200", f"t = {t}").replace("seeds = 0,1,2", f"seeds = {t},{t + 1}")
            cfg = load_config(write_config(tmp_path / f"{t}.ini", text))  # disjoint seeds
            summaries.append(cmd_run(cfg, str(tmp_path / f"run{t}")))
        out = tmp_path / "r"
        assert main(["report", *summaries, "--out", str(out)]) == 2
        assert "iteration grid differs within condition 'run'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds_b, twice", [("0,1", 0), ("1,2", 1)])
    def test_a_seed_twice_in_one_condition_exits_2_naming_both_summaries(self, tmp_path, capsys, seeds_b, twice):
        summaries = []
        for name, eta, seeds in (("ra", "0.01", "0,1"), ("rb", "0.5", seeds_b)):
            text = SADDLE_CFG.replace("eta = 0.01", f"eta = {eta}").replace("seeds = 0,1,2", f"seeds = {seeds}")
            cfg = load_config(write_config(tmp_path / f"{name}.ini", text.replace("t = 200", "t = 20")))
            summaries.append(cmd_run(cfg, str(tmp_path / name)))
        out = tmp_path / "rep"
        assert main(["report", *summaries, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {summaries[1]}: run_id 'run' seed {twice} also occurs in {summaries[0]}" in err
        assert not out.exists()

    def test_shards_with_disjoint_seeds_merge_into_the_band_of_one_run(self, tmp_path):
        text = SADDLE_CFG.replace("t = 200", "t = 20")

        def run_seeds(name, seeds):
            return cmd_run(load_config(write_config(tmp_path / f"{name}.ini", text.replace("0,1,2", seeds))),
                           str(tmp_path / name))

        shards = [run_seeds("shard0", "0,1"), run_seeds("shard2", "2,3")]  # two configs with disjoint seeds
        whole = run_seeds("whole", "0,1,2,3")
        assert main(["report", *shards, "--out", str(tmp_path / "rep_shards")]) == 0
        assert main(["report", *shards[::-1], "--out", str(tmp_path / "rep_reversed")]) == 0
        assert main(["report", whole, "--out", str(tmp_path / "rep_whole")]) == 0
        merged = (tmp_path / "rep_shards" / "bands.csv").read_bytes()
        assert merged == (tmp_path / "rep_whole" / "bands.csv").read_bytes()
        assert merged == (tmp_path / "rep_reversed" / "bands.csv").read_bytes()
        assert len(merged.splitlines()) == 1 + 20

    def test_a_file_that_is_no_summary_exits_2_naming_the_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "e.ini", ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01"))
        assert main(["estimation-scaling", cfg, "--out", str(tmp_path / "es")]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(tmp_path / "es" / "scaling.csv"), "--out", str(out)]) == 2
        assert f"error: {tmp_path / 'es' / 'scaling.csv'}: no run_id column" in capsys.readouterr().err
        assert not out.exists()

    def test_a_trajectory_field_that_is_no_number_exits_2_naming_its_line(self, tmp_path, capsys):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 5")))
        summary = cmd_run(cfg, str(tmp_path / "run"))
        traj = tmp_path / "run" / "run_seed1.csv"
        lines = traj.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[2] = "abc"  # the f of the second logged event
        lines[2] = ",".join(fields)
        traj.write_text("".join(lines))
        out = tmp_path / "rep"
        assert main(["report", summary, "--out", str(out)]) == 2
        assert f"error: {traj}:3: bad f field 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--jobs", "7"), ("--seed-offset", "5")])
    def test_a_flag_report_does_not_read_exits_2(self, tmp_path, capsys, flag, value):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 20")))
        summary = cmd_run(cfg, str(tmp_path / "run"))
        out = tmp_path / "rep"
        with pytest.raises(SystemExit) as exc:
            main(["report", summary, "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


# Edits a CSV file's lines (each with its newline) in ways its reader accepts: the file reads as before.
ACCEPTED_CSV_EDITS = {
    "trailing-blank-lines": lambda lines: [*lines, "\n", "\r\n"],
    "blank-lines-between-rows": lambda lines: [lines[0], "\n", lines[1], "\n", "\n", *lines[2:]],
    "byte-order-mark": lambda lines: ["\ufeff" + lines[0], *lines[1:]],
}
# Edits the reader refuses: each with the line its message names and the fields the row has beyond the header's.
REFUSED_CSV_EDITS = {
    "a-field-too-many": (lambda lines: [*lines[:2], lines[2].replace("\n", ",1\n"), *lines[3:]], 3, 1),
    "a-field-too-few": (lambda lines: [*lines[:2], lines[2].rpartition(",")[0] + "\n", *lines[3:]], 3, -1),
    "after-blank-lines": (lambda lines: [lines[0], "\n", lines[1], "\n", lines[2].replace("\n", ",1\n"),
                                         *lines[3:]], 5, 1),
}


def edit_csv(path, edit):
    """Rewrite the CSV file ``path`` with ``edit`` applied to its lines; return its header's field count."""
    text = path.read_text(encoding="utf-8")
    path.write_text("".join(edit(text.splitlines(keepends=True))), encoding="utf-8", newline="")
    return text.partition("\n")[0].count(",") + 1


class TestCsvReaders:
    """A dataset, a summary given to report and a trajectory report reads all go through one reader: blank
    lines are skipped, a byte-order mark is allowed, and a row whose field count is not the header's is
    refused by its line."""

    DATASET = "x_0,x_1,label\n1.0,0.5,1\n-0.5,2.0,0\n0.25,-1.0,1\n0.1,0.1,0\n"

    def run_dataset(self, tmp_path, edit=None):
        """Exit code and written files (None: none) of a run on the dataset, edited by ``edit`` if given."""
        (tmp_path / "data.csv").write_text(self.DATASET, encoding="utf-8")
        if edit is not None:
            edit_csv(tmp_path / "data.csv", edit)
        text = LOGISTIC_CSV_SWEEP.replace("path = unset", f"path = {tmp_path / 'data.csv'}")
        out = tmp_path / ("edited" if edit else "plain")
        code = main(["run", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"])
        return code, {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None

    def saddle_run(self, tmp_path, name):
        """The summary path of a 3-seed, 5-step saddle run into tmp_path / name."""
        return cmd_run(load_config(write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 5"))),
                       str(tmp_path / name))

    def report(self, tmp_path, edit=None, which="summary.csv"):
        """Exit code and bands.csv of report on a 3-seed run whose summary or seed-1 trajectory is edited."""
        out = tmp_path / ("edited" if edit else "plain")
        summary = self.saddle_run(tmp_path, out.name)
        if edit is not None:
            edit_csv(out / which, edit)
        code = main(["report", summary, "--out", str(out / "rep")])
        return code, (out / "rep" / "bands.csv").read_bytes() if code == 0 else None

    @pytest.mark.parametrize("edit", ACCEPTED_CSV_EDITS.values(), ids=ACCEPTED_CSV_EDITS)
    def test_a_dataset_reads_as_before(self, tmp_path, edit):
        plain = self.run_dataset(tmp_path)
        assert plain[0] == 0 and self.run_dataset(tmp_path, edit) == plain

    @pytest.mark.parametrize("which", ["summary.csv", "run_seed1.csv"], ids=("summary", "trajectory"))
    @pytest.mark.parametrize("edit", ACCEPTED_CSV_EDITS.values(), ids=ACCEPTED_CSV_EDITS)
    def test_a_report_reads_as_before(self, tmp_path, edit, which):
        plain = self.report(tmp_path)
        assert plain[0] == 0 and self.report(tmp_path, edit, which) == plain

    @pytest.mark.parametrize("edit, line, extra", REFUSED_CSV_EDITS.values(), ids=REFUSED_CSV_EDITS)
    def test_a_dataset_row_of_another_width_exits_2_naming_its_line(self, tmp_path, capsys, edit, line, extra):
        assert self.run_dataset(tmp_path, edit) == (2, None)
        path = tmp_path / "data.csv"
        assert capsys.readouterr().err == f"error: {path}:{line}: expected 3 columns, got {3 + extra}\n"

    @pytest.mark.parametrize("which", ["summary.csv", "run_seed1.csv"], ids=("summary", "trajectory"))
    @pytest.mark.parametrize("edit, line, extra", REFUSED_CSV_EDITS.values(), ids=REFUSED_CSV_EDITS)
    def test_a_report_row_of_another_width_exits_2_naming_its_line(self, tmp_path, capsys, edit, line, extra, which):
        """Not cut to the header's width or padded out, as a reader of dicts would."""
        summary = self.saddle_run(tmp_path, "edited")
        out = tmp_path / "edited"
        n = edit_csv(out / which, edit)
        assert main(["report", summary, "--out", str(out / "rep")]) == 2
        assert capsys.readouterr().err == f"error: {out / which}:{line}: expected {n} columns, got {n + extra}\n"
        assert not (out / "rep").exists()

    def test_a_bad_field_after_blank_lines_names_its_own_line(self, tmp_path, capsys):
        summary = self.saddle_run(tmp_path, "run")
        out = tmp_path / "run"
        edit_csv(out / "summary.csv", lambda lines: [lines[0], "\n", "\n", lines[1].replace(",0,", ",x,", 1),
                                                     *lines[2:]])
        assert main(["report", summary, "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"error: {out / 'summary.csv'}:4: bad seed field 'x'\n"

    @pytest.mark.parametrize("text", ["", "\n\n", "\ufeff", "\ufeff\r\n"], ids=("empty", "blank", "bom", "bom-blank"))
    def test_a_file_of_no_rows_is_empty(self, tmp_path, capsys, text):
        (tmp_path / "summary.csv").write_text(text, encoding="utf-8", newline="")
        assert main(["report", str(tmp_path / "summary.csv"), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'summary.csv'}: empty file\n"


class TestEveryFlagIsRead:
    # A flag and the keyword of the runner.cmd_* that reads it: where the output goes and how to run.
    KEYWORDS = {"--out": "out_dir", "--jobs": "jobs"}
    # Everything else an experiment is comes from its config.
    FLAGS = {"run": {"--out", "--jobs"}, "sweep": {"--out", "--jobs"}, "estimation-scaling": {"--out", "--jobs"},
             "report": {"--out"}}

    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        parser = build_parser()
        assert {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"} == {
            "--out", "--jobs"}  # each only to refuse it before the subcommand
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subparsers.choices) == sorted(self.FLAGS)
        for command, sub in subparsers.choices.items():
            declared = {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            params = inspect.signature(getattr(runner, "cmd_" + command.replace("-", "_"))).parameters
            read = {flag for flag, keyword in self.KEYWORDS.items() if keyword in params}
            assert declared == read == self.FLAGS[command], command

    @pytest.mark.parametrize("command", ["run", "sweep", "estimation-scaling"])
    @pytest.mark.parametrize("flag, value", [("--axis", "optimizer.epsilon"), ("--values", "0.1"),
                                             ("--seed-offset", "3")])
    def test_a_flag_that_would_change_what_runs_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        if command == "estimation-scaling":
            text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01")
        else:
            text = SADDLE_CFG.replace("t = 200", "t = 5")
            if command == "sweep":
                text = with_sweep(text, "optimizer.eta", "0.01")
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "o"
        assert main([command, cfg, "--out", str(tmp_path / "ok"), "--jobs", "1"]) == 0  # the config alone runs
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, flag, value, "--out", str(out), "--jobs", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


LARGE_STEP_CFG = """
[problem]
name = quadratic_gaussian
dim = 2
h_diag = 1.0,0.5
noise_diag = 0.5,0.2

[optimizer]
algorithm = large_step
kind = diagonal
eta = 0.01
r = 0.07
t_thresh = 10
beta_spec = 0.9
epsilon = 1e-8

[run]
seeds = 0
t = 40
"""


class TestResolveRun:
    def test_hallucination_divisor_rounds_like_hallucination_count(self, tmp_path, monkeypatch):
        # 0.07 / 0.01 is 7.000000000000001 in floats: S = ceil(r/eta) must
        # still be 7, as estimation.hallucination_count computes it
        from precondsgd import runner
        from precondsgd.estimation import burn_in_length

        assert 0.07 / 0.01 > 7.0
        cfg = load_config(write_config(tmp_path / "cfg.ini", LARGE_STEP_CFG))
        build, calls = runner.build_problem, []

        def counting_build(pcfg):
            problem = build(pcfg)
            sample = problem.sample_grad
            problem.sample_grad = lambda x, rng: calls.append(1) or sample(x, rng)
            return problem

        monkeypatch.setattr(runner, "build_problem", counting_build)
        run = the_run(cfg)
        (traj,) = runner.execute_records(cfg, run, [0])
        assert run.S == 7
        W = burn_in_length(0.01)
        assert run.W == W
        large_steps = 4  # t = 0, 10, 20, 30
        assert len(calls) == 40 + W + large_steps * (7 + 1)
        assert np.count_nonzero(traj.step_kind == "hallucinated") == large_steps * (7 + 1)


SECOND_ORDER_KEYS = """auto = second_order
l = 1
rho = 1
c3 = 2
c4 = 0.5
lambda_minus = 0.5
tau = 100
delta = 1
omega = 1
"""

# Every algorithm, with each source it can take.
ALGORITHM_SOURCES = [
    ("sgd", None),
    ("preconditioned_sgd", "idealized"),
    ("preconditioned_sgd", "estimated"),
    ("rmsprop", None),
    ("rmsprop_burnin", None),
    ("large_step", "idealized"),
    ("large_step", "estimated"),
]


def resolved_config(tmp_path, algorithm, source, auto):
    """A saddle config that sets every run setting auto leaves to it; the algorithm decides which it acts on."""
    text = f"""
[problem]
name = saddle
x0 = 0.1,0.05
[optimizer]
algorithm = {algorithm}
kind = full_matrix
beta_spec = schedule
epsilon = 1e-8
"""
    if source is not None:
        text += f"source = {source}\n"
    if auto:
        text += SECOND_ORDER_KEYS
    else:
        text += "eta = 0.005\nr = 0.02\nt_thresh = 15\n"
    text += "[run]\nseeds = 0,1\nt = 100\n" + ("" if auto else "burn_in_c = 0.2\n")
    return load_config(write_config(tmp_path / "cfg.ini", text))


class TestTheResolvedRunIsWhatRuns:
    @pytest.mark.parametrize("auto", [False, True], ids=["explicit", "auto"])
    @pytest.mark.parametrize("algorithm, source", ALGORITHM_SOURCES)
    def test_the_resolved_run_matches_the_trajectory(self, tmp_path, algorithm, source, auto):
        cfg = resolved_config(tmp_path, algorithm, source, auto)
        run = the_run(cfg)
        trajectories = execute_records(cfg, run, [0, 1])
        estimating = run.source == "estimated" and run.kind.variant != "identity"
        assert (run.beta is not None or run.beta_c is not None) == estimating
        assert (run.f_thresh is not None) == (run.g_thresh is not None) == auto
        for traj in trajectories:
            assert traj.error is None
            count = {kind: np.count_nonzero(traj.step_kind == kind)
                     for kind in (STEP_BURNIN, STEP_LARGE, STEP_HALLUCINATED, STEP_NORMAL)}
            assert count[STEP_BURNIN] == run.W
            assert (count[STEP_LARGE] > 0) == (run.t_thresh is not None)
            if run.t_thresh is not None:
                assert count[STEP_LARGE] == -(-run.T // run.t_thresh)
            assert (run.S is not None) == (count[STEP_HALLUCINATED] > 0)
            if estimating:
                assert count[STEP_HALLUCINATED] == count[STEP_LARGE] * ((run.S or 0) + 1)
            assert count[STEP_LARGE] + count[STEP_NORMAL] == run.T
            assert len(traj) == run.W + run.T + count[STEP_HALLUCINATED]  # every event logged

    def test_rmsprop_with_second_order_auto_has_no_burn_in_or_large_steps(self, tmp_path):
        def resolved_run(algorithm):
            cfg = resolved_config(tmp_path, algorithm, None, True)
            return resolve_run(cfg, build_problem(cfg.problem))

        run = resolved_run("rmsprop")
        assert run.W == 0 and run.r is None and run.t_thresh is None and run.S is None
        # the calculator's thresholds are carried through
        large = resolved_run("large_step")
        assert (large.W, large.t_thresh, large.S) == (36, 43, 3)
        assert run.f_thresh == large.f_thresh > 0.0
        assert run.g_thresh == large.g_thresh == large.f_thresh / 43


FIRST_ORDER_KEYS = "l = 1\nc3 = 1\nlambda_minus = 1\ndelta_f = 1\ntau = 0.3\n"
AUTO_SETTINGS = {
    "first_order_exact": "auto = first_order_exact\n" + FIRST_ORDER_KEYS,
    "first_order_inexact": "auto = first_order_inexact\n" + FIRST_ORDER_KEYS,
    "second_order": SECOND_ORDER_KEYS,
}


def auto_config(tmp_path, auto, algorithm="rmsprop", extra=""):
    """A saddle config with ``optimizer.auto`` (None: without it) plus ``extra`` optimizer lines."""
    return write_config(tmp_path / "auto.ini", f"""
[problem]
name = saddle
x0 = 0.1,0.05
[optimizer]
algorithm = {algorithm}
kind = full_matrix
epsilon = 1e-8
beta_spec = schedule:0.5
{AUTO_SETTINGS.get(auto, "")}{extra}[run]
seeds = 0,1
t = 100
""")


class TestWhatAConfigLeavesOutOrPicks:
    def test_a_run_key_left_out_takes_its_default(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", SADDLE_CFG))
        run = resolve_run(cfg, build_problem(cfg.problem))
        assert (run.log_every, run.lambda_min_every, run.track_est_error, run.bias_corrected) == (1, 0, False, False)
        assert (run.eta_decay, run.W, run.kind.exponent) == ("none", 0, -0.5)

    @pytest.mark.parametrize("auto, exact", [("first_order_exact", True), ("first_order_inexact", False)])
    def test_each_first_order_mode_runs_its_own_calculator(self, tmp_path, auto, exact):
        cfg = load_config(auto_config(tmp_path, auto))
        run = resolve_run(cfg, build_problem(cfg.problem))
        assert (run.eta, run.T) == first_order_params(1.0, 1.0, 1.0, 1.0, 0.3, exact=exact)


class TestAutoLeavesNoKeyUnread:
    @pytest.mark.parametrize(
        "auto, key, value",
        [("second_order", key, value) for key, value in
         (("eta", "0.005"), ("r", "0.02"), ("t_thresh", "15"))]
        + [("first_order_exact", "eta", "0.005"), ("first_order_inexact", "eta", "0.005")],
    )
    def test_a_key_auto_computes_exits_2_naming_it(self, tmp_path, capsys, auto, key, value):
        cfg = auto_config(tmp_path, auto, extra=f"{key} = {value}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert f"optimizer.{key}: computed by optimizer.auto={auto}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "auto, key",
        [(auto, key) for auto in ("first_order_exact", "first_order_inexact")
         for key in ("rho", "c4", "nu1", "nu2", "m_bound", "delta", "omega", "k_const")]
        + [("second_order", "delta_f")],
    )
    def test_a_key_of_another_mode_exits_2_naming_it(self, tmp_path, capsys, auto, key):
        cfg = auto_config(tmp_path, auto, extra=f"{key} = 0.5\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert f"optimizer.{key}: not read by optimizer.auto={auto}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_second_order_rejects_a_fixed_beta_and_reads_a_schedule(self, tmp_path, capsys):
        cfg = auto_config(tmp_path, "second_order")
        fixed = write_config(tmp_path / "fixed.ini", (tmp_path / "auto.ini").read_text().replace("schedule:0.5", "0.9"))
        assert main(["run", fixed, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert "optimizer.beta_spec: a fixed beta is computed by optimizer.auto=second_order" in capsys.readouterr().err
        loaded = load_config(cfg)
        run = resolve_run(loaded, build_problem(loaded.problem))
        assert run.beta == beta_schedule(run.eta, 0.5)


LOGISTIC_CFG = """
[problem]
name = logistic_synthetic
n = 50
d = 3
data_seed = 1
[optimizer]
kind = diagonal
eta = 0.05
beta_spec = 0.9
epsilon = 1e-6
[run]
seeds = 0
t = 10
"""


class TestConfigErrorsBeforeAnyRun:
    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("run", "[run]\netas = 0.1,0.01\n", "run.etas: read only by estimation-scaling, not by run"),
            ("run", "[run]\nest_window_factor = 2\n",
             "run.est_window_factor: read only by estimation-scaling, not by run"),
            ("run", "[sweep]\naxis = optimizer.eta\nvalues = 0.1,0.2\n", "[sweep]: read only by sweep, not by run"),
            ("sweep", "[run]\netas = 0.1,0.01\n", "run.etas: read only by estimation-scaling, not by sweep"),
            ("sweep", "[run]\nest_window_factor = 2\n",
             "run.est_window_factor: read only by estimation-scaling, not by sweep"),
            ("estimation-scaling", "[sweep]\naxis = optimizer.epsilon\nvalues = 0.1,0.2\n",
             "[sweep]: read only by sweep, not by estimation-scaling"),
            *(("estimation-scaling", f"[run]\n{key} = {value}\n",
               f"run.{key}: read only by run and sweep, not by estimation-scaling")
              for key, value in (("escape_level", "0.5"), ("f_threshold", "-1"), ("lambda_min_every", "2"))),
        ],
        ids=("run-etas", "run-window", "run-sweep", "sweep-etas", "sweep-window", "scaling-sweep",
             "scaling-escape-level", "scaling-f-threshold", "scaling-lambda-min-every"),
    )
    def test_a_part_the_subcommand_would_not_read_exits_2_naming_it(self, tmp_path, capsys, command, extra, message):
        """A setting the subcommand would drop unread; estimation-scaling's own overrides stay allowed."""
        if command == "estimation-scaling":
            text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.01,0.003")
        elif command == "sweep":
            text = with_sweep(SADDLE_CFG, "optimizer.eta", "0.01,0.02")
        else:
            text = SADDLE_CFG
        section, line = extra.split("\n", 1)
        text = text.replace(section + "\n", section + "\n" + line) if section in text else text + extra
        out = tmp_path / "o"
        assert main([command, write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_estimation_scaling_still_reads_the_keys_it_overrides(self, tmp_path):
        """optimizer.eta, optimizer.algorithm, run.t, run.log_every and run.track_est_error, which each eta
        replaces, are no unread keys."""
        text = ESTIMATION_CFG.format(noise="1,0.5", etas="0.01,0.003") + "log_every = 5\ntrack_est_error = false\n"
        assert all(line in text for line in ("algorithm = rmsprop\n", "eta = 0.01\n", "t = 1\n"))
        assert main(["estimation-scaling", write_config(tmp_path / "e.ini", text), "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 0

    @pytest.mark.parametrize(
        "optimizer, run, needs",
        [
            ("algorithm = preconditioned_sgd\nsource = idealized\n", "", "idealized preconditioning"),
            ("algorithm = large_step\nsource = idealized\nr = 0.1\nt_thresh = 5\n", "", "idealized preconditioning"),
            ("algorithm = rmsprop\n", "track_est_error = true\n", "est_error tracking"),
        ],
    )
    def test_a_run_needing_exact_g_on_a_problem_without_it_exits_2(self, tmp_path, capsys, optimizer, run, needs):
        text = LOGISTIC_CFG.replace("[optimizer]\n", "[optimizer]\n" + optimizer) + run
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert f"logistic_synthetic has no exact_G oracle, which {needs} needs" in capsys.readouterr().err
        assert not out.exists()

    def test_estimation_scaling_without_exact_g_exits_2(self, tmp_path, capsys):
        text = LOGISTIC_CFG.replace("[optimizer]\n", "[optimizer]\nalgorithm = rmsprop_burnin\n")
        text = text.replace("beta_spec = 0.9", "beta_spec = schedule") + "etas = 0.01,0.003\n"
        out = tmp_path / "o"
        assert main(["estimation-scaling", write_config(tmp_path / "c.ini", text), "--out", str(out)]) == 2
        assert "logistic_synthetic has no exact_G oracle, which est_error tracking needs" in capsys.readouterr().err
        assert not out.exists()

    def test_a_sweep_resolves_every_condition_before_running_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = with_sweep(SADDLE_CFG, "optimizer.algorithm", "rmsprop,large_step")
        argv = ["sweep", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        assert "optimizer.r and optimizer.t_thresh: required for large_step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, message", [("optimizer.eta", "0.01,0.5", "optimizer.eta=0.5: large-step mode needs r >= eta")])
    def test_a_sweep_condition_the_run_rejects_stops_the_sweep_before_any_runs(self, tmp_path, capsys, axis, values,
                                                                               message):
        out = tmp_path / "o"
        text = with_sweep(LARGE_STEP_CFG, axis, values)
        argv = ["sweep", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "optimizer, key, value",
        [("algorithm = sgd\neta = nan\n", "optimizer.eta", "nan"),
         ("algorithm = sgd\neta = inf\n", "optimizer.eta", "inf"),
         ("algorithm = preconditioned_sgd\nsource = idealized\neta = 0.01\nepsilon = nan\n", "optimizer.epsilon", "nan")],
        ids=("eta-nan", "eta-inf", "epsilon-nan"),
    )
    def test_a_non_finite_number_exits_2_naming_the_key_and_writes_nothing(self, tmp_path, capsys, optimizer, key,
                                                                           value):
        text = f"[problem]\nname = saddle\nx0 = 0.1,0.1\n[optimizer]\n{optimizer}[run]\nseeds = 0\nt = 5\n"
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert f"c.ini: {key}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_non_finite_sweep_value_stops_the_sweep_before_any_runs(self, tmp_path, capsys):
        text = "[problem]\nname = counterexample\nc = 3\nzeta = 1\n[optimizer]\nalgorithm = sgd\neta = 0.01\n" \
               "[run]\nseeds = 0\nt = 5\n"
        out = tmp_path / "o"
        text = with_sweep(text, "problem.x0", "0.5,nan")
        argv = ["sweep", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]
        assert main(argv) == 2
        assert "error: problem.x0: expected a finite number, got 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_large_steps_with_a_zero_eta_exit_2(self, tmp_path, capsys):
        text = LARGE_STEP_CFG.replace("eta = 0.01", "eta = 0")
        assert main(["run", write_config(tmp_path / "c.ini", text), "--out", str(tmp_path / "o")]) == 2
        assert "eta and c_w must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "estimation-scaling"])
    @pytest.mark.parametrize("key, value", [("w", "5"), ("s", "2")])
    def test_w_and_s_are_unknown_keys(self, tmp_path, capsys, started, command, key, value):
        """W and S follow from eta (and run.burn_in_c), so no file sets them."""
        text = LARGE_STEP_CFG if command == "run" else ESTIMATION_CFG.format(noise="1,0.5", etas="0.01,0.003")
        text = text.replace("[optimizer]\n", f"[optimizer]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, write_config(tmp_path / "c.ini", text), "--out", str(out)]) == 2
        assert f"c.ini: unknown key optimizer.{key}" in capsys.readouterr().err
        assert started == [] and not out.exists()


@pytest.fixture
def started(monkeypatch):
    """The run_sgd calls and the process pools started in this process, in order."""
    started, run_sgd = [], runner.run_sgd
    monkeypatch.setattr(runner, "run_sgd", lambda *args: started.append("run_sgd") or run_sgd(*args))

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append("pool")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started


# Each rule on one config value alone, which its key's parser holds: (section.key, a value the test's base config
# takes, which starts a sweep of the key, or None for a key that is no sweep axis; an edge value the rule refuses;
# the refusal).
AUTO_INPUTS = {"l": "1", "rho": "1", "c3": "2", "c4": "0.5", "lambda_minus": "0.5", "tau": "100", "delta": "1",
               "omega": "1", "nu1": "1.2", "nu2": "0.9", "m_bound": "1.5", "k_const": "0.2", "delta_f": "1"}
ONE_KEY_RULES = [
    ("problem.name", "saddle", "nosuch", f"unknown problem 'nosuch' (expected one of {tuple(PROBLEMS)})"),
    ("optimizer.algorithm", "rmsprop", "adam", "unknown algorithm 'adam'"),
    ("optimizer.kind", "diagonal", "lowrank", "unknown kind 'lowrank'"),
    ("optimizer.source", "estimated", "guessed", "unknown source 'guessed'"),
    ("optimizer.eta_decay", "none", "cosine", "unknown schedule 'cosine'"),
    ("optimizer.auto", "second_order", "guess", "unknown mode 'guess'"),
    ("run.t", "200", "0", "must be >= 1"),
    ("run.log_every", "1", "0", "must be >= 1"),
    ("run.lambda_min_every", "0", "-1", "must be >= 0"),
    ("run.burn_in_c", "2", "-1", "must be positive, got -1.0"),
    ("run.burn_in_c", "2", "0", "must be positive, got 0.0"),
    ("run.est_window_factor", None, "-5", "must be positive, got -5.0"),
    *((f"optimizer.{key}", value, "0", f"must be in {dict(k_const='(0, 1.0)', delta='(0, 1.0]').get(key, '(0, inf)')}"
       ", got 0.0") for key, value in AUTO_INPUTS.items()),
    ("optimizer.tau", "100", "-1", "must be in (0, inf), got -1.0"),
    ("optimizer.k_const", "0.2", "1", "must be in (0, 1.0), got 1.0"),
    ("optimizer.delta", "1", "7", "must be in (0, 1.0], got 7.0"),
    ("optimizer.delta", "1", "1.5", "must be in (0, 1.0], got 1.5"),
    ("run.seeds", None, "-1, 2", "seed -1 is negative"),
    ("run.seeds", None, "5, -3", "seed -3 is negative"),
    ("run.seeds", None, "3, 3", "seed 3 occurs more than once"),
    ("run.seeds", None, "4, 3, 4, 3", "seed 3 occurs more than once"),  # of two repeated seeds, the smaller
    ("run.etas", None, "0.01", "estimation scaling needs at least two stepsizes"),
    ("run.etas", None, "0.01, 0.01", "eta 0.01 occurs more than once"),
    ("run.etas", None, "0.01, 0.003, 0.010", "eta 0.01 occurs more than once"),
    ("run.etas", None, "0.01, -0.01", "eta -0.01 must be positive"),
    ("run.etas", None, "0, 0.01", "eta 0.0 must be positive"),
]


def base_config(tmp_path, key):
    """The subcommand that reads section.key ``key`` and a config it runs: a scaling study for the keys only it
    reads, an ``optimizer.auto`` config for the calculators' keys (first order for ``delta_f``), else SADDLE_CFG."""
    command = config._READERS.get(key, (("run",), True))[0][0]
    name = key.partition(".")[2]
    if command == "estimation-scaling":
        return command, ESTIMATION_CFG.format(noise="1,0.5", etas="0.01,0.003")
    if name in (*AUTO_KEYS, "auto"):
        with open(auto_config(tmp_path, "first_order_exact" if name == "delta_f" else "second_order"),
                  encoding="utf-8") as fh:
            return command, fh.read()
    return command, SADDLE_CFG


class TestEachKeyRefusesItsEdgeValue:
    @pytest.mark.parametrize("key, valid, edge, refusal, sweep", [
        pytest.param(*rule, sweep, id=f"{rule[0]}={rule[2]}-{'sweep' if sweep else 'load'}")
        for rule in ONE_KEY_RULES for sweep in (False, True)[:1 + (rule[1] is not None)]])
    def test_at_load_naming_the_file_and_key_and_as_a_sweep_value_naming_the_axis(
            self, tmp_path, capsys, started, key, valid, edge, refusal, sweep):
        command, text = base_config(tmp_path, key)
        if sweep:
            command, text, where = "sweep", with_sweep(text, key, f"{valid}, {edge}"), key
        else:
            section, _, name = key.partition(".")
            lines = [ln for ln in text.splitlines() if ln.partition(" = ")[0] != name]
            lines.insert(lines.index(f"[{section}]") + 1, f"{name} = {edge}")
            text, where = "\n".join(lines) + "\n", f"{tmp_path / 'c.ini'}: {key}"
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a calculator warns on an input out of its range; it must not see one
            assert main([command, write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err == f"error: {where}: {refusal}\n"
        assert started == [] and not out.exists()

    def test_every_key_whose_parser_checks_its_value_has_a_case(self):
        checked = {f"{section}.{key}" for section, schema in config._SCHEMAS.items() for key, parse in schema.items()
                   if getattr(parse, "func", None) is config._checked
                   or parse in (config._parse_seeds, config._parse_etas)}
        assert checked == {key for key, *_ in ONE_KEY_RULES}
        axes = set()
        for key in checked:
            with contextlib.suppress(ConfigError):
                config._parse_axis(key)
                axes.add(key)
        assert {key for key, valid, *_ in ONE_KEY_RULES if valid is not None} == axes

    @pytest.mark.parametrize("problem, optimizer, axis, values, message", [
        ("name = counterexample\nzeta = 1\n", "", "problem.c", "3", "problem.c: required for counterexample"),
        ("name = saddle\n", "", "problem.name", "saddle, counterexample",
         "problem.name=counterexample: problem.c: required for counterexample"),
        ("name = saddle\n", "tau = 0.3\n", "optimizer.auto", "first_order_exact",
         "optimizer.tau: read only by optimizer.auto, which is not set"),
        ("name = saddle\n", "", "optimizer.tau", "0.3", "optimizer.tau=0.3: optimizer.tau: read only by optimizer.auto, "
         "which is not set"),
    ], ids=("required-key", "required-key-of-a-value", "auto-input", "auto-input-of-a-value"))
    def test_a_rule_on_keys_together_holds_for_the_config_as_written_and_for_each_sweep_value(
            self, tmp_path, capsys, started, problem, optimizer, axis, values, message):
        text = f"[problem]\n{problem}[optimizer]\nalgorithm = sgd\neta = 0.01\n{optimizer}[run]\nseeds = 0\nt = 3\n"
        out = tmp_path / "o"
        assert main(["sweep", write_config(tmp_path / "c.ini", with_sweep(text, axis, values)), "--out", str(out),
                     "--jobs", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == [] and not out.exists()


class TestNothingRunsBeforeAnExit2:
    """Every condition is resolved, and --out checked, before the first seed runs or a worker starts."""

    # Each runs as it stands, two seeds or three conditions, so --jobs 2 would start a pool.
    CONFIGS = {
        "run": LARGE_STEP_CFG.replace("seeds = 0\n", "seeds = 0,1\n"),
        "sweep": with_sweep(LARGE_STEP_CFG.replace("seeds = 0\n", "seeds = 0,1\n"), "optimizer.eta", "0.01,0.02,0.03"),
        "estimation-scaling": ESTIMATION_CFG.format(noise="1,0.5", etas="0.1,0.01,0.001"),
    }
    # command -> its config with the last condition broken, and the error it exits 2 with.
    LAST_CONDITION_BROKEN = {
        "run": (CONFIGS["run"].replace("eta = 0.01", "eta = 0.5"), "error: large-step mode needs r >= eta"),
        "sweep": (CONFIGS["sweep"].replace("0.02,0.03", "0.02,0.5"),
                  "error: optimizer.eta=0.5: large-step mode needs r >= eta"),
        # every eta's run is the same but for eta, beta, T and W; so the last fails with the first
        "estimation-scaling": (CONFIGS["estimation-scaling"].replace("x0 = 0,0", "x0 = 0,0,0"),
                               "error: problem.x0: length must equal the problem dimension"),
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", CONFIGS)
    def test_the_configs_run_and_the_spies_see_it(self, tmp_path, started, command, jobs):
        cfg = write_config(tmp_path / "c.ini", self.CONFIGS[command])
        assert main([command, cfg, "--out", str(tmp_path / "o"), "--jobs", jobs]) == 0
        assert started[0] == ("run_sgd" if jobs == "1" else "pool")

    def test_one_group_runs_in_this_process_whatever_jobs(self, tmp_path, started):
        cfg = write_config(tmp_path / "c.ini", LARGE_STEP_CFG)  # one seed, one condition
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 0
        assert started == ["run_sgd"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", CONFIGS)
    def test_a_last_condition_that_cannot_resolve_runs_no_seed(self, tmp_path, capsys, started, command, jobs):
        text, message = self.LAST_CONDITION_BROKEN[command]
        out = tmp_path / "o"
        assert main([command, write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", jobs]) == 2
        assert message in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("command", CONFIGS)
    def test_each_condition_is_resolved_once_before_any_runs(self, tmp_path, monkeypatch, capsys, started, command):
        """A stand-in resolve_run fails on the last condition: the ones before it resolved once each, and none ran."""
        resolved, resolve = [], config.resolve_run
        conditions = config.conditions(load_config(write_config(tmp_path / "c.ini", self.CONFIGS[command])), command)

        def resolve_but_the_last(cfg, problem):
            resolved.append(resolve(cfg, problem))
            if len(resolved) == len(conditions):
                raise ConfigError("the last condition")
            return resolved[-1]

        monkeypatch.setattr(config, "resolve_run", resolve_but_the_last)
        out = tmp_path / "o"
        assert main([command, str(tmp_path / "c.ini"), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err.endswith("the last condition\n")
        assert resolved == [run for _, _, run in conditions] and started == [] and not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=("a-file", "under-a-file"))
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", CONFIGS)
    def test_an_out_that_is_or_lies_under_a_file_runs_no_seed(self, tmp_path, capsys, started, command, jobs, under):
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / "sub" if under else afile
        cfg = write_config(tmp_path / "c.ini", self.CONFIGS[command])
        assert main([command, cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: output directory {out}: {afile} is not a directory\n"
        assert started == [] and afile.read_text(encoding="utf-8") == "kept\n"

    def test_the_out_check_makes_no_directory(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", self.CONFIGS["run"]))
        rows = runner._execute_conditions(lambda *task: task[-1], cfg, "run", str(tmp_path / "a" / "b"), 1)
        assert rows == [0, 1] and sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


class TestASweepValueNamesItsError:
    def test_a_value_its_run_refuses_is_named(self, tmp_path, capsys):
        text = with_sweep(SADDLE_CFG.replace("kind = diagonal", "kind = full_matrix"), "optimizer.eta", "0.01, -0.01")
        out = tmp_path / "o"
        assert main(["sweep", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err == "error: optimizer.eta=-0.01: eta must be nonnegative\n"
        assert not out.exists()

    def test_the_error_keeps_its_class(self, tmp_path):
        """So its exit code stays: an InvalidParamError of the run, a FileNotFoundError of the problem."""
        text = with_sweep(SADDLE_CFG, "optimizer.eta", "0.01, -0.01")
        with pytest.raises(errors.InvalidParamError, match=r"^optimizer\.eta=-0\.01: eta must be nonnegative$"):
            config.conditions(load_config(write_config(tmp_path / "c.ini", text)), "sweep")
        missing = tmp_path / "missing.csv"
        text = with_sweep(LOGISTIC_CSV_SWEEP, "problem.path", f"{tmp_path / 'data.csv'}, {missing}")
        (tmp_path / "data.csv").write_text("a,label\n1.0,1\n-1.0,0\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match=f"^problem\\.path={re.escape(str(missing))}: "):
            config.conditions(load_config(write_config(tmp_path / "c.ini", text)), "sweep")

    def test_a_run_or_scaling_error_has_no_prefix(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", SADDLE_CFG.replace("eta = 0.01", "eta = -0.01")))
        with pytest.raises(errors.InvalidParamError, match="^eta must be nonnegative$"):
            config.conditions(cfg, "run")


LOGISTIC_CSV_SWEEP = """
[problem]
name = logistic_csv
path = unset
[optimizer]
algorithm = sgd
eta = 0.01
[run]
seeds = 0
t = 3
"""


def _blas_threads(run_id, cfg, run, seeds):
    """A seed group that returns, per seed, the BLAS thread counts its worker was started with."""
    return [{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")} for _ in seeds]


@pytest.mark.parametrize("user", [None, "3"], ids=("unset", "set-by-the-user"))
def test_a_pool_worker_runs_one_blas_thread_unless_the_user_chose(tmp_path, monkeypatch, user):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if user is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user)
    cfg = load_config(write_config(tmp_path / "c.ini", SADDLE_CFG))
    rows = runner._execute_conditions(_blas_threads, cfg, "run", str(tmp_path / "o"), 2)
    assert rows == [{"OPENBLAS_NUM_THREADS": user or "1", "OMP_NUM_THREADS": "1"}] * 3
    assert os.environ.get("OPENBLAS_NUM_THREADS") == user and "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=("umask-022", "umask-077"))
def test_every_file_a_run_writes_has_mode_0666_less_the_umask(tmp_path, umask, mode):
    cfg = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 5"))
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "precondsgd.cli", "run", cfg, "--out", str(out), "--jobs", "1"]
    child = subprocess.run(argv, capture_output=True, text=True, env=child_env(), umask=umask, timeout=60)
    assert child.returncode == 0, child.stderr
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert len(modes) == 4 and set(modes.values()) == {mode}  # three trajectories and the summary


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity on this platform")
def test_the_default_jobs_counts_the_cpus_this_process_may_run_on():
    code = ("import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from precondsgd import cli, linalg\n"
            "print(cli.build_parser().parse_args(['run', 'c.ini']).jobs, linalg._CORES)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1", "1"]


LOGISTIC_RUN_CFG = """
[problem]
name = logistic_synthetic
n = {n}
d = 4
data_seed = 3
{batch}
[optimizer]
algorithm = rmsprop
kind = diagonal
eta = 0.05
beta_spec = 0.9
epsilon = 1e-6
[run]
seeds = 0,1
t = 30
"""


def run_files(tmp_path, name, text):
    """The files ``precondsgd run`` writes for a config, by name."""
    out = tmp_path / name
    assert main(["run", write_config(tmp_path / f"{name}.ini", text), "--out", str(out), "--jobs", "1"]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestProblemsAsConfigured:
    def test_a_logistic_csv_of_the_synthetic_data_runs_the_same_bytes(self, tmp_path):
        from precondsgd import make_synthetic_logistic

        data = make_synthetic_logistic(200, 4, seed=3, batch=20)
        with open(tmp_path / "data.csv", "w", encoding="utf-8") as fh:
            fh.write("x_0,x_1,x_2,x_3,label\n")
            fh.writelines(",".join(map(repr, [*row, label])) + "\n" for row, label in
                          zip(data._X.tolist(), data._y.tolist()))
        synthetic = LOGISTIC_RUN_CFG.format(n=200, batch="batch = 20")
        from_csv = synthetic.replace("name = logistic_synthetic\nn = 200\nd = 4\ndata_seed = 3",
                                     f"name = logistic_csv\npath = {tmp_path / 'data.csv'}")
        files = run_files(tmp_path, "synthetic", synthetic)
        assert sorted(files) == ["run_seed0.csv", "run_seed1.csv", "summary.csv"]
        assert run_files(tmp_path, "csv", from_csv) == files

    @pytest.mark.parametrize(
        "problem, message",
        [("name = logistic_synthetic\nn = 20\nd = 2\ndata_seed = 0\nbatch = 0", "batch must be in [1, 20]"),
         ("name = logistic_synthetic\nn = 20\nd = 2\ndata_seed = 0\nbatch = 21", "batch must be in [1, 20]"),
         ("name = logistic_synthetic\nn = 20\nd = 2\ndata_seed = 0\nlabel_noise = 0.5",
          "label_noise must be in [0, 0.5)"),
         ("name = logistic_synthetic\nn = 0\nd = 2\ndata_seed = 0", "dataset is empty"),
         ("name = logistic_synthetic\nn = -5\nd = 2\ndata_seed = 0", "n_samples must be >= 0, got -5"),
         ("name = logistic_synthetic\nn = 20\nd = -2\ndata_seed = 0", "n_features must be >= 0, got -2"),
         ("name = logistic_synthetic\nn = 20\nd = 0\ndata_seed = 0", "dataset has no feature columns"),
         ("name = logistic_synthetic\nn = 20\nd = 2\ndata_seed = -1", "seed must be >= 0, got -1"),
         ("name = logistic_csv\npath = {tmp}/empty.csv", "empty.csv: empty file"),
         ("name = logistic_csv\npath = {tmp}/header.csv", "header.csv: no data rows"),
         ("name = logistic_csv\npath = {tmp}/labels.csv", "dataset has no feature columns"),
         ("name = logistic_csv\npath = {tmp}/nan.csv", "features must be finite: row 1 (counting from 0) holds nan"),
         ("name = logistic_csv\npath = {tmp}/inf.csv", "features must be finite: row 0 (counting from 0) holds -inf"),
         ("name = logistic_synthetic\nn = 20\nd = 2\ndata_seed = 0\n[sweep]\naxis = problem.d\nvalues = 3, 0",
          "problem.d=0: dataset has no feature columns"),
         # a beta schedule with no beta(eta_t) in (0, 1) is refused when its run resolves
         ("name = saddle\n[optimizer]\nalgorithm = rmsprop\neta = 0.0\nbeta_spec = schedule",
          "eta and C must be positive"),
         ("name = saddle\n[optimizer]\nalgorithm = rmsprop\neta = 0.01\nbeta_spec = schedule:100",
          "C * eta^(2/3) = 4.641588833612779 must be < 1"),
         # 1 - 2.2e-17 rounds to 1, which would freeze the EMA
         ("name = saddle\n[optimizer]\nalgorithm = rmsprop\neta = 1e-25\nbeta_spec = schedule",
          "C * eta^(2/3) = 2.1544346900318883e-17 is too small: beta = 1 - C eta^(2/3) rounds to 1"),
         # beta(0.5) is below 1, but the last of 3 steps' beta(0.5 / sqrt(3)) rounds to 1
         ("name = saddle\n[optimizer]\nalgorithm = rmsprop\neta = 0.5\nbeta_spec = schedule:1e-16\n"
          "eta_decay = inv_sqrt",
          "the last step's eta / sqrt(T) = 0.2886751345948129: C * eta^(2/3) = 4.367902323681495e-17 is too small: "
          "beta = 1 - C eta^(2/3) rounds to 1"),
         ("name = saddle\n[optimizer]\nalgorithm = rmsprop\neta = 0.01\n"
          "[sweep]\naxis = optimizer.beta_spec\nvalues = schedule:1, schedule:100",
          "optimizer.beta_spec=schedule:100: C * eta^(2/3) = 4.641588833612779 must be < 1")],
        ids=("batch-0", "batch-above-n", "label-noise", "no-samples", "negative-samples", "negative-features",
             "no-features", "negative-data-seed", "empty-file", "header-only", "labels-only", "nan-feature",
             "inf-feature", "sweep-no-features", "schedule-eta-0", "schedule-beta-below-0", "schedule-beta-rounds-to-1",
             "decayed-schedule-beta-rounds-to-1", "sweep-schedule-beta-below-0"),
    )
    def test_a_problem_it_cannot_build_exits_2_and_writes_nothing(self, tmp_path, capsys, started, problem, message):
        """Each config exits 2 while config.conditions resolves it: no seed runs, and nothing is written."""
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        (tmp_path / "header.csv").write_text("x_0,x_1,label\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("label\n1\n0\n", encoding="utf-8")
        (tmp_path / "nan.csv").write_text("x_0,x_1,label\n1.0,2.0,1\n3.0,nan,0\ninf,4.0,1\n", encoding="utf-8")
        (tmp_path / "inf.csv").write_text("x_0,x_1,label\n-inf,2.0,1\n", encoding="utf-8")
        optimizer = "" if "[optimizer]" in problem else "[optimizer]\nalgorithm = sgd\neta = 0.01\n"
        text = f"[run]\nseeds = 0\nt = 3\n{optimizer}[problem]\n{problem.format(tmp=tmp_path)}\n"
        out = tmp_path / "o"
        command = "sweep" if "[sweep]" in problem else "run"
        assert main([command, write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err.replace(f"{tmp_path}/", "") == f"error: {message}\n"
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("n, batch", [(50, 50), (200, 100)])
    def test_the_default_batch_is_100_or_every_sample(self, tmp_path, n, batch):
        default = run_files(tmp_path, "default", LOGISTIC_RUN_CFG.format(n=n, batch=""))
        assert default == run_files(tmp_path, "set", LOGISTIC_RUN_CFG.format(n=n, batch=f"batch = {batch}"))


# The [problem] section of a minimal config of each problem, one required key a line.
MINIMAL_PROBLEMS = {
    "saddle": "",
    "counterexample": "c = 3\nzeta = 0.5\n",
    "quadratic_gaussian": "dim = 2\nh_diag = 1,0.5\nnoise_diag = 0.5,0.2\n",
    "logistic_synthetic": "n = 20\nd = 2\ndata_seed = 0\n",
    "logistic_csv": "path = {path}\n",
}


def minimal_config(tmp_path, name, drop=None):
    """A minimal config of problem ``name``, without the [problem] line of key ``drop``."""
    (tmp_path / "data.csv").write_text("x_0,x_1,label\n1.0,0.5,1\n-0.5,2.0,0\n0.25,-1.0,1\n", encoding="utf-8")
    keys = MINIMAL_PROBLEMS[name].format(path=tmp_path / "data.csv")  # a problem added to PROBLEMS needs a line
    keys = "".join(line + "\n" for line in keys.splitlines() if line.partition(" =")[0] != drop)
    text = f"[problem]\nname = {name}\n{keys}[optimizer]\nalgorithm = sgd\neta = 0.01\n[run]\nseeds = 0\nt = 3\n"
    return write_config(tmp_path / f"{name}.ini", text)


class RecordingDict(dict):
    """A dict that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


class TestTheProblemTableAndTheSchemaAgree:
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_a_minimal_config_loads_builds_and_runs(self, tmp_path, name):
        cfg = load_config(minimal_config(tmp_path, name))
        assert set(cfg.problem) == {"name", *PROBLEMS[name].requires}
        assert isinstance(build_problem(cfg.problem), StochasticProblem)
        assert main(["run", minimal_config(tmp_path, name), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0

    @pytest.mark.parametrize("name, key", [(name, key) for name in PROBLEMS for key in PROBLEMS[name].requires])
    def test_a_config_without_a_required_key_exits_2_naming_it(self, tmp_path, capsys, name, key):
        out = tmp_path / "o"
        assert main(["run", minimal_config(tmp_path, name, drop=key), "--out", str(out), "--jobs", "1"]) == 2
        assert f"error: problem.{key}: required for {name}" in capsys.readouterr().err
        assert not out.exists()

    def test_the_builders_read_every_problem_key_and_build_every_problem_class(self, tmp_path):
        read, built = {"name", "x0"}, set()
        for name in PROBLEMS:
            pcfg = RecordingDict(load_config(minimal_config(tmp_path, name)).problem)
            built.add(type(PROBLEMS[name].build(pcfg)))
            read |= pcfg.read
        assert read == set(config._SCHEMAS["problem"])
        classes = {c for c in vars(problems).values() if isinstance(c, type) and issubclass(c, StochasticProblem)}
        assert built == classes - {StochasticProblem}

    def test_a_quadratic_whose_diagonals_miss_its_dim_exits_2(self, tmp_path, capsys):
        text = open(minimal_config(tmp_path, "quadratic_gaussian"), encoding="utf-8").read()
        cfg = write_config(tmp_path / "c.ini", text.replace("dim = 2", "dim = 3"))
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
        assert "error: problem.h_diag/noise_diag must have length problem.dim" in capsys.readouterr().err

    def test_a_quadratic_whose_diagonal_overflows_exits_2_and_writes_nothing(self, tmp_path, capsys):
        text = ("[problem]\nname = quadratic_gaussian\ndim = 4\nh_diag = 1e308,-0.5,0.2,3\nnoise_diag = 1,1,1,1\n"
                "[optimizer]\nalgorithm = sgd\neta = 0.01\n[run]\nseeds = 0\nt = 3\n")
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "c.ini", text), "--out", str(out), "--jobs", "1"]) == 2
        assert "error: problem.h_diag/noise_diag: H and noise_cov entries must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestResolvedRunIsPlainData:
    @pytest.mark.parametrize("decay", [None, "none", "inv_sqrt"])
    @pytest.mark.parametrize("auto", [None, *AUTO_SETTINGS])
    def test_a_resolved_run_pickles_with_its_eta_decay(self, tmp_path, auto, decay):
        extra = "" if decay is None else f"eta_decay = {decay}\n"
        if auto != "second_order":
            extra += "r = 0.2\nt_thresh = 15\n" + ("eta = 0.005\n" if auto is None else "")
        cfg = load_config(auto_config(tmp_path, auto, algorithm="large_step", extra=extra))
        run = resolve_run(cfg, build_problem(cfg.problem))
        assert asdict(run)["eta_decay"] == (decay or "none")
        back = pickle.loads(pickle.dumps(run))
        for field in fields(Run):
            np.testing.assert_equal(getattr(back, field.name), getattr(run, field.name), err_msg=field.name)

    def test_the_unpickled_run_runs_what_execute_records_ran(self, tmp_path):
        cfg = load_config(auto_config(tmp_path, "second_order", algorithm="large_step", extra="eta_decay = inv_sqrt\n"))
        run = the_run(cfg)
        trajectories = execute_records(cfg, run, [0, 1])
        back = pickle.loads(pickle.dumps(run))

        def rerun(run):
            return run_sgd(build_problem(cfg.problem), run, [make_rng(0), make_rng(1)])

        for traj, again in zip(trajectories, rerun(back)):
            np.testing.assert_array_equal(traj.x, again.x)
        # the decay came through the run: without it the run differs
        assert not np.array_equal(trajectories[0].x, rerun(replace(back, eta_decay="none"))[0].x)


def csv_writer_trajectory(traj, dim) -> str:
    """The trajectory CSV as csv.writer formats it, one repr() per value."""
    def logged(value):
        return "" if value != value else repr(value)

    columns = [traj.iteration.tolist(), traj.step_kind.tolist(), traj.f.tolist(), traj.grad_norm.tolist(),
               traj.lambda_min_h.tolist(), traj.est_error.tolist()]
    if dim <= 8:
        columns += traj.x.T.tolist()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(trajectory_columns(dim))
    writer.writerows(
        (str(it), kind, repr(f), repr(gn), logged(lam), logged(err), *map(repr, x))
        for it, kind, f, gn, lam, err, *x in zip(*columns)
    )
    return out.getvalue()


@pytest.mark.parametrize("dim", [1, 8, 9])
@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257])
def test_trajectory_csv_has_the_bytes_of_csv_writer(tmp_path, rows, dim):
    """Written a chunk of rows at a time, chunks of no rows among them: the bytes do not depend on the cuts."""
    rng = np.random.default_rng(rows * 10 + dim)
    # NaN is written "nan" in f, grad_norm and x, and empty in the two logged columns.
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300, 0.1, 1e16])

    def column(shape, blanks=False):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
        mask = rng.random(shape) < 0.2
        values[mask] = rng.choice(specials, size=mask.sum())
        if blanks:
            values[rng.random(shape) < 0.4] = np.nan
        return values

    kinds = np.array([STEP_BURNIN, STEP_NORMAL, STEP_LARGE, STEP_HALLUCINATED], dtype=object)
    traj = Trajectory(
        iteration=np.arange(rows, dtype=np.int64) - rows // 3,  # negative: burn-in events
        step_kind=kinds[rng.integers(0, 4, size=rows)],
        f=column(rows),
        grad_norm=column(rows),
        lambda_min_h=column(rows, blanks=True),
        est_error=column(rows, blanks=True),
        x=column((rows, dim)),
    )
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(trajectory_columns(dim)) + "\n")
        for chunk in chunked(traj, np.sort(rng.integers(0, rows + 1, size=4)).tolist()):
            write_trajectory(fh, chunk)
    assert path.read_bytes() == csv_writer_trajectory(traj, dim).encode("utf-8")


def whole_summary(traj, f_threshold, escape_level) -> dict:
    """The summary fields of one trajectory by the formulas over its whole columns: the reference that
    ``Summary``, fed the rows a chunk at a time, must give. A trajectory read back from CSV has no x, so
    no max_x_norm."""
    steps = traj.steps()
    fs, iters = traj.f[steps], traj.iteration[steps]

    def first_iter_at_or_below(level):
        hit = np.flatnonzero(fs <= level)
        return int(iters[hit[0]]) if hit.size else None

    est_errors = traj.est_error[steps]
    logged = est_errors[~np.isnan(est_errors)]
    return {
        "final_f": float(fs[-1]),
        "min_f": float(fs.min()),
        "iters_to_threshold": None if f_threshold is None else first_iter_at_or_below(f_threshold),
        "escape_time": first_iter_at_or_below(escape_level),
        "mean_last_1000_f": float(fs[-min(1000, len(fs)):].mean()),
        "sup_est_error": float(logged.max()) if logged.size else None,
        **({} if traj.x is None else {"max_x_norm": float(np.sqrt(np.vecdot(traj.x, traj.x)).max())}),
    }


def chunked(traj, cuts):
    """The rows of ``traj`` cut before each of the sorted row indices ``cuts`` (two equal cuts: a chunk of no rows)."""
    bounds = [0, *cuts, len(traj)]
    return [Trajectory(*(getattr(traj, f.name)[lo:hi] for f in fields(Trajectory)[:-1]))
            for lo, hi in zip(bounds, bounds[1:])]


@settings(PROPERTY, max_examples=200)
@given(n=st.integers(0, 2500), seed=st.integers(0, 2**32 - 1), steps=st.sampled_from([0.0, 0.02, 0.6, 1.0]),
       logged=st.sampled_from([0.0, 0.3, 1.0]), specials=st.booleans(), n_cuts=st.integers(0, 12),
       threshold=st.none() | st.floats(0.0, 1.0), escape=st.floats(0.0, 1.0))
@example(n=3000, seed=1, steps=0.6, logged=1.0, specials=False, n_cuts=12, threshold=0.5, escape=0.9)  # hits late
@example(n=400, seed=2, steps=0.6, logged=0.0, specials=False, n_cuts=5, threshold=None, escape=0.0)  # all-NaN
@example(n=40, seed=3, steps=0.0, logged=1.0, specials=True, n_cuts=3, threshold=0.5, escape=0.5)  # no steps
@np.errstate(invalid="ignore")  # a mean of inf and -inf
def test_the_running_summary_has_the_bits_of_the_whole_trajectory_formulas(n, seed, steps, logged, specials, n_cuts,
                                                                          threshold, escape):
    """A trajectory, or a failed seed's partial rows, cut into chunks at random rows (some chunks with no steps or
    no rows), some of them specials (NaN, +-inf, +-0): each field has the repr of the whole-array formula's. Only
    min_f is compared by value: of a tie of 0.0 and -0.0, numpy's whole-array min returns either by its vector
    lanes. f falls as it goes, so the first hit of a level may be in any chunk; a level is a quantile of f."""
    rng = np.random.default_rng(seed)
    kinds = np.array([STEP_BURNIN, STEP_HALLUCINATED, STEP_NORMAL, STEP_LARGE], dtype=object)
    is_step = rng.random(n) < steps
    f = 1.0 - np.cumsum(rng.exponential(size=n)) / max(n, 1) + 0.05 * rng.standard_normal(n)
    est_error = np.where(rng.random(n) < logged, rng.exponential(size=n), np.nan)
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
    if specials:
        for column in (f, est_error, x[:, 0]):
            at = rng.random(n) < 0.1
            column[at] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=at.sum())
        est_error[est_error < 0.0] = np.nan  # est_error is a norm: NaN (not evaluated), +0 or positive
        np.abs(est_error, out=est_error)
    traj = Trajectory(np.arange(n) - n // 4, kinds[2 * is_step + rng.integers(0, 2, size=n)], f, rng.random(n),
                      np.full(n, np.nan), est_error, x)
    finite = f[np.isfinite(f)] if np.isfinite(f).any() else np.zeros(1)
    levels = [None if q is None else float(np.quantile(finite, q)) for q in (threshold, escape)]
    summary = Summary(tuple(levels))
    for rows in chunked(traj, np.sort(rng.integers(0, n + 1, size=n_cuts)).tolist()):
        summary.add(rows)
    if not is_step.any():  # a failed seed's rows before its first step: folded, but no summary row
        assert summary.final_f is None and summary.hits == [None, None] and np.isnan(summary.sup_est_error)
        assert repr(float(summary.max_x_norm)) == repr(float(np.sqrt(np.vecdot(x, x)).max(initial=-np.inf)))
        return
    row = summary.row("r", 0, "t.csv")
    got = {**{key: row[key] for key in ("final_f", "iters_to_threshold", "escape_time", "mean_last_1000_f",
                                        "sup_est_error")},
           "max_x_norm": float(summary.max_x_norm)}
    want = whole_summary(traj, *levels)
    min_f = want.pop("min_f")
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}
    assert row["min_f"] == min_f or (math.isnan(row["min_f"]) and math.isnan(min_f))


def test_importing_the_cli_leaves_out_the_process_pool(tmp_path):
    """Nor does a serial d=2 run load a pool or start a thread: ``linalg.eigh`` starts its threads
    only for a large stack."""
    path = write_config(tmp_path / "c.ini", SADDLE_CFG.replace("kind = diagonal", "kind = full_matrix"))
    pools = "sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)"
    code = (
        f"import sys, threading, precondsgd.cli\nprint({pools})\n"
        f"rc = precondsgd.cli.main(['run', {path!r}, '--out', {str(tmp_path / 'o')!r}, '--jobs', '1'])\n"
        f"print(rc, {pools}, threading.active_count())"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    before, _, after = out.stdout.splitlines()  # the middle line is the summary's path
    assert (before, after) == ("[]", "0 [] 1")
