import os

import numpy as np
import pytest

from precondsgd import ConfigError
from precondsgd.cli import main
from precondsgd.config import load_config, parse_beta_spec
from precondsgd.runner import (
    cmd_run,
    cmd_sweep,
    read_summary,
    read_trajectory,
    summarize,
)


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_unknown_key_is_an_error(self, tmp_path):
        bad = SADDLE_CFG + "\n[sweep]\nbogus = 1\n"
        with pytest.raises(ConfigError, match="sweep.bogus"):
            load_config(write_config(tmp_path / "b.ini", bad))

    def test_unknown_problem_names_the_field(self, tmp_path):
        bad = SADDLE_CFG.replace("name = saddle", "name = nosuch")
        with pytest.raises(ConfigError, match="problem.name"):
            load_config(write_config(tmp_path / "c.ini", bad))

    def test_beta_spec_forms(self):
        assert parse_beta_spec("0.97") == ("fixed", 0.97)
        assert parse_beta_spec("schedule") == ("schedule", 1.0)
        assert parse_beta_spec("schedule:0.3") == ("schedule", 0.3)
        with pytest.raises(ConfigError):
            parse_beta_spec("1.5")

    def test_missing_required_key(self, tmp_path):
        bad = SADDLE_CFG.replace("t = 200", "")
        with pytest.raises(ConfigError, match="run.t"):
            load_config(write_config(tmp_path / "d.ini", bad))


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
            assert traj.exists()
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
            redo = summarize(traj, row["run_id"], int(row["seed"]), -0.01, None, row["trajectory"])
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

    def test_seed_offset_changes_streams(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG))
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_run(cfg, str(a), seed_offset=0)
        cmd_run(cfg, str(b), seed_offset=100)
        _, rows_a = read_summary(a / "summary.csv")
        _, rows_b = read_summary(b / "summary.csv")
        assert {r["seed"] for r in rows_b} == {"100", "101", "102"}
        assert rows_a[0]["final_f"] != rows_b[0]["final_f"]


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


class TestNumericFailures:
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

    def test_singular_estimate_flushes_every_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.ini", SINGULAR_AT_FIRST_STEP)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 3
        assert "run seed 0: lambda_min(Ghat) + eps not positive" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run_seed0.csv", "run_seed1.csv"]
        for p in out.iterdir():
            assert len(read_trajectory(p)) == 0  # the failure came before the first logged event

    @pytest.mark.parametrize(
        "command, seeds, offset, message",
        [
            ("run", "-1, 2", 0, "seed -1 is negative"),
            ("run", "0, 1", -1, "seed -1 is negative"),
            ("run", "3, 3", 0, "seed 3 occurs more than once"),
            ("sweep", "4, 2, 4", 0, "seed 4 occurs more than once"),
            ("estimation-scaling", "0", -2, "seed -2 is negative"),
        ],
    )
    def test_negative_or_repeated_seeds_exit_2(self, tmp_path, capsys, command, seeds, offset, message):
        text = SADDLE_CFG.replace("seeds = 0,1,2", f"seeds = {seeds}") + "etas = 0.01, 0.001\n"
        cfg = write_config(tmp_path / "cfg.ini", text)
        out = tmp_path / "out"
        extra = ["--axis", "optimizer.eta", "--values", "0.01"] if command == "sweep" else []
        assert main([command, cfg, *extra, "--out", str(out), "--seed-offset", str(offset)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_eta_sweep_merges_and_sorts(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 50")))
        out = tmp_path / "out"
        path = cmd_sweep(cfg, "optimizer.eta", ["0.01", "0.003", "0.001"], str(out))
        header, rows = read_summary(path)
        assert header[:2] == ["axis", "axis_value"]
        assert len(rows) == 9
        values = [float(r["axis_value"]) for r in rows]
        assert values == sorted(values)
        seeds = [int(r["seed"]) for r in rows[:3]]
        assert seeds == sorted(seeds)
        assert len(list(out.glob("*.csv"))) == 10  # 9 trajectories + summary

    def test_empty_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG)
        assert main(["sweep", cfg, "--axis", "optimizer.eta", "--values", "", "--out", str(tmp_path / "o")]) == 2

    def test_unknown_axis_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", SADDLE_CFG)
        assert (
            main(["sweep", cfg, "--axis", "optimizer.nope", "--values", "1,2", "--out", str(tmp_path / "o")]) == 2
        )

    def test_beta_spec_axis_mixes_fixed_and_schedule(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", SADDLE_CFG.replace("t = 200", "t = 40")))
        out = tmp_path / "out"
        path = cmd_sweep(cfg, "optimizer.beta_spec", ["0.9", "schedule:1"], str(out))
        _, rows = read_summary(path)
        assert {r["axis_value"] for r in rows} == {"0.9", "schedule:1"}


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
beta_spec = 0.9
epsilon = 0.0001

[run]
seeds = 5
t = 1
etas = {etas}
est_window_factor = 20
"""


class TestEstimationScaling:
    def test_single_eta_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", ESTIMATION_CFG.format(noise="1,1", etas="0.01"))
        assert main(["estimation-scaling", cfg, "--out", str(tmp_path / "o")]) == 2

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

    def test_mixed_schema_exit_2(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "cfg.ini", SADDLE_CFG.replace("t = 200", "t = 20")))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        sum_a = cmd_run(cfg, str(out_a))
        sum_b = cmd_sweep(cfg, "optimizer.eta", ["0.01"], str(out_b))
        assert main(["report", sum_a, sum_b, "--out", str(tmp_path / "r")]) == 2


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
    def test_hallucination_divisor_rounds_like_second_order_params(self, tmp_path, monkeypatch):
        # 0.07 / 0.01 is 7.000000000000001 in floats: S = ceil(r/eta) must
        # still be 7, as second_order_params computes it
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
        _, run, (traj,) = runner.execute_records(cfg, [0])
        assert run.hp.S == 7
        W = burn_in_length(0.01)
        assert run.hp.W == W
        large_steps = 4  # t = 0, 10, 20, 30
        assert len(calls) == 40 + W + large_steps * (7 + 1)
        assert np.count_nonzero(traj.step_kind == "hallucinated") == large_steps * (7 + 1)
