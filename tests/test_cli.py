"""CLI surface tests: subcommands, config precedence, reproducible records, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallball as sb
from smallball.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstantsCommand:
    def test_chaos_sup_prints_pi_over_four(self, capsys):
        code, out, _ = run(capsys, "constants", "--chaos-sup", "--omega-one-norm", "1", "--t", "1", "--b", "1")
        assert code == 0
        assert out.strip() == "0.7853981634"

    def test_chaos_clock_prints_one_eighth(self, capsys):
        code, out, _ = run(capsys, "constants", "--chaos-clock", "--omega-one-norm", "1", "--t", "1", "--d", "1")
        assert code == 0
        assert out.strip() == "0.1250000000"

    def test_tauberian_round_trip(self, capsys):
        code, out, _ = run(capsys, "constants", "--tauberian-forward", "--alpha", "1", "--beta", "0", "--big-k", "0.125")
        assert code == 0
        assert "L=0.7071067812" in out
        code, out, _ = run(
            capsys, "constants", "--tauberian-inverse", "--pow-exponent", "0.5", "--log-exponent", "0", "--big-l", "0.70710678118654757"
        )
        assert code == 0
        assert "K=0.1250000000" in out

    def test_kappa_p_with_explicit_lambda(self, capsys):
        code, out, _ = run(capsys, "constants", "--kappa-p", "--p", "2", "--lambda1", "0.7071067811865476")
        assert code == 0
        assert out.strip() == "0.1250000000"

    def test_weighted_sum_geometric(self, capsys):
        code, out, _ = run(capsys, "constants", "--weighted-sum", "--alpha", "1", "--big-k", "0.125", "--sigma", "0.25")
        assert code == 0
        assert out.strip() == "0.5000000000"

    def test_mode_required(self, capsys):
        code, _, err = run(capsys, "constants")
        assert code == 2
        assert "constants mode" in err


class TestLambda1Command:
    def test_harmonic_value(self, capsys):
        code, out, _ = run(capsys, "lambda1", "--p", "2")
        assert code == 0
        assert "0.7071068" in out


class TestSpectralCommand:
    def test_csv_input(self, capsys, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("0,3,0,0\n-3,0,0,0\n0,0,0,1\n0,0,-1,0\n")
        code, out, _ = run(capsys, "spectral", "--matrix", str(mat), "--project", "2", "--interlace", "2")
        assert code == 0
        assert "one_norm = 8.0" in out
        assert "interlace check (k=2): True" in out

    def test_invalid_matrix_is_usage_error(self, capsys, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("1,0\n0,1\n")
        code, _, err = run(capsys, "spectral", "--matrix", str(mat))
        assert code == 2
        assert "antisymmetric" in err


class TestSimulateCommand:
    def test_dump_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code, _, _ = run(
                capsys, "simulate", "--process", "chaos", "--q", "0.5", "0.25",
                "--n-steps", "64", "--seed", "5", "--dump", str(path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert len(rows) == 66

    def test_time_changed_process(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--process", "time-changed", "--clock", "power",
            "--clock-p", "2", "--n-steps", "128", "--seed", "3",
        )
        assert code == 0
        assert "time-changed:" in out

    def test_levy_area_is_the_single_term_chaos(self, capsys, tmp_path):
        recs = []
        for i, flags in enumerate((["--process", "levy-area"], ["--process", "chaos", "--q", "1.0"])):
            out = tmp_path / f"{i}.json"
            code, _, _ = run(capsys, "simulate", *flags, "--n-steps", "64", "--seed", "5", "--output", str(out))
            assert code == 0
            recs.append(json.loads(out.read_text())["results"])
        assert recs[0] == recs[1]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--clock", "power", "--rho", "nan"],
            ["--clock", "power", "--clock-p", "nan"],
            ["--clock", "power", "--clock-p", "inf"],
            ["--clock", "chaos", "--q", "0.5", "nan"],
        ],
    )
    def test_non_finite_clock_is_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "simulate", "--process", "time-changed", *flags, "--n-steps", "64")
        assert code == 2
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("process", ["bm", "levy-area", "chaos", "time-changed"])
    def test_nonpositive_horizon_is_usage_error(self, capsys, process):
        code, out, err = run(capsys, "simulate", "--process", process, "--horizon", "-1", "--n-steps", "64")
        assert code == 2
        assert "positive" in err
        assert out == ""


class TestEstimationCommands:
    def test_smallball_conditional_with_extraction(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "smallball", "--conditional", "--clock", "chaos", "--q", "1.0",
            "--eps", "0.5", "0.4", "0.3", "--samples", "2000", "--n-steps", "256", "--seed", "9",
            "--extract", "1", "0", "--output", str(path),
        )
        assert code == 0
        assert "extrapolated K" in out
        *probes, extraction = json.loads(path.read_text())["results"]
        # K_hat = -eps log p, so its delta-method SE is eps SE(p) / p
        want = [p["params"]["eps"] * p["stdError"] / p["estimate"] for p in probes]
        assert extraction["k_hat_se"] == want

    def test_smallball_raw(self, capsys):
        code, out, _ = run(
            capsys, "smallball", "--process", "bm", "--eps", "0.8", "--t", "1", "--b", "1",
            "--samples", "2000", "--n-steps", "128", "--seed", "2",
        )
        assert code == 0
        assert "P = " in out

    def test_zero_hits_flagged_in_record(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, stdout, _ = run(
            capsys, "smallball", "--process", "bm", "--eps", "0.1", "--samples", "1000",
            "--n-steps", "512", "--output", str(out),
        )
        assert code == 0
        assert "zero hits" in stdout
        (rec,) = json.loads(out.read_text())["results"]
        assert rec["zeroHits"] is True
        assert rec["estimate"] == 0.0
        assert rec["stdError"] == pytest.approx(1.0 - 0.05 ** (1.0 / 1000), rel=1e-12)

    def test_raw_multi_eps_matches_single_eps_runs(self, capsys, tmp_path):
        # one set of sup paths serves every eps; each record must equal its own run's
        argv = [
            "smallball", "--process", "time-changed", "--clock", "chaos", "--q", "0.5", "0.25",
            "--samples", "600", "--n-steps", "128", "--seed", "8",
        ]
        multi = tmp_path / "multi.json"
        code, _, _ = run(capsys, *argv, "--eps", "0.6", "0.4", "--output", str(multi))
        assert code == 0
        results = json.loads(multi.read_text())["results"]
        assert len(results) == 2
        for k, eps in enumerate(("0.6", "0.4")):
            single = tmp_path / f"single{k}.json"
            code, _, _ = run(capsys, *argv, "--eps", eps, "--output", str(single))
            assert code == 0
            (rec,) = json.loads(single.read_text())["results"]
            assert results[k] == rec

    def test_extract_needs_three_eps(self, capsys):
        code, out, err = run(
            capsys, "smallball", "--conditional", "--clock", "chaos", "--q", "1.0",
            "--eps", "0.4", "0.3", "--samples", "200", "--n-steps", "64", "--extract", "1", "0",
        )
        assert code == 2
        assert "three eps" in err
        assert out == ""

    def test_conditional_takes_any_eps_order_but_extract_needs_decreasing(self, capsys):
        # the probes take eps in any order, like the raw ones; only the K_hat
        # fit needs a decreasing grid, and it is checked before any sampling
        argv = ["smallball", "--conditional", "--clock", "chaos", "--q", "1.0", "--samples", "200", "--n-steps", "64"]
        code, out, _ = run(capsys, *argv, "--eps", "0.2", "0.4")
        assert code == 0
        assert out.count("P = ") == 2
        code, out, err = run(capsys, *argv, "--eps", "0.2", "0.4", "0.3", "--extract", "1", "0")
        assert code == 2
        assert "strictly decreasing" in err
        assert out == ""

    def test_extract_needs_conditional(self, capsys):
        code, out, err = run(
            capsys, "smallball", "--process", "bm", "--eps", "0.8", "--samples", "200",
            "--n-steps", "64", "--extract", "1", "0",
        )
        assert code == 2
        assert "--conditional" in err
        assert out == ""

    @pytest.mark.parametrize("command", [("smallball", "--conditional", "--eps", "0.4"), ("laplace", "--lam", "1")])
    def test_one_sample_is_a_usage_error(self, capsys, command):
        # one sample has no standard error; it used to print "+/- 0.00e+00"
        code, out, err = run(capsys, *command, "--clock", "chaos", "--samples", "1", "--n-steps", "64")
        assert code == 2
        assert "at least 2" in err
        assert out == ""

    @pytest.mark.parametrize("extra", [("--t", "0.5", "1.0"), ("--a", "0.1"), ("--b", "0.5")])
    def test_conditional_rejects_window_flags(self, capsys, extra):
        # the conditional estimator covers one interval [0, t]; windows would be ignored
        code, out, err = run(
            capsys, "smallball", "--conditional", "--clock", "chaos", "--q", "1.0",
            "--eps", "0.4", "--samples", "200", "--n-steps", "64", *extra,
        )
        assert code == 2
        assert "--conditional" in err
        assert out == ""

    def test_laplace_with_oracle_annotation(self, capsys):
        code, out, _ = run(
            capsys, "laplace", "--clock", "power", "--clock-p", "2", "--lam", "1",
            "--samples", "2000", "--n-steps", "512", "--seed", "4",
        )
        assert code == 0
        assert "exact 0.677568" in out

    def test_laplace_records_the_matched_oracle(self, capsys, tmp_path):
        # on a coarse grid the continuous cosh value sits many SEs from the estimate
        path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "laplace", "--clock", "power", "--clock-p", "2", "--n-steps", "8",
            "--samples", "200000", "--lam", "10", "--seed", "3", "--output", str(path),
        )
        assert code == 0
        rec = json.loads(path.read_text())["results"][0]
        want = float(np.exp(sb.log_laplace(sb.PowerClockSpec(2.0), 1.0, 10.0, 8)[0]))
        assert rec["exact"] == want
        assert f"exact {want:.6f}" in out
        assert abs(rec["estimate"] - want) < 4 * rec["stdError"]

    def test_laplace_exact_values_follow_the_lambda_order(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "laplace", "--clock", "power", "--n-steps", "16", "--samples", "300",
            "--lam", "5", "0", "5", "1", "--output", str(path),
        )
        assert code == 0
        want = np.exp(sb.log_laplace(sb.PowerClockSpec(2.0), 1.0, (5.0, 0.0, 5.0, 1.0), 16)).tolist()
        assert [r["exact"] for r in json.loads(path.read_text())["results"]] == want

    def test_laplace_exact_value_needs_one_interval_of_a_spectral_clock(self, capsys):
        base = ["laplace", "--clock", "power", "--n-steps", "16", "--samples", "500", "--lam", "2"]
        code, out, _ = run(capsys, *base, "--rho", "1.5")
        assert code == 0
        assert f"exact {np.exp(sb.log_laplace(sb.PowerClockSpec(2.0, rho=1.5), 1.0, 2.0, 16)[0]):.6f}" in out
        code, out, _ = run(capsys, *base, "--clock", "chaos", "--q", "1", "0.5", "--d", "3")
        assert code == 0
        assert f"exact {np.exp(sb.log_laplace(sb.ChaosClockSpec((1.0, 0.5)), 1.0, 6.0, 16)[0]):.6f}" in out
        for extra in (["--clock-p", "3"], ["--t", "0.5", "1.0"]):
            code, out, _ = run(capsys, *base, *extra)
            assert code == 0
            assert "exact" not in out


class TestRecordsAndConfig:
    def test_json_record_schema_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (out1, out2):
            code, _, _ = run(
                capsys, "laplace", "--clock", "chaos", "--q", "1.0", "--lam", "2",
                "--samples", "1000", "--n-steps", "128", "--seed", "6", "--output", str(path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rec = json.loads(out1.read_text())
        assert set(rec) == {"op", "params", "results", "seed", "version", "defaults"}
        assert rec["defaults"] == {"n_steps": 16384, "truncation": 50, "samples": 100000}
        assert rec["results"][0]["stdError"] > 0

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "laplace", "--clock", "chaos", "--q", "1.0", "--lam", "1", "2",
            "--samples", "500", "--n-steps", "128", "--seed", "6",
            "--output", str(out), "--format", "csv",
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3  # header + one row per lambda
        assert "estimate" in rows[0]

    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# experiment defaults\nsamples = 1500\nn-steps = 128\nseed = 33\n")
        code, out, _ = run(
            capsys, "--config", str(cfg), "laplace", "--clock", "chaos", "--q", "1.0",
            "--lam", "1", "--seed", "7",
        )
        assert code == 0
        assert "(1500 samples)" in out or "1500" in out
        # explicit --seed beats the config's 33: rerun with config seed and compare
        code2, out2, _ = run(
            capsys, "--config", str(cfg), "laplace", "--clock", "chaos", "--q", "1.0", "--lam", "1",
        )
        assert code2 == 0
        assert out != out2  # different seeds -> different estimates

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("samples 1500\n")
        code, _, err = run(capsys, "--config", str(cfg), "laplace", "--lam", "1")
        assert code == 2
        assert "key = value" in err


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports smallball from this checkout; return stdout."""
    root = str(Path(sb.__file__).resolve().parents[1])
    prelude = f"import sys; sys.path.insert(0, {root!r}); "
    out = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, check=True)
    return out.stdout.strip()


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


class TestImport:
    def test_import_leaves_slow_scipy_modules_unloaded(self):
        # every CLI call pays the import; scipy.fft alone costs ~0.3 s of it
        assert run_fresh("import smallball.cli; " + SCIPY_LOADED) == "[]"

    def test_import_starts_no_thread_and_builds_no_parser(self):
        # set-up cost: the batch pool and the parser wait for the first call that needs them
        code = (
            "import argparse, threading\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
            "before = threading.active_count()\n"
            "import smallball, smallball.cli\n"
            "print(threading.active_count() - before, len(made))"
        )
        assert run_fresh(code) == "0 0"

    def test_benchmark_mc_commands_load_no_scipy(self):
        # small versions of the benchmark's conditional, Laplace and raw probes
        commands = [
            ["smallball", "--conditional", "--clock", "chaos", "--q-ratio", "0.5", "--q-terms", "50",
             "--n-steps", "64", "--samples", "64", "--eps", "0.4", "0.2", "0.1", "--extract", "1", "0"],
            ["laplace", "--clock", "power", "--clock-p", "2", "--n-steps", "64", "--samples", "64",
             "--lam", "1", "5", "10"],
            ["smallball", "--process", "bm", "--n-steps", "64", "--samples", "64", "--eps", "0.5", "1.0"],
        ]
        code = (
            "import contextlib, io; from smallball.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n" + SCIPY_LOADED
        )
        assert run_fresh(code) == "[]"

    def test_rqmc_estimators_load_no_scipy_stats(self):
        # the scrambled Sobol nets are built in package code: scipy.stats
        # (about 1.2 s to import) stays out, and so does every scipy module
        code = (
            "import smallball as sb\n"
            "cfg = sb.McConfig(samples=64, n_steps=64, seed=1)\n"
            "sb.probe_smallball_conditional(sb.ChaosClockSpec(sb.geometric_q(0.5, 50)), 1.0, (0.4, 0.1), cfg)\n"
            "sb.probe_smallball_conditional(sb.PowerClockSpec(2.0), 1.0, (0.4, 0.1), cfg)\n"
            "sb.estimate_laplace_multi(sb.PowerClockSpec(2.0), sb.Partition((1.0,)), (1.0,), cfg)\n"
            "print('scipy.stats' in sys.modules)\n" + SCIPY_LOADED
        )
        assert run_fresh(code).splitlines() == ["False", "[]"]

    def test_lazy_scipy_gives_the_same_bits(self):
        # each function imports its scipy module on first call in a fresh interpreter
        code = (
            "from smallball import lambda1, sup_bm_grid_cdf, sup_bm_log_cdf\n"
            "print(repr((sup_bm_grid_cdf(0.5, 64), lambda1(2.0).value, sup_bm_log_cdf([0.5, 3.0]).tolist())))"
        )
        want = (sb.sup_bm_grid_cdf(0.5, 64), sb.lambda1(2.0).value, sb.sup_bm_log_cdf([0.5, 3.0]).tolist())
        assert run_fresh(code) == repr(want)


    def test_package_reexports_every_public_name(self):
        from smallball import asymptotics, mc, paths, schrodinger, spectral

        for module in (asymptotics, mc, paths, schrodinger, spectral):
            assert [name for name in module.__all__ if not hasattr(sb, name)] == [], module.__name__


class TestParserReuse:
    LAPLACE = ["laplace", "--clock", "chaos", "--q", "1.0", "--lam", "2", "--n-steps", "128", "--seed", "6"]

    def test_config_call_does_not_leak_into_later_calls(self, capsys, tmp_path):
        # the plain call takes the defaults the config file replaces
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 9\nsamples = 700\nq-ratio = 0.25\n")
        plain1, config, plain2, fresh = (tmp_path / f"{k}.json" for k in ("plain1", "config", "plain2", "fresh"))
        plain_argv = ["laplace", "--q-terms", "3", "--lam", "2", "--n-steps", "64", "--samples", "500"]
        config_argv = ["--config", str(cfg), "laplace", "--q-terms", "3", "--lam", "1", "3", "--n-steps", "64"]
        assert run(capsys, *plain_argv, "--output", str(plain1))[0] == 0
        assert run(capsys, *config_argv, "--output", str(config))[0] == 0
        assert run(capsys, *plain_argv, "--output", str(plain2))[0] == 0
        assert plain1.read_bytes() == plain2.read_bytes()
        assert json.loads(plain1.read_text())["seed"] == 42
        run_fresh(f"from smallball.cli import main; main({config_argv + ['--output', str(fresh)]!r})")
        assert config.read_bytes() == fresh.read_bytes()
        rec = json.loads(config.read_text())
        assert (rec["seed"], rec["params"]["samples"], rec["params"]["lambda"]) == (9, 700, [1.0, 3.0])

    def test_help_and_version_exit_zero_after_a_call(self, capsys):
        assert run(capsys, *self.LAPLACE, "--samples", "100")[0] == 0
        for argv in (["--help"], ["--version"], ["laplace", "--help"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out
        assert run(capsys, "laplace", "--bogus")[0] == 2

    def test_parser_is_built_once_per_process(self):
        # count ArgumentParser constructions around two plain calls and a config call
        code = (
            "import argparse, contextlib, io\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
            "from smallball.cli import main\n"
            "counts = []\n"
            "for argv in (['--version'], ['constants', '--tsb'], ['--config', 'missing.cfg', 'constants']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        main(argv)\n"
            "    counts.append(len(made))\n"
            "print(counts)"
        )
        first, second, third = json.loads(run_fresh(code))
        assert first > 2 and second == first and third == first


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli(self):
        src = str(Path(sb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "smallball", "--version"], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == f"smallball {sb.__version__}"

    def test_threaded_run_exits(self):
        # the batch pool's threads must not hold the interpreter open at exit
        src = str(Path(sb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["smallball", "--process", "bm", "--n-steps", "64", "--samples", "1024", "--eps", "0.5", "--workers", "2"]
        out = subprocess.run([sys.executable, "-m", "smallball", *argv], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "eps=0.5: P = " in out.stdout


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "constants", "--bogus")
        assert code == 2

    def test_invalid_value_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lambda1", "--p", "0.5")
        assert code == 2
        assert "p must satisfy" in err

    def test_non_finite_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lambda1", "--p", "nan")
        assert code == 2
        assert "finite" in err

    def test_non_finite_half_width_is_usage_error(self, capsys):
        # nan used to reach Sturm bisection and exit 3
        code, _, err = run(capsys, "lambda1", "--p", "2", "--half-width", "nan")
        assert code == 2
        assert "half_width" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["smallball", "--eps", "nan"],
            ["smallball", "--eps", "0.5", "inf"],
            ["smallball", "--conditional", "--eps", "nan"],
            ["laplace", "--lam", "nan"],
            ["laplace", "--lam", "inf", "--clock", "power", "--rho", "0"],
            ["laplace", "--clock", "chaos", "--q", "1e200", "--lam", "1"],
            ["laplace", "--t", "0.5", "1", "--d", "2", "1", "--clock", "power", "--rho", "1", "nan", "--lam", "1"],
        ],
        ids=["raw-eps-nan", "raw-eps-inf", "conditional-eps-nan", "lam-nan", "lam-inf", "q-overflow", "rho-nan"],
    )
    def test_non_finite_estimator_input_is_usage_error(self, capsys, argv):
        # NaN passes an `x <= 0` check; an inf eps makes inf * 0 window bounds
        code, out, err = run(capsys, *argv, "--n-steps", "64", "--samples", "64")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--process", "time-changed", "--horizon", "100"],
            ["smallball", "--process", "time-changed", "--t", "100", "--eps", "0.5", "--samples", "1000"],
            ["laplace", "--t", "100", "--lam", "1", "--samples", "1000"],
        ],
        ids=["simulate", "smallball", "laplace"],
    )
    def test_overflowing_power_clock_is_numeric_failure(self, capsys, argv):
        # |B|^2000 overflows over a long horizon; it used to print nan, zero
        # hits or E = 0 +/- 0 and exit 0
        code, out, err = run(capsys, *argv, "--clock", "power", "--clock-p", "2000", "--n-steps", "64")
        assert code == 3
        assert err.startswith("numeric failure:")
        assert "not finite" in err

    @pytest.mark.parametrize(
        "extra", [["--rho", "2"], ["--rho", "2", "1", "--t", "0.5", "1", "--d", "2", "1"]], ids=["scalar", "stepwise"]
    )
    def test_overflowing_power_clock_weight_is_numeric_failure(self, capsys, extra):
        # rho^p = 2^2000 overflows; float ** float used to raise OverflowError
        # with a traceback and exit 1
        code, out, err = run(
            capsys, "laplace", "--clock", "power", "--clock-p", "2000", *extra,
            "--lam", "1", "--n-steps", "64", "--samples", "100",
        )
        assert code == 3
        assert err.startswith("numeric failure:")
        assert "not finite" in err

    @pytest.mark.parametrize(
        "argv",
        [["laplace", "--lam", "1"], ["smallball", "--conditional", "--eps", "0.5"]],
        ids=["laplace", "conditional"],
    )
    def test_overflowing_p2_weight_is_numeric_failure(self, capsys, argv):
        # rho^2 = 1e400 overflows in the spectrum of the p = 2 clock; a float
        # square used to raise OverflowError with a traceback and exit 1
        code, out, err = run(
            capsys, *argv, "--clock", "power", "--clock-p", "2", "--rho", "1e200", "--n-steps", "64", "--samples", "10"
        )
        assert code == 3
        assert err.startswith("numeric failure:")
        assert "not finite" in err

    @pytest.mark.parametrize("only", ["C1,X1", "C10", "C1,"])
    def test_verify_unknown_id_is_usage_error(self, capsys, only):
        code, out, err = run(capsys, "verify", "--seed", "42", "--only", only)
        assert code == 2
        assert "choose from C1, C2, C3, C4, C5, C6, C7, C8\n" in err
        assert out == ""

    def test_verify_subset_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "C4")
        assert code == 0
        assert "[PASS] C4" in out

    def test_verify_record_is_valid_json(self, capsys, tmp_path):
        # C3's pass flag comes from numpy comparisons; the record must still
        # serialize as plain JSON booleans
        out = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "--seed", "42", "--only", "C3,C4", "--output", str(out))
        assert code == 0
        rec = json.loads(out.read_text())
        assert [r["passed"] for r in rec["results"]] == [True, True]

    def test_verify_record_is_byte_identical(self, capsys, tmp_path):
        outs = [tmp_path / "v1.json", tmp_path / "v2.json"]
        for path in outs:
            code, stdout, _ = run(capsys, "verify", "--seed", "42", "--only", "C1,C3", "--output", str(path))
            assert code == 0
            assert "budget" in stdout  # timings stay on stdout
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestConfigValues:
    ARGV = ("smallball", "--process", "bm", "--eps", "0.5", "--samples", "300", "--n-steps", "64", "--seed", "3")

    def test_scalar_for_list_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("t = 0.5\n")
        code, out, err = run(capsys, "--config", str(cfg), *self.ARGV)
        assert code == 0, err
        assert out == run(capsys, *self.ARGV, "--t", "0.5")[1]

    def test_list_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("t = [0.5, 1.0]\nb = [0.6, 1.2]\nworkers = 2\n")
        code, out, err = run(capsys, "--config", str(cfg), *self.ARGV)
        assert code == 0, err
        assert out == run(capsys, *self.ARGV, "--t", "0.5", "1.0", "--b", "0.6", "1.2")[1]

    @pytest.mark.parametrize(
        "line", ["t = \"abc\"", "t = [0.5, [1]]", "samples = 1000.5", "workers = [1, 2]", "process = \"levy\"",
                 "extract = [1]", "conditional = 1"],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "--config", str(cfg), *self.ARGV)
        assert code == 2
        assert out == ""
        assert "config value" in err and line.split(" =")[0] in err

    def test_bad_value_for_another_subcommand_is_ignored(self, capsys, tmp_path):
        # process = levy-area fits simulate but not smallball
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = \"levy-area\"\nn_steps = 64\n")
        code, out, err = run(capsys, "--config", str(cfg), "simulate", "--seed", "1")
        assert code == 0, err
        assert out.startswith("levy-area:")
