import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fou.bounds as bounds
import fou.cli as cli
import fou.fgn as fgn
import fou.montecarlo as mc
import fou.process as process
from fou.cli import COMMANDS, CSV_COLUMNS, emit_report, main, parse_args
from fou.constants import ModelParams, stationary_variance


def test_parse_kolmogorov_example():
    cfg = parse_args(["kolmogorov", "--theta", "1", "--hurst", "0.5",
                      "--t", "50,100,200", "--reps", "5000", "--seed", "7"])
    assert cfg.command == "kolmogorov"
    assert cfg.t_list == (50.0, 100.0, 200.0)
    assert cfg.reps == 5000
    assert cfg.seed == 7
    assert cfg.dt == 0.05 and cfg.n is None
    assert cfg.format == "csv"
    assert cfg.out == "kolmogorov.csv"


def test_parse_repeatable_t_flag():
    cfg = parse_args(["bounds", "--theta", "1", "--hurst", "0.7",
                      "--t", "25", "--t", "50", "--n", "128"])
    assert cfg.t_list == (25.0, 50.0)
    assert cfg.n == 128 and cfg.dt is None


def test_parse_rejects_bad_hurst(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["kolmogorov", "--theta", "1", "--hurst", "0.9", "--t", "50"])
    assert exc.value.code == 2
    assert "[0.5, 0.75]" in capsys.readouterr().err


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_args(["kolmogorov", "--theta", "1", "--hurst", "0.5", "--t", "50",
                    "--bogus", "1"])
    assert exc.value.code == 2


def test_parse_rejects_dt_and_n_together():
    with pytest.raises(SystemExit) as exc:
        parse_args(["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10",
                    "--dt", "0.1", "--n", "64"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_parse_requires_horizon_for_path_commands(command):
    with pytest.raises(SystemExit) as exc:
        parse_args([command, "--theta", "1", "--hurst", "0.6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_eps_is_not_a_flag(command):
    with pytest.raises(SystemExit) as exc:
        parse_args([command, "--theta", "1", "--hurst", "0.6", "--t", "10", "--eps", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["asymptotics", "--theta", "1", "--hurst", "0.6", "--t", "10", "--dt", "20"],
     "dt=20.0 leaves fewer than 2 cells on horizon T=10.0"),
    (["bounds", "--theta", "nan", "--hurst", "0.6", "--t", "10", "--n", "16"],
     "theta must be finite and positive, got nan"),
    (["kolmogorov", "--theta", "nan", "--hurst", "0.6", "--t", "10,20", "--n", "64",
      "--reps", "100"], "theta must be finite and positive, got nan"),
    (["estimate", "--theta", "1", "--hurst", "0.6", "--t", "nan", "--n", "16", "--reps", "10"],
     "horizon must be finite and positive, got nan"),
    (["simulate", "--theta", "1", "--hurst", "0.6", "--t", "inf", "--n", "4"],
     "horizon must be finite and positive, got inf"),
    (["simulate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--dt", "nan"],
     "dt must be positive, got nan"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10", "--reps", "50"],
     "needs at least 100 replications, got 50"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "20,10", "--reps", "100"],
     "kolmogorov needs strictly increasing horizons"),
    (["rate-fit", "--theta", "1", "--hurst", "0.6", "--t", "10,10,20", "--reps", "100"],
     "rate-fit needs strictly increasing horizons"),
    (["asymptotics", "--theta", "1", "--hurst", "0.6", "--t", "20,10", "--n", "64"],
     "asymptotics needs strictly increasing horizons"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10", "--reps", "100",
      "--method", "mle"], "invalid choice: 'mle'"),
    (["estimate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--reps", "10",
      "--method", "chaos_ratio"], "unrecognized arguments: --method chaos_ratio"),
    (["simulate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--dt", "1e-8"],
     "step dt=1e-08 on T=10.0 exceeds MAX_CELLS=4194304 cells"),
    (["simulate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--dt", "1e-310"],
     "exceeds MAX_CELLS=4194304 cells"),   # T/dt overflows to inf
    (["bounds", "--theta", "1e300", "--hurst", "0.6", "--t", "10", "--n", "64"],
     "b_T must be positive, got 0.0"),     # b_T underflows to 0
    (["kolmogorov", "--theta", "1e300", "--hurst", "0.6", "--t", "10", "--n", "64",
      "--reps", "100"], "b_T must be positive, got 0.0"),  # the same check as `bounds`
    (["bounds", "--theta", "1", "--hurst", "0.6", "--t", "abc", "--n", "16"], "argument --t"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10,x", "--n", "16",
      "--reps", "100"], "argument --t"),
], ids=["step_wider_than_horizon", "bounds_theta_nan", "kolmogorov_theta_nan",
        "estimate_t_nan", "simulate_t_inf", "dt_nan", "kolmogorov_reps_50",
        "kolmogorov_decreasing_t", "rate_fit_repeated_t", "asymptotics_decreasing_t",
        "kolmogorov_method_mle", "estimate_method", "step_above_cell_ceiling",
        "step_overflows", "bounds_b_t_underflows", "kolmogorov_b_t_underflows",
        "t_not_a_number", "t_list_not_numbers"])
def test_invalid_input_exits_2_without_output(args, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["bounds", "--theta", "1e-300", "--hurst", "0.6", "--t", "10", "--n", "64"], "theta*step"),
    (["asymptotics", "--theta", "1e-300", "--hurst", "0.6", "--t", "10", "--n", "64"],
     "theta"),
    (["estimate", "--theta", "1e-300", "--hurst", "0.6", "--t", "10", "--n", "64",
      "--reps", "10"], "theta"),
    (["kolmogorov", "--theta", "1e-300", "--hurst", "0.6", "--t", "10", "--n", "64",
      "--reps", "100"], "theta*step"),
    (["bounds", "--theta", "1e200", "--hurst", "0.6", "--t", "1e200", "--n", "64"],
     "theta*step"),
    (["asymptotics", "--theta", "1e200", "--hurst", "0.6", "--t", "1e200", "--n", "64"],
     "theta^3.4 overflows"),
    (["bounds", "--theta", "1", "--hurst", "0.6", "--t", "1e300", "--n", "64"],
     "overflows at step = 1.5625e+298, T = 1e+300"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "1e300", "--n", "64",
      "--reps", "100"], "overflows at step = 1.5625e+298, T = 1e+300"),
    (["kolmogorov", "--theta", "1e200", "--hurst", "0.6", "--t", "1e200", "--n", "64",
      "--reps", "100"], "theta*T"),
    (["estimate", "--theta", "1e200", "--hurst", "0.6", "--t", "1e200", "--n", "64",
      "--reps", "100"], "theta*T"),
    (["estimate", "--theta", "1e150", "--hurst", "0.6", "--t", "1e150", "--n", "64",
      "--reps", "3"], "int X^2 dt"),  # theta*T is finite, the denominator is not
    # int X^2 dt underflows to 0, and its floor with it
    (["estimate", "--theta", "4.18e178", "--hurst", "0.5000001", "--t", "6.94e-176",
      "--n", "16", "--reps", "100"], "T=6.94e-176"),
    (["asymptotics", "--theta", "1e-100", "--hurst", "0.6", "--t", "10", "--n", "64"],
     "theta^3.4 underflows"),
    # an overflow in the arithmetic of the bound ingredients, named before
    # it makes a NaN row
    (["asymptotics", "--theta", "1", "--hurst", "0.5", "--t", "10,4.84e210", "--n", "2"],
     "at theta = 1, T = 4.84e+210"),
    (["bounds", "--theta", "0.0262", "--hurst", "0.7499999", "--t", "10,2.83e155", "--n", "3"],
     "at theta = 0.0262, T = 2.83e+155"),
    (["bounds", "--theta", "892", "--hurst", "0.7499999", "--t", "6.74e89", "--n", "16"],
     "at theta = 892, T = 6.74e+89"),
    # theta sigma2_H T overflows, so the scale of f is 0 and c2 / s_f divides by it
    (["bounds", "--theta", "1e308", "--hurst", "0.6", "--t", "1e-72", "--n", "2"],
     "divide by zero encountered in scalar divide in the bound ingredients at theta = 1e+308"),
    # b_T at H = 1/2 squares theta; Psi divides by b_T^2
    (["bounds", "--theta", "2.27e259", "--hurst", "0.5", "--t", "0.0149,1e139", "--n", "16"],
     "theta^2 overflows at theta = 2.27e+259"),
    (["kolmogorov", "--theta", "3.49e185", "--hurst", "0.5", "--t", "10,144.7", "--n", "2",
      "--reps", "100"], "theta^2 overflows at theta = 3.49e+185"),
    (["bounds", "--theta", "1.01e134", "--hurst", "0.7499999", "--t", "0.949,10", "--n", "3"],
     "b_T^2 underflows at theta = 1.01e+134, T = 0.949"),
    # every denominator degenerate: counted, not divided by
    (["kolmogorov", "--theta", "4.18e178", "--hurst", "0.5000001", "--t",
      "6.94e-176,1e-175", "--n", "16", "--reps", "100", "--method", "pathwise"],
     "100 of 100 replications degenerate at T=6.94e-176"),
], ids=["bounds_tiny_theta", "asymptotics_tiny_theta", "estimate_tiny_theta",
        "kolmogorov_tiny_theta", "bounds_theta_step_overflows", "asymptotics_theta_overflows",
        "bounds_huge_t", "kolmogorov_huge_t", "kolmogorov_theta_t_overflows",
        "estimate_theta_t_overflows", "estimate_denominator_overflows",
        "estimate_denominator_underflows", "asymptotics_theta_underflows",
        "asymptotics_nan_row", "bounds_nan_row", "bounds_ingredients_overflow",
        "bounds_kernel_scale_underflows", "bounds_theta_squared_overflows",
        "kolmogorov_theta_squared_overflows", "bounds_b_t_squared_underflows",
        "kolmogorov_pathwise_degenerate"])
def test_overflow_exits_3_without_output(args, named, tmp_path, capsys, recwarn):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err
    assert named in err.split("numerical failure")[1]
    quiet = args[0] in ("bounds", "asymptotics") or "pathwise" in args
    if quiet:
        # pytest records warnings instead of printing them, so check both
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def cfg_for(tmp_path, command, fmt="csv", t_list=()):
    return argparse.Namespace(command=command, theta=1.0, hurst=0.5, t_list=tuple(t_list),
                              dt=0.1, n=None, reps=100, seed=1,
                              out=str(tmp_path / f"out.{fmt}"), format=fmt,
                              method="chaos_ratio")


def test_emit_empty_rows_writes_header_only(tmp_path):
    cfg = cfg_for(tmp_path, "kolmogorov")
    path = emit_report([], cfg)
    lines = open(path).read().splitlines()
    assert lines == [",".join(CSV_COLUMNS["kolmogorov"])]


def test_emit_one_row_is_two_lines(tmp_path):
    cfg = cfg_for(tmp_path, "kolmogorov")
    row = {"T": 10.0, "ks_distance": 0.05123456789012, "sample_mean": 0.1,
           "sample_var": 1.0, "reps": 100, "seed": 1}
    path = emit_report([row], cfg)
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("T,ks_distance")
    # 12 significant digits
    assert "0.05123456789" in lines[1]


def test_emit_json_round_trip(tmp_path):
    cfg = cfg_for(tmp_path, "kolmogorov", fmt="json")
    row = {"T": 10.0, "ks_distance": 1.0 / 3.0, "sample_mean": -0.123456789012345,
           "sample_var": 1.000000000001, "reps": 100, "seed": 1}
    path = emit_report([row], cfg)
    back = json.load(open(path))
    assert back["command"] == "kolmogorov"
    got = back["rows"][0]
    for key, val in row.items():
        if isinstance(val, float):
            assert abs(got[key] - val) <= 1e-12 * max(abs(val), 1.0)
        else:
            assert got[key] == val


def test_emit_unwritable_path_raises(tmp_path):
    cfg = argparse.Namespace(command="kolmogorov", theta=1.0, hurst=0.5, t_list=(),
                             dt=0.1, n=None, reps=100, seed=1,
                             out=str(tmp_path / "no_such_dir" / "out.csv"),
                             format="csv", method="chaos_ratio")
    with pytest.raises(OSError):
        emit_report([], cfg)


def test_main_bounds_small(tmp_path, capsys):
    out = str(tmp_path / "bounds.csv")
    code = main(["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10",
                 "--n", "64", "--out", out])
    assert code == 0
    err = capsys.readouterr().err
    assert "resolved config" in err
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS["bounds"])
    assert len(lines) == 2


def test_main_io_error_exit_code(tmp_path):
    code = main(["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10",
                 "--n", "64", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 4


def test_main_simulate_and_estimate(tmp_path):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--theta", "1", "--hurst", "0.5", "--t", "5",
                 "--dt", "0.5", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "T,t,x"
    assert len(lines) == 12  # header + 11 nodes
    assert lines[1].split(",")[2] == "0"  # X_0 = 0

    out = str(tmp_path / "est.csv")
    assert main(["estimate", "--theta", "1", "--hurst", "0.5", "--t", "50",
                 "--dt", "0.1", "--reps", "5", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[-1] == "pathwise_ito"


def test_main_asymptotics(tmp_path):
    out = str(tmp_path / "asym.csv")
    assert main(["asymptotics", "--theta", "1", "--hurst", "0.5",
                 "--t", "10,20", "--n", "128", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "T,quantity,measured,paper_limit,ratio"
    assert len(lines) == 17  # 2 horizons x 8 quantities + header


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, env_extra=None, cwd=None):
    # the child imports `fou` from this checkout's src, installed or not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fou.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.mark.parametrize("args", [
    ["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10,20",
     "--reps", "200", "--dt", "0.1", "--seed", "3"],
    # 2 and 4 chunks per horizon
    ["estimate", "--theta", "1", "--hurst", "0.7", "--t", "10,20",
     "--dt", "0.01", "--reps", "100", "--seed", "3"],
], ids=lambda args: args[0])
def test_cli_byte_identical_across_thread_counts(args, tmp_path):
    outputs = {}
    for threads in ("1", "8"):
        out = str(tmp_path / f"k{threads}.csv")
        res = run_cli([*args, "--out", out], env_extra={"FOU_THREADS": threads})
        assert res.returncode == 0, res.stderr
        outputs[threads] = open(out, "rb").read()
    assert outputs["1"] == outputs["8"]


def test_cli_entry_point_exit_codes():
    res = run_cli(["kolmogorov", "--theta", "1", "--hurst", "0.9", "--t", "50"])
    assert res.returncode == 2
    assert "[0.5, 0.75]" in res.stderr


@pytest.mark.parametrize("args", [
    ["kolmogorov", "--t", "1,2,4"],
    ["kolmogorov", "--t", "0.5,2,4"],
    ["rate-fit", "--t", "1,2,4"],
    ["asymptotics", "--t", "1,2", "--n", "64"],
])
def test_three_quarters_rejects_horizon_without_log_scaling(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.75", *args[1:], "--reps", "100",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "log T needs every horizon T > 1" in err
    assert not out.exists()


@pytest.mark.parametrize("hurst, method", [("0.5", "pathwise_ito"), ("0.7", "skorohod_oracle")])
def test_estimate_method_label_on_every_row(hurst, method, tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "CHUNK_CELLS", 250)  # several chunks per horizon
    out = tmp_path / "est.csv"
    assert main(["estimate", "--theta", "1", "--hurst", hurst, "--t", "10,20",
                 "--dt", "0.1", "--reps", "7", "--out", str(out)]) == 0
    rows = open(out).read().splitlines()[1:]
    assert len(rows) == 14
    assert {row.split(",")[-1] for row in rows} == {method}


def test_estimate_one_row_below_floor_exits_3(tmp_path, monkeypatch, capsys):
    # Lift the floor just past the smallest denominator, so exactly one row
    # of one chunk is degenerate.
    monkeypatch.setattr(mc, "CHUNK_CELLS", 250)
    args = ["estimate", "--theta", "1", "--hurst", "0.6", "--t", "20", "--dt", "0.1",
            "--reps", "9"]
    first = tmp_path / "first.json"
    assert main([*args, "--format", "json", "--out", str(first)]) == 0
    dens = [row["denominator"] for row in json.load(open(first))["rows"]]
    lowest = min(dens)
    assert sorted(dens)[1] > lowest * (1 + 1e-9)
    scale = 20.0 * stationary_variance(ModelParams(theta=1.0, hurst=0.6, horizon=20.0))
    monkeypatch.setattr(process, "DEGENERATE_DENOM_FACTOR", lowest * (1 + 1e-9) / scale)
    second = tmp_path / "second.csv"
    assert main([*args, "--out", str(second)]) == 3
    assert "below" in capsys.readouterr().err
    assert not second.exists()


@pytest.mark.parametrize("args", [
    # theta T << 1: the floor follows T^(2H+1) / (2H+1), not T a (5.0e-13
    # against int X^2 dt = 1.2e-14 here)
    ["--theta", "2.822475117608143e-07", "--hurst", "0.5000001", "--t",
     "2.822475117608143e-07", "--n", "25", "--reps", "100"],
    # T a is 5.5e240 at theta = 1e-200
    ["--theta", "1e-200", "--hurst", "0.6", "--t", "10", "--n", "16", "--reps", "3"],
], ids=["theta_t_tiny", "theta_tiny"])
def test_estimate_floor_follows_the_finite_horizon_mean(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["estimate", *args, "--out", str(out)]) == 0, capsys.readouterr().err
    dens = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
    params = ModelParams(theta=float(args[1]), hurst=float(args[3]), horizon=float(args[5]))
    assert 0.0 < process.denominator_floor(params) < min(dens)


@pytest.mark.parametrize("args", [
    ["bounds", "--t", "10", "--n", "128"],
    ["asymptotics", "--t", "10", "--n", "128"],
    ["bounds", "--t", "5,20", "--dt", "0.25"],       # n = 20, then 80
    ["asymptotics", "--t", "5,20", "--dt", "0.25"],
])
def test_dense_ceiling_rejects_before_any_dense_work(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bounds, "MAX_BOUND_CELLS", 64)
    monkeypatch.setattr(bounds, "horizon",
                        lambda *a: pytest.fail("n-sized work before the ceiling check"))
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.6", *args[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ceiling of 64 cells for the bound terms" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--t", "10", "--n", "128"],
    ["estimate", "--t", "10", "--n", "128", "--reps", "2"],
    ["kolmogorov", "--t", "10", "--n", "128", "--reps", "100"],
])
def test_cell_ceiling_rejects_before_any_sampling(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fgn, "MAX_CELLS", 64)
    monkeypatch.setattr(cli, "sample_fgn", lambda *a: pytest.fail("sampled before the check"))
    monkeypatch.setattr(mc, "sample_fgn_batch", lambda *a: pytest.fail("sampled before the check"))
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.6", *args[1:], "--out", str(out)])
    assert code == 2
    assert "grid of n=128 cells exceeds the ceiling MAX_CELLS=64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("distance", [0.0, float("nan")])
def test_rate_fit_non_positive_distance_exits_3(distance, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mc, "ks_distance", lambda samples: distance)
    out = tmp_path / "out.csv"
    code = main(["rate-fit", "--theta", "1", "--hurst", "0.6", "--t", "10,20,40",
                 "--dt", "0.5", "--reps", "100", "--out", str(out)])
    assert code == 3
    assert "numerical failure: rate fit needs positive distances" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizons", [[], ["--t", "10"], ["--t", "10,20"]])
def test_rate_fit_needs_three_horizons(horizons, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["rate-fit", "--theta", "1", "--hurst", "0.6", *horizons, "--dt", "0.1",
                 "--reps", "100", "--out", str(out)])
    assert code == 2
    assert "rate-fit needs at least 3 horizons" in capsys.readouterr().err
    assert not out.exists()


LOG_UNIFORM = st.floats(-307.0, 308.0).map(lambda e: 10.0**e)
EDGE_HURSTS = [x for h in (0.5, 0.625, 0.75)
               for x in (h, math.nextafter(h, 0.0), math.nextafter(h, 1.0), h - 1e-7, h + 1e-7)]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), theta=LOG_UNIFORM, hurst=st.sampled_from(EDGE_HURSTS),
       horizons=st.lists(LOG_UNIFORM, min_size=1, max_size=4, unique=True).map(sorted),
       n=st.integers(2, 64), method=st.sampled_from([mc.CHAOS_RATIO, mc.PATHWISE]))
def test_output_contract_over_argv_space(command, theta, hurst, horizons, n, method, tmp_path):
    # exit 0 writes only finite values; any other exit writes nothing, and
    # no exception escapes `main` (a traceback); the bound commands never warn
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    argv = [command, "--theta", repr(theta), "--hurst", repr(hurst),
            "--t", ",".join(map(repr, horizons)), "--n", str(n), "--reps", "100",
            "--out", str(out)]
    if command in cli.MC_COMMANDS:
        argv += ["--method", method]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3)
    if command in ("bounds", "asymptotics"):  # every overflow is named, none warns
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    if code != 0:
        assert not out.exists()
        return
    for line in out.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # text: a quantity name, a method label, a blank ratio
                continue
            assert math.isfinite(value), line
