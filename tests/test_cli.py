import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fou.bounds as bounds
import fou.cli as cli
import fou.fgn as fgn
import fou.montecarlo as mc
import fou.process as process
from fou.cli import COMMANDS, CSV_COLUMNS, emit_report, main, parse_args
from fou.constants import DOMAIN, HURST_MAX, HURST_MIN, ModelParams, stationary_variance
from argvs import EXIT_2, EXIT_3, OUTSIDE_DOMAIN


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


def test_parse_rejects_bad_hurst(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["kolmogorov", "--theta", "1", "--hurst", "0.9", "--t", "50",
                 "--out", str(out)]) == 2
    assert "[0.5, 0.75]" in capsys.readouterr().err
    assert not out.exists()


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


USAGE = [case for case in EXIT_2 if case not in OUTSIDE_DOMAIN]


@pytest.mark.parametrize("args, message", [case[:2] for case in USAGE],
                         ids=[case[2] for case in USAGE])
def test_invalid_input_exits_2_without_output(args, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# The argvs at the edges of float64.  Inside the numeric domain the one
# numerical failure left is a degenerate denominator, exit 3; outside it,
# where each once overflowed or underflowed and exited 3 (hence the name),
# admission rejects it with exit 2 before any work.
@pytest.mark.parametrize("args, named, code",
                         [(*case[:2], 3) for case in EXIT_3]
                         + [(*case[:2], 2) for case in OUTSIDE_DOMAIN],
                         ids=[case[2] for case in EXIT_3 + OUTSIDE_DOMAIN])
def test_overflow_exits_3_without_output(args, named, code, tmp_path, capsys, recwarn):
    assert_exits_without_output(args, named, tmp_path, capsys, recwarn, code)


def test_brownian_huge_theta_matches_its_twin(tmp_path, capsys):
    # At the largest theta of the domain, H = 1/2 runs as H = 0.5000001
    # does: the distances differ by 4e-7 relative
    distances = {}
    for h in ("0.5", "0.5000001"):
        out = tmp_path / f"{h}.json"
        assert main(["kolmogorov", "--theta", "1e6", "--hurst", h, "--t", "2e-5,4e-5",
                     "--n", "16", "--reps", "100", "--format", "json", "--out", str(out)]) == 0
        distances[h] = [row["ks_distance"] for row in json.load(open(out))["rows"]]
    assert distances["0.5"] == pytest.approx(distances["0.5000001"], rel=1e-5)
    assert distances["0.5"] == pytest.approx([0.17597149140610513, 0.23072668703388555],
                                             rel=1e-12)
    assert distances["0.5000001"] == pytest.approx([0.17597142209032224, 0.23072676848879892],
                                                   rel=1e-12)


def assert_exits_without_output(args, named, tmp_path, capsys, recwarn, code=3):
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    label = "numerical failure" if code == 3 else "invalid configuration"
    assert label in err
    assert named in err.split(label)[1]
    if code == 3:  # the whole count, with no "at least"
        assert f"{label}: {named}" in err
    # pytest records warnings instead of printing them, so check both
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_one_degenerate_pathwise_replication_in_1000_exits_3(tmp_path, monkeypatch, capsys,
                                                             recwarn):
    # Lift the floor just past the smallest int X^2 dt of 1000 replications:
    # `estimate` draws the same rows as `kolmogorov`, so exactly one of them
    # is degenerate.  The horizon aborts instead of writing a NaN distance,
    # in both commands and with the same message; the chunks after the
    # degenerate one are not counted, hence "at least".
    args = ["--theta", "1", "--hurst", "0.6", "--t", "20", "--dt", "0.1", "--reps", "1000"]
    first = tmp_path / "first.json"
    assert main(["estimate", *args, "--format", "json", "--out", str(first)]) == 0
    dens = sorted(row["denominator"] for row in json.load(open(first))["rows"])
    assert dens[1] > dens[0] * (1 + 1e-9)
    scale = 20.0 * stationary_variance(ModelParams(theta=1.0, hurst=0.6, horizon=20.0))
    monkeypatch.setattr(process, "DEGENERATE_DENOM_FACTOR", dens[0] * (1 + 1e-9) / scale)
    capsys.readouterr()
    for argv in (["kolmogorov", *args, "--method", "pathwise"], ["estimate", *args]):
        assert_exits_without_output(argv, "at least 1 of 1000 replications degenerate at T=20.0",
                                    tmp_path, capsys, recwarn)


def test_degenerate_horizon_aborts_before_drawing_the_next(tmp_path, monkeypatch, capsys,
                                                          recwarn):
    # one chaos denominator of 100 is below the floor at T = 2; the later
    # horizons are never drawn
    drawn = []

    def sample(grid, *args):
        drawn.append(grid.horizon)
        return fgn.sample_fgn_batch(grid, *args)

    monkeypatch.setattr(mc, "sample_fgn_batch", sample)
    assert_exits_without_output(["kolmogorov", "--theta", "1", "--hurst", "0.6",
                                 "--t", "2,4,8,16", "--n", "4", "--reps", "100"],
                                "1 of 100 replications degenerate at T=2.0",
                                tmp_path, capsys, recwarn)
    assert drawn and set(drawn) == {2.0}


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


@pytest.mark.parametrize("hurst, method", [("0.5", "pathwise_ito"), ("0.5000001", "skorohod_oracle"),
                                           ("0.7", "skorohod_oracle")])
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
    capsys.readouterr()
    assert main([*args, "--out", str(second)]) == 3
    # the chunks after the degenerate one are not counted
    assert "failure: at least 1 of 9 replications degenerate at T=20.0" in capsys.readouterr().err
    assert not second.exists()


@pytest.mark.parametrize("args", [
    # theta T = 1e-8 (theta*step = 2.5e-9): the floor follows
    # T^(2H+1) / (2H+1), not T a
    ["--theta", "1e-3", "--hurst", "0.5000001", "--t", "1e-5", "--n", "4", "--reps", "100"],
    # the smallest theta of the domain: T a is 8.7e7
    ["--theta", "1e-6", "--hurst", "0.6", "--t", "10", "--n", "16", "--reps", "3"],
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
    ["bounds", "--t", "10", "--dt", repr(10 / 64.6)],  # T/dt = 64.6 rounds to 65
    ["bounds", "--t", "10", "--dt", "1e-310"],         # T/dt overflows to inf
])
def test_dense_ceiling_rejects_before_any_dense_work(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bounds, "MAX_BOUND_CELLS", 64)
    monkeypatch.setattr(bounds, "horizon",
                        lambda *a: pytest.fail("n-sized work before the ceiling check"))
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.6", *args[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{args[0]} takes 2 to 64 cells" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--t", "10", "--n", "128"],
    ["estimate", "--t", "10", "--n", "128", "--reps", "2"],
    ["kolmogorov", "--t", "10", "--n", "128", "--reps", "100"],
    # the later horizon is rejected before any work on the earlier one
    ["simulate", "--t", "5,20", "--dt", "0.25"],       # n = 20, then 80
    ["estimate", "--t", "5,20", "--dt", "0.25", "--reps", "2"],
    ["kolmogorov", "--t", "5,20", "--dt", "0.25", "--reps", "100"],
    ["simulate", "--t", "10", "--dt", repr(10 / 64.6)],  # T/dt = 64.6 rounds to 65
    ["simulate", "--t", "10", "--dt", "1e-310"],         # T/dt overflows to inf
])
def test_cell_ceiling_rejects_before_any_sampling(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fgn, "MAX_CELLS", 64)
    monkeypatch.setattr(cli, "sample_fgn", lambda *a: pytest.fail("sampled before the check"))
    monkeypatch.setattr(mc, "sample_fgn_batch", lambda *a: pytest.fail("sampled before the check"))
    monkeypatch.setattr(mc, "horizon", lambda *a: pytest.fail("n-sized work before the check"))
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.6", *args[1:], "--out", str(out)])
    assert code == 2
    assert f"{args[0]} takes 2 to 64 cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, module, ceiling", [
    ("simulate", fgn, "MAX_CELLS"),
    ("bounds", bounds, "MAX_BOUND_CELLS"),
])
def test_cell_ceiling_applies_to_the_rounded_count(command, module, ceiling, tmp_path,
                                                   monkeypatch):
    # T/dt = 64.3 rounds to the 64 cells of --n 64, at the ceiling
    monkeypatch.setattr(module, ceiling, 64)
    outputs = []
    for step in (["--dt", repr(10 / 64.3)], ["--n", "64"]):
        out = tmp_path / f"{step[0][2:]}.csv"
        assert main([command, "--theta", "1", "--hurst", "0.6", "--t", "10", *step,
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_step_leaves_at_least_two_cells(tmp_path, capsys):
    # T/dt = 2.5 rounds to 2 cells, T/dt = 1.25 to 1
    out = tmp_path / "out.csv"
    args = ["simulate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--out", str(out)]
    assert main([*args, "--dt", "4"]) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["0", "5", "10"]
    out.unlink()
    assert main([*args, "--dt", "8"]) == 2
    assert "needs n=1 cells; simulate takes 2 to" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "2.5", "0", "-2", "65"])
@pytest.mark.parametrize("args", [
    ["kolmogorov", "--t", "10,20", "--n", "16", "--reps", "100"],
    ["estimate", "--t", "10,20", "--n", "16", "--reps", "10"],
], ids=lambda args: args[0])
def test_malformed_thread_count_exits_2_naming_it(args, threads, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("FOU_THREADS", threads)
    monkeypatch.setattr(mc, "sample_fgn_batch", lambda *a: pytest.fail("sampled before the check"))
    monkeypatch.setattr(mc, "Thread", lambda *a, **k: pytest.fail("thread started"))
    out = tmp_path / "out.csv"
    code = main([args[0], "--theta", "1", "--hurst", "0.6", *args[1:], "--out", str(out)])
    assert code == 2
    assert f"FOU_THREADS must be an integer in [1, 64], got '{threads}'" in capsys.readouterr().err
    assert not out.exists()


def test_one_chunk_starts_one_thread(tmp_path, monkeypatch):
    # 100 rows of n = 16 are one chunk: FOU_THREADS=8 starts one worker,
    # and writes the bytes of FOU_THREADS=1
    started = []

    class Counted(mc.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mc, "Thread", Counted)
    outputs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("FOU_THREADS", threads)
        out = tmp_path / f"k{threads}.csv"
        assert main(["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16",
                     "--reps", "100", "--out", str(out)]) == 0
        outputs[threads] = out.read_bytes()
        assert len(started) == 1
        started.clear()
    assert outputs["1"] == outputs["8"]


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
    # exit 0 writes only finite values; any other exit writes nothing, no
    # exception escapes `main` (a traceback), and no command warns
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


DOMAIN_HURSTS = [h for h in EDGE_HURSTS if HURST_MIN <= h <= HURST_MAX]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(command=st.sampled_from(COMMANDS), log_theta=st.floats(*map(math.log10, DOMAIN["theta"])),
       hurst=st.sampled_from(DOMAIN_HURSTS),
       fractions=st.lists(st.integers(0, 1000), min_size=1, max_size=4, unique=True).map(sorted),
       n=st.integers(2, 64), method=st.sampled_from([mc.CHAOS_RATIO, mc.PATHWISE]))
def test_output_contract_inside_the_domain(command, log_theta, hurst, fractions, n, method,
                                           tmp_path, capsys):
    # The twin of the test above, inside the numeric domain: theta is
    # log-uniform over its range, and each T log-uniform over the part of
    # its range where theta*step = theta T / n lies in range too.  Every run
    # exits 0 with finite values, or 3 on a degenerate denominator writing
    # nothing, and no command warns.
    theta = 10.0**log_theta
    (t_lo, t_hi), (x_lo, x_hi) = DOMAIN["T"], DOMAIN["theta*step"]
    lo = max(t_lo, x_lo * n / theta) * (1 + 1e-9)  # margins for the rounding of theta T / n
    hi = min(t_hi, x_hi * n / theta) * (1 - 1e-9)
    if hurst == HURST_MAX and command in cli.LOG_T_COMMANDS:
        lo = max(lo, 1.0 + 1e-9)  # the log T scaling needs T > 1
    assume(lo < hi and (command != "rate-fit" or len(fractions) >= 3))
    horizons = [lo * (hi / lo) ** (k / 1000) for k in fractions]
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    argv = [command, "--theta", repr(theta), "--hurst", repr(hurst),
            "--t", ",".join(map(repr, horizons)), "--n", str(n), "--reps", "100",
            "--out", str(out)]
    if command in cli.MC_COMMANDS:
        argv += ["--method", method]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "RuntimeWarning" not in err, argv
    if code != 0:
        assert code == 3 and "replications degenerate at T=" in err, (argv, err)
        assert not out.exists()
        return
    for line in out.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # text: a quantity name, a method label, a blank ratio
                continue
            assert math.isfinite(value), line
