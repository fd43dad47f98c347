import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spintrack.cli import _fmt, main, parse_scenario, write_csv
from spintrack.errors import ConfigurationError

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "spintrack" / "scenarios"


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


_STEADY_F = "f_sweep  = 0.5,0.75,1,1.25,2,10,100\n"
_TRANSIENT_F = "f_sweep  = 0.5,0.75,1,1.25,2,10,100,1000\n"


class TestScenarioParsing:
    def test_fixture_loads(self):
        sc = parse_scenario(str(SCENARIOS / "riccati_fluctuating.scn"))
        assert sc["J"] == 1e6 and sc["sigma_bF"] == 2e5 and sc["seed"] == 42

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("J = 1\nwhatever = 2\n")
        with pytest.raises(ConfigurationError, match="whatever"):
            parse_scenario(str(bad))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = tmp_path / "dup.scn"
        bad.write_text("J = 1\nJ = 2\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_scenario(str(bad))

    def test_list_values(self, tmp_path):
        f = tmp_path / "l.scn"
        f.write_text("f_sweep = 0.5, 1, 2\n")
        assert parse_scenario(str(f))["f_sweep"] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("verb, fixture, old, new, key", [
        ("simulate", "constant_field_tables.scn", "dt       = 1e-8\n", "", "dt"),
        ("riccati", "riccati_fluctuating.scn", "T        = 1e-4\n", "", "T"),
        ("montecarlo", "montecarlo_matched.scn", "T        = 5e-8\n", "", "T"),
        ("simulate", "constant_field_tables.scn", "dt       = 1e-8", "dt = 0", "dt"),
        ("simulate", "montecarlo_matched.scn", "T        = 5e-8", "T = -1e-9", "T"),
        ("riccati", "riccati_fluctuating.scn", "dt       = 1e-8", "dt = 0", "dt"),
        ("montecarlo", "montecarlo_matched.scn", "dt       = 5e-12", "dt = 0", "dt"),
        # montecarlo's output schedule is fixed; no scenario key sets it
        ("montecarlo", "montecarlo_matched.scn", "seed", "decimate = 50\nseed", "decimate"),
        ("mismatch", "mismatch_transient.scn", "t_eval   = 1e-5", "t_eval = 0", "t_eval"),
        ("mismatch", "mismatch_transient.scn", "t_eval   = 1e-5", "t_eval = -1e-5", "t_eval"),
        ("mismatch", "mismatch_steady.scn", _STEADY_F, "f_sweep = 1,inf\n", "f_sweep"),
        ("mismatch", "mismatch_steady.scn", _STEADY_F, "f_sweep = 1,1e308\n", "f_sweep"),
        ("mismatch", "mismatch_transient.scn", _TRANSIENT_F, "f_sweep = 1,inf\n", "f_sweep"),
        ("mismatch", "mismatch_transient.scn", _TRANSIENT_F, "f_sweep = 1,0\n", "f_sweep"),
        ("mismatch", "mismatch_transient.scn", _TRANSIENT_F, "f_sweep = 1,nan\n", "f_sweep"),
        ("bode", "bode_nominal.scn", "n_omega   = 481", "n_omega = -5", "n_omega"),
        ("bode", "bode_nominal.scn", "n_omega   = 481", "n_omega = 0", "n_omega"),
        ("bode", "bode_nominal.scn", "omega_min = 1e4", "omega_min = 0", "omega_min"),
        ("bode", "bode_nominal.scn", "omega_max = 1e12", "omega_max = inf", "omega_max"),
        ("design", "robust_design.scn", "n_omega = 600", "omega_L = 0\nn_omega = 600", "omega_L"),
        ("design", "robust_design.scn", "n_omega = 600", "n_omega = -5", "n_omega"),
        ("design", "robust_design.scn", "omega_1 = 8e7", "omega_1 = inf", "omega_1"),
        # keys a verb would override are rejected, not taken silently:
        # mismatch sets each f's spin prior itself, and design's grid
        # needs the 400 points sensitivity_norm checks
        ("mismatch", "mismatch_transient.scn", "t_eval   = 1e-5", "t_eval   = 1e-5\nsigma_z0 = 1",
         "sigma_z0"),
        ("design", "robust_design.scn", "n_omega = 600", "n_omega = 100", "n_omega"),
    ])
    def test_bad_step_values_are_configuration_errors(self, tmp_path, capsys, verb, fixture,
                                                      old, new, key):
        base = (SCENARIOS / fixture).read_text()
        assert old in base
        sc = tmp_path / "bad.scn"
        sc.write_text(base.replace(old, new))
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, fixture, old, new, key", [
        ("montecarlo", "montecarlo_matched.scn", "trials   = 2000", "trials   = 2e3", "trials"),
        ("simulate", "constant_field_tables.scn", "J        = 1e6", "J        = abc", "J"),
        ("mismatch", "mismatch_steady.scn", _STEADY_F, "f_sweep  = 1,x\n", "f_sweep"),
    ])
    def test_unparsed_values_name_the_line(self, tmp_path, capsys, verb, fixture, old, new, key):
        base = (SCENARIOS / fixture).read_text()
        assert old in base
        lineno = base[:base.index(old)].count("\n") + 1
        sc = tmp_path / "bad.scn"
        sc.write_text(base.replace(old, new))
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{sc}:{lineno}:" in err and f"'{key}'" in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.scn"
        rc = run_cli(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"{missing}: cannot read scenario file" in capsys.readouterr().err

    def test_invalid_physics_rejected_at_build(self, tmp_path):
        f = tmp_path / "p.scn"
        f.write_text("J = 1e6\ngamma = 1e6\nM = 1e4\neta = 2\ndt = 1e-9\nT = 1e-7\n")
        rc = run_cli(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    @pytest.mark.parametrize("verb, fixture, old, new, key", [
        ("simulate", "constant_field_tables.scn", "sigma_b0 = 1", "sigma_b0 = nan", "sigma_b0"),
        ("simulate", "constant_field_tables.scn", "sigma_b0 = 1", "sigma_b0 = inf", "sigma_b0"),
        ("riccati", "riccati_fluctuating.scn", "gamma_b  = 1e5", "gamma_b = nan", "gamma_b"),
        ("mismatch", "mismatch_steady.scn", "lambda   = 1", "lambda = nan", "lambda"),
        ("montecarlo", "montecarlo_matched.scn", "sigma_bF = 2e5", "sigma_bF = nan", "sigma_bF"),
        ("bode", "bode_nominal.scn", "sigma_bF  = 2e5", "sigma_bF = inf", "sigma_bF"),
        ("simulate", "constant_field_tables.scn", "J        = 1e6", "J = inf", "J must"),
        ("riccati", "riccati_fluctuating.scn", "M        = 1e4", "M = inf", "M must"),
        ("bode", "bode_nominal.scn", "gamma     = 1e6", "gamma = inf", "gamma must"),
        ("riccati", "riccati_fluctuating.scn", "dt       = 1e-8", "dt = 1e-3", "'dt'"),
        ("riccati", "riccati_fluctuating.scn", "dt       = 1e-8", "dt = 1e-4", "'dt'"),
    ])
    def test_non_finite_or_inverted_values_rejected(self, tmp_path, capsys, verb, fixture, old,
                                                     new, key):
        # each value is rejected as the scenario is built, before any
        # arithmetic warns or a row is written
        base = (SCENARIOS / fixture).read_text()
        assert base.count(old) == 1
        sc = tmp_path / "bad.scn"
        sc.write_text(base.replace(old, new))
        out = tmp_path / "o.csv"
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err
        assert not out.exists()


class TestCommands:
    def test_simulate_csv_schema(self, tmp_path):
        out = tmp_path / "sim.csv"
        sc = tmp_path / "s.scn"
        sc.write_text("J = 1e4\ngamma = 1e6\nM = 1e4\nsigma_z0 = 5e3\nsigma_b0 = 1e-4\n"
                      "gamma_b = 1e5\nsigma_bF = 2e-4\ndt = 1e-8\nT = 1e-6\nseed = 3\n")
        assert run_cli(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "z", "b", "u", "ydt"]
        assert len(rows) == 101

    def test_riccati_constant_field_agreement_columns(self, tmp_path):
        out = tmp_path / "ric.csv"
        rc = run_cli(["riccati", "--scenario", str(SCENARIOS / "constant_field_tables.scn"),
                      "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "t" and "bdev_analytic" in header
        devs = np.array([float(r[header.index("bdev_analytic")]) for r in rows])
        assert np.nanmax(devs) < 1e-6

    def test_riccati_decaying_field(self, tmp_path, capsys):
        # sigma_bF = 0 < gamma_b: the linearized columns come from one jump
        # from the prior and agree with RK4; past the jump's horizon they
        # are NaN, like the analytic columns, and the verb still succeeds
        base = (SCENARIOS / "constant_field_tables.scn").read_text()
        for t_end, finite in (("1e-4", True), ("4e-3", False)):
            sc = tmp_path / f"decay_{t_end}.scn"
            sc.write_text(base.replace("gamma_b  = 0", "gamma_b  = 1e5")
                              .replace("T        = 1e-4", f"T        = {t_end}"))
            out = tmp_path / f"decay_{t_end}.csv"
            assert run_cli(["riccati", "--scenario", str(sc), "--out", str(out)]) == 0
            header, rows = read_csv(out)
            lin = np.array([float(r[header.index("sigma_bR_linearized")]) for r in rows])
            dev = np.array([float(r[header.index("bdev_linearized")]) for r in rows])
            assert np.all(np.isnan([float(r[header.index("bdev_analytic")]) for r in rows]))
            if finite:
                assert np.all(np.isfinite(lin)) and np.max(dev) < 1e-6
            else:
                assert np.all(np.isnan(lin))
                assert "linearized columns left NaN" in capsys.readouterr().out

    def test_riccati_slowly_saturating_routes_agree(self, tmp_path, capsys):
        # little field noise on the paper's plant: the transient never
        # saturates in the window (the sign-function split printed 1.166)
        sc = tmp_path / "slow.scn"
        sc.write_text("J = 1e6\ngamma = 1e6\nM = 1e4\nsigma_bF = 1e-12\nsigma_z0 = 5e5\n"
                      "sigma_b0 = 1\ndt = 1e-9\nT = 1e-5\n")
        assert run_cli(["riccati", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")]) == 0
        worst = re.search(r"worst cross-route deviation (\S+)", capsys.readouterr().out)
        assert float(worst.group(1)) <= 1e-6

    def test_riccati_names_the_row_of_its_worst_deviation(self, tmp_path, capsys):
        # a large field prior decays at gamma_b = 1e6, where RK4's steps
        # are held to 0.01 / gamma_b: the report names the CSV's argmax
        sc = tmp_path / "decay.scn"
        sc.write_text("J = 1e-3\ngamma = 1e-3\nM = 1e-3\ngamma_b = 1e6\nsigma_bF = 1e-30\n"
                      "sigma_z0 = 5e-4\nsigma_b0 = 1\ndt = 1e-9\nT = 1e-4\n")
        out = tmp_path / "o.csv"
        assert run_cli(["riccati", "--scenario", str(sc), "--out", str(out)]) == 0
        line = capsys.readouterr().out
        found = re.search(r"worst cross-route deviation (\S+) \((\w+) at t = (\S+)\)\n", line)
        header, rows = read_csv(out)
        cols = [header.index("bdev_analytic"), header.index("bdev_linearized")]
        devs = np.array([[float(r[c]) for r in rows] for c in cols])
        column, row = np.unravel_index(np.nanargmax(devs), devs.shape)
        assert found.groups() == ("%.3e" % devs[column, row], header[cols[column]],
                                  "%.6e" % float(rows[row][0]))
        assert found.group(2) == "bdev_linearized" and devs[column, row] <= 1e-6

    def test_montecarlo_small(self, tmp_path):
        out = tmp_path / "mc.csv"
        sc = tmp_path / "mc.scn"
        base = (SCENARIOS / "montecarlo_matched.scn").read_text()
        sc.write_text(base.replace("trials   = 2000", "trials   = 100")
                          .replace("T        = 5e-8", "T        = 1e-8"))
        assert run_cli(["montecarlo", "--scenario", str(sc), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:3] == ["t", "sigma_bE", "se_bE"]
        assert "sigma_bR" in header

    def test_montecarlo_determinism_and_worker_invariance(self, tmp_path):
        sc = tmp_path / "mc.scn"
        base = (SCENARIOS / "montecarlo_matched.scn").read_text()
        sc.write_text(base.replace("trials   = 2000", "trials   = 600")
                          .replace("T        = 5e-8", "T        = 5e-9"))
        outs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"mc_{tag}.csv"
            assert run_cli(["montecarlo", "--scenario", str(sc), "--out", str(out),
                            "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]  # repeated run byte-identical
        assert outs[0] == outs[2]  # worker count does not change bytes

    def test_montecarlo_one_trial_worker_invariance(self, tmp_path):
        # 513 = 2 blocks + 1 trial: at --workers 3 the last worker runs its
        # one trial alone, on the same zero-padded product tile as in one call
        sc = tmp_path / "mc.scn"
        base = (SCENARIOS / "montecarlo_matched.scn").read_text()
        sc.write_text(base.replace("trials   = 2000", "trials   = 513")
                          .replace("T        = 5e-8", "T        = 5e-9"))
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"mc_{workers}.csv"
            assert run_cli(["montecarlo", "--scenario", str(sc), "--out", str(out),
                            "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_montecarlo_steady_gain_fixture(self, tmp_path, capsys):
        sc = tmp_path / "sg.scn"
        base = (SCENARIOS / "transfer_function_comparison.scn").read_text()
        sc.write_text(base.replace("trials   = 2000", "trials   = 100")
                          .replace("T        = 5e-8", "T        = 5e-9"))
        out = tmp_path / "sg.csv"
        assert run_cli(["montecarlo", "--scenario", str(sc), "--out", str(out)]) == 0
        assert "steady_gain" in capsys.readouterr().out

    def test_montecarlo_divergence_exit_code(self, tmp_path, capsys):
        sc = tmp_path / "div.scn"
        base = (SCENARIOS / "transfer_function_comparison.scn").read_text()
        sc.write_text(base.replace("trials   = 2000", "trials   = 20")
                          .replace("lambda   = 0.01", "lambda   = 1000")
                          .replace("T        = 5e-8", "T        = 1e-9"))
        rc = run_cli(["montecarlo", "--scenario", str(sc), "--out", str(tmp_path / "d.csv")])
        assert rc == 3
        assert "non-finite state at t =" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, who", [("montecarlo", "run_ensemble"),
                                           ("simulate", "run_closed_loop")])
    def test_horizon_below_one_step_is_configuration_error(self, tmp_path, capsys, verb, who):
        # round(T / dt) = 0: the truth run names itself, before any gain
        # table is solved for an empty horizon
        sc = tmp_path / "short.scn"
        base = (SCENARIOS / "montecarlo_matched.scn").read_text()
        sc.write_text(base.replace("T        = 5e-8", "T        = 2e-12"))
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{who}: dt and T must be positive, with T of at least one step" in err
        assert "integrate_estimator_riccati" not in err

    @pytest.mark.parametrize("verb, fixture, edits, named", [
        ("simulate", "constant_field_tables.scn",
         [("dt       = 1e-8", "dt = 1e-20"), ("T        = 1e-4", "T = 1")],
         "simulate_open_loop: T / dt = 1e+20 steps"),
        ("montecarlo", "montecarlo_matched.scn",
         [("dt       = 5e-12", "dt = 1e-20"), ("T        = 5e-8", "T = 1")],
         "run_ensemble: T / dt = 1e+20 steps"),
        ("montecarlo", "montecarlo_matched.scn",
         [("dt       = 5e-12", "dt = 1e-20"), ("T        = 5e-8", "T = 1e300")],
         "run_ensemble: T / dt = inf steps"),
        ("riccati", "riccati_fluctuating.scn", [("sigma_bF = 2e5", "sigma_bF = 1e300")],
         "geometric_times: the tail of 4e+78 steps"),
        ("bode", "bode_nominal.scn", [("lambda    = 0.2", "lambda = 1e300")], "'lambda'"),
        # a coupling whose product overflows is named as such, not as the
        # square of one factor or as lambda
        ("riccati", "bode_nominal.scn",
         [("J         = 1e6", "J = 1e160"), ("gamma     = 1e6", "gamma = 1e160"),
          ("J_prime   = 1e6", "J_prime = 1e160"), ("seed", "dt = 1e-8\nT = 1e-4\nseed")],
         "PlantParams: gamma * J must be finite"),
        ("bode", "bode_nominal.scn",
         [("J         = 1e6", "J = 1"), ("gamma     = 1e6", "gamma = 1e160"),
          ("J_prime   = 1e6", "J_prime = 1e160")],
         "closed_loop_tfs: gamma * J_prime must be finite"),
    ])
    def test_sizes_past_the_float_or_index_range_are_configuration_errors(
            self, tmp_path, capsys, verb, fixture, edits, named):
        # step counts no array can index, and loop coefficients that
        # overflow, are rejected before any allocation or warning
        base = (SCENARIOS / fixture).read_text()
        for old, new in edits:
            assert base.count(old) == 1
            base = base.replace(old, new)
        sc = tmp_path / "big.scn"
        sc.write_text(base)
        out = tmp_path / "o.csv"
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1 and named in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["montecarlo", "simulate"])
    def test_steady_gain_past_the_filter_step_bound_is_configuration_error(self, tmp_path,
                                                                           capsys, verb):
        # dt = 1e-9 is 4x past the Euler filter's bound dt * K_O1_steady
        # < 0.1, which the frozen gain must meet as the dynamic one does
        base = (SCENARIOS / "transfer_function_comparison.scn").read_text()
        sc = tmp_path / "coarse.scn"
        sc.write_text(base.replace("dt       = 5e-12", "dt = 1e-9")
                          .replace("T        = 5e-8", "T = 1e-7")
                          .replace("trials   = 2000", "trials = 256"))
        out = tmp_path / "o.csv"
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "choose dt below 2.365e-10" in err
        assert not out.exists()

    def test_riccati_time_out_of_float_range_is_numerical_error(self, tmp_path, capsys):
        # the closed form names the time before any arithmetic warns
        base = (SCENARIOS / "constant_field_tables.scn").read_text()
        sc = tmp_path / "long.scn"
        sc.write_text(base.replace("T        = 1e-4", "T = 1e300"))
        rc = run_cli(["riccati", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: analytic_sigma:") and err.count("\n") == 1

    def test_simulate_divergence_exit_code(self, tmp_path, capsys):
        # the one-trial loop runs on Python floats, which overflow without a
        # warning, so run_closed_loop checks its rows before returning
        sc = tmp_path / "div.scn"
        base = (SCENARIOS / "transfer_function_comparison.scn").read_text()
        sc.write_text(base.replace("lambda   = 0.01", "lambda   = 1000")
                          .replace("T        = 5e-8", "T        = 1e-9"))
        rc = run_cli(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "d.csv")])
        assert rc == 3
        assert "non-finite state at t =" in capsys.readouterr().err

    def test_riccati_infinite_prior_is_configuration_error(self, tmp_path, capsys):
        sc = tmp_path / "inf.scn"
        base = (SCENARIOS / "riccati_fluctuating.scn").read_text()
        sc.write_text(base.replace("sigma_b0 = 1", "sigma_b0 = inf"))
        # rejected before any arithmetic warns
        rc = run_cli(["riccati", "--scenario", str(sc), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "sigma_b0 must be nonnegative and finite" in capsys.readouterr().err

    def test_mismatch_steady(self, tmp_path):
        out = tmp_path / "mm.csv"
        rc = run_cli(["mismatch", "--scenario", str(SCENARIOS / "mismatch_steady.scn"),
                      "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        factors = {float(r[0]): (float(r[3]), float(r[4])) for r in rows}
        for f, (measured, predicted) in factors.items():
            assert measured == pytest.approx(predicted, rel=0.02)

    def test_mismatch_transient_flags_invalid_row(self, tmp_path):
        out = tmp_path / "mmt.csv"
        rc = run_cli(["mismatch", "--scenario", str(SCENARIOS / "mismatch_transient.scn"),
                      "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        by_f = {float(r[0]): r for r in rows}
        assert by_f[0.5][header.index("valid")] == "0"
        assert by_f[1.0][header.index("valid")] == "1"

    def test_mismatch_transient_needs_a_constant_field(self, tmp_path, capsys):
        # the late-time law the factors divide by holds for constant fields only
        base = (SCENARIOS / "mismatch_transient.scn").read_text()
        sc = tmp_path / "fluct.scn"
        sc.write_text(base.replace("sigma_bF = 0\n", "sigma_bF = 2e5\n")
                      .replace("gamma_b  = 0\n", "gamma_b  = 1e5\n"))
        rc = run_cli(["mismatch", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "constant fields only" in capsys.readouterr().err

    def test_mismatch_time_out_of_float_range_is_numerical_error(self, tmp_path, capsys):
        # t_eval^4 underflows, so the late-time law has no normal denominator
        base = (SCENARIOS / "mismatch_transient.scn").read_text()
        sc = tmp_path / "tiny_t.scn"
        sc.write_text(base.replace("t_eval   = 1e-5", "t_eval   = 1e-90"))
        rc = run_cli(["mismatch", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "at t = 1.000000e-90" in capsys.readouterr().err

    def test_mismatch_overflowing_step_norm_is_numerical_error(self, tmp_path, capsys):
        # ||alpha||_1 h overflows on a long interval: one line naming the
        # first non-finite Theta, with no numpy warning
        base = (SCENARIOS / "mismatch_transient.scn").read_text()
        sc = tmp_path / "huge.scn"
        sc.write_text(base.replace("lambda   = 1\n", "lambda   = 1e290\n")
                      .replace("t_eval   = 1e-5", "t_eval   = 1e12")
                      .replace(_TRANSIENT_F, "f_sweep  = 2\n"))
        rc = run_cli(["mismatch", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: joint covariance not finite at t = ")
        assert "(interval from t = 0.000000e+00)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("t_eval", ["1", "1e30"])
    def test_mismatch_long_horizon_is_numerical_error(self, tmp_path, capsys, t_eval):
        # finite, stiff interval maps whose doubling or prefix scan
        # overflows: one line naming the interval, no warning or traceback
        base = (SCENARIOS / "mismatch_transient.scn").read_text()
        sc = tmp_path / "long.scn"
        sc.write_text(base.replace("t_eval   = 1e-5", f"t_eval   = {t_eval}"))
        rc = run_cli(["mismatch", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert re.fullmatch(r"numerical error: .*\(interval from t = [^)]*\)\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("verb, fixture, edits, named", [
        ("riccati", "riccati_fluctuating.scn", [("gamma_b  = 1e5", "gamma_b = 1e200")],
         "gamma_b = 1e+200: its square overflows"),
        ("bode", "bode_nominal.scn", [("gamma_b   = 1e5", "gamma_b = 1e200")],
         "gamma_b = 1e+200: its square overflows"),
        ("riccati", "constant_field_tables.scn", [("J        = 1e6", "J = 1e160")],
         "J = 1e+160: its square overflows"),
        ("mismatch", "mismatch_transient.scn",
         [("J        = 1e6", "J = 1e160"), ("J_prime  = 1e6", "J_prime = 1e160")],
         "gamma J = 1e+166: its square overflows"),
        ("mismatch", "mismatch_steady.scn",
         [("lambda   = 1\n", "lambda = 0\n"), (_STEADY_F, "f_sweep = 1e200\n")],
         "steady_state_error: the stationary Lyapunov system is singular"),
        ("mismatch", "mismatch_steady.scn",
         [("lambda   = 1\n", "lambda = 0\n"), (_STEADY_F, "f_sweep = 1e155\n")],
         "1 - f = -1e+155: its square overflows"),
    ], ids=["riccati-gamma_b", "bode-gamma_b", "riccati-J", "mismatch-J", "mismatch-singular",
            "mismatch-factor"])
    def test_finite_values_past_the_float_range_are_numerical_errors(
            self, tmp_path, capsys, verb, fixture, edits, named):
        # a square that overflows a Python float, or a stationary solve
        # singular in floats: one stderr line, no traceback and no CSV
        base = (SCENARIOS / fixture).read_text()
        for old, new in edits:
            assert base.count(old) == 1
            base = base.replace(old, new)
        sc = tmp_path / "big.scn"
        sc.write_text(base)
        out = tmp_path / "o.csv"
        rc = run_cli([verb, "--scenario", str(sc), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_mismatch_table_rows_stay_short(self, tmp_path, capsys):
        # a factor near 1e308 prints in exponent form, not as 309 digits
        base = (SCENARIOS / "mismatch_steady.scn").read_text()
        sc = tmp_path / "wide.scn"
        sc.write_text(base.replace("lambda   = 1\n", "lambda = 0\n")
                      .replace(_STEADY_F, "f_sweep = 1e154\n"))
        rc = run_cli(["mismatch", "--scenario", str(sc), "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and max(map(len, lines)) < 120, lines

    def test_bode_report(self, tmp_path, capsys):
        out = tmp_path / "bode.csv"
        rc = run_cli(["bode", "--scenario", str(SCENARIOS / "bode_nominal.scn"),
                      "--out", str(out)])
        assert rc == 0
        report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                      if ": " in line)
        # the bisected crossover sits on the closed form, not on the
        # first-order 2 omega_H of criterion 9
        closed_form = float(report["crossover_closed_form"])
        assert closed_form == math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
        assert abs(closed_form / float(report["omega_C / omega_H"]) - 1.0) < 0.005
        header, rows = read_csv(out)
        assert header[0] == "omega" and "Gu_mag_dB" in header

    def test_design_report_and_exit(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        rc = run_cli(["design", "--scenario", str(SCENARIOS / "robust_design.scn"),
                      "--out", str(out)])
        report = capsys.readouterr().out
        assert rc == 0, report
        assert "criterion_met: 1" in report
        header, rows = read_csv(out)
        assert len(rows) == 25
        assert all(float(r[1]) < 1.0 for r in rows)

    def test_design_infeasible_exit_code(self, tmp_path):
        sc = tmp_path / "bad_design.scn"
        sc.write_text("gamma = 1e6\nJ_min = 1e5\nJ_max = 1e6\nomega_Q = 1e9\n"
                      "omega_1 = 8e7\nomega_L = 1e9\n")
        rc = run_cli(["design", "--scenario", str(sc), "--out", str(tmp_path / "d.csv")])
        assert rc == 2

    def test_simulate_closed_loop_schema(self, tmp_path):
        out = tmp_path / "clo.csv"
        sc = tmp_path / "clo.scn"
        base = (SCENARIOS / "montecarlo_matched.scn").read_text()
        sc.write_text(base.replace("T        = 5e-8", "T        = 2e-9"))
        assert run_cli(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "z", "b", "u", "z_tilde", "b_tilde"]
        assert len(rows) == 401

    def test_qsme_verify_plumbing(self, tmp_path, monkeypatch, capsys):
        import numpy as _np
        from spintrack import qsme as _qsme

        def fake_suites(seed=0):
            t = _np.array([0.0, 1.0])
            return [
                {"name": "jx_decay", "passed": True, "measured": 1e-4,
                 "tolerance": 0.01, "t": t, "jx": t + 1.0, "predicted": t + 1.0},
                {"name": "variance_tracking", "passed": True, "measured": 2e-3,
                 "tolerance": 0.05, "t": t, "dJz2": t, "predicted": t},
                {"name": "grid_vs_kalman", "passed": True, "measured": 0.02,
                 "tolerance": 0.1, "posterior": (_np.array([-1.0, 1.0]),
                                                 _np.array([0.25, 0.75]))},
                {"name": "two_point_posterior", "passed": False, "measured": 0.5,
                 "tolerance": 0.9},
            ]

        monkeypatch.setattr(_qsme, "run_all_suites", fake_suites)
        out = tmp_path / "q.csv"
        rc = run_cli(["qsme-verify", "--scenario", str(SCENARIOS / "qsme_verify.scn"),
                      "--out", str(out)])
        assert rc == 4  # one suite failed
        report = capsys.readouterr().out
        assert "two_point_posterior: FAIL" in report
        header, rows = read_csv(out)
        assert header == ["suite", "t", "value", "predicted"]
        assert any(r[0] == "grid_posterior" for r in rows)

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "ric.csv"
        run_cli(["riccati", "--scenario", str(SCENARIOS / "constant_field_tables.scn"),
                 "--out", str(out)])
        _, rows = read_csv(out)
        val = rows[0][1]
        assert float(val) == float("%.17g" % float(val))
        assert len(val.replace(".", "").replace("-", "").replace("e", "").lstrip("0")) >= 15

    def test_csv_lines_are_the_per_entry_format(self, tmp_path):
        # one format line from the column dtypes writes the bytes of _fmt
        # applied entry by entry
        floats = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1,
                           -1.0 / 3.0, 1e300])
        n = len(floats)
        columns = [floats, np.linspace(-1.0, 1.0, n, dtype=np.float32), np.arange(n) % 3 == 0,
                   np.arange(n) - 4, np.array([f"s{i}" for i in range(n)]), floats * 7.0]
        header = ["f64", "f32", "flag", "int", "name", "scaled"]
        write_csv(tmp_path / "out.csv", header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(_fmt(col[i]) for col in columns) + "\n" for i in range(n))
        assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")

    def test_riccati_determinism_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"r_{tag}.csv"
            run_cli(["riccati", "--scenario", str(SCENARIOS / "riccati_fluctuating.scn"),
                     "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_console_entry_point(tmp_path):
    out = tmp_path / "sim.csv"
    sc = tmp_path / "s.scn"
    sc.write_text("J = 1e4\ngamma = 1e6\nM = 1e4\nsigma_z0 = 5e3\nsigma_b0 = 0\n"
                  "dt = 1e-8\nT = 1e-7\nseed = 1\n")
    proc = subprocess.run([sys.executable, "-m", "spintrack.cli", "simulate",
                           "--scenario", str(sc), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_the_runtime_needs_numpy_only(tmp_path):
    # a fresh interpreter runs every route that once called scipy.linalg:
    # the Vaughan split and the Kronecker Lyapunov solve behind two verbs,
    # the decaying-field jump, and the oracle's rotations
    code = f"""
import sys
import numpy as np
from spintrack import cli, qsme, riccati
from spintrack.model import PlantParams, Priors
for verb, scenario in (("riccati", "riccati_fluctuating.scn"), ("mismatch", "mismatch_steady.scn")):
    assert cli.main([verb, "--scenario", {str(SCENARIOS)!r} + "/" + scenario,
                     "--out", {str(tmp_path)!r} + "/" + verb + ".csv"]) == 0
p = PlantParams(J=1e6, gamma=1e6, M=1e4, gamma_b=1e5)
riccati.linearized_riccati_curve(p, Priors(5e5, 1.0), np.geomspace(1e-8, 1e-3, 9))
qsme.StateStack(qsme.spin_operators(2.0), PlantParams(J=2.0, gamma=1.0, M=1.0), 1e-3,
                np.array([0.0, 1.0]), 2, 4)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_montecarlo_leaves_no_thread_and_imports_no_pool(tmp_path):
    # a fresh interpreter, warnings as errors: a montecarlo whose draw blocks
    # span several tiles joins every helper thread of the noise kernel, and
    # at --workers 1 neither an executor nor a process pool is imported
    sc = tmp_path / "mc.scn"
    base = (SCENARIOS / "montecarlo_matched.scn").read_text()
    sc.write_text(base.replace("trials   = 2000", "trials   = 600")
                      .replace("T        = 5e-8", "T        = 5e-9"))
    code = f"""
import sys, threading
from spintrack import cli
assert cli.main(["montecarlo", "--scenario", {str(sc)!r}, "--out", {str(tmp_path / "mc.csv")!r},
                 "--workers", "1"]) == 0
assert "concurrent.futures" not in sys.modules
assert "multiprocessing" not in sys.modules
assert threading.active_count() == 1, threading.enumerate()
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_blas_threads_default_to_one():
    # importing the package pins BLAS to one thread unless the environment sets it
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, spintrack; print(*(os.environ[v] for v in {blas!r}))"
    env = {k: v for k, v in os.environ.items() if k not in blas}
    for preset, expected in (({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected.split()
