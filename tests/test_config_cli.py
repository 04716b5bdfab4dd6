import csv
import json
import runpy
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import cli
from netepi.cli import execute, main
from netepi.config import parse_config, parse_config_data, run_trajectory
from netepi.errors import ConfigError, DomainError, StabilityError
from netepi.ode import MODEL_NAMES, integrate
from netepi.config import MODEL_FIELDS, REQUIRED_FIELDS, TUNABLE, build_spec_model

DATA = Path(__file__).parent / "data"
HIV_MODELS = ("hiv_msm", "hiv_hetero")

MINIMAL_CLASSIC = {
    "model": "classic", "lambda": 0.05, "mu": 0.05, "rho0": 0.01,
    "t_span": [0, 200],
}

FIG1 = {
    "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.01,
    "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 60},
    "t_span": [0, 200],
}


def field_of(err):
    return err.value.field


def phase_config(model, population, phase):
    """A valid ``model`` config with a phase section for ``population``:
    distribution k 1..20, distribution2 (two-population models) k 2..4."""
    cfg = {"model": model, "lambda": 0.2, "rho0": 0.01, "t_span": [0, 5],
           "phase": {**phase, "population": population}}
    if model != "classic":
        cfg["distribution"] = {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20}
    if model == "bipartite":
        cfg["lambda2"] = 0.1
    if model in ("bipartite", "hiv_hetero"):
        cfg["distribution2"] = {"type": "weights", "k_min": 2, "weights": [1, 2, 1]}
    return cfg


class TestParseConfig:
    def test_minimal_classic_defaults(self):
        spec = parse_config_data(MINIMAL_CLASSIC)
        assert spec.method == "rk4"
        assert spec.dt == 0.1
        assert spec.link_mode == "active"
        assert spec.params.lam == 0.05

    def test_lambda_domain_diagnostic(self):
        with pytest.raises(ConfigError) as err:
            parse_config_data({**MINIMAL_CLASSIC, "lambda": 1.5})
        assert field_of(err) == "lambda"
        assert "[0, 1]" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_data({**MINIMAL_CLASSIC, "lambda2_typo": 1})
        assert field_of(err) == "lambda2_typo"

    def test_unknown_nested_key(self):
        bad = {**FIG1, "distribution": {"type": "power_law", "gamma": 3, "kmax": 60}}
        with pytest.raises(ConfigError) as err:
            parse_config_data(bad)
        assert field_of(err) == "distribution.kmax"

    @pytest.mark.parametrize("value", ["full", "none"])
    def test_retired_abm_rewire_key(self, value):
        # the agent-based network is re-paired every step; there is no option
        bad = {**FIG1, "abm": {"n": 300, "replicas": 4, "rewire": value}}
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_config_data(bad)
        assert field_of(err) == "abm.rewire"

    def test_distribution2_on_classic_names_distribution2(self):
        bad = {**MINIMAL_CLASSIC,
               "distribution2": {"type": "weights", "k_min": 2, "weights": [1, 2, 1]}}
        with pytest.raises(ConfigError, match="not used by model") as err:
            parse_config_data(bad)
        assert field_of(err) == "distribution2"

    def test_missing_required_field(self):
        cfg = dict(MINIMAL_CLASSIC)
        del cfg["rho0"]
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == "rho0"

    def test_hiv_two_epoch_schedule(self):
        cfg = {
            "model": "hiv_msm", "lambda": 0.44, "rho0": 0.0032,
            "d": 0.02,
            "distribution": {"type": "power_law", "gamma": 1.6, "k_min": 1, "k_max": 250},
            "t_span": [1980, 2005], "dt": 0.5,
            "treatment": {"epochs": [1988, 1996], "coverages": [0.3, 0.7]},
        }
        spec = parse_config_data(cfg)
        assert spec.treatment.epochs == (1988.0, 1996.0)
        assert spec.treatment.coverages == (0.3, 0.7)
        assert spec.treatment.initial_coverage == 0.0

    def test_model_specific_rejections(self):
        with pytest.raises(ConfigError) as err:
            parse_config_data({**MINIMAL_CLASSIC, "lambda2": 0.1})
        assert field_of(err) == "lambda2"
        with pytest.raises(ConfigError) as err:
            parse_config_data({**FIG1, "asymmetry": 0.7})
        assert field_of(err) == "asymmetry"
        with pytest.raises(ConfigError) as err:
            parse_config_data({**FIG1, "treatment": {"epochs": [5], "coverages": [0.5]}})
        assert field_of(err) == "treatment"
        with pytest.raises(ConfigError) as err:
            parse_config_data(
                {**MINIMAL_CLASSIC, "distribution": {"type": "weights", "weights": [1]}})
        assert field_of(err) == "distribution"

    def test_two_type_requires_lambda2(self):
        cfg = {**FIG1, "model": "two_type"}
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == "lambda2"

    def test_hiv_rejects_mu(self):
        cfg = {**FIG1, "model": "hiv_msm"}
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == "mu"

    @pytest.mark.parametrize("extra", [
        {"stage_rates": [[0.1, 0.2], [0.3]]},
        {"stage_rates": [[0.1], []]},
        {"stage_rates": [0.1, True]},
        {"stage_rates": [0.5, 1.5]},
        {"mu": 0.05, "stage_rates": [0.1]},
    ], ids=["ragged_rows", "empty_row", "bool", "rate_above_one", "mu_with_stages"])
    def test_stage_rates_rejections_name_the_field(self, extra):
        # the record's own rule rejects these; the parser names the field
        with pytest.raises(ConfigError) as err:
            parse_config_data({**FIG1, "mu": 0.0, **extra})
        assert field_of(err) == "stage_rates"

    @pytest.mark.parametrize("field, extra", [
        ("out_dir", {"out_dir": "out\x00"}),
        ("fit.observed_csv", {"fit": {"free": {"lambda": [0.01, 0.1]}, "initial": {"lambda": 0.05},
                                      "observed_csv": "obs\x00.csv"}}),
    ])
    def test_nul_in_a_path_names_the_field(self, field, extra):
        # open() and mkdir() would raise a bare ValueError on it
        with pytest.raises(ConfigError) as err:
            parse_config_data({**MINIMAL_CLASSIC, **extra})
        assert field_of(err) == field

    def test_decreasing_epochs_rejected(self):
        cfg = {
            "model": "hiv_msm", "lambda": 0.3, "mu": 0, "rho0": 0.01,
            "distribution": {"type": "power_law", "gamma": 2, "k_min": 1, "k_max": 30},
            "t_span": [0, 50],
            "treatment": {"epochs": [20, 10], "coverages": [0.3, 0.7]},
        }
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == "treatment"

    @pytest.mark.parametrize("model,population,phase,field", [
        # classic is the single degree k = 1
        ("classic", 1, {"m": 2, "n": 1}, "phase.m"),
        # population 1: distribution k 1..20
        ("hiv_hetero", 1, {"m": 20, "n": 21}, "phase.n"),
        # population 2 of bipartite/hiv_hetero: distribution2 k 2..4
        ("bipartite", 2, {"m": 1, "n": 3}, "phase.m"),
        ("hiv_hetero", 2, {"m": 4, "n": 5}, "phase.n"),
        ("hiv_hetero", 2, {"m": 20, "n": 2}, "phase.m"),
        ("stratified", 2, {"m": 1, "n": 1}, "phase.population"),
    ])
    def test_phase_degrees_outside_support(self, model, population, phase, field):
        with pytest.raises(ConfigError) as err:
            parse_config_data(phase_config(model, population, phase))
        assert field_of(err) == field

    def test_phase_population_two_defaults_to_first_distribution(self):
        cfg = phase_config("hiv_hetero", 2, {"m": 20, "n": 20})
        del cfg["distribution2"]
        assert parse_config_data(cfg).phase["m"] == 20
        cfg["phase"]["m"] = 21
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == "phase.m"

    def test_weights_distribution(self):
        cfg = {**FIG1, "distribution": {"type": "weights", "k_min": 2, "weights": [1, 0, 3]}}
        spec = parse_config_data(cfg)
        assert spec.distribution == {"type": "weights", "k_min": 2, "weights": [1.0, 0.0, 3.0]}

    def test_round_trip_identity(self):
        samples = [
            MINIMAL_CLASSIC,
            FIG1,
            {
                "model": "two_type", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
                "lambda2": 0.02, "split": 0.3, "rho0_type2": 0.4,
                "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 40},
                "t_span": [0, 100], "method": "euler", "dt": 1.0,
            },
            {
                "model": "hiv_hetero", "lambda": 0.28, "rho0": 0.002, "d": 0.05,
                "asymmetry": 0.5, "side_fraction": 0.5,
                "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 60},
                "distribution2": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 40},
                "t_span": [0, 40], "dt": 0.25,
                "treatment": {"epochs": [4], "coverages": [0.7]},
                "abm": {"n": 1000, "replicas": 10, "seed": 4},
                "sensitivity": {"ranges": {"lambda": [0.1, 0.3]}, "n_base": 64, "seed": 1},
                "phase": {"m": 1, "n": 1, "variant": "healthy", "population": 2},
                "fit": {"free": {"lambda": [0.1, 0.4]}, "initial": {"lambda": 0.2},
                        "observed": [[1, 0.1], [2, 0.2]]},
            },
        ]
        for cfg in samples:
            spec = parse_config_data(cfg)
            again = parse_config_data(spec.canonical_dict())
            assert again == spec

    def test_parse_config_file_and_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(MINIMAL_CLASSIC))
        assert parse_config(path).model == "classic"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestExecute:
    def test_run_ode_matches_golden_file(self, tmp_path):
        golden = json.loads((DATA / "fig1_golden.json").read_text())
        spec = parse_config_data(FIG1)
        summary, files = execute(spec, "run-ode", out_dir=tmp_path)
        traj = run_trajectory(spec)
        peak, peak_time = traj.peak()
        assert peak == pytest.approx(golden["peak_prevalence"], abs=1e-9)
        assert peak_time == golden["peak_time"]
        assert traj.final_size() == pytest.approx(golden["final_size"], abs=1e-9)
        # step-halving cross-check of the stored value
        fine = integrate(build_spec_model(spec), spec.t_span, 0.05, "rk4")
        assert fine.peak()[0] == pytest.approx(golden["peak_prevalence"], abs=1e-9)
        assert (tmp_path / "trajectory.csv").exists()
        assert "peak_prevalence" in summary

    def test_per_degree_columns(self, tmp_path):
        spec = parse_config_data({**FIG1, "t_span": [0, 5], "dt": 1.0, "per_degree": True})
        execute(spec, "run-ode", out_dir=tmp_path)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert "s_k1" in header and "i_k60" in header

    def test_compare_outputs(self, tmp_path):
        spec = parse_config_data({
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 30},
            "t_span": [0, 30], "method": "euler", "dt": 1.0,
            "abm": {"n": 1000, "replicas": 8, "seed": 11},
        })
        summary, files = execute(spec, "compare", out_dir=tmp_path)
        assert (tmp_path / "comparison.json").exists()
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert 0.0 <= report["coverage"] <= 1.0
        assert "coverage=" in summary

    @pytest.mark.parametrize("command", ["run-abm", "compare"])
    @pytest.mark.parametrize("extra, field", [
        ({"model": "bipartite", "lambda2": 0.1}, "model"),
        ({"model": "hiv_hetero", "mu": 0.0, "d": 0.02}, "model"),
        ({"mu": 0.0, "stage_rates": [0.1, 0.2]}, "stage_rates"),
        ({"model": "two_type", "lambda2": 0.1}, "split"),
        ({"model": "hiv_msm", "mu": 0.0, "d": 0.5, "stage_rates": [0.9]}, "stage_rates"),
        ({"link_mode": "fixed", "d": 0.05}, "d"),
    ], ids=["bipartite", "hiv_hetero", "stages", "hazard_split", "leave_rate",
            "fixed_replenished"])
    def test_abm_rejects_two_population_models(self, tmp_path, command, extra, field):
        # the agent-based chain runs one population of one stage with fixed
        # routing and per-step probabilities; the ODE runs each of these
        spec = parse_config_data({
            "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "abm": {"n": 100, "replicas": 4}, **extra,
        })
        with pytest.raises(ConfigError) as err:
            execute(spec, command, out_dir=tmp_path)
        assert field_of(err) == field
        assert f"agent-based runs of {spec.model!r} need" in str(err.value)
        assert not any(tmp_path.iterdir())
        execute(spec, "run-ode", out_dir=tmp_path)

    @pytest.mark.parametrize("extra", [
        {"model": "hiv_msm", "mu": 0.0, "d": 0.02,
         "treatment": {"epochs": [4], "coverages": [0.7], "initial_coverage": 0.1}},
        {"model": "two_type", "lambda2": 0.3, "split": 0.6, "rho0_type2": 0.4},
        {"model": "classic"},
    ], ids=["hiv_msm", "two_type", "classic"])
    def test_abm_runs_one_population_models(self, tmp_path, extra):
        cfg = {"model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.05,
               "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
               "t_span": [0, 10], "method": "euler", "dt": 1.0,
               "abm": {"n": 300, "replicas": 2, "seed": 4}, **extra}
        if cfg["model"] == "classic":
            del cfg["distribution"]
        spec = parse_config_data(cfg)
        execute(spec, "compare", out_dir=tmp_path / "a")
        execute(spec, "compare", threads=2, out_dir=tmp_path / "b")
        for name in ("comparison.csv", "comparison.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("threads", [0, -3, 1.5, "2", True])
    def test_execute_rejects_bad_threads(self, tmp_path, threads):
        spec = parse_config_data({
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 5], "method": "euler", "dt": 1.0,
            "abm": {"n": 200, "replicas": 2, "seed": 1},
        })
        with pytest.raises(ConfigError) as err:
            execute(spec, "run-abm", threads=threads, out_dir=tmp_path / "o")
        assert field_of(err) == "threads"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("replicas", [2.5, "3", True, 1])
    def test_execute_rejects_bad_replicas(self, tmp_path, replicas):
        spec = parse_config_data({
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 5], "method": "euler", "dt": 1.0,
            "abm": {"n": 200, "replicas": 2, "seed": 1},
        })
        with pytest.raises(ConfigError) as err:
            execute(spec, "run-abm", replicas=replicas, out_dir=tmp_path / "o")
        assert field_of(err) == "abm.replicas"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_execute_rejects_bad_seed(self, tmp_path, seed):
        spec = parse_config_data({**FIG1, "abm": {"n": 200, "replicas": 2}})
        with pytest.raises(ConfigError) as err:
            execute(spec, "run-abm", seed=seed, out_dir=tmp_path / "o")
        assert field_of(err) == "seed"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field", [
        ("forecast", ""), ("sensitivity", "sensitivity"), ("phase", "phase"), ("fit", "fit"),
    ])
    def test_execute_rejects_command_before_making_out_dir(self, tmp_path, command, field):
        # checked before the output directory is made, so none is left behind
        spec = parse_config_data(FIG1)
        with pytest.raises(ConfigError) as err:
            execute(spec, command, out_dir=tmp_path / "o")
        assert field_of(err) == field
        assert not (tmp_path / "o").exists()

    def test_phase_closed_loop(self, tmp_path):
        spec = parse_config_data({
            **FIG1, "t_span": [0, 400], "dt": 0.2,
            "phase": {"m": 10, "n": 10},
        })
        execute(spec, "phase", out_dir=tmp_path)
        rows = (tmp_path / "phase.csv").read_text().splitlines()
        assert rows[0] == "rho_m,drho_n_dt"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert abs(data[0, 1]) < 1e-4 and abs(data[-1, 1]) < 1e-4

    def test_failed_command_leaves_no_partial_outputs(self, tmp_path):
        spec = parse_config_data({
            **FIG1, "t_span": [0, 10], "dt": 1.0,
            "fit": {"free": {"lambda": [0.01, 0.2]}, "initial": {"lambda": 0.1},
                    "observed": [[0.37, 0.5]]},   # off-grid time
        })
        with pytest.raises(Exception):
            execute(spec, "fit", out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_sensitivity_columns(self, tmp_path):
        spec = parse_config_data({
            "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
            "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "method": "euler", "dt": 1.0,
            "sensitivity": {"ranges": {"lambda": [0.05, 0.15], "gamma": [2, 3]},
                            "n_base": 64, "seed": 3},
        })
        execute(spec, "sensitivity", out_dir=tmp_path)
        header = (tmp_path / "sobol.csv").read_text().splitlines()[0]
        assert header == "t,S_lambda,S_gamma"

    def test_multi_parameter_fit(self, tmp_path):
        base = {
            "model": "stratified", "lambda": 0.08, "mu": 0.06, "rho0": 0.01,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 30},
            "t_span": [0, 80], "method": "euler", "dt": 1.0,
        }
        truth = run_trajectory(parse_config_data(base))
        observed = [[float(t), float(v)] for t, v in zip(truth.times, truth.incidence)]
        spec = parse_config_data({
            **base,
            "fit": {"free": {"lambda": [0.02, 0.2], "mu": [0.01, 0.2]},
                    "initial": {"lambda": 0.15, "mu": 0.03},
                    "observed": observed},
        })
        execute(spec, "fit", out_dir=tmp_path)
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["parameters"]["lambda"] == pytest.approx(0.08, abs=2e-3)
        assert report["parameters"]["mu"] == pytest.approx(0.06, abs=2e-3)

    def test_gamma_override_needs_power_law(self, tmp_path):
        cfg = {
            "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
            "distribution": {"type": "weights", "k_min": 1, "weights": [1, 1]},
            "t_span": [0, 10], "method": "euler", "dt": 1.0,
        }
        with pytest.raises(ConfigError) as err:
            parse_config_data({**cfg, "sensitivity": {"ranges": {"gamma": [2, 3]},
                                                      "n_base": 64, "seed": 3}})
        assert field_of(err) == "sensitivity.ranges.gamma"
        # the library entry keeps its own check
        with pytest.raises(DomainError):
            build_spec_model(parse_config_data(cfg), {"gamma": 2.5})


class TestReplacingWrites:
    def test_interrupted_csv_write_keeps_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "ensemble.csv"
        target.write_text("old\n")
        # the second chunk cannot be formatted, after the first reached disk
        format_rows, sizes = cli._format_rows, []

        def interrupted(table):
            sizes.append((tmp_path / "ensemble.csv.tmp").stat().st_size)
            if len(sizes) == 2:
                raise RuntimeError("interrupted")
            return format_rows(table)

        monkeypatch.setattr(cli, "_format_rows", interrupted)
        with pytest.raises(RuntimeError):
            cli._write_csv(target, ["a", "b"], [np.arange(100_000), np.arange(100_000) / 7])
        assert sizes[1] > 0
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ensemble.csv"]

    def test_non_numeric_column_fails_before_the_write(self, tmp_path):
        # every column is read as float64 before the temporary file opens
        target = tmp_path / "ensemble.csv"
        target.write_text("old\n")
        with pytest.raises(ValueError):
            cli._write_csv(target, ["a", "b"], [np.arange(3), np.array([0.5, 1.5, "x"], object)])
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ensemble.csv"]

    def test_interrupted_json_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "fit.json"
        target.write_text("{}\n")
        with pytest.raises(TypeError):
            cli._write_json(target, {"a": list(range(100)), "b": object()})
        assert target.read_text() == "{}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    def test_completed_write_replaces_target(self, tmp_path):
        target = tmp_path / "ensemble.csv"
        target.write_text("old\n")
        cli._write_csv(target, ["a", "b"], [[1], [0.5]])
        assert target.read_text() == "a,b\n1,0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ensemble.csv"]


class TestCliSurface:
    HELP = {
        "compare": "Cross-validate the ODE against the agent-based ensemble.",
        "fit": "Fit free parameters to an observed incidence series.",
        "phase": "Extract a (state, state-derivative) phase series.",
        "run-abm": "Run the agent-based ensemble and write the summary CSV.",
        "run-ode": "Integrate the configured ODE model and write the trajectory CSV.",
        "sensitivity": "Sobol first-order sensitivity indices per output time.",
    }

    def test_main_help_lists_the_six_commands(self):
        result = CliRunner().invoke(main, ["--help"])
        assert result.exit_code == 0
        listed = [line.split(None, 1) for line in result.output.split("Commands:\n")[1].splitlines()]
        assert [name for name, _ in listed] == sorted(self.HELP)
        for name, short in listed:   # click shortens a long help text to fit the line
            assert self.HELP[name].startswith(short.removesuffix("..."))

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_command_help_and_options(self, command):
        result = CliRunner().invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert result.output.splitlines()[2] == f"  {self.HELP[command]}"
        options = [line.split()[0] for line in result.output.split("Options:\n")[1].splitlines()
                   if line.startswith("  --")]
        replicas = ["--replicas"] if command in ("run-abm", "compare") else []
        assert options == ["--config", "--seed", "--threads", "--out", "--plot", *replicas,
                           "--help"]


class TestCliProcess:
    def write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_config_error_exit_code(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "lambda": 1.5})
        result = runner.invoke(main, ["run-ode", "--config", cfg])
        assert result.exit_code == 1
        assert "lambda" in result.output

    def test_phase_degree_outside_support_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, {**FIG1, "distribution": {
            "type": "power_law", "gamma": 3, "k_min": 1, "k_max": 10},
            "phase": {"m": 40, "n": 1}})
        result = CliRunner().invoke(main, ["phase", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "phase.m" in result.output
        assert not (tmp_path / "phase.csv").exists()

    def test_sensitivity_range_outside_domain_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "sensitivity": {"ranges": {"lambda": [0.5, 1.5]},
                                                    "n_base": 64}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["sensitivity", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert "sensitivity.ranges.lambda" in result.output
        assert not (out / "sobol.csv").exists()

    def test_sensitivity_unused_parameter_exit_code(self, tmp_path):
        # treatment_efficacy never enters a stratified model: its index
        # column would be all zeros
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "sensitivity": {"ranges": {"treatment_efficacy": [0.1, 0.9]},
                                                    "n_base": 64}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["sensitivity", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert "sensitivity.ranges.treatment_efficacy: not used by model" in result.output
        assert not (out / "sobol.csv").exists()

    def test_stability_error_exit_code(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {
            "model": "classic", "lambda": 0.0, "mu": 1.0, "rho0": 0.5,
            "t_span": [0, 30], "method": "euler", "dt": 5.0,
        })
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("dt, code", [(2, 0), (3, 2)])
    def test_two_type_large_rk4_step_is_not_a_config_error(self, tmp_path, dt, code):
        # used to exit 1 with "invalid link probabilities"; the stratified
        # twin completes at dt 2 and stops with a StabilityError at dt 3
        stratified = {"model": "stratified", "lambda": 0.5, "mu": 0.1, "rho0": 0.2,
                      "distribution": {"type": "power_law", "gamma": 2, "k_min": 1, "k_max": 40},
                      "t_span": [0, 60], "method": "rk4", "dt": dt}
        two_type = {**stratified, "model": "two_type", "lambda2": 0.5, "rho0_type2": 0.3}
        for cfg in (two_type, stratified):
            result = CliRunner().invoke(main, ["run-ode", "--config", self.write(tmp_path, cfg),
                                               "--out", str(tmp_path / cfg["model"])])
            assert result.exit_code == code, (cfg["model"], result.output)

    def test_demography_run_completes(self, tmp_path):
        # the cumulative removed tally of k = 1 passes 1 near t = 39; only
        # s and infected entries are bounded above
        runner = CliRunner()
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.3, "rho0": 0.01, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 60},
            "t_span": [0, 400], "method": "rk4", "dt": 0.5,
        })
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 802 and rows[-1].startswith("400,")

    def test_readme_hiv_msm_final_size_is_a_fraction(self, tmp_path):
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.44, "rho0": 0.0032, "d": 0.02,
            "distribution": {"type": "power_law", "gamma": 1.6, "k_min": 1, "k_max": 250},
            "t_span": [1980, 2005], "dt": 0.5,
            "treatment": {"epochs": [1988, 1996], "coverages": [0.3, 0.7]},
        })
        result = CliRunner().invoke(main, ["run-ode", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        final_size = float(result.output.split("final_size=")[1].split()[0])
        assert 0.0 < final_size <= 1.0

    def test_io_error_exit_code(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {
            **FIG1, "t_span": [0, 10], "dt": 1.0,
            "fit": {"free": {"lambda": [0.01, 0.2]}, "initial": {"lambda": 0.1},
                    "observed_csv": str(tmp_path / "missing.csv")},
        })
        result = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_successful_run_and_summary(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 50]})
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        assert "peak_prevalence=" in result.output
        assert (tmp_path / "o" / "trajectory.csv").exists()

    # matplotlib is not a dependency, so each script is compiled, not run
    @pytest.mark.parametrize("command, section, script", [
        ("run-ode", {}, "plot_trajectory.py"),
        ("run-abm", {"abm": {"n": 300, "replicas": 2, "seed": 1}}, "plot_ensemble.py"),
        ("compare", {"abm": {"n": 300, "replicas": 2, "seed": 1}}, "plot_comparison.py"),
        ("sensitivity", {"sensitivity": {"ranges": {"lambda": [0.02, 0.08]}, "n_base": 64}},
         "plot_sobol.py"),
        ("phase", {"phase": {"m": 1, "n": 1}}, "plot_phase.py"),
    ])
    def test_plot_flag_emits_script(self, tmp_path, command, section, script):
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 20], "method": "euler",
                                    "dt": 1.0, **section})
        result = CliRunner().invoke(main, [command, "--config", cfg,
                                           "--out", str(tmp_path / "o"), "--plot"])
        assert result.exit_code == 0, result.output
        path = tmp_path / "o" / script
        source = path.read_text()
        assert "matplotlib" in source
        compile(source, str(path), "exec")

    def test_replicas_flag_overrides_config(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "method": "euler", "dt": 1.0,
            "abm": {"n": 300, "replicas": 50, "seed": 2},
        })
        result = runner.invoke(main, ["run-abm", "--config", cfg,
                                      "--out", str(tmp_path / "o"), "--replicas", "4"])
        assert result.exit_code == 0
        last = (tmp_path / "o" / "ensemble.csv").read_text().splitlines()[-1]
        assert last.endswith(",4")

    def test_retired_abm_rewire_key_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 300, "replicas": 4, "rewire": "full"}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run-abm", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert "abm.rewire: unknown key" in result.stderr
        assert not (out / "ensemble.csv").exists()

    def test_compare_of_a_two_population_model_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, {**FIG1, "model": "bipartite", "lambda2": 0.1,
                                    "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 300, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["compare", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "model: agent-based runs of 'bipartite' need one population" in result.stderr
        assert not (out / "comparison.json").exists()

    def test_compare_rejects_a_run_without_seeds(self, tmp_path):
        # rho0 * n rounds to 0 seeds, so the ensemble peak is 0: compare used
        # to exit 0 writing "peak_relative_deviation": Infinity, not JSON
        cfg = self.write(tmp_path, {**FIG1, "rho0": 0.001, "t_span": [0, 10], "method": "euler",
                                    "dt": 1.0, "abm": {"n": 100, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["compare", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "abm.n: 100 nodes at rho0=0.001 seed no infected node" in result.stderr
        assert not (out / "comparison.json").exists()
        # run-abm still runs it: an epidemic that never starts
        result = CliRunner().invoke(main, ["run-abm", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, field", [
        ("run-ode", "dt"), ("run-abm", "t_span"), ("compare", "t_span")])
    def test_t_span_whose_points_collide_exit_code(self, tmp_path, command, field):
        # 1e16 + 1 rounds to 1e16: each command used to run to its end, every
        # replica included, and exit 1 on "trajectory times must be strictly increasing"
        cfg = self.write(tmp_path, {**FIG1, "t_span": [1e16, 10000000000000004],
                                    "method": "euler", "dt": 1.0,
                                    "abm": {"n": 300, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {field}: ")
        assert "float64 cannot tell apart" in result.stderr
        assert not out.exists()

    # each fails after execute has made the output directory
    SHORT = {"t_span": [0, 10], "method": "euler", "dt": 1.0, "abm": {"n": 300, "replicas": 2}}
    # a power-law support of 10**15 degrees fails to allocate at once (phase
    # while the config is read, before a directory is made); each command
    # used to end in numpy's _ArrayMemoryError traceback
    HUGE_K = {**FIG1, **SHORT,
              "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 10 ** 15}}
    HUGE_K2 = {**FIG1, **SHORT, "model": "bipartite", "lambda2": 0.1,
               "distribution2": HUGE_K["distribution"]}
    K_ERROR = "k_max: k_max=1000000000000000 is 1000000000000000 degrees from k_min=1"
    FAILED_RUNS = {
        "k_max_run_ode": ("run-ode", HUGE_K, 1, f"error: distribution.{K_ERROR}"),
        "k_max_compare": ("compare", HUGE_K, 1, f"error: distribution.{K_ERROR}"),
        "k_max_sensitivity": ("sensitivity", {**HUGE_K, "sensitivity": {
            "ranges": {"lambda": [0.02, 0.08]}, "n_base": 64}},
            1, f"error: distribution.{K_ERROR}"),
        "k_max_phase": ("phase", {**HUGE_K, "phase": {"m": 1, "n": 1}},
                        1, f"error: distribution.{K_ERROR}"),
        "k_max_fit": ("fit", {**HUGE_K, "fit": {
            "free": {"lambda": [0.01, 0.1]}, "initial": {"lambda": 0.05},
            "observed": [[4, 0.01], [8, 0.02]]}}, 1, f"error: distribution.{K_ERROR}"),
        "k_max2_run_ode": ("run-ode", HUGE_K2, 1, f"error: distribution2.{K_ERROR}"),
        "k_max2_phase": ("phase", {**HUGE_K2, "phase": {"m": 1, "n": 1, "population": 2}},
                         1, f"error: distribution2.{K_ERROR}"),
        "bipartite": ("compare", {**FIG1, **SHORT, "model": "bipartite", "lambda2": 0.1},
                      1, "error: model: agent-based runs of 'bipartite' need one population"),
        "no_abm_n": ("run-abm", {**FIG1, **SHORT, "abm": {"replicas": 2}},
                     1, "error: abm.n: required for agent-based runs"),
        "end_epoch": ("compare", {
            **SHORT, "model": "hiv_msm", "lambda": 0.3, "rho0": 0.05, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.0, "k_min": 1, "k_max": 20},
            "treatment": {"epochs": [9.999999999999], "coverages": [0.7]}},
            1, "error: treatment.epochs: agent-based runs take unit steps from 0; "),
        "unseeded": ("compare", {**FIG1, **SHORT, "abm": {"n": 20, "replicas": 2}},
                     1, "error: abm.n: 20 nodes at rho0=0.01 seed no infected node"),
        "state_range": ("run-ode", {**MINIMAL_CLASSIC, "lambda": 1.0, "mu": 1.0, "rho0": 0.5,
                                    "t_span": [0, 30], "method": "euler", "dt": 5.0},
                        2, "error: state left [-1e-06, 1.000001] at t=5;"),
    }

    def run_failing(self, tmp_path, case, out):
        command, cfg, code, message = self.FAILED_RUNS[case]
        result = CliRunner().invoke(main, [command, "--config", self.write(tmp_path, cfg),
                                           "--out", str(out)])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", sorted(FAILED_RUNS))
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, case):
        # each used to exit with the right code and message but leave the
        # empty output directory (and its parents) behind
        self.run_failing(tmp_path, case, tmp_path / "new" / "o")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("case", sorted(FAILED_RUNS))
    def test_failed_run_keeps_an_existing_directory(self, tmp_path, case):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("unrelated")
        self.run_failing(tmp_path, case, out)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "unrelated"

    def test_abm_n_too_large_to_allocate(self, tmp_path):
        # 10**15 nodes is over the chain's own limit, checked before anything
        # is drawn or allocated: numpy's hypergeometric seed draw takes fewer
        # than 1e9
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 10 ** 15, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run-abm", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "n=1000000000000000 is too many nodes" in result.stderr
        assert not (out / "ensemble.csv").exists()

    def test_abm_n_with_too_many_stubs_to_pair(self, tmp_path):
        # 1e8 nodes of degree 20 to 30 hold more stubs than numpy's
        # hypergeometric draws of a pairing take; run-abm used to end in its
        # ValueError traceback
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "distribution": {"type": "power_law", "gamma": 3,
                                                     "k_min": 20, "k_max": 30},
                                    "abm": {"n": 10 ** 8, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run-abm", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "abm.n: n=100000000 is too many nodes: step 1 pairs" in result.stderr
        assert not (out / "ensemble.csv").exists()

    def test_sensitivity_n_base_too_large_to_allocate(self, tmp_path, monkeypatch):
        # numpy refuses two 10**13 x 3 design matrices before it allocates
        # anything; the sensitivity command used to end in that traceback
        def no_runs(*args, **kwargs):
            raise AssertionError("a model evaluation ran")
        monkeypatch.setattr(cli, "run_trajectory", no_runs)
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 20], "method": "euler", "dt": 1.0,
                                    "sensitivity": {"ranges": {"gamma": [2, 3],
                                                               "lambda": [0.05, 0.15],
                                                               "rho0": [0.001, 0.01]},
                                                    "n_base": 10 ** 13}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["sensitivity", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert ("sensitivity.n_base: n_base=10000000000000 needs two 10000000000000 x 3 "
                "design matrices, too large to allocate" in result.stderr)
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, output", [("run-abm", "ensemble.csv"),
                                                 ("compare", "comparison.json")])
    def test_abm_t_span_too_long_to_record(self, tmp_path, command, output):
        # the library's "steps=1000000000000000 is too many to record" used
        # to reach the user, naming its argument instead of the config field
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 1e15], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 1000, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert ("t_span: 1000000000000000 unit steps from 0 to 1e+15 are too many to record"
                in result.stderr)
        assert "Traceback" not in result.stderr
        assert not (out / output).exists()

    def test_abm_steps_outside_their_domain_are_not_a_record_failure(self, tmp_path,
                                                                     monkeypatch):
        # only the record's allocation reads as "too many to record"; steps
        # the chain rejects by its domain reach the caller as the library's error
        monkeypatch.setattr(cli, "_grid_steps", lambda *args: 0)
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 10], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 1000, "replicas": 2}})
        with pytest.raises(DomainError, match=r"^steps must be an integer >= 1, got 0$") as err:
            execute(parse_config(cfg), "run-abm", out_dir=tmp_path / "o")
        assert err.value.field == "steps"

    @pytest.mark.parametrize("command, output", [("run-abm", "ensemble.csv"),
                                                 ("compare", "comparison.json")])
    @pytest.mark.parametrize("field, change", [
        ("treatment.epochs", {"treatment": {"epochs": [4.5], "coverages": [0.7]}}),
        ("t_span", {"t_span": [0, 10.5]})])
    def test_abm_off_the_unit_grid(self, tmp_path, monkeypatch, command, output, field, change):
        # an epoch at 4.5 used to switch at t = 5 in run-abm, and compare
        # rejected it only after the whole ensemble, naming no field
        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran")
        monkeypatch.setattr(cli, "run_ensemble", no_replicas)
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.3, "rho0": 0.05, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.0, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "method": "euler", "dt": 0.5,
            "treatment": {"epochs": [4], "coverages": [0.7]},
            "abm": {"n": 300, "replicas": 2}, **change})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{field}: agent-based runs take unit steps from 0; " in result.stderr
        assert "Traceback" not in result.stderr
        assert not (out / output).exists()

    @pytest.mark.parametrize("command, output", [("run-ode", "trajectory.csv"),
                                                 ("run-abm", "ensemble.csv"),
                                                 ("compare", "comparison.json")])
    def test_epoch_outside_t_span(self, tmp_path, monkeypatch, command, output):
        # run-abm used to run it, and run-ode and compare rejected it naming
        # no field, compare only after the whole ensemble
        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran")
        monkeypatch.setattr(cli, "run_ensemble", no_replicas)
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.3, "rho0": 0.05, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.0, "k_min": 1, "k_max": 20},
            "t_span": [0, 60], "method": "euler", "dt": 1.0,
            "treatment": {"epochs": [70], "coverages": [0.7]},
            "abm": {"n": 300, "replicas": 2}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert ("treatment.epochs: epoch 70 is not strictly inside t_span [0, 60]"
                in result.stderr)
        assert "Traceback" not in result.stderr
        assert not (out / output).exists()

    @pytest.mark.parametrize("command, section", [
        ("run-ode", {}),
        ("sensitivity", {"sensitivity": {"ranges": {"lambda": [0.2, 0.4]}, "n_base": 64}}),
        ("phase", {"phase": {"m": 1, "n": 1}}),
        ("fit", {"fit": {"free": {"lambda": [0.1, 0.5]}, "initial": {"lambda": 0.3},
                         "observed": [[2, 0.01], [4, 0.02]]}})])
    @pytest.mark.parametrize("field, change, message", [
        ("dt", {"dt": 0.3}, "t_span [0.0, 10.0] is not a whole number of dt=0.3 steps"),
        ("treatment.epochs", {"treatment": {"epochs": [4.25], "coverages": [0.7]}},
         "treatment epoch [0.0, 4.25] is not a whole number of dt=0.5 steps")],
        ids=["dt", "treatment.epochs"])
    def test_ode_off_the_dt_grid(self, tmp_path, monkeypatch, command, section, field, change,
                                 message):
        # both used to fail at the first integrate, after the output
        # directory was made, and the epoch message named no config path
        def no_runs(*args, **kwargs):
            raise AssertionError("a model ran")
        monkeypatch.setattr(cli, "integrate", no_runs)
        monkeypatch.setattr(cli, "run_trajectory", no_runs)
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.3, "rho0": 0.05, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.0, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "method": "rk4", "dt": 0.5, **section, **change})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {field}: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("epochs, coverages, start, end", [
        ([9.999999999999], [0.7], "9.999999999999", "10.0"),
        ([4, 4.000000000001], [0.7, 0.8], "4.0", "4.000000000001")], ids=["end", "epoch"])
    def test_ode_epoch_within_tolerance_of_the_next_bound(self, tmp_path, monkeypatch, epochs,
                                                          coverages, start, end):
        # each epoch passes the grid test from t0 but leaves a zero-step
        # segment; run-ode used to fail in integrate, naming t_span, after
        # the output directory was made
        def no_runs(*args, **kwargs):
            raise AssertionError("a model ran")
        monkeypatch.setattr(cli, "integrate", no_runs)
        cfg = self.write(tmp_path, {
            "model": "hiv_msm", "lambda": 0.3, "rho0": 0.05, "d": 0.05,
            "distribution": {"type": "power_law", "gamma": 2.0, "k_min": 1, "k_max": 20},
            "t_span": [0, 10], "method": "euler", "dt": 1.0,
            "treatment": {"epochs": epochs, "coverages": coverages}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["run-ode", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"error: treatment.epochs: epoch {start} is not a whole number of dt=1.0 "
                f"steps, at least one, before {end}" in result.stderr)
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("source", ["observed", "observed_csv"])
    def test_fit_observed_time_off_the_output_grid(self, tmp_path, monkeypatch, source):
        # fit_parameters used to reject it after the first model run, naming
        # no field, and the run left an empty output directory
        def no_runs(*args, **kwargs):
            raise AssertionError("a model ran")
        monkeypatch.setattr(cli, "run_trajectory", no_runs)
        observed = [[4.0, 0.005], [4.5, 0.0098]]
        fit = {"free": {"lambda": [0.05, 0.6]}, "initial": {"lambda": 0.2}}
        if source == "observed":
            fit["observed"] = observed
        else:
            path = tmp_path / "observed.csv"
            path.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in observed))
            fit["observed_csv"] = str(path)
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 20], "method": "euler",
                                    "dt": 1.0, "fit": fit})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["fit", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"error: fit.{source}: observed time 4.5 does not lie on the model output "
                f"grid 0 + i * 1, i = 0..20" in result.stderr)
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_sensitivity_with_no_defined_index(self, tmp_path):
        # at lambda 0 the incidence is 0 whatever mu is, so every index is
        # NaN; the summary used to end in nanargmax's "All-NaN slice" traceback
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "lambda": 0.0, "t_span": [0, 10],
                                    "method": "euler", "dt": 1.0,
                                    "sensitivity": {"ranges": {"mu": [0.1, 0.2]}, "n_base": 64}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["sensitivity", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "max_index=none (no index is defined: the output does not vary)" in result.stdout
        rows = (out / "sobol.csv").read_text().splitlines()
        assert rows[0] == "t,S_mu"
        assert len(rows) == 12 and all(row.split(",")[1] == "nan" for row in rows[1:])

    def test_compare_plot_draws_the_configured_band(self, tmp_path, monkeypatch):
        # the script used to draw +-3 SE whatever compare.band_sigmas was;
        # it is run here against a stand-in pyplot that records the band
        cfg = self.write(tmp_path, {**FIG1, "t_span": [0, 20], "method": "euler", "dt": 1.0,
                                    "abm": {"n": 300, "replicas": 2, "seed": 1},
                                    "compare": {"band_sigmas": 2.0}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["compare", "--config", cfg, "--out", str(out),
                                           "--plot"])
        assert result.exit_code == 0, result.output
        drawn = {}
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.fill_between = lambda t, low, high, **kw: drawn.update(low=low, high=high, **kw)
        for name in ("plot", "xlabel", "ylabel", "legend", "tight_layout", "savefig"):
            setattr(pyplot, name, lambda *args, **kwargs: None)
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        runpy.run_path(str(out / "plot_comparison.py"))
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        mean = np.array([float(r["mean_prev"]) for r in rows])
        se = np.array([float(r["se_prev"]) for r in rows])
        assert drawn["label"] == "ABM +-2 SE"
        assert np.array_equal(drawn["low"], mean - 2.0 * se)
        assert np.array_equal(drawn["high"], mean + 2.0 * se)
        assert se.max() > 0

    def test_fit_names_a_parameter_ending_on_its_bound(self, tmp_path):
        # truth lambda 0.1; from a start at the upper bound the simplex stops
        # at a boundary local minimum there, which fit.json and the summary
        # name
        base = {"model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
                "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
                "t_span": [0, 20], "method": "euler", "dt": 1.0}
        truth = run_trajectory(parse_config_data(base))
        observed = [[float(t), float(v)] for t, v in zip(truth.times[::4], truth.incidence[::4])]
        for start, at_bound in ((0.6, ["lambda"]), (0.3, [])):
            cfg = self.write(tmp_path, {**base, "fit": {
                "free": {"lambda": [0.05, 0.6]}, "initial": {"lambda": start},
                "observed": observed}})
            out = tmp_path / f"o{start}"
            result = CliRunner().invoke(main, ["fit", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
            report = json.loads((out / "fit.json").read_text())
            assert report["at_bound"] == at_bound
            assert ("at_bound=lambda" in result.stdout) == bool(at_bound)

    def test_threads_env_fallback(self, tmp_path):
        runner = CliRunner()
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 10]})
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o")],
                               env={"NETEPI_THREADS": "2"})
        assert result.exit_code == 0

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2"])
    def test_bad_threads_env_names_the_variable(self, tmp_path, raw):
        runner = CliRunner()
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 10]})
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o")],
                               env={"NETEPI_THREADS": raw})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "NETEPI_THREADS" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_threads_flag_below_one_rejected(self, tmp_path, raw):
        runner = CliRunner()
        cfg = self.write(tmp_path, {**MINIMAL_CLASSIC, "t_span": [0, 10]})
        result = runner.invoke(main, ["run-ode", "--config", cfg,
                                      "--out", str(tmp_path / "o"), "--threads", raw],
                               env={"NETEPI_THREADS": "2"})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "--threads" in result.output

    def test_abm_times_follow_t_span(self, tmp_path):
        runner = CliRunner()
        base = {
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "method": "euler", "dt": 1.0, "abm": {"n": 300, "replicas": 4, "seed": 3},
        }
        tables = {}
        for t_span in ([0, 20], [5, 25]):
            cfg = self.write(tmp_path, {**base, "t_span": t_span})
            out = tmp_path / f"o{t_span[0]}"
            for command in ("run-abm", "compare"):
                result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
                assert result.exit_code == 0, result.output
            tables[t_span[0]] = [line.split(",") for line in
                                 (out / "ensemble.csv").read_text().splitlines()[1:]]
            comparison = (out / "comparison.csv").read_text().splitlines()[1:]
            assert [float(row.split(",")[0]) for row in comparison] == [
                float(t) for t in range(t_span[0], t_span[1] + 1)]
        assert float(tables[5][0][0]) == 5.0
        # shifting t_span relabels the time column and changes nothing else
        assert [row[1:] for row in tables[5]] == [row[1:] for row in tables[0]]
        assert [float(row[0]) - 5.0 for row in tables[5]] == [float(row[0]) for row in tables[0]]

    def test_fit_reads_observed_csv(self, tmp_path):
        spec = parse_config_data({**MINIMAL_CLASSIC, "t_span": [0, 40],
                                  "method": "euler", "dt": 1.0})
        traj = run_trajectory(spec)
        csv_path = tmp_path / "observed.csv"
        lines = ["t,incidence"] + [f"{t:g},{v:.12g}" for t, v in
                                   zip(traj.times[::5], traj.incidence[::5])]
        csv_path.write_text("\n".join(lines) + "\n")
        runner = CliRunner()
        cfg = self.write(tmp_path, {
            **MINIMAL_CLASSIC, "t_span": [0, 40], "method": "euler", "dt": 1.0,
            "fit": {"free": {"lambda": [0.01, 0.2]}, "initial": {"lambda": 0.12},
                    "observed_csv": str(csv_path)},
        })
        result = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert report["parameters"]["lambda"] == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("row", ["4,nan", "4,inf", "nan,0.01", "4,-inf"])
    def test_fit_rejects_non_finite_observed_csv_row(self, tmp_path, row):
        # the fit used to run all its iterations to a NaN residual and write
        # "residual": NaN, which is not JSON
        csv_path = tmp_path / "observed.csv"
        csv_path.write_text(f"t,incidence\n2,0.003\n{row}\n")
        cfg = self.write(tmp_path, {
            **MINIMAL_CLASSIC, "t_span": [0, 20], "method": "euler", "dt": 1.0,
            "fit": {"free": {"lambda": [0.01, 0.2]}, "initial": {"lambda": 0.12},
                    "observed_csv": str(csv_path)},
        })
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["fit", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert "fit.observed_csv" in result.output and "row 3" in result.output
        assert not (out / "fit.json").exists()


# A valid config that exercises every section parse_config_data knows.
FULL = {
    "model": "hiv_hetero", "lambda": 0.3, "mu": 0.0, "rho0": 0.01, "d": 0.02,
    "rho0_2": 0.005, "treatment_efficacy": 0.4, "asymmetry": 0.5, "side_fraction": 0.5,
    "stage_rates": [0.2, 0.1], "t_span": [0, 20], "method": "rk4", "dt": 0.5,
    "link_mode": "active", "per_degree": True, "out_dir": "out",
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
    "distribution2": {"type": "weights", "k_min": 2, "weights": [1, 2, 1]},
    "treatment": {"initial_coverage": 0.1, "epochs": [5], "coverages": [0.5]},
    "abm": {"n": 500, "replicas": 4, "seed": 3},
    "compare": {"band_sigmas": 3.0},
    "sensitivity": {"ranges": {"lambda": [0.1, 0.4]}, "n_base": 64, "seed": 1,
                    "output": "incidence"},
    "phase": {"m": 2, "n": 3, "variant": "infected", "population": 1},
    "fit": {"free": {"lambda": [0.1, 0.5]}, "initial": {"lambda": 0.3},
            "observed": [[1, 0.01], [2, 0.02]], "output": "incidence"},
}

# field path -> (JSON kind it takes, values outside its range)
FIELDS = {
    "model": ("str", ["sir"]),
    "lambda": ("number", [-0.1, 1.5]),
    "mu": ("number", [-0.1, 0.5]),
    "rho0": ("number", [0, 1, 1.5]),
    "d": ("number", [-0.01, 2]),
    "rho0_2": ("number", [-0.1, 1]),
    "treatment_efficacy": ("number", [-1, 1.01]),
    "asymmetry": ("number", [-0.5, 2]),
    "side_fraction": ("number", [0, 1]),
    "stage_rates": ("list", [[1.5], [-0.1, 0.2], [], [float("nan")], [[0.1], [0.2, 0.3]]]),
    "t_span": ("list", [[5, 1], [0], [0, 1, 2], [0, float("inf")]]),
    "method": ("str", ["midpoint"]),
    "dt": ("number", [0, -0.5]),
    "link_mode": ("str", ["passive"]),
    "per_degree": ("bool", []),
    "out_dir": ("str", []),
    "distribution": ("object", []),
    "distribution.type": ("str", ["normal"]),
    "distribution.gamma": ("number", [0, -2]),
    "distribution.k_min": ("int", [0, -1]),
    "distribution.k_max": ("int", [0]),
    "distribution2": ("object", []),
    "distribution2.type": ("str", ["binomial"]),
    "distribution2.k_min": ("int", [0]),
    "distribution2.weights": ("list", [[], [-1, 2], [0, 0], [1, float("nan")]]),
    "treatment": ("object", []),
    "treatment.initial_coverage": ("number", [1.5, -0.1]),
    "treatment.epochs": ("list", [[float("nan")], [0], [20], [70]]),
    "treatment.coverages": ("list", [[1.5]]),
    "abm": ("object", []),
    "abm.n": ("int", [1, 0]),
    "abm.replicas": ("int", [1]),
    "abm.seed": ("int", [-1]),
    "compare": ("object", []),
    "compare.band_sigmas": ("number", [0, -1]),
    "sensitivity": ("object", []),
    "sensitivity.ranges": ("object", [{}]),
    "sensitivity.ranges.lambda": ("list", [[0.4, 0.1], [0.1], [0.1, float("nan")], [0.5, 1.5],
                                           [-0.1, 0.5]]),
    "sensitivity.ranges.rho0": ("list", [[0, 0.5], [0.5, 1]]),
    "sensitivity.ranges.gamma": ("list", [[-1, 2], [0, 2]]),
    # the base model is hiv_hetero: no lambda2, no mu
    "sensitivity.ranges.lambda2": ("list", [[0.1, 0.2]]),
    "sensitivity.ranges.mu": ("list", [[0, 0.1]]),
    "sensitivity.n_base": ("int", [63]),
    "sensitivity.seed": ("int", [-3]),
    "sensitivity.output": ("str", ["peak"]),
    "phase": ("object", []),
    "phase.m": ("int", [0, 21]),
    "phase.n": ("int", [-1, 40]),
    "phase.variant": ("str", ["sick"]),
    "phase.population": ("int", [0, 3]),
    "fit": ("object", []),
    "fit.free": ("object", [{}]),
    "fit.free.lambda": ("list", [[0.5, 0.1], [float("-inf"), 0.1], [0.5, 1.5]]),
    "fit.free.treatment_efficacy": ("list", [[0.5, 1.01]]),
    "fit.initial": ("object", []),
    # FULL fits lambda in [0.1, 0.5]
    "fit.initial.lambda": ("number", [0.05, 0.6, 7.5]),
    "fit.observed": ("list", [[], [[1]], [[1, float("nan")]]]),
    "fit.output": ("str", ["peak"]),
}
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400]
WRONG_TYPE = {
    "number": ["0.1", None, True, [0.1], {"v": 0.1}],
    "int": ["3", None, True, 2.5, [3], {}],
    "str": [3, None, True, ["x"], {}],
    "bool": [1, 0, "true", None, []],
    "list": ["x", 3, None, True, {}],
    "object": ["x", 3, None, True, []],
}
REQUIRED = ["model", "lambda", "rho0", "t_span", "distribution", "distribution.type",
            "distribution.gamma", "distribution.k_max", "distribution2.type",
            "distribution2.weights", "treatment.epochs", "treatment.coverages",
            "sensitivity.ranges", "phase.m", "phase.n", "fit.free", "fit.initial",
            "fit.observed", "fit.initial.lambda"]
SECTIONS = ["", "distribution", "distribution2", "treatment", "abm", "compare", "sensitivity",
            "sensitivity.ranges", "phase", "fit", "fit.free", "fit.initial"]
# names no section accepts
UNKNOWN = st.from_regex(r"x_[a-z0-9_]{0,10}", fullmatch=True)


def mutated(path, action):
    """A deep copy of FULL with ``action(parent, key)`` applied at ``path``."""
    cfg = json.loads(json.dumps(FULL))
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    action(node, key)
    return cfg


@st.composite
def malformed(draw):
    """(config, field path the diagnostic must name)."""
    how = draw(st.sampled_from(["wrong_type", "out_of_range", "unknown_key", "missing"]))
    if how == "missing":
        path = draw(st.sampled_from(REQUIRED))
        return mutated(path, lambda node, key: node.pop(key)), path
    if how == "unknown_key":
        section, key = draw(st.sampled_from(SECTIONS)), draw(UNKNOWN)
        path = f"{section}.{key}" if section else key
        return mutated(path, lambda node, k: node.__setitem__(k, 1)), path
    path = draw(st.sampled_from(sorted(FIELDS)))
    kind, out_of_range = FIELDS[path]
    if how == "wrong_type":
        values = WRONG_TYPE[kind]
    else:
        values = out_of_range + (NON_FINITE if kind == "number" else [])
        if not values:
            values = WRONG_TYPE[kind]
    value = draw(st.sampled_from(values))
    return mutated(path, lambda node, key: node.__setitem__(key, value)), path


FRACTION = st.floats(0, 1)
# a string a file path may hold: any but NUL
PATH_TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=8)
OPEN_FRACTION = st.floats(0, 1, exclude_min=True, exclude_max=True)


def optional(draw, cfg, key, strategy):
    if draw(st.booleans()):
        cfg[key] = draw(strategy)


@st.composite
def distributions(draw):
    """(distribution section, its degree support)."""
    k_min = draw(st.integers(1, 5))
    if draw(st.booleans()):
        k_max = draw(st.integers(k_min, 40))
        return ({"type": "power_law", "gamma": draw(st.floats(0.5, 4)), "k_min": k_min,
                 "k_max": k_max}, (k_min, k_max))
    weights = draw(st.lists(st.integers(0, 5) | st.floats(0, 5), min_size=1, max_size=8)
                   .filter(lambda w: sum(w) > 0))
    return {"type": "weights", "k_min": k_min, "weights": weights}, (k_min, k_min + len(weights) - 1)


@st.composite
def valid_configs(draw):
    """A valid config for any of the six models, optional sections drawn in or out."""
    model = draw(st.sampled_from(MODEL_NAMES))
    two_pop = model in ("bipartite", "hiv_hetero")
    hiv = model in ("hiv_msm", "hiv_hetero")
    t0 = draw(st.integers(-10, 10) | st.floats(-10, 10))
    cfg = {"model": model, "lambda": draw(FRACTION), "rho0": draw(OPEN_FRACTION),
           "t_span": [t0, t0 + draw(st.floats(0.5, 100))]}
    staged = model != "classic" and draw(st.booleans())
    if not hiv and not staged:
        optional(draw, cfg, "mu", FRACTION)
    for key in ("d", "treatment_efficacy"):
        optional(draw, cfg, key, FRACTION)
    optional(draw, cfg, "method", st.sampled_from(["euler", "rk4"]))
    optional(draw, cfg, "dt", st.floats(1e-3, 2))
    optional(draw, cfg, "link_mode", st.sampled_from(["active", "fixed"]))
    optional(draw, cfg, "per_degree", st.booleans())
    optional(draw, cfg, "out_dir", PATH_TEXT)
    supports = [(1, 1)]
    if model != "classic":
        cfg["distribution"], support = draw(distributions())
        supports = [support, support]
    if model in ("two_type", "bipartite"):
        cfg["lambda2"] = draw(FRACTION)
    if two_pop:
        optional(draw, cfg, "rho0_2", st.floats(0, 1, exclude_max=True))
        optional(draw, cfg, "side_fraction", OPEN_FRACTION)
        if draw(st.booleans()):
            cfg["distribution2"], supports[1] = draw(distributions())
    if model == "two_type":
        optional(draw, cfg, "split", st.just("hazard") | FRACTION)
        optional(draw, cfg, "rho0_type2", FRACTION)
    if model == "hiv_hetero":
        optional(draw, cfg, "asymmetry", FRACTION)
    if staged:
        types = 2 if model in ("two_type", "hiv_msm", "hiv_hetero") else 1
        stages = draw(st.integers(1, 3))
        rows = [draw(st.lists(FRACTION, min_size=stages, max_size=stages))
                for _ in range(types)]
        cfg["stage_rates"] = rows if types > 1 and draw(st.booleans()) else rows[0]
    if hiv and draw(st.booleans()):
        t1 = cfg["t_span"][1]
        epochs = sorted(set(draw(st.lists(st.floats(t0, t1, exclude_min=True, exclude_max=True),
                                          max_size=3))))
        cfg["treatment"] = {"epochs": epochs,
                            "coverages": [draw(FRACTION) for _ in epochs]}
        optional(draw, cfg["treatment"], "initial_coverage", FRACTION)
    if draw(st.booleans()):
        cfg["abm"] = {}
        optional(draw, cfg["abm"], "n", st.integers(2, 10 ** 6))
        optional(draw, cfg["abm"], "replicas", st.integers(2, 500))
        optional(draw, cfg["abm"], "seed", st.integers(0, 2 ** 63))
    if draw(st.booleans()):
        cfg["compare"] = {}
        optional(draw, cfg["compare"], "band_sigmas", st.floats(0.1, 10))
    names = ["lambda", "rho0", "d"]
    names += ["treatment_efficacy"] if hiv else []
    names += ["mu"] if not hiv and not staged else []
    names += ["lambda2"] if model in ("two_type", "bipartite") else []
    names += ["gamma"] if cfg.get("distribution", {}).get("type") == "power_law" else []
    tunable = st.sampled_from(names)

    def bounds(name):
        lower, width = {"rho0": (st.floats(1e-3, 0.5), st.floats(1e-3, 0.49)),
                        "gamma": (st.floats(0.1, 4), st.floats(0.01, 2))}.get(
            name, (st.floats(0, 0.5), st.floats(0.01, 0.5)))
        return st.tuples(lower, width).map(lambda p: [p[0], p[0] + p[1]])

    def ranges_of(keys):
        return st.fixed_dictionaries({key: bounds(key) for key in keys})

    def some_ranges():
        return st.lists(tunable, min_size=1, max_size=3, unique=True).flatmap(ranges_of)

    if draw(st.booleans()):
        ranges = draw(some_ranges())
        cfg["sensitivity"] = {"ranges": ranges}
        optional(draw, cfg["sensitivity"], "n_base", st.integers(64, 4096))
        optional(draw, cfg["sensitivity"], "seed", st.integers(0, 2 ** 32))
        optional(draw, cfg["sensitivity"], "output", st.sampled_from(["incidence", "prevalence"]))
    if draw(st.booleans()):
        population = draw(st.sampled_from([1, 2] if two_pop else [1]))
        lo, hi = supports[population - 1]
        cfg["phase"] = {"m": draw(st.integers(lo, hi)), "n": draw(st.integers(lo, hi))}
        if population == 2 or draw(st.booleans()):
            cfg["phase"]["population"] = population
        optional(draw, cfg["phase"], "variant", st.sampled_from(["infected", "healthy"]))
    if draw(st.booleans()):
        free = draw(some_ranges())
        cfg["fit"] = {"free": free, "initial": {k: draw(st.floats(*free[k])) for k in free}}
        if draw(st.booleans()):
            cfg["fit"]["observed"] = draw(st.lists(
                st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2), min_size=1, max_size=4))
        else:
            cfg["fit"]["observed_csv"] = draw(PATH_TEXT.filter(bool))
        optional(draw, cfg["fit"], "output", st.sampled_from(["incidence", "prevalence"]))
    return cfg


class TestRoundTripProperty:
    @given(valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_canonical_dict_parses_back_to_equal_spec(self, cfg):
        spec = parse_config_data(cfg)
        canonical = spec.canonical_dict()
        again = parse_config_data(json.loads(json.dumps(canonical)))
        assert again == spec
        assert again.canonical_dict() == canonical


COMMAND_NAMES = ("run-ode", "run-abm", "compare", "sensitivity", "phase", "fit")
# every way a valid config may fail a command, each naming its cause
EXPECTED_FAILURES = (ConfigError, DomainError, StabilityError, OSError)


def at_the_edges(draw, cfg):
    """``cfg`` with lambda 0, every other rate and share it sets at 0 or 1,
    and maybe rho0 at its smallest, the smallest positive double."""
    cfg["lambda"] = 0.0
    edge = st.sampled_from([0.0, 1.0])
    for key in ("mu", "d", "lambda2", "treatment_efficacy", "asymmetry", "rho0_type2"):
        if key in cfg:
            cfg[key] = draw(edge)
    if cfg.get("split", "hazard") != "hazard":
        cfg["split"] = draw(edge)
    if "stage_rates" in cfg:
        rates = cfg["stage_rates"]
        cfg["stage_rates"] = ([[draw(edge) for _ in row] for row in rates]
                              if isinstance(rates[0], list) else [draw(edge) for _ in rates])
    if draw(st.booleans()):
        cfg["rho0"] = 5e-324


def capped(draw, cfg, command, root):
    """``cfg`` at most 30 time units long, in at most 60 steps (10 and 10
    for sensitivity and fit), with abm.n <= 3000, abm.replicas <= 4 and
    n_base 64.  Half the draws put t_span, the treatment epochs and the
    observed times on the dt grid and the unit grid and set abm.n, so that
    the runs go through; fit.observed_csv names a path under ``root``."""
    cheap = command in ("sensitivity", "fit")
    t0, t1 = cfg["t_span"]
    if draw(st.booleans()):
        t0, steps = float(round(t0)), draw(st.integers(1, 10 if cheap else 30))
        cfg["t_span"], cfg["dt"] = [t0, t0 + steps], draw(st.sampled_from([1.0, 0.5]))
        if "treatment" in cfg:
            epochs = sorted(draw(st.sets(st.integers(1, max(steps - 1, 1)), max_size=3)))
            cfg["treatment"].update(epochs=[t0 + e for e in epochs if e < steps],
                                    coverages=[draw(FRACTION) for e in epochs if e < steps])
        if "observed" in cfg.get("fit", {}):
            cfg["fit"]["observed"] = [[t0 + draw(st.integers(0, steps)), value]
                                      for _, value in cfg["fit"]["observed"]]
        cfg.setdefault("abm", {}).setdefault("n", draw(st.integers(2, 3000)))
    else:
        t1 = t0 + min(t1 - t0, 10 if cheap else 30)
        cfg["t_span"] = [t0, t1]
        cfg["dt"] = max(cfg.get("dt", 0.1), (t1 - t0) / (10 if cheap else 60))
        if "treatment" in cfg:
            kept = [i for i, e in enumerate(cfg["treatment"]["epochs"]) if e < t1]
            for key in ("epochs", "coverages"):
                cfg["treatment"][key] = [cfg["treatment"][key][i] for i in kept]
    if "abm" in cfg:
        for key, cap in (("n", 3000), ("replicas", 4)):
            if key in cfg["abm"]:
                cfg["abm"][key] = min(cfg["abm"][key], cap)
    if "sensitivity" in cfg:
        cfg["sensitivity"]["n_base"] = 64
    if "observed_csv" in cfg.get("fit", {}):
        cfg["fit"]["observed_csv"] = str(root / cfg["fit"]["observed_csv"])


class TestEveryCommandProperty:
    """Every command on every valid config either runs, writing what it
    reports, or fails with a ConfigError, DomainError, StabilityError or
    OSError (each names its field or cause) and leaves no output file."""

    @given(valid_configs(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_runs_or_fails_naming_its_field(self, cfg, edges, data):
        # a command whose section is missing fails before any work (tested above)
        command = data.draw(st.sampled_from(
            [c for c in COMMAND_NAMES if c in cfg or c in ("run-ode", "run-abm", "compare")]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            if edges:
                at_the_edges(data.draw, cfg)
            capped(data.draw, cfg, command, root)
            out = root / "out"
            try:
                _, written = execute(parse_config_data(cfg), command, out_dir=out)
            except EXPECTED_FAILURES:
                assert not [p for p in out.rglob("*") if p.is_file()]
            else:
                assert written and all(p.is_file() and out in p.parents for p in written)


SOBOL_BASE = {
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
    "t_span": [0, 20], "method": "euler", "dt": 1.0,
}



def model_config(model, **extra):
    """SOBOL_BASE as a valid config of ``model``."""
    cfg = {**SOBOL_BASE, "model": model, **extra}
    if model == "classic":
        del cfg["distribution"]
    if model in ("two_type", "bipartite"):
        cfg["lambda2"] = 0.05
    if model in HIV_MODELS or "stage_rates" in extra:
        cfg["mu"] = 0.0
    return cfg


class TestOverrides:
    def test_unused_override_is_named(self):
        # these used to return the unchanged run
        spec = parse_config_data(SOBOL_BASE)
        for name in ("lambda2", "treatment_efficacy"):
            with pytest.raises(DomainError,
                               match=f"override '{name}': not used by model 'stratified'"):
                run_trajectory(spec, {name: 0.9})
        with pytest.raises(DomainError, match="override 'lambda3': unknown parameter"):
            run_trajectory(spec, {"lambda3": 0.9})
        assert not np.array_equal(run_trajectory(spec, {"lambda": 0.2}).incidence,
                                  run_trajectory(spec).incidence)

    @pytest.mark.parametrize("model,extra", [(model, {}) for model in MODEL_NAMES] + [
        (model, extra) for model in MODEL_NAMES if model != "classic"
        for extra in ({"stage_rates": [0.1, 0.2]},
                      {"distribution": {"type": "weights", "weights": [1, 1]}})])
    def test_same_rule_as_the_parser(self, model, extra):
        # an override is accepted exactly where the parser accepts a range
        cfg = model_config(model, **extra)
        spec = parse_config_data(cfg)
        for name in TUNABLE:
            pair = [2.0, 3.0] if name == "gamma" else [0.2, 0.4]
            try:
                parse_config_data({**cfg, "sensitivity": {"ranges": {name: pair}, "n_base": 64}})
                parsed = True
            except ConfigError:
                parsed = False
            try:
                build_spec_model(spec, {name: pair[0]})
                built = True
            except DomainError as exc:
                assert f"override {name!r}" in str(exc)
                built = False
            assert parsed == built, name


class TestMalformedConfigs:
    def test_base_config_is_valid(self):
        assert parse_config_data(FULL).model == "hiv_hetero"

    @pytest.mark.parametrize("section, name, pair, changes", [
        ("sensitivity", "lambda", [0.5, 1.5], {}),
        ("sensitivity", "gamma", [-1, 2], {}),
        ("sensitivity", "rho0", [0.0, 0.1], {}),
        ("sensitivity", "lambda2", [0.1, 0.2], {}),
        ("sensitivity", "mu", [0.0, 0.1], {"mu": 0.0, "stage_rates": [0.1, 0.2]}),
        ("sensitivity", "mu", [0.0, 0.1], {"model": "hiv_msm", "mu": 0.0}),
        ("fit", "lambda", [0.5, 1.5], {}),
        ("fit", "d", [-0.5, 0.5], {}),
        ("fit", "gamma", [2, 3],
         {"distribution": {"type": "weights", "k_min": 1, "weights": [1, 1]}}),
        ("fit", "lambda2", [0.1, 0.2], {"model": "hiv_msm", "mu": 0.0}),
    ])
    def test_ranges_checked_against_domain_and_model(self, section, name, pair, changes):
        cfg = {**SOBOL_BASE, **changes}
        if section == "sensitivity":
            cfg["sensitivity"] = {"ranges": {name: pair}, "n_base": 64}
        else:
            cfg["fit"] = {"free": {name: pair}, "initial": {name: pair[0]},
                          "observed": [[1, 0.01]]}
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        key = "ranges" if section == "sensitivity" else "free"
        assert field_of(err) == f"{section}.{key}.{name}", str(err.value)

    def test_ranges_inside_domains_parse(self):
        spec = parse_config_data({**SOBOL_BASE, "sensitivity": {"ranges": {
            "lambda": [0, 1], "rho0": [1e-9, 0.999], "gamma": [0.01, 40], "d": [0, 1],
            "mu": [0, 1]}, "n_base": 64}})
        assert spec.sensitivity["ranges"]["gamma"] == (0.01, 40.0)
        spec = parse_config_data({**SOBOL_BASE, "model": "hiv_msm", "mu": 0.0, "sensitivity": {
            "ranges": {"treatment_efficacy": [0, 1]}, "n_base": 64}})
        assert spec.sensitivity["ranges"]["treatment_efficacy"] == (0.0, 1.0)

    @pytest.mark.parametrize("model", ["classic", "stratified", "two_type", "bipartite"])
    @pytest.mark.parametrize("section", ["sensitivity", "fit"])
    def test_treatment_efficacy_needs_an_hiv_model(self, model, section):
        cfg = {**SOBOL_BASE, "model": model, "lambda2": 0.1}
        if model == "classic":
            del cfg["distribution"]
        if model not in ("two_type", "bipartite"):
            del cfg["lambda2"]
        pair = [0.1, 0.9]
        if section == "sensitivity":
            cfg["sensitivity"] = {"ranges": {"treatment_efficacy": pair}, "n_base": 64}
        else:
            cfg["fit"] = {"free": {"treatment_efficacy": pair},
                          "initial": {"treatment_efficacy": 0.5}, "observed": [[1, 0.01]]}
        with pytest.raises(ConfigError, match="not used by model") as err:
            parse_config_data(cfg)
        key = "ranges" if section == "sensitivity" else "free"
        assert field_of(err) == f"{section}.{key}.treatment_efficacy"
        # the top-level value stays accepted: canonical_dict writes it for every model
        cfg.pop(section)
        assert parse_config_data({**cfg, "treatment_efficacy": 0.4}).model == model

    @pytest.mark.parametrize("value", [7.5, 0.6 + 1e-9, 0.05 - 1e-9, 0.0])
    def test_fit_initial_outside_free_range(self, value):
        cfg = {"model": "classic", "lambda": 0.2, "mu": 0.1, "rho0": 0.01,
               "t_span": [0, 20], "method": "euler", "dt": 1.0,
               "fit": {"free": {"lambda": [0.05, 0.6]}, "initial": {"lambda": value},
                       "observed": [[4, 0.00502654], [8, 0.00984814]]}}
        with pytest.raises(ConfigError, match=r"must be a number in \[0.05, 0.6\]") as err:
            parse_config_data(cfg)
        assert field_of(err) == "fit.initial.lambda"
        for inside in (0.05, 0.2, 0.6):
            cfg["fit"]["initial"]["lambda"] = inside
            assert parse_config_data(cfg).fit["initial"] == {"lambda": inside}

    @given(malformed())
    @settings(max_examples=400, deadline=None)
    def test_names_the_mutated_field(self, case):
        cfg, path = case
        with pytest.raises(ConfigError) as err:
            parse_config_data(cfg)
        assert field_of(err) == path, str(err.value)


# one valid value for every field a MODEL_FIELDS row can hold, plus
# phase.population 2 (a second population)
OPTIONAL_FIELDS = {
    "mu": 0.05, "treatment_efficacy": 0.5, "lambda2": 0.1, "rho0_2": 0.1,
    "distribution": SOBOL_BASE["distribution"],
    "distribution2": {"type": "weights", "k_min": 2, "weights": [1, 2, 1]},
    "split": 0.3, "rho0_type2": 0.2, "asymmetry": 0.6, "side_fraction": 0.4,
    "stage_rates": [0.1, 0.2], "treatment": {"epochs": [5], "coverages": [0.5]},
    "phase.population": 2,
}


class TestModelFieldTable:
    def test_one_row_per_model_over_the_optional_fields(self):
        assert tuple(MODEL_FIELDS) == MODEL_NAMES
        fields = {name for row in MODEL_FIELDS.values() for name in row}
        assert fields | {"phase.population"} == set(OPTIONAL_FIELDS)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_every_field_of_the_row_reaches_the_model(self, model):
        # each field but the schedule (which integrate takes) changes the
        # built model's initial state or its RHS at a state positive in every
        # entry; link_mode does too, but in classic, which always divides by
        # the fixed edge mass
        base = {**model_config(model), "mu": 0.0}

        def built(cfg):
            model = build_spec_model(parse_config_data(cfg))
            y = np.linspace(0.01, 0.02, model.dim)
            return model.initial_state(), model.rhs_full(y)[0]

        names = [name for name in MODEL_FIELDS[model] if name != "treatment"]
        for name in names + (["link_mode"] if model != "classic" else []):
            value = {**OPTIONAL_FIELDS, "mu": 0.05, "link_mode": "fixed",
                     "distribution": {"type": "weights", "weights": [1, 2]}}[name]
            assert base.get(name) != value
            changed = built({**base, name: value})
            assert any(a.shape != b.shape or not np.array_equal(a, b)
                       for a, b in zip(built(base), changed)), name

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("name", sorted(OPTIONAL_FIELDS))
    def test_fields_outside_the_row_are_rejected(self, model, name):
        row = MODEL_FIELDS[model]
        cfg = {**model_config(model), "mu": 0.0}
        if name == "phase.population":
            cfg["phase"] = {"m": 1, "n": 1, "population": 2}
            inside = "distribution2" in row
        else:
            cfg[name] = OPTIONAL_FIELDS[name]
            # the top-level treatment_efficacy is accepted on every model
            inside = name in row or name == "treatment_efficacy"
        if inside:
            assert parse_config_data(cfg).model == model
            return
        with pytest.raises(ConfigError, match="not used by model|has one population|mu must"
                           ) as err:
            parse_config_data(cfg)
        assert field_of(err) == name
        if name == "mu":
            # ... but accepts a top-level mu of 0
            assert parse_config_data({**cfg, "mu": 0.0}).model == model

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_required_fields_inside_the_row(self, model):
        cfg = {**model_config(model), "mu": 0.0}
        assert parse_config_data(cfg).model == model
        for name in REQUIRED_FIELDS:
            if name in MODEL_FIELDS[model]:
                with pytest.raises(ConfigError, match="required for model") as err:
                    parse_config_data({k: v for k, v in cfg.items() if k != name})
                assert field_of(err) == name


# The minimal config of each model, with the minimal command sections, and
# every value the parser fills in for it: each default pinned.
POWER_LAW = {"type": "power_law", "gamma": 2.5, "k_max": 20}
MINIMAL_SECTIONS = {
    "sensitivity": {"ranges": {"lambda": [0.1, 0.3]}},
    "phase": {"m": 1, "n": 1},
    "fit": {"free": {"lambda": [0.1, 0.3]}, "initial": {"lambda": 0.2},
            "observed": [[1, 0.1]]},
}
DEFAULTED = {
    "lambda": 0.2, "rho0": 0.01, "t_span": [0.0, 10.0],
    "mu": 0.0, "d": 0.0, "treatment_efficacy": 0.4,
    "method": "rk4", "dt": 0.1, "link_mode": "active", "per_degree": False, "out_dir": ".",
    "abm": {"replicas": 100, "seed": 0},
    "compare": {"band_sigmas": 3.0},
    "sensitivity": {"ranges": {"lambda": [0.1, 0.3]}, "n_base": 512, "seed": 0,
                    "output": "incidence"},
    "phase": {"m": 1, "n": 1, "variant": "infected", "population": 1},
    "fit": {"free": {"lambda": [0.1, 0.3]}, "initial": {"lambda": 0.2},
            "observed": [[1.0, 0.1]], "output": "incidence"},
}
PINNED_DEFAULTS = {
    # model: (fields its minimal config adds, fields its canonical form adds)
    "classic": ({}, {}),
    "stratified": ({"distribution": POWER_LAW},
                   {"distribution": {**POWER_LAW, "k_min": 1}}),
    "two_type": ({"distribution": POWER_LAW, "lambda2": 0.1},
                 {"distribution": {**POWER_LAW, "k_min": 1}, "lambda2": 0.1,
                  "split": "hazard", "rho0_type2": 0.0}),
    "bipartite": ({"distribution": POWER_LAW, "lambda2": 0.1},
                  {"distribution": {**POWER_LAW, "k_min": 1}, "lambda2": 0.1,
                   "side_fraction": 0.5}),
    "hiv_msm": ({"distribution": POWER_LAW, "treatment": {"epochs": [5], "coverages": [0.5]}},
                {"distribution": {**POWER_LAW, "k_min": 1},
                 "treatment": {"initial_coverage": 0.0, "epochs": [5.0], "coverages": [0.5]}}),
    "hiv_hetero": ({"distribution": POWER_LAW,
                    "distribution2": {"type": "weights", "weights": [1, 3]}},
                   {"distribution": {**POWER_LAW, "k_min": 1},
                    "distribution2": {"type": "weights", "k_min": 1, "weights": [1.0, 3.0]},
                    "asymmetry": 0.5, "side_fraction": 0.5}),
}


class TestPinnedDefaults:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_minimal_config_canonical_form(self, model):
        given, filled = PINNED_DEFAULTS[model]
        cfg = {"model": model, "lambda": 0.2, "rho0": 0.01, "t_span": [0, 10],
               **MINIMAL_SECTIONS, **given}
        canonical = parse_config_data(cfg).canonical_dict()
        assert canonical == {"model": model, **DEFAULTED, **filled}
        # numbers come back as floats, counts as ints
        assert [type(v) for v in canonical["t_span"]] == [float, float]
        assert type(canonical["abm"]["replicas"]) is int
        assert type(canonical["compare"]["band_sigmas"]) is float
