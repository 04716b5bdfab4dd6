"""The evaluation structure of the integrator and of a Sobol sweep.

Counting wrappers around the functions a run goes through check how many
times each is called: one RHS per euler step plus one for the last recorded
row, four per rk4 step plus one, one hazard profile per population per RHS,
n_base * (d + 2) + 1 model evaluations per Sobol sweep and one degree
distribution built per evaluation.  A change to the step path that alters
any of these counts fails here.
"""

from collections import Counter

import pytest

from netepi import cli, config, ode
from netepi.cli import execute
from netepi.config import parse_config_data

SOBOL = {
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
    "t_span": [0, 20], "method": "euler", "dt": 1.0,
    "sensitivity": {"ranges": {"gamma": [2, 3], "lambda": [0.05, 0.15], "rho0": [0.001, 0.01]},
                    "n_base": 64, "seed": 2025},
}

RK4 = {
    "model": "hiv_hetero", "lambda": 0.28, "rho0": 0.002, "d": 0.05,
    "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 20},
    "t_span": [0, 5], "method": "rk4", "dt": 0.1,
    "treatment": {"epochs": [4], "coverages": [0.7]},
}


@pytest.fixture
def calls(monkeypatch):
    """Counts of the wrapped calls, keyed by the wrapped function's name."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ode.CompartmentModel, "rhs_full",
                        counting("rhs_full", ode.CompartmentModel.rhs_full))
    for module, name in [(ode, "hazard_profile"), (ode, "hazard_profile_two"),
                         (config, "integrate"), (config, "truncated_power_law"),
                         (cli, "run_trajectory"), (cli, "integrate")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def test_sobol_sweep(tmp_path, calls):
    spec = parse_config_data(SOBOL)
    execute(spec, "sensitivity", out_dir=tmp_path)
    evaluations = 64 * (3 + 2) + 1
    steps = 20
    assert calls == {
        "run_trajectory": evaluations,
        "truncated_power_law": evaluations,
        "integrate": evaluations,
        "rhs_full": evaluations * (steps + 1),
        "hazard_profile": evaluations * (steps + 1),
    }


def test_rk4_run(tmp_path, calls):
    spec = parse_config_data(RK4)
    execute(spec, "run-ode", out_dir=tmp_path)
    steps = 50
    assert calls == {
        "truncated_power_law": 1,
        "integrate": 1,
        "rhs_full": 4 * steps + 1,
        "hazard_profile_two": 2 * (4 * steps + 1),
    }
