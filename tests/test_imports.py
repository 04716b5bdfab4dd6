"""Cold start: ``import netepi.cli`` loads only what every command needs.

scipy is used only by ``fit_parameters`` (Nelder-Mead), the process pool
only by ``run_ensemble(n_jobs > 1)`` and click only by the command group
``netepi.cli.main``, so each is imported inside the code path that uses it;
numpy loads ``numpy.random`` on first use, which set-up and a run-ode never
make.
These checks run in fresh interpreters, because the test process itself has
long since imported scipy and click.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# defines heavy(): the loaded modules that only fit, n_jobs > 1 ensembles and
# the command line need
HEAVY = """
import json, sys
def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing", "click")
                  or m == "concurrent.futures.process")
"""

FIT = HEAVY + """
from netepi.analysis import fit_parameters
from netepi.config import parse_config_data, run_trajectory
spec = parse_config_data({"model": "stratified", "lambda": 0.3, "mu": 0.1, "rho0": 0.01,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
    "t_span": [0, 20], "method": "euler", "dt": 1.0})
truth = run_trajectory(spec)
before = heavy()
res = fit_parameters(lambda p: run_trajectory(spec, p), truth.times[::4], truth.incidence[::4],
                     free={"lambda": (0.05, 0.6), "mu": (0.01, 0.5)},
                     initial={"lambda": 0.2, "mu": 0.2})
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "lambda": res.parameters["lambda"].hex(), "mu": res.parameters["mu"].hex(),
                  "residual": res.residual.hex(), "iterations": res.iterations,
                  "converged": res.converged}))
"""

# what FIT printed before scipy and the pools moved into their call sites
PARENT_FIT = {"lambda": "0x1.33333318f415ap-2", "mu": "0x1.999998054aa7ap-4",
              "converged": True}


def run_fresh(code):
    """Run ``code`` in a new interpreter on this checkout; return its JSON output."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["netepi", "netepi.cli"])
def test_import_loads_no_scipy_or_process_pool(module):
    assert run_fresh(HEAVY + f"import {module}\nprint(json.dumps(heavy()))") == []


def test_execute_loads_no_click(tmp_path):
    code = HEAVY + f"""
from netepi.cli import execute
from netepi.config import parse_config_data
spec = parse_config_data({{"model": "classic", "lambda": 0.2, "mu": 0.1, "rho0": 0.01,
                          "t_span": [0, 20], "method": "euler", "dt": 1.0}})
summary, written = execute(spec, "run-ode", out_dir={str(tmp_path)!r})
print(json.dumps({{"heavy": heavy(), "written": [p.name for p in written]}}))
"""
    assert run_fresh(code) == {"heavy": [], "written": ["trajectory.csv"]}


def test_setup_and_run_ode_load_no_numpy_random(tmp_path):
    """numpy.random is loaded on first use (an agent-based run, a Sobol
    design): set-up and a run-ode never pay for its first import."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": "stratified", "lambda": 0.2, "mu": 0.1, "rho0": 0.01,
        "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
        "t_span": [0, 20], "method": "euler", "dt": 1.0}))
    code = f"""
import json, sys
import netepi.cli
from netepi.config import build_spec_model, parse_config
spec = parse_config({str(config)!r})
build_spec_model(spec)
setup = "numpy.random" in sys.modules
summary, written = netepi.cli.execute(spec, "run-ode", out_dir={str(tmp_path / "out")!r})
print(json.dumps({{"setup": setup, "run-ode": "numpy.random" in sys.modules,
                  "written": [p.name for p in written]}}))
"""
    assert run_fresh(code) == {"setup": False, "run-ode": False, "written": ["trajectory.csv"]}


def test_reading_main_loads_click_and_the_six_commands():
    code = HEAVY + """
from netepi.cli import main
print(json.dumps({"click": "click" in sys.modules, "name": main.name,
                  "commands": sorted(main.commands)}))
"""
    assert run_fresh(code) == {"click": True, "name": "main", "commands": [
        "compare", "fit", "phase", "run-abm", "run-ode", "sensitivity"]}


def test_fit_loads_scipy_on_first_call_with_the_parent_result():
    fresh = run_fresh(FIT)
    assert fresh.pop("before") == []
    assert fresh.pop("after") is True
    # scipy already loaded: the same code gives the same bits
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(FIT, {})
    in_process = json.loads(buffer.getvalue())
    del in_process["before"], in_process["after"]
    assert fresh == in_process
    # the parent's bits; a CPU with other libm rounding may move the simplex
    # path, so there the fitted point need only agree within the solver's xatol
    assert fresh["converged"] is PARENT_FIT["converged"]
    for key in ("lambda", "mu"):
        assert float.fromhex(fresh[key]) == pytest.approx(
            float.fromhex(PARENT_FIT[key]), abs=1e-7)


# the names ``netepi`` exports; a new export is added here on purpose
PUBLIC = {
    "CompartmentModel", "ConfigError", "CoverageReport", "DegreeDistribution", "DomainError",
    "EnsembleSummary", "EpidemicParams", "FitResult", "LinkProbabilities", "NetepiError",
    "NetworkRealization", "SimulationSpec", "SobolResult", "StabilityError", "Trajectory",
    "TreatmentSchedule", "build_model", "compare_ode_abm", "fit_parameters", "from_weights",
    "generate_network", "integrate", "mean_degree", "parse_config",
    "parse_config_data", "phase_series", "run_ensemble", "run_trajectory", "sample_degrees",
    "simulate_epidemic", "sobol_first_order", "summarize_trajectories", "truncated_power_law",
}


def test_public_surface_is_pinned():
    import types

    import netepi

    exported = {name for name, value in vars(netepi).items()
                if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
