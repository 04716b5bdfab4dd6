"""The bytes of the files the commands write, pinned.

``tests/data/csv_golden.json`` holds the sha256 and size of every artifact
of seven runs: a per-degree ``run-ode`` (the CI ``per_degree.json``:
hiv_hetero, k 1..30, a treatment epoch at t = 4), a ``phase`` series of its
second population, a 4-replica ``run-abm`` and ``compare``, a small
``sensitivity``, and two benchmark runs with their configs read from
``perfbench/workloads.py``: ``hiv_treatment``'s run-ode (k 1..100, a 201 x
405 table written in 21 chunks) and ``sobol_sweep``'s sensitivity (321
one-population runs, k 1..60, t 0..100).  The CSV writer formats every
cell as ``'%.12g' %`` would; a writer that moves one digit, a sign or a
separator of any cell fails here.  CI checks both per-degree
``trajectory.csv`` files and the ``sobol_sweep`` ``sobol.csv`` against the
same hashes.

Regenerate the golden file only when the output is meant to change:

    PYTHONPATH=src python tests/test_csv_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from netepi.cli import execute
from netepi.config import parse_config_data

GOLDEN = Path(__file__).parent / "data" / "csv_golden.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PER_DEGREE = {
    "model": "hiv_hetero", "lambda": 0.28, "rho0": 0.002, "d": 0.05,
    "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 30},
    "t_span": [0, 10], "method": "rk4", "dt": 0.1,
    "treatment": {"epochs": [4], "coverages": [0.7]}, "per_degree": True,
}

ENSEMBLE = {
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
    "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 30},
    "t_span": [0, 60], "method": "euler", "dt": 1.0,
    "abm": {"n": 5000, "replicas": 4, "seed": 2025},
}

SOBOL = {
    "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
    "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
    "t_span": [0, 20], "method": "euler", "dt": 1.0,
    "sensitivity": {"ranges": {"gamma": [2, 3], "lambda": [0.05, 0.15], "rho0": [0.001, 0.01]},
                    "n_base": 64, "seed": 2025},
}


def benchmark_config(name):
    """The pinned config of the benchmark workload ``name``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    return WORKLOADS[name].config


RUNS = {   # name: (command, config)
    "run_ode_per_degree": ("run-ode", PER_DEGREE),
    "phase": ("phase", {**PER_DEGREE, "phase": {"m": 2, "n": 2, "population": 2}}),
    "run_abm": ("run-abm", ENSEMBLE),
    "compare": ("compare", ENSEMBLE),
    "sensitivity": ("sensitivity", SOBOL),
    "hiv_treatment": ("run-ode", benchmark_config("hiv_treatment")),
    "sobol_sweep": ("sensitivity", benchmark_config("sobol_sweep")),
}


def artifacts(name, out_dir):
    """{file name: {"sha256", "size"}} of what run ``name`` writes into ``out_dir``."""
    command, config = RUNS[name]
    _, paths = execute(parse_config_data(config), command, out_dir=out_dir)
    return {path.name: {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "size": path.stat().st_size} for path in paths}


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifacts(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: artifacts(name, Path(tmp) / name) for name in RUNS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
