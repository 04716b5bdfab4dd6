"""The pinned workloads: config, seed mapping, work size and output checks.

Each workload is one netepi CLI command on one pinned configuration.  Why
each was chosen, and which layer it stresses, is written in README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# a value matches its reference when |value - reference| <= ABS_TOL; the
# closed-form hazard moves outputs by <= 1.6e-15, a real bug by far more
ABS_TOL = 1e-9
# c06's bound on the ODE-vs-ensemble peak relative deviation
PEAK_REL_DEV_MAX = 0.10
# number of pinned Sobol seeds, each with a stored reference
SOBOL_SEEDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    seed_base: int
    seed_modulus: int | None = None
    # analytic call counts at commit 882a92d (checked by selftest.py)
    counts: dict = field(default_factory=dict)

    def program_seed(self, seed: int) -> int:
        """The --seed the program gets for benchmark seed ``seed``."""
        if self.seed_modulus is None:
            return self.seed_base + seed
        return self.seed_base + seed % self.seed_modulus

    def items(self, config=None) -> int:
        """Work units requested by ``config`` (default: the pinned one)."""
        return work_items(self.command, self.config if config is None else config)


ABM_SCALE = Workload(
    name="abm_scale",
    command="compare",
    config={
        "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
        "distribution": {"type": "power_law", "gamma": 1.6, "k_min": 1, "k_max": 150},
        "t_span": [0, 150], "method": "euler", "dt": 1.0,
        "abm": {"n": 100000, "replicas": 2, "seed": 20250810},
    },
    seed_base=20250810,
    counts={"abm.replicas": 2, "abm.node_steps": 2 * 150 * 100000,
            "ode.integrate_calls": 1, "ode.steps": 150, "ode.rhs_calls": 151,
            "mixing.hazard_calls": 151, "mixing.hazard_two_calls": 0},
)

HIV_TREATMENT = Workload(
    name="hiv_treatment",
    command="run-ode",
    config={
        "model": "hiv_hetero", "lambda": 0.28, "rho0": 0.002, "d": 0.05,
        "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 100},
        "t_span": [0, 20], "method": "rk4", "dt": 0.1,
        "treatment": {"epochs": [4], "coverages": [0.7]},
        "per_degree": True,
    },
    seed_base=0,
    counts={"ode.integrate_calls": 1, "ode.steps": 200, "ode.rhs_calls": 801,
            "mixing.hazard_two_calls": 1602, "mixing.hazard_calls": 0,
            "abm.replicas": 0},
)

SOBOL_SWEEP = Workload(
    name="sobol_sweep",
    command="sensitivity",
    config={
        "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
        "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 60},
        "t_span": [0, 100], "method": "euler", "dt": 1.0,
        "sensitivity": {
            "ranges": {"gamma": [2, 3], "lambda": [0.05, 0.15], "rho0": [0.001, 0.01]},
            "n_base": 64, "seed": 2025,
        },
    },
    seed_base=2025,
    seed_modulus=SOBOL_SEEDS,
    counts={"analysis.model_evals": 321, "ode.integrate_calls": 321,
            "ode.steps": 32100, "ode.rhs_calls": 32421, "mixing.hazard_calls": 32421,
            "degree.build_calls": 322, "mixing.hazard_two_calls": 0,
            "abm.replicas": 0},
)

WORKLOADS = {w.name: w for w in (ABM_SCALE, HIV_TREATMENT, SOBOL_SWEEP)}


def work_items(command: str, config: dict) -> int:
    """Work requested by a config, in the unit items_per_s counts.

    compare: agent node-steps, n * steps * replicas.  run-ode: RHS
    evaluations of the fixed-step integrator.  sensitivity: the Saltelli
    design's model evaluations, n_base * (parameters + 2).
    """
    t0, t1 = config["t_span"]
    if command == "compare":
        abm = config["abm"]
        return abm["n"] * round(t1 - t0) * abm["replicas"]
    if command == "run-ode":
        steps = round((t1 - t0) / config["dt"])
        return (4 if config["method"] == "rk4" else 1) * steps + 1
    if command == "sensitivity":
        sen = config["sensitivity"]
        return sen["n_base"] * (len(sen["ranges"]) + 2)
    raise ValueError(f"no work measure for command {command!r}")


# ---------------------------------------------------------------------------
# output validation: each returns a list of problems, empty when valid
# ---------------------------------------------------------------------------

def read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _close(value: float, reference: float, tol: float = ABS_TOL) -> bool:
    if math.isnan(reference):
        return math.isnan(value)
    return abs(value - reference) <= tol


def _compare_rows(what, rows, reference, problems, tol=ABS_TOL):
    if len(rows) != len(reference):
        problems.append(f"{what}: {len(rows)} rows, reference has {len(reference)}")
        return
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if len(row) != len(ref):
            problems.append(f"{what}: row {i} has {len(row)} values, reference {len(ref)}")
            return
        for j, (v, r) in enumerate(zip(row, ref)):
            if not _close(v, r, tol):
                problems.append(f"{what}: row {i} column {j} is {v!r}, reference {r!r}")
                return


def load_reference(name: str):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _nan(values):
    return [float("nan") if v is None else v for v in values]


def validate_abm_scale(out: Path, program_seed: int, config: dict, reference=None) -> list:
    """Every time row present and finite, two replicas, ODE column as
    stored, peak deviation within c06's bound.  Holds for any random stream."""
    problems = []
    header, rows = read_csv(out / "comparison.csv")
    if header != ["t", "ode_prev", "mean_prev", "se_prev", "covered"]:
        return [f"comparison.csv header {header}"]
    t0, t1 = config["t_span"]
    steps = round(t1 - t0)
    if [row[0] for row in rows] != [float(t0 + i) for i in range(steps + 1)]:
        return [f"comparison.csv time column is not {t0}..{t1} in unit steps"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["comparison.csv holds a non-finite value"]
    # with two replicas, mean +- se are the two replica prevalences, and
    # each is a whole number of nodes over n
    n = config["abm"]["n"]
    if config["abm"]["replicas"] == 2:
        bad = [row[0] for row in rows for replica in (row[2] - row[3], row[2] + row[3])
               if abs(replica * n - round(replica * n)) > 1e-4 or replica < -1e-12]
        if bad:
            problems.append(f"t={bad[0]:g}: mean_prev +- se_prev is not two replicas "
                            "of whole node counts")
    if reference is not None:
        _compare_rows("ode_prev", [[row[1]] for row in rows],
                      [[v] for v in reference["ode_prev"]], problems)
    with open(out / "comparison.json", encoding="utf-8") as fh:
        report = json.load(fh)
    if report["n_points"] != steps + 1:
        problems.append(f"comparison.json n_points {report['n_points']} != {steps + 1}")
    if not report["peak_relative_deviation"] <= PEAK_REL_DEV_MAX:
        problems.append(f"peak_relative_deviation {report['peak_relative_deviation']} "
                        f"> {PEAK_REL_DEV_MAX}")
    if not 0.0 <= report["coverage"] <= 1.0:
        problems.append(f"coverage {report['coverage']} outside [0, 1]")
    return problems


def validate_hiv_treatment(out: Path, program_seed: int, config: dict, reference=None) -> list:
    """Matches the stored reference trajectory within ABS_TOL: the five
    aggregate columns on every row, every column on the stored rows, and
    every column's sum over all rows."""
    header, rows = read_csv(out / "trajectory.csv")
    if reference is None:
        t0, t1 = config["t_span"]
        expected = round((t1 - t0) / config["dt"]) + 1
        if len(rows) != expected or not all(math.isfinite(v) for r in rows for v in r):
            return [f"trajectory.csv: {len(rows)} rows (expected {expected}) or non-finite"]
        return []
    problems = []
    if header != reference["header"]:
        return ["trajectory.csv header differs from the reference"]
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("trajectory.csv holds a non-finite value")
    _compare_rows("aggregates", [row[:5] for row in rows], reference["aggregates"], problems)
    if len(rows) == len(reference["aggregates"]):
        _compare_rows("stored rows", [rows[i] for i in reference["row_index"]],
                      reference["rows"], problems)
        sums = [math.fsum(col) for col in zip(*rows)]
        _compare_rows("column sums", [sums], [reference["column_sums"]], problems)
    return problems


def validate_sobol_sweep(out: Path, program_seed: int, config: dict, reference=None) -> list:
    """Matches the stored reference indices for this Sobol seed."""
    header, rows = read_csv(out / "sobol.csv")
    expected_header = ["t"] + [f"S_{p}" for p in config["sensitivity"]["ranges"]]
    if header != expected_header:
        return [f"sobol.csv header {header}"]
    if reference is None:
        return []
    ref_rows = reference["seeds"].get(str(program_seed))
    if ref_rows is None:
        return [f"no stored reference for Sobol seed {program_seed}"]
    problems = []
    _compare_rows("sobol.csv", rows, [_nan(r) for r in ref_rows], problems)
    return problems


VALIDATORS = {
    "abm_scale": validate_abm_scale,
    "hiv_treatment": validate_hiv_treatment,
    "sobol_sweep": validate_sobol_sweep,
}


def validate(name: str, out: Path, program_seed: int, config: dict, reference) -> list:
    """Problems with one run's outputs; without a reference (reduced-size
    configs) only the structural checks apply."""
    try:
        return VALIDATORS[name](Path(out), program_seed, config, reference)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
