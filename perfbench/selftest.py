"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

Run from the root of a netepi checkout; takes about two minutes on 2 cores.
Checks that:

1. the metric names the benchmark produces are exactly those of
   BENCHMARK.json;
2. a traced run of each pinned workload validates against the stored
   reference and its call counts equal the analytic values of the seed
   commit (workloads.Workload.counts);
3. each validator rejects deliberately perturbed outputs;
4. a reduced-size smoke run of each workload, untraced and traced, finishes
   and reports every named metric.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from sample import KERNEL_DEGREES  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_reference, validate  # noqa: E402

SMOKE = {
    "abm_scale": {
        "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
        "distribution": {"type": "power_law", "gamma": 1.6, "k_min": 1, "k_max": 40},
        "t_span": [0, 40], "method": "euler", "dt": 1.0,
        "abm": {"n": 20000, "replicas": 2, "seed": 20250810},
    },
    "hiv_treatment": {
        "model": "hiv_hetero", "lambda": 0.28, "rho0": 0.002, "d": 0.05,
        "distribution": {"type": "power_law", "gamma": 2.7, "k_min": 1, "k_max": 20},
        "t_span": [0, 5], "method": "rk4", "dt": 0.1,
        "treatment": {"epochs": [4], "coverages": [0.7]}, "per_degree": True,
    },
    "sobol_sweep": {
        "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
        "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
        "t_span": [0, 20], "method": "euler", "dt": 1.0,
        "sensitivity": {
            "ranges": {"gamma": [2, 3], "lambda": [0.05, 0.15], "rho0": [0.001, 0.01]},
            "n_base": 64, "seed": 2025,
        },
    },
}


def _rewrite_csv(path: Path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _shift(row, col, delta):
    row[col] = repr(float(row[col]) + delta)


def _swap_columns(rows, a, b):
    for row in rows[1:]:
        row[a], row[b] = row[b], row[a]


def _reverse_rows(rows):
    rows[1:] = rows[:0:-1]


def _set_json(path: Path, key, value):
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[key] = value
    path.write_text(json.dumps(obj), encoding="utf-8")


# perturbations each validator must reject: (description, file, edit)
PERTURBATIONS = {
    "abm_scale": [
        ("ode_prev moved by 1e-7", "comparison.csv",
         lambda p: _rewrite_csv(p, lambda r: _shift(r[60], 1, 1e-7))),
        ("a time row dropped", "comparison.csv",
         lambda p: _rewrite_csv(p, lambda r: r.pop(75))),
        ("a NaN prevalence", "comparison.csv",
         lambda p: _rewrite_csv(p, lambda r: r[30].__setitem__(2, "nan"))),
        ("a mean that is not two whole-count replicas", "comparison.csv",
         lambda p: _rewrite_csv(p, lambda r: _shift(r[40], 2, 1.0 / 3e5))),
        ("peak deviation beyond 0.10", "comparison.json",
         lambda p: _set_json(p, "peak_relative_deviation", 0.11)),
    ],
    "hiv_treatment": [
        ("an aggregate moved by 1e-8", "trajectory.csv",
         lambda p: _rewrite_csv(p, lambda r: _shift(r[123], 2, 1e-8))),
        ("a per-degree value on an unstored row moved by 1e-8", "trajectory.csv",
         lambda p: _rewrite_csv(p, lambda r: _shift(r[7], 250, 1e-8))),
        ("two per-degree columns swapped", "trajectory.csv",
         lambda p: _rewrite_csv(p, lambda r: _swap_columns(r, 10, 11))),
        ("last row dropped", "trajectory.csv",
         lambda p: _rewrite_csv(p, lambda r: r.pop())),
    ],
    "sobol_sweep": [
        ("an index moved by 1e-8", "sobol.csv",
         lambda p: _rewrite_csv(p, lambda r: _shift(r[50], 2, 1e-8))),
        ("rows reversed", "sobol.csv",
         lambda p: _rewrite_csv(p, _reverse_rows)),
    ],
}


def check_metric_names(failures):
    names = set(layer_metrics(Tracer(), 0)) | {"trace.overhead_frac"}
    names |= {f"mixing.hazard_us.k{k}" for k in KERNEL_DEGREES}
    names |= {f"mixing.hazard_two_us.k{k}" for k in KERNEL_DEGREES}
    names |= {"abm.generate_network_ms.n1e5"}
    declared = {m["name"] for m in run.SPEC["per_layer"]}
    if names != declared:
        failures.append(f"per-layer names: produced-only {sorted(names - declared)}, "
                        f"declared-only {sorted(declared - names)}")
    declared = [m["name"] for m in run.SPEC["end_to_end"]]
    produced = ["wall_s", "setup_s", "cpu_s", "items_per_s", "peak_rss_mb"]
    if sorted(declared) != sorted(produced):
        failures.append(f"end-to-end names {declared} != {produced}")


def check_pinned(root: Path, failures):
    """Traced pinned runs: valid output, analytic counts, perturbations."""
    for name, workload in WORKLOADS.items():
        runner = run.Runner(root, workload, seed=0, seconds=0)
        try:
            out = runner.work / "pinned"
            args = ["--config", str(runner.config), "--command", workload.command,
                    "--seed", str(runner.program_seed), "--out", str(out), "--trace"]
            result = run.run_child(root, args)
            reference = load_reference(name)
            problems = validate(name, out, runner.program_seed, workload.config, reference)
            if result["error"] or problems:
                failures.append(f"{name}: pinned run invalid: {result['error'] or problems}")
                continue
            for metric, expected in workload.counts.items():
                got = result["layers"][metric]
                if got != expected:
                    failures.append(f"{name}: {metric} = {got}, analytic value {expected}")
            print(f"{name}: pinned traced run valid; counts "
                  f"{ {m: result['layers'][m] for m in workload.counts} }")
            for what, filename, edit in PERTURBATIONS[name]:
                bad = runner.work / "perturbed"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(out, bad)
                edit(bad / filename)
                if not validate(name, bad, runner.program_seed, workload.config, reference):
                    failures.append(f"{name}: validator accepted {what}")
                else:
                    print(f"{name}: rejects {what}")
        finally:
            runner.close()


def check_smoke(root: Path, failures):
    for name, workload in WORKLOADS.items():
        for trace, kinds in ((False, "end_to_end"), (True, "per_layer")):
            runner = run.Runner(root, workload, seed=1, seconds=0, config=SMOKE[name])
            try:
                metrics, _ = (run.per_layer if trace else run.end_to_end)(runner)
            finally:
                runner.close()
            missing = [m["name"] for m in run.SPEC[kinds] if m["name"] not in metrics]
            bad = [k for k, v in metrics.items() if not math.isfinite(v)]
            if runner.problems or missing or bad:
                failures.append(f"{name} smoke ({kinds}): problems {runner.problems[:3]}, "
                                f"missing {missing}, non-finite {bad}")
            else:
                print(f"{name}: smoke {kinds} run reports all {len(metrics)} metrics")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "netepi" / "__init__.py").is_file():
        print("error: run from the root of a netepi checkout", file=sys.stderr)
        return 2
    failures: list[str] = []
    check_metric_names(failures)
    check_smoke(root, failures)
    check_pinned(root, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
