"""Write the stored reference outputs of the pinned workloads.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run from the root of the checkout whose outputs become the reference.  The
files in perfbench/reference/ were written at commit 882a92d; regenerate
them only when a change is meant to move outputs by more than
workloads.ABS_TOL, and say so.

* abm_scale.json: the ode_prev column of comparison.csv (the ODE half of
  compare; the agent-based half is checked by properties instead).
* hiv_treatment.json: trajectory.csv's header, its five aggregate columns
  on every row, every column on every ROW_STRIDE-th row, and every column's
  sum over all rows.
* sobol_sweep.json: sobol.csv for each of the SOBOL_SEEDS pinned seeds.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_DIR, SOBOL_SEEDS, WORKLOADS, read_csv  # noqa: E402

ROW_STRIDE = 20


def run(name: str, seed: int, out: Path) -> Path:
    from netepi.cli import execute
    from netepi.config import parse_config_data

    workload = WORKLOADS[name]
    execute(parse_config_data(workload.config), workload.command,
            seed=workload.program_seed(seed), threads=1, out_dir=out)
    return out


def _num(v):
    return None if math.isnan(v) else v


def dump(name: str, obj: dict):
    """One JSON value per top-level key, one list row per line."""
    lines = []
    for key, value in obj.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            body = ",\n".join("  " + json.dumps(row) for row in value)
            lines.append(f'"{key}": [\n{body}\n]')
        elif isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: [\n" + ",\n".join(
                "    " + json.dumps([_num(v) for v in row]) for row in rows) + "\n  ]"
                for k, rows in value.items())
            lines.append(f'"{key}": {{\n{body}\n}}')
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _, rows = read_csv(run("abm_scale", 0, tmp / "abm") / "comparison.csv")
        dump("abm_scale", {"ode_prev": [row[1] for row in rows]})

        header, rows = read_csv(run("hiv_treatment", 0, tmp / "hiv") / "trajectory.csv")
        index = list(range(0, len(rows), ROW_STRIDE))
        if index[-1] != len(rows) - 1:
            index.append(len(rows) - 1)
        dump("hiv_treatment", {
            "header": header,
            "aggregates": [row[:5] for row in rows],
            "row_index": index,
            "rows": [rows[i] for i in index],
            "column_sums": [math.fsum(col) for col in zip(*rows)],
        })

        seeds = {}
        for seed in range(SOBOL_SEEDS):
            program_seed = WORKLOADS["sobol_sweep"].program_seed(seed)
            _, rows = read_csv(run("sobol_sweep", seed, tmp / f"sobol{seed}") / "sobol.csv")
            seeds[str(program_seed)] = rows
        dump("sobol_sweep", {"seeds": seeds})


if __name__ == "__main__":
    main()
