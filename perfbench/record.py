"""Run the benchmark over several seeds and write one trajectory entry.

    python3 perfbench/record.py --label NAME [--seeds 10] [--traced 2] [--seconds S]

Run from the root of a netepi checkout.  For every workload this makes
--seeds untraced runs (seeds 0..N-1) and --traced traced runs, then writes
perfbench/BENCH_<label>.json with the environment, every run's result, and
per metric the median and quartiles across runs, plus the spread
(Q3 - Q1) / median that BENCHMARK.json's bounds are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode == 2:
        sys.exit(f"benchmark could not run: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    # the raw times before scaling to the reference CPU speed (run.py)
    result["unscaled"] = next((line for line in lines if line.startswith("unscaled: ")), None)
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=run.SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    entry = {"label": args.label, "env": run.environment(Path.cwd()),
             "run_seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        untraced = []
        for seed in range(args.seeds):
            untraced.append(one_run(name, seed, args.seconds, 0))
            print(name, "seed", seed, {k: round(v["value"], 4)
                                       for k, v in untraced[-1]["metrics"].items()}, flush=True)
        traced = [one_run(name, seed, args.seconds, 1) for seed in range(args.traced)]
        entry["workloads"][name] = {
            "correct": all(r["correct"] for r in untraced + traced),
            "attempted": sum(r["attempted"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "end_to_end": summarize(untraced),
            "per_layer": summarize(traced) if traced else {},
            "runs": untraced + traced,
        }
        for metric, stats in entry["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats.get('spread')}", flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
