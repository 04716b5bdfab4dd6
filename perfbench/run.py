"""netepi benchmark: pinned CLI workloads, each run in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netepi checkout; netepi is imported from its src/.
Workloads and why each was chosen: workloads.py and README.md.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up probes,
then closed-loop serial samples (one caller, threads=1, the next run starts
when the last one ends) for --seconds.  Each sample is one fresh process
running netepi.cli.execute; its outputs are validated after it exits.
Every sample runs pinned to one CPU beside a low-priority speed probe
(probe.py), and the end-to-end times are reported at the reference speed of
that CPU, because a shared host slows a vCPU by up to ~45% for minutes at a
time (README.md, "Host speed").
--trace 1 alternates untraced and traced samples for --seconds, then times
single kernel calls, and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when
every output validated, 1 when one did not, 2 when the benchmark could not
run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, load_reference, validate  # noqa: E402

SAMPLE = HERE / "sample.py"
PROBE = HERE / "probe.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 5
# untraced samples per run even when one sample overruns the window
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 170
# samples and their speed probes share the last CPU this process may use
SAMPLE_CPU = max(os.sched_getaffinity(0))
PROBE_NICE = 19
# per-layer metrics that are counts, which must repeat exactly between runs
COUNT_UNITS = ("count", "bytes")


class BenchmarkError(Exception):
    """The benchmark itself could not run (no program, a crashed child)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's OpenBLAS would otherwise put the hazard matvec on a second thread
    env["OPENBLAS_NUM_THREADS"] = "1"
    # set-up is measured with compiled bytecode cached, as for an installed
    # package, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pinned(cpu: int, nice: int = 0):
    def preexec():
        os.sched_setaffinity(0, {cpu})
        if nice:
            os.nice(nice)
    return preexec


def run_child(root: Path, args: list[str], preexec_fn=None) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(SAMPLE), *args], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=preexec_fn)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"sample exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_probed(root: Path, args: list[str]) -> dict:
    """One sample pinned to SAMPLE_CPU beside a speed probe (probe.py).

    Adds ``setup_speed`` and, for a sample that executed, ``exec_speed``:
    the probe's slow-down over that window, so 1.3 means the CPU ran 1.3
    times slower than the reference.
    """
    probe = subprocess.Popen(
        [sys.executable, str(PROBE)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, preexec_fn=pinned(SAMPLE_CPU, PROBE_NICE))
    try:
        if probe.stdout.readline().strip() != "ready":
            raise BenchmarkError("speed probe did not start")
        result = run_child(root, args, preexec_fn=pinned(SAMPLE_CPU))
        keys = [k for k in ("setup", "exec") if f"{k}_window" in result]
        try:
            out, _ = probe.communicate(
                json.dumps([result[f"{k}_window"] for k in keys]) + "\n", timeout=30)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError("speed probe did not answer") from exc
        if probe.returncode != 0:
            raise BenchmarkError(f"speed probe exited {probe.returncode}")
        for key, (speed, _) in zip(keys, json.loads(out)):
            result[f"{key}_speed"] = speed
        return result
    finally:
        if probe.poll() is None:
            probe.kill()
        probe.wait()


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": child_env(root)["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(values)[n - 11]


class Runner:
    """Samples of one workload; ``config`` replaces the pinned config (and
    its stored reference) for reduced-size runs."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, config=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.program_seed = workload.program_seed(seed)
        self.seconds = seconds
        self.spec = workload.config if config is None else config
        self.reference = load_reference(workload.name) if config is None else None
        self.items = workload.items(self.spec)
        self.work = root / ".perfbench_run" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self.spec), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.index = 0

    def setup_probe(self) -> dict:
        return run_probed(self.root, ["--config", str(self.config), "--setup-only"])

    def sample(self, trace: bool) -> dict:
        out = self.work / f"out{self.index}"
        self.index += 1
        args = ["--config", str(self.config), "--command", self.workload.command,
                "--seed", str(self.program_seed), "--out", str(out)]
        result = run_probed(self.root, args + (["--trace"] if trace else []))
        self.attempted += 1
        problems = ([result["error"]] if result["error"] else validate(
            self.workload.name, out, self.program_seed, self.spec, self.reference))
        if problems:
            self.failed += 1
            self.problems += problems
        shutil.rmtree(out, ignore_errors=True)
        return result

    def closed_loop(self, one_round, min_rounds: int) -> list:
        """Rounds back to back until the next would overrun the window."""
        rounds = []
        started = time.perf_counter()
        while True:
            t = time.perf_counter()
            rounds.append(one_round())
            last = time.perf_counter() - t
            if (len(rounds) >= min_rounds
                    and time.perf_counter() - started + last > self.seconds):
                return rounds

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def scaled(sample: dict, key: str, window: str) -> float:
    """A time of ``sample`` at the reference CPU speed."""
    return sample[key] / sample[f"{window}_speed"]


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    samples = runner.closed_loop(lambda: runner.sample(trace=False), MIN_SAMPLES)
    items = runner.items
    series = {
        "wall_s": [scaled(s, "wall_s", "exec") for s in samples],
        "setup_s": [scaled(s, "setup_s", "setup") for s in setups + samples],
        "cpu_s": [scaled(s, "cpu_s", "exec") for s in samples],
        "items_per_s": [items / scaled(s, "wall_s", "exec") for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    raw = {"wall_s": [s["wall_s"] for s in samples],
           "setup_s": [s["setup_s"] for s in setups + samples],
           "exec_speed": [s["exec_speed"] for s in samples]}
    print("unscaled: " + ", ".join(
        f"{name} median {statistics.median(v):.6g} (range {min(v):.6g}..{max(v):.6g})"
        for name, v in raw.items()))
    return {name: statistics.median(v) for name, v in series.items()}, series


def per_layer(runner: Runner) -> tuple[dict, dict]:
    pairs = runner.closed_loop(
        lambda: (runner.sample(trace=False), runner.sample(trace=True)), min_rounds=1)
    traced = [t["layers"] for _, t in pairs]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    series = {}
    for name, value in traced[0].items():
        values = [layers[name] for layers in traced]
        if units.get(name) in COUNT_UNITS and any(v != value for v in values):
            runner.problems.append(f"count {name} differs between traced runs: {values}")
        series[name] = values
    untraced_wall = statistics.median(scaled(u, "wall_s", "exec") for u, _ in pairs)
    traced_wall = [scaled(t, "wall_s", "exec") for _, t in pairs]
    series["trace.overhead_frac"] = [statistics.median(traced_wall) / untraced_wall - 1.0]
    kernels = run_child(runner.root, ["--kernels", "--seed", str(runner.seed)])["kernels"]
    for name, value in kernels.items():
        series[name] = [value]
    metrics = {}
    for name in units:
        if name not in series:
            print(f"note: {name} not measured by this version of netepi; reported as 0")
            series[name] = [0]
        metrics[name] = statistics.median(series[name])
    return metrics, series


def report(metrics: dict, series: dict, kinds: list[dict]) -> dict:
    out = {}
    for spec in kinds:
        name, unit = spec["name"], spec["unit"]
        values = series[name]
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]:.1f}={tail[1]:.6g}" if tail
                     else "tail n/a (fewer than 11 samples)")
        print(f"{name:34s} {metrics[name]:>14.6g} {unit:6s} median of n={len(values)} "
              f"(range {min(values):.6g}..{max(values):.6g}), {tail_text}")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "netepi" / "__init__.py").is_file():
        print(f"error: no netepi sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(root, workload, args.seed, args.seconds)
    try:
        env = environment(root)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {workload.name}: netepi {workload.command} --seed "
              f"{runner.program_seed}, {runner.items} work items per run")
        runner.setup_probe()  # fills bytecode and file caches; not counted
        if args.trace:
            metrics, series = per_layer(runner)
            kinds = SPEC["per_layer"]
        else:
            metrics, series = end_to_end(runner)
            kinds = SPEC["end_to_end"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    for problem in runner.problems[:20]:
        print(f"invalid: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report(metrics, series, kinds),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
