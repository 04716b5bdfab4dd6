"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/sample.py --config FILE --command CMD --seed N --out DIR [--trace]
    python3 perfbench/sample.py --config FILE --setup-only
    python3 perfbench/sample.py --kernels --seed N

Prints one JSON object.  setup_s runs from the first statement of this
script through importing netepi.cli, parsing the config and building the
first model; wall_s and cpu_s cover netepi.cli.execute, from the parsed spec
to the written artifacts.  Their perf_counter() windows are printed too, so
that run.py can ask the speed probe (probe.py) how fast the CPU ran in each
one.  With --trace, spans from tracer.py are installed
before netepi is used and the per-layer figures are added.  --kernels times
single kernel calls instead (mixing.hazard_us.k*, mixing.hazard_two_us.k*,
abm.generate_network_ms.n1e5).  netepi is imported from src/ of the working
directory.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

KERNEL_DEGREES = (60, 150, 250)
# fixed arguments for the kernel sweep: link probabilities and rates in the
# range the workloads visit
HAZARD_ARGS = {"p": 0.05, "lam": 0.05}
HAZARD_TWO_ARGS = {"p1": 0.02, "p2": 0.01, "lam1": 0.28, "lam2": 0.112}
NETWORK_N = 100_000
KERNEL_MIN_SECONDS = 0.25
KERNEL_MIN_CALLS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_call(fn, min_calls=KERNEL_MIN_CALLS, min_seconds=KERNEL_MIN_SECONDS):
    """Median seconds per call after one untimed call fills caches."""
    fn()
    times = []
    started = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - started < min_seconds:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernels(seed: int) -> dict:
    """Per-call kernel times; a kernel the package no longer has is left out."""
    import numpy as np
    from netepi import abm, degree, mixing

    out = {}
    hazard = getattr(mixing, "hazard_profile", None)
    hazard_two = getattr(mixing, "hazard_profile_two", None)
    a = HAZARD_TWO_ARGS
    for k in KERNEL_DEGREES:
        grid = np.arange(1, k + 1)
        if hazard is not None:
            out[f"mixing.hazard_us.k{k}"] = 1e6 * _per_call(
                lambda: hazard(grid, HAZARD_ARGS["p"], HAZARD_ARGS["lam"]))
        if hazard_two is not None:
            probs = mixing.LinkProbabilities(a["p1"], a["p2"])
            out[f"mixing.hazard_two_us.k{k}"] = 1e6 * _per_call(
                lambda: hazard_two(grid, probs, a["lam1"], a["lam2"]))
    dist = degree.truncated_power_law(1.6, 1, 150)
    rng = np.random.default_rng(seed)
    out["abm.generate_network_ms.n1e5"] = 1e3 * _per_call(
        lambda: abm.generate_network(dist, NETWORK_N, rng), min_seconds=0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config")
    parser.add_argument("--command")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args(argv)

    if args.kernels:
        print(json.dumps({"kernels": kernels(args.seed)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    from netepi import cli

    spec = cli.parse_config(args.config)
    cli.build_spec_model(spec)
    setup_end = time.perf_counter()
    # windows in perf_counter seconds, shared with the speed probe (probe.py)
    result = {"setup_s": setup_end - _STARTED, "setup_window": [_STARTED, setup_end]}
    if args.setup_only:
        result["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(result))
        return 0

    error, written = None, []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        _, written = cli.execute(spec, args.command, seed=args.seed, threads=1,
                                 out_dir=args.out)
    except Exception as exc:  # a run that raises is a failed run, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    bytes_written = sum(os.path.getsize(p) for p in written)
    result.update(wall_s=wall_s, cpu_s=cpu_s, exec_window=[wall0, wall0 + wall_s],
                  peak_rss_mb=_peak_rss_mb(), bytes_written=bytes_written, error=error)
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer, bytes_written)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
