"""Speed probe: how fast the CPU a sample runs on is, while the sample runs.

    python3 perfbench/probe.py

run.py starts it pinned to the sample's CPU at nice 19.  It prints "ready",
then wakes every PAUSE_S, runs units of work for BURST_S and sleeps again,
so it takes about 3% of that CPU in short slices spread evenly over the
sample's whole run.  Units alternate between two fixed kinds of work:

- ``glue``: Euler-like steps on 61-element arrays, bound by the interpreter
  and numpy's per-call overhead like netepi's stepping, RHS and glue code;
- ``vector``: a numpy gather and exp over 64k doubles, bound by vector units
  and cache like its hazard kernels and agent arrays.

Per unit it records when the unit ended and the CPU time it took.  CPU time
leaves out the time the probe waits for the sample, so a unit's cost only
grows when the CPU itself is slower, for example while another tenant of a
shared host runs on its hyperthread sibling.

When a line arrives on standard input, a JSON list of [start, end] windows in
time.perf_counter() seconds (CLOCK_MONOTONIC, the same clock in every
process), it stops and prints one JSON list: per window, [slow-down, units].
The slow-down is the geometric mean over the two kinds of the mean CPU
seconds per unit that ended inside the window divided by that kind's
REFERENCE_S, so 1.3 means the CPU ran 1.3 times slower than the reference.
A kind with no unit inside a window counts with its mean over all units.
"""

import json
import math
import select
import sys
import time

import numpy as np

BURST_S = 0.001
PAUSE_S = 0.049
GLUE_STEPS = 20
GLUE_SIZE = 61
VECTOR_SIZE = 65536
# CPU seconds per unit of each kind beside a sample, in the fastest state
# seen on the reference machine (2-vCPU shared VM, Python 3.11, numpy 2.4)
REFERENCE_S = {"glue": 2.6e-4, "vector": 1.17e-3}

_rng = np.random.default_rng(0)
_VALUES = _rng.random(VECTOR_SIZE)
_INDEX = _rng.integers(0, VECTOR_SIZE, VECTOR_SIZE)
_GRID = np.arange(GLUE_SIZE, dtype=float)
_STATE = np.linspace(0.0, 1.0, GLUE_SIZE)


def glue() -> float:
    x = _STATE
    total = 0.0
    for _ in range(GLUE_STEPS):
        hazard = 1.0 - 0.95 ** _GRID
        x = x + 0.1 * (hazard * x - 0.05 * x)
        total += float(x.sum())
    return total


def vector() -> float:
    return float(np.exp(-_VALUES[_INDEX]).sum())


UNITS = (glue, vector)


def slowdown(units: list, start: float, end: float) -> list:
    """[slow-down, units] over the units that ended in [start, end]."""
    logs, count = [], 0
    for kind in UNITS:
        costs = [c for k, t, c in units if k is kind]
        inside = [c for k, t, c in units if k is kind and start <= t <= end]
        count += len(inside)
        cost = sum(inside or costs) / len(inside or costs)
        logs.append(math.log(cost / REFERENCE_S[kind.__name__]))
    return [math.exp(sum(logs) / len(logs)), count]


def main() -> int:
    units = []
    print("ready", flush=True)
    i = 0
    while True:
        burst = time.perf_counter()
        while time.perf_counter() - burst < BURST_S:
            kind = UNITS[i % len(UNITS)]
            i += 1
            started = time.thread_time()
            kind()
            units.append((kind, time.perf_counter(), time.thread_time() - started))
        if select.select([sys.stdin], [], [], PAUSE_S)[0]:
            break
    windows = json.loads(sys.stdin.readline())
    print(json.dumps([slowdown(units, start, end) for start, end in windows]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
