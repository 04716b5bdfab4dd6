"""The array-native output path against the per-row code it replaced.

Each oracle below is the old implementation, kept here verbatim in spirit:
per-value formatting through ``old_fmt``, and one per-degree split of each
recorded row (``row_view``) for the per-degree table and for phase series.
The new path must reproduce them byte for byte.
"""

import csv
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import cli
from netepi.analysis import phase_series
from netepi.cli import execute
from netepi.config import build_spec_model, parse_config_data
from netepi.degree import from_weights, truncated_power_law
from netepi.ode import EpidemicParams, Trajectory, build_model, integrate


def old_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def old_csv(header, rows) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([old_fmt(v) for v in row])
    return fh.getvalue()


def written(columns, header) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, columns)
        return path.read_text(encoding="utf-8")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300,
               1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), 0.1, 1 / 3,
               123456789012.5, 1e-5, 1e16]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from(EDGE_FLOATS))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool"]), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(np.array(draw(st.lists(FLOATS, min_size=rows, max_size=rows)),
                                    dtype=float))
        elif kind == "int":
            values = st.integers(-(2 ** 63), 2 ** 63 - 1)
            columns.append(np.array(draw(st.lists(values, min_size=rows, max_size=rows)),
                                    dtype=np.int64))
        else:
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                                    dtype=bool))
    return columns


class TestRowFormat:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_formatting(self, columns):
        header = [f"c{j}" for j in range(len(columns))]
        rows = [[c[i] for c in columns] for i in range(len(columns[0]))]
        assert written(columns, header) == old_csv(header, rows)

    def test_edge_values(self):
        floats = np.array(EDGE_FLOATS)
        ints = np.arange(len(EDGE_FLOATS)) - 3
        flags = ints % 2 == 0
        rows = [[f, i, b] for f, i, b in zip(floats, ints, flags)]
        text = written([floats, ints, flags], ["f", "i", "b"])
        assert text == old_csv(["f", "i", "b"], rows)
        assert "\n-0,-2,1\n" in text and "\nnan," in text and "\n-inf," in text

    def test_long_table_spans_several_batches(self):
        rng = np.random.default_rng(3)
        columns = [np.arange(20_000), rng.normal(size=20_000) * 1e-3, rng.random(20_000) < 0.5]
        rows = [[c[i] for c in columns] for i in range(20_000)]
        assert written(columns, ["i", "x", "b"]) == old_csv(["i", "x", "b"], rows)


def row_view(model, y, clamp=True):
    """Per population (s, rho, removed) of one state or RHS vector: rho is
    the infected summed over stages, one row per type; with ``clamp`` each
    array is then clamped at 0."""
    out = []
    for s, infected, removed in model.blocks(y):
        arrays = (s, infected.sum(axis=1), removed)
        out.append(tuple(np.maximum(a, 0.0) if clamp else a for a in arrays))
    return out


def old_columns(model, y):
    cols = []
    for s, rho, _ in row_view(model, y):
        cols += list(s) + list(rho.sum(axis=0))
    return cols


def old_trajectory_csv(spec) -> str:
    model = build_spec_model(spec)
    traj = integrate(model, spec.t_span, spec.dt, spec.method, schedule=spec.treatment)
    header = ["t", "s_total", "i_total", "r", "incidence"] + model.degree_labels()
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([t, traj.susceptible[i], traj.prevalence[i], traj.removed[i],
                     traj.incidence[i], *old_columns(model, traj.Y[i])])
    return old_csv(header, rows)


PER_DEGREE_CONFIGS = {
    "hiv_hetero_staged_epoch": {
        "model": "hiv_hetero", "lambda": 0.3, "rho0": 0.01, "d": 0.03,
        "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 30},
        "distribution2": {"type": "power_law", "gamma": 2.2, "k_min": 2, "k_max": 25},
        "stage_rates": [[0.2, 0.1, 0.05], [0.3, 0.2, 0.1]],
        "t_span": [0, 30], "dt": 0.25, "treatment": {"epochs": [10], "coverages": [0.6]},
    },
    "bipartite_two_distributions": {
        "model": "bipartite", "lambda": 0.2, "lambda2": 0.1, "mu": 0.05, "rho0": 0.02,
        "rho0_2": 0.0, "side_fraction": 0.4,
        "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
        "distribution2": {"type": "weights", "k_min": 2, "weights": [1, 0, 3, 2]},
        "t_span": [0, 40], "dt": 0.5,
    },
    "two_type_hazard": {
        "model": "two_type", "lambda": 0.2, "lambda2": 0.05, "mu": 0.05, "rho0": 0.01,
        "rho0_type2": 0.3, "split": "hazard",
        "distribution": {"type": "power_law", "gamma": 2.3, "k_min": 1, "k_max": 40},
        "t_span": [0, 60], "dt": 0.5,
    },
}


class TestPerDegreeTable:
    @pytest.mark.parametrize("name", sorted(PER_DEGREE_CONFIGS))
    def test_trajectory_csv_matches_per_row_views(self, name, tmp_path):
        spec = parse_config_data({**PER_DEGREE_CONFIGS[name], "per_degree": True})
        execute(spec, "run-ode", out_dir=tmp_path)
        assert (tmp_path / "trajectory.csv").read_text(encoding="utf-8") == \
            old_trajectory_csv(spec)

    def test_signed_zeros_and_negatives_match_per_row_views(self):
        for model, Y, _ in synthetic_runs():
            old = np.array([old_columns(model, y) for y in Y])
            assert model.degree_columns(Y).tobytes() == old.tobytes()


def old_phase_series(traj, m, n, variant, population):
    degrees = traj.model.populations[population - 1].k

    def pick(y, degree, clamp):
        s, rho, removed = row_view(traj.model, y, clamp)[population - 1]
        i = int(np.flatnonzero(degrees == degree)[0])
        return float(rho[:, i].sum()), float(s[i] + removed[i])

    out = np.empty((len(traj.times), 2))
    for row in range(len(traj.times)):
        rho_m, healthy_m = pick(traj.Y[row], m, clamp=True)
        drho_n, dhealthy_n = pick(traj.dY[row], n, clamp=False)
        out[row] = (rho_m, drho_n) if variant == "infected" else (healthy_m, dhealthy_n)
    return out


def synthetic_runs():
    """(model, Y, dY) with signed zeros, subnormals, huge and negative
    entries: every clamp and summation-order choice shows in the bytes."""
    rng = np.random.default_rng(7)
    params = EpidemicParams(lam=0.2, lam2=0.1, rho0=0.01)
    d1, d2 = truncated_power_law(2.5, 1, 6), from_weights(2, [1, 2, 0, 1])
    models = [build_model("hiv_hetero", replace(params, stage_rates=[0.1, 0.2, 0.3]), d1, d2),
              build_model("two_type", replace(params, stage_rates=[0.1] * 9), d1),
              build_model("bipartite", params, d1, d2),
              build_model("classic", params)]
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300])
    for model in models:
        for _ in range(5):
            shape = (6, model.dim)
            noise = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 1, size=shape)
            Y = np.where(rng.random(shape) < 0.5, rng.choice(specials, size=shape), noise)
            dY = np.where(rng.random(shape) < 0.5, -Y[::-1], rng.normal(size=shape))
            yield model, Y, dY


class TestPhaseSeries:
    def check(self, traj, population):
        ks = traj.model.populations[population - 1].k
        for variant in ("infected", "healthy"):
            for m, n in ((ks[0], ks[-1]), (ks[len(ks) // 2], ks[0])):
                new = phase_series(traj, m, n, variant=variant, population=population)
                old = old_phase_series(traj, m, n, variant, population)
                assert new.tobytes() == old.tobytes(), (variant, population, m, n)

    @pytest.mark.parametrize("name", sorted(PER_DEGREE_CONFIGS))
    def test_matches_per_row_views(self, name):
        spec = parse_config_data(PER_DEGREE_CONFIGS[name])
        model = build_spec_model(spec)
        traj = integrate(model, spec.t_span, spec.dt, spec.method, schedule=spec.treatment)
        for population in range(1, len(model.populations) + 1):
            self.check(traj, population)

    def test_signed_zeros_and_negatives_match_per_row_views(self):
        for model, Y, dY in synthetic_runs():
            traj = Trajectory(np.arange(len(Y), dtype=float), Y, dY, np.zeros(len(Y)), model)
            for population in range(1, len(model.populations) + 1):
                self.check(traj, population)
