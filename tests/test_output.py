"""The array-native output path against the per-row code it replaced.

Each oracle below is the old implementation, kept here verbatim in spirit:
per-value formatting through ``old_fmt``, one format string per row
(``percent_rows``) for the bulk CSV cell layout, and one per-degree split of
each recorded row (``row_view``) for the per-degree table and for phase
series.  The new path must reproduce them byte for byte.
"""

import csv
import io
import tempfile
import tracemalloc
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
    """1-D float, int and bool columns and 2-D float64 and float32 blocks."""
    rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool", "block", "block32"]),
                          min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(np.array(draw(st.lists(FLOATS, min_size=rows, max_size=rows)),
                                    dtype=float))
        elif kind.startswith("block"):
            width, dtype = draw(st.integers(1, 4)), np.float32 if kind == "block32" else float
            values = st.floats(width=32) if dtype is np.float32 else FLOATS
            cells = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
            columns.append(np.array(cells, dtype=dtype).reshape(rows, width))
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
        flat = [c for block in columns for c in (block.T if block.ndim == 2 else [block])]
        header = [f"c{j}" for j in range(len(flat))]
        rows = [[c[i] for c in flat] for i in range(len(flat[0]))]
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


def percent_rows(columns) -> str:
    """The data rows as the per-row writer made them: one line per row
    through one format string, '%d' for integer and bool columns and
    '%.12g' for the rest, over each column's ``tolist()``."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.12g" for c in columns) + "\n"
    return "".join(line % row for row in zip(*(c.tolist() for c in columns)))


def check_bulk(*columns):
    header = [f"c{j}" for j in range(len(columns))]
    assert written(list(columns), header) == ",".join(header) + "\n" + percent_rows(columns)


def ulps(values, k):
    """Each of ``values`` and its neighbours up to ``k`` float64 steps away."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-k, k + 1)
    return bits.view(np.float64).ravel()


def columns_of(values, width=3):
    """``values`` dealt into ``width`` equal-length columns (the rest dropped)."""
    rows = len(values) // width
    return [np.ascontiguousarray(np.asarray(values)[j:rows * width:width]) for j in range(width)]


SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestBulkFormat:
    """The bulk %.12g layout of ``cli._write_csv`` against '%.12g' % per cell:
    every float64 bit pattern class, the cells Python formats instead (ties,
    zeros, non-finite values, |x| outside [1e-280, 1e280]) and the edges of
    the decade, notation and exponent-width choices."""

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_drawn_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        check_bulk(values, -values)

    def test_random_bit_patterns_and_specials(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64).view(np.float64)
        values[::1000] = np.resize(SPECIALS, values[::1000].size)
        check_bulk(*columns_of(values))

    def test_wide_range_normals(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=60_000) * 10.0 ** rng.integers(-300, 301, size=60_000)
        check_bulk(*columns_of(values))

    def test_near_ties(self):
        # (M + 0.5) * 10**(X - 11) for 12-digit M, and a few ulps either side
        rng = np.random.default_rng(13)
        mantissas = rng.integers(10 ** 11, 10 ** 12, size=3000)
        exponents = rng.integers(-300, 300, size=3000)
        ties = [float(f"{m}5e{x - 12}") for m, x in zip(mantissas.tolist(), exponents.tolist())]
        values = ulps(ties, 3)
        check_bulk(*columns_of(np.concatenate([values, -values])))

    def test_decade_edges(self):
        # 10**X (1 - k 2**-53), the last values below 10**X, and the
        # 12-digit carry point 9.999999999995 * 10**X, all a few ulps wide
        powers = [float(f"1e{x}") for x in range(-300, 301)]
        below = np.multiply.outer(powers, 1 - np.arange(5) * 2.0 ** -53).ravel()
        carries = [float(f"9.999999999995e{x}") for x in range(-300, 301)]
        values = np.concatenate([below, ulps(powers, 4), ulps(carries, 4)])
        check_bulk(*columns_of(np.concatenate([values, -values])))

    def test_notation_and_exponent_width_switches(self):
        edges = [1e-5, 9.99999999999e-5, 9.999999999995e-5, 1e-4, 0.000123456789012,
                 99999999999.5, 999999999999.0, 999999999999.4, 999999999999.5, 1e12,
                 123456789012.4, 1e99, 9.999999999995e99, 1e100, 1e-99, 9.9999999999995e-100,
                 1e-100, 1e-280, 1e280, 1.00000000001e280, 9.99999999999e-281]
        values = ulps(edges, 2)
        check_bulk(*columns_of(np.concatenate([values, -values]), width=1))
        text = written([np.array(edges)], ["x"])
        for cell in ("1e-05", "9.99999999999e-05", "0.0001", "999999999999", "1e+12",
                     "1e+100", "1e-100", "1e-280", "1e+280"):
            assert f"\n{cell}\n" in text, cell

    def test_tables_larger_than_a_chunk_mix_kinds(self):
        rng = np.random.default_rng(14)
        rows = 5000
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
        sparse = np.where(rng.random(rows) < 0.3, 0.0, rng.random(rows))
        ints = rng.integers(-(2 ** 63), 2 ** 63 - 1, size=rows, dtype=np.int64, endpoint=True)
        ints[:3] = [-(2 ** 63), 2 ** 63 - 1, 0]
        check_bulk(floats, ints, rng.random(rows) < 0.5, sparse, np.arange(rows, dtype=np.uint64))
        # one row wider than a chunk
        check_bulk(*rng.normal(size=(9000, 2)))

    def test_log10_a_decade_off(self, monkeypatch):
        # E comes from log10, then is checked: a log10 that lands a decade
        # off sends the cell through Python instead of misplacing its digits
        rng = np.random.default_rng(17)
        values = rng.normal(size=30_000) * 10.0 ** rng.integers(-30, 30, size=30_000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + rng.uniform(-0.9, 0.9, np.shape(a)))
        check_bulk(*columns_of(values))

    def test_float32_columns_widen_as_tolist_does(self):
        rng = np.random.default_rng(15)
        narrow = rng.integers(0, 2 ** 32, size=30_000, dtype=np.uint32).view(np.float32)
        check_bulk(*columns_of(narrow), rng.normal(size=10_000).astype(np.float32))


@pytest.mark.parametrize("layout", ["columns", "block"])
def test_write_memory_stays_at_chunk_size(tmp_path, layout):
    # 2**21 cells, 32 MB of text and 16 MB of float64, as 8 columns or one
    # (2**18, 8) block: a chunked write peaks near 1 MB, any whole-table
    # temporary passes the bound
    rng = np.random.default_rng(16)
    table = rng.normal(size=(2 ** 18, 8)) * 10.0 ** rng.integers(-8, 8, size=(2 ** 18, 8))
    columns = list(table.T) if layout == "columns" else [table]
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "big.csv", [f"c{j}" for j in range(8)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 2 ** 21 * 10
    assert peak < 4 * 2 ** 20, peak


def straightforward_tables():
    """The lookup tables as first built: meshgrids, '%' strings, Python float()."""
    e, digit = np.arange(-300, 301), np.arange(ord("0"), ord(":"), dtype=np.uint8)
    words = np.stack(np.meshgrid(*[digit, np.uint8([ord(".")])] * 4, indexing="ij"), axis=-1)
    exponent = ("e%+04d,\0\0" * e.size % tuple(e.tolist())).encode()
    power = list(map(float, ("1e%d " * e.size % tuple(e.tolist())).split()))
    group = np.where((e >= -4) & (e < 12), e + 4, 16 + (np.abs(e) >= 100))
    neg, g, sig = np.meshgrid([0, 1], np.arange(18), np.arange(1, 13), indexing="ij")
    after, j = np.where(g < 16, g - 4, 0), np.arange(12)
    show = np.zeros((*g.shape, 40), dtype=bool)
    show[..., 0], show[..., 32:37], show[..., 34], show[..., 37] = \
        neg, (g >= 16)[..., None], g == 17, True
    show[..., 1:6] = np.arange(5) < np.where(g < 4, 5 - g, 0)[..., None]
    show[..., 8:32:2] = j < np.where(g < 16, np.maximum(sig, g - 3), sig)[..., None]
    show[..., 9:32:2] = (j == after[..., None]) & ((sig > after + 1) & (g >= 4))[..., None]
    zeros = sum(np.tile(np.arange(10 ** k) == 0, 10 ** (4 - k)) for k in (1, 2, 3, 4))
    return (np.frombuffer(words.tobytes() + exponent, dtype=np.uint64), np.array(power),
            group * 12 - 1, zeros, (show * np.uint8(255)).reshape(-1, 40).view(np.uint64))


def test_lookup_tables_match_straightforward_build():
    # the powers correctly rounded, as Python's float() parses "1e<k>"
    for new, old in zip(cli._tables(), straightforward_tables(), strict=True):
        assert (new.dtype, new.shape) == (old.dtype, old.shape)
        assert new.tobytes() == old.tobytes()
