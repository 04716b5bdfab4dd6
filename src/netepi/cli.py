"""Command-line front end.

    netepi run-ode|run-abm|compare|sensitivity|phase|fit
        --config FILE [--seed N] [--threads N] [--out DIR] [--plot]

Every command reads one JSON configuration, writes CSV/JSON artifacts into
the output directory, and prints a one-line summary.  Outputs are
deterministic: identical config and seed give byte-identical files.  On
failure partial outputs are removed and the exit code distinguishes config
errors (1), numerical/stability errors (2), and I/O errors (3).

click is imported only by the command group ``main``, which is built the
first time something reads it, so importing this module for ``execute``
loads none of click.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import suppress
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .abm import JOBS, REPLICAS, STEPS, chain_limit, run_ensemble
from .analysis import compare_ode_abm, fit_parameters, phase_series, sobol_first_order
from .config import SimulationSpec, build_spec_model, parse_config, run_trajectory
from .errors import SEED, ConfigError, DomainError, NetepiError, StabilityError, check
from .ode import grid_index, integrate, time_grid


def _write_replacing(path: Path, fill, newline=None):
    """Write through ``<name>.tmp`` in the same directory, then rename it onto
    ``path``, so an interrupted write never leaves a truncated file under the
    real name (the old file, if any, stays as it was)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            fill(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@cache
def _tables():
    """Lookups built on the first write: the words "d.d.d.d." of 0..9999, then the
    exponent words of E = -300..300; 10**k for k = -300..300; per E, the key
    offset of its layout group (0..15: fixed form at E = -4..11; 16, 17: exponent
    form, 2 or 3 digits); the trailing zeros of 0..9999; the bytes shown per key.
    A word is built as the little-endian number whose byte i is its character i."""
    e, digit = np.arange(-300, 301), np.arange(10, dtype=np.uint64)
    words = (int.from_bytes(b"0.0.0.0.", "little") + digit[:, None, None, None]
             + (digit[:, None, None] << 16) + (digit[:, None] << 32) + (digit << 48)).ravel()
    sign, a = np.where(e < 0, ord("-"), ord("+")).astype(np.uint64), np.abs(e).astype(np.uint64)
    exponent = (int.from_bytes(b"e\x00000,\x00\x00", "little") + (sign << 8)
                + (a // 100 << 16) + (a // 10 % 10 << 24) + (a % 10 << 32))
    power = np.fromstring("1e%d " * e.size % tuple(e.tolist()), sep=" ")   # correctly rounded
    group = np.where((e >= -4) & (e < 12), e + 4, 16 + (np.abs(e) >= 100))
    neg, g, sig = np.arange(2)[:, None, None], np.arange(18)[:, None], np.arange(1, 13)
    after, j = np.where(g < 16, g - 4, 0), np.arange(12)   # the digit a "." may follow
    show = np.zeros((2, 18, 12, 40), dtype=bool)   # key: sign, group, significant digits
    show[..., 0], show[..., 32:37], show[..., 34], show[..., 37] = \
        neg, (g >= 16)[..., None], g == 17, True
    show[..., 1:6] = np.arange(5) < np.where(g < 4, 5 - g, 0)[..., None]   # "0.0..." below 1
    show[..., 8:32:2] = j < np.where(g < 16, np.maximum(sig, g - 3), sig)[..., None]
    show[..., 9:32:2] = (j == after[..., None]) & ((sig > after + 1) & (g >= 4))[..., None]
    zeros = np.zeros(10 ** 4, dtype=int)   # 0 counts 4
    for k in (10, 100, 1000, 10 ** 4):
        zeros[::k] += 1
    return (np.concatenate([words, exponent]).astype("<u8", copy=False).view(np.uint64), power,
            group * 12 - 1, zeros, (show * np.uint8(255)).reshape(-1, 40).view(np.uint64))


def _format_rows(table) -> str:
    """The CSV text of the rows of the float64 (rows, cols) ``table``, each
    cell as '%.12g' % writes it.  A cell's five words ("-0.000", pad |
    "d." x 12 | "e-ddd", separator, pad) hold M = rint(q), q = |x| *
    10**(11 - E) in [1e11, 1e12); hidden bytes are zeroed, then deleted.
    |q - q*| < 2.3e-4 (two roundings), so Python formats a q within 1e-3 of
    a tie or a decade off, 0, inf, nan and |x| outside [1e-280, 1e280]."""
    words, power, group, zeros, show = _tables()
    v = table.ravel()
    a = np.abs(v)
    slow = ~((a >= 1e-280) & (a <= 1e280))
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    q = a * power[311 - e]
    m = np.rint(q)
    slow |= (np.abs(q - m) > 0.499) | (q < 1e11) | (m > 1e12)   # a tie, or E a decade off
    carry = m == 1e12
    m, e = np.where(carry | slow, 1e11, m).astype(np.intp), e + carry
    hi, mid, lo = m // 10 ** 8, m // 10 ** 4 % 10 ** 4, m % 10 ** 4
    sig = 12 - zeros[lo] - (lo == 0) * (zeros[mid] + (mid == 0) * zeros[hi])
    frames = np.full((v.size, 5), np.frombuffer(b"-0.000\0\0", dtype=np.uint64))
    for i, part in enumerate((hi, mid, lo, e + 10_300), 1):
        frames[:, i] = words[part]
    frames &= show[group[e + 300] + sig + 216 * (v < 0)]
    cells = frames.view([("text", "S37"), ("sep", "u1"), ("pad", "u2")]).reshape(table.shape)
    cells["sep"][:, -1] = ord("\n")
    where = np.flatnonzero(slow)
    cells["text"].reshape(-1)[where] = ["%.12g" % f for f in v[where].tolist()]
    return frames.tobytes().translate(None, b"\0").decode("ascii")


@np.errstate(invalid="ignore")   # widening a signalling NaN is no error
def _write_csv(path: Path, header, columns):
    """One line per row of ``columns``, each entry one 1-D column or a 2-D
    block of columns, all of one length, read as float64: an integer or bool
    below 10**12 in magnitude prints as '%d' % would (10**12 as 1e+12).  Per
    chunk of <= 2**12 cells the row slices of the blocks are joined into the
    table ``_format_rows`` lays out, and written."""
    parts = [np.asarray(column, dtype=float) for column in columns]
    parts = [p[:, None] if p.ndim == 1 else p for p in parts]
    step = max(1, 2 ** 12 // sum(p.shape[1] for p in parts))

    def fill(fh):
        csv.writer(fh, lineterminator="\n").writerow(header)
        for a in range(0, len(parts[0]), step):
            fh.write(_format_rows(np.concatenate([p[a:a + step] for p in parts], axis=1)))
    _write_replacing(path, fill, newline="")


def _write_json(path: Path, obj):
    def fill(fh):
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_replacing(path, fill)


def _grid_steps(spec: SimulationSpec, dt, span, prefix=""):
    """t_span's steps at ``dt``; a failed ``time_grid`` check is a ConfigError
    naming dt, ``span`` (for t_span) or treatment.epochs (the schedule), after ``prefix``."""
    try:
        return sum(n for _, n, _ in time_grid(spec.t_span, dt, spec.treatment))
    except DomainError as err:
        field = {"dt": "dt", "t_span": span, "schedule": "treatment.epochs"}[err.field]
        raise ConfigError(field, prefix + str(err)) from None


def _fit_observations(spec: SimulationSpec, steps):
    """The fit's (t, value) rows; a time off the output grid is a ConfigError."""
    if "observed" in spec.fit:
        source, observed = "fit.observed", np.asarray(spec.fit["observed"], dtype=float)
    else:
        source, observed = "fit.observed_csv", _read_observed_csv(spec.fit["observed_csv"])
    try:
        grid_index(observed[:, 0], *spec.t_span, steps)
    except DomainError as err:
        raise ConfigError(source, str(err)) from None
    return observed


def _abm_ensemble(spec: SimulationSpec, model, seed, replicas: int, threads: int):
    """Run the agent-based ensemble of the configured ``model`` on the
    config's time axis, so rows and treatment epochs line up with the ODE
    trajectory of the same t_span."""
    limit = chain_limit(model)
    if limit is not None:
        raise ConfigError(limit[0], f"agent-based runs of {spec.model!r} need {limit[1]}")
    if "n" not in spec.abm:
        raise ConfigError("abm.n", "required for agent-based runs")
    t0, t1 = spec.t_span
    steps = _grid_steps(spec, 1.0, "t_span", f"agent-based runs take unit steps from {t0:g}; ")
    try:
        return run_ensemble(
            model, spec.abm["n"], steps, replicas=replicas,
            base_seed=spec.abm["seed"] if seed is None else seed,
            schedule=spec.treatment, n_jobs=threads, t0=t0,
        )
    except DomainError as err:
        # steps come from t_span (in their domain, only the record's allocation
        # fails on them), and n (the stubs a step pairs) from abm.n
        if err.field == "steps" and steps in STEPS:
            raise ConfigError("t_span", f"{steps} unit steps from {t0:g} to {t1:g} are too "
                              f"many to record") from None
        if err.field == "n":
            raise ConfigError("abm.n", str(err)) from None
        raise


def execute(spec: SimulationSpec, command: str, seed=None, threads: int = 1,
            out_dir=None, plot: bool = False, replicas=None):
    """Run one command against a validated spec.

    ``seed`` and ``replicas`` override the configured values for the
    stochastic commands; ``threads`` is the number of agent-based replica
    processes.  Returns (summary line, list of written paths).
    Raises ConfigError / DomainError / StabilityError / OSError; any
    partially written outputs, and the directories made for them, are
    removed first.
    """
    entry = COMMANDS.get(command)
    if entry is None:
        raise ConfigError("", f"unknown command {command!r}")
    if entry.section and getattr(spec, command) is None:
        raise ConfigError(command, f"section required for the {command} command")
    if replicas is not None:
        check("abm.replicas", replicas, REPLICAS, config=True)
    check("threads", threads, JOBS, config=True)
    if seed is not None:
        check("seed", seed, SEED, config=True)
    steps = None if entry.replicas else _grid_steps(spec, spec.dt, "dt")
    observed = _fit_observations(spec, steps) if command == "fit" else None
    n_replicas = spec.abm["replicas"] if replicas is None else replicas
    out = Path(out_dir if out_dir is not None else spec.out_dir)
    made = [path for path in (out, *out.parents) if not path.exists()]   # deepest first
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def target(name) -> Path:
        path = out / name
        written.append(path)
        return path

    def runner(overrides):  # one model evaluation of sensitivity and fit
        return run_trajectory(spec, overrides)

    try:
        if command == "run-ode":
            model = build_spec_model(spec)
            traj = integrate(model, spec.t_span, spec.dt, spec.method,
                             schedule=spec.treatment)
            header = ["t", "s_total", "i_total", "r", "incidence"]
            columns = [traj.times, traj.susceptible, traj.prevalence, traj.removed,
                       traj.incidence]
            if spec.per_degree:
                header += model.degree_labels()
                columns.append(model.degree_columns(traj.Y))
            _write_csv(target("trajectory.csv"), header, columns)
            peak, peak_t = traj.peak()
            summary = (f"peak_prevalence={peak:.6g} peak_time={peak_t:g} "
                       f"final_size={traj.final_size():.6g}")

        elif command == "run-abm":
            ens = _abm_ensemble(spec, build_spec_model(spec), seed, n_replicas, threads)
            _write_csv(target("ensemble.csv"),
                       ["t", "mean_prev", "se_prev", "mean_inc", "se_inc", "replicas"],
                       [ens.times, ens.mean_prevalence, ens.se_prevalence, ens.mean_incidence,
                        ens.se_incidence, np.full(len(ens.times), ens.replicas)])
            i = int(np.argmax(ens.mean_prevalence))
            summary = (f"peak_prevalence={ens.mean_prevalence[i]:.6g} peak_time={ens.times[i]:g} "
                       f"final_size={1.0 - ens.mean_susceptible[-1]:.6g}")

        elif command == "compare":
            if "n" in spec.abm and round(spec.params.rho0 * spec.abm["n"]) == 0:
                raise ConfigError("abm.n", f"{spec.abm['n']} nodes at rho0={spec.params.rho0} "
                                  f"seed no infected node: no epidemic peak to compare")
            model = build_spec_model(spec)
            ens = _abm_ensemble(spec, model, seed, n_replicas, threads)
            ode = integrate(model, spec.t_span, 1.0, "euler", schedule=spec.treatment)
            report = compare_ode_abm(ode, ens, spec.compare["band_sigmas"])
            _write_csv(target("comparison.csv"),
                       ["t", "ode_prev", "mean_prev", "se_prev", "covered"],
                       [ens.times, ode.prevalence, ens.mean_prevalence, ens.se_prevalence,
                        report.covered])
            _write_json(target("comparison.json"),
                        {k: v for k, v in report._asdict().items() if k != "covered"})
            summary = (f"coverage={report.coverage:.4g} "
                       f"peak_rel_dev={report.peak_relative_deviation:.4g} "
                       f"peak_time_offset={report.peak_time_offset:g}")

        elif command == "sensitivity":
            sen = spec.sensitivity
            try:
                result = sobol_first_order(runner, sen["ranges"], sen["n_base"],
                                           seed=sen["seed"] if seed is None else seed,
                                           output=sen["output"])
            except DomainError as err:
                if err.field == "n_base":
                    raise ConfigError("sensitivity.n_base", str(err)) from None
                raise
            _write_csv(target("sobol.csv"), ["t"] + [f"S_{p}" for p in result.parameters],
                       [result.times, result.indices.T])
            if np.isnan(result.indices).all():
                # a valid config whose output never varies: no index is defined
                summary = (f"max_index=none (no index is defined: the output does not vary) "
                           f"noise_bound={result.noise_bound:.4g}")
            else:
                peak_j, peak_t = np.unravel_index(np.nanargmax(result.indices),
                                                  result.indices.shape)
                summary = (f"max_index={result.parameters[peak_j]}@t={result.times[peak_t]:g} "
                           f"value={result.indices[peak_j, peak_t]:.4g} "
                           f"noise_bound={result.noise_bound:.4g}")

        elif command == "phase":
            traj = run_trajectory(spec)
            series = phase_series(traj, spec.phase["m"], spec.phase["n"],
                                  variant=spec.phase["variant"],
                                  population=spec.phase["population"])
            prefix = "rho" if spec.phase["variant"] == "infected" else "healthy"
            _write_csv(target("phase.csv"), [f"{prefix}_m", f"d{prefix}_n_dt"], [series])
            summary = (f"points={len(series)} m={spec.phase['m']} n={spec.phase['n']} "
                       f"variant={spec.phase['variant']}")

        elif command == "fit":
            ft = spec.fit
            result = fit_parameters(runner, observed[:, 0], observed[:, 1], free=ft["free"],
                                    initial=ft["initial"], output=ft["output"])
            _write_json(target("fit.json"), result._asdict())
            fitted = " ".join(f"{k}={v:.6g}" for k, v in result.parameters.items())
            summary = (f"{fitted} residual={result.residual:.6g} "
                       f"iterations={result.iterations} converged={result.converged}")
            if result.at_bound:
                summary += f" at_bound={','.join(result.at_bound)}"

        if plot and entry.plot:   # the last file written
            stem, body = entry.plot
            _write_replacing(target(f"plot_{stem}.py"),
                             lambda fh: fh.write(_PLOT_HEADER.format(csv=f"{stem}.csv") + body))
    except BaseException:
        for path in written:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for path in made:   # rmdir keeps a directory that is not empty
            with suppress(OSError):
                path.rmdir()
        raise
    return summary, written


def _read_observed_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    data = []
    for i, row in enumerate(rows):
        if not row:
            continue
        try:
            pair = (float(row[0]), float(row[1]))
        except (ValueError, IndexError):
            if i == 0:
                continue  # header line
            raise ConfigError("fit.observed_csv", f"bad row {i + 1} in {path}")
        if not np.all(np.isfinite(pair)):
            raise ConfigError("fit.observed_csv", f"row {i + 1} in {path} is not finite: {row}")
        data.append(pair)
    if not data:
        raise ConfigError("fit.observed_csv", f"no data rows in {path}")
    return np.asarray(data, dtype=float)


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

_EXIT_CODES = ((ConfigError, 1), (DomainError, 1), (StabilityError, 2), (OSError, 3))


def _thread_count(threads):
    """--threads, else NETEPI_THREADS, else 1; anything but an integer >= 1
    is a ConfigError naming where the value came from."""
    if threads is not None:
        source, raw = "--threads", threads
    else:
        source, raw = "NETEPI_THREADS", os.environ.get("NETEPI_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = raw   # not an integer: the check names it as given
    return check(source, value, JOBS, config=True)


def _dispatch(command, config, seed, threads, out, plot, replicas=None):
    import click

    try:
        threads = _thread_count(threads)
        spec = parse_config(config)
        summary, files = execute(spec, command, seed=seed, threads=threads,
                                 out_dir=out, plot=plot, replicas=replicas)
    except NetepiError as exc:
        code = next(c for t, c in _EXIT_CODES if isinstance(exc, t))
        click.echo(f"error: {exc}", err=True)
        sys.exit(code)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)
    click.echo(summary)
    for path in files:
        click.echo(f"wrote {path}")


def _options(replicas: bool):
    import click

    options = [
        click.Option(["--config"], required=True, type=click.Path(exists=True, dir_okay=False),
                     help="JSON configuration file."),
        click.Option(["--seed"], type=int, default=None,
                     help="Override the configured random seed."),
        click.Option(["--threads"], type=int, default=None,
                     help="Agent-based replica processes (default: NETEPI_THREADS "
                          "or 1); other work runs in one process."),
        click.Option(["--out"], type=click.Path(file_okay=False), default=None,
                     help="Output directory (default: out_dir from the config)."),
        click.Option(["--plot"], is_flag=True, help="Also write a matplotlib plotting script."),
    ]
    if replicas:
        options.append(click.Option(["--replicas"], type=int, default=None,
                                    help="Override the configured replica count."))
    return options


def _build_main():
    """The click group of the six commands, named ``main`` like the entry point."""
    import click

    @click.group()
    def main():
        """Deterministic epidemic models on rewiring heterogeneous networks."""

    for name, entry in COMMANDS.items():
        main.add_command(click.Command(name, callback=partial(_dispatch, name),
                                       params=_options(entry.replicas), help=entry.help))
    return main


def __getattr__(name):
    # PEP 562: ``main`` (the console script, ``from netepi.cli import main``)
    # is built on its first read and then stays a module global
    if name != "main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global main
    main = _build_main()
    return main


# ---------------------------------------------------------------------------
# plot script templates (written next to the CSVs; not imported here)
# ---------------------------------------------------------------------------

_PLOT_HEADER = """\
#!/usr/bin/env python3
# Self-contained plot script; reads {csv} from its own directory.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.reader(open(Path(__file__).parent / "{csv}")))
header, data = rows[0], [[float(v) for v in r] for r in rows[1:]]
col = {{name: i for i, name in enumerate(header)}}
"""

_PLOT_TRAJECTORY = """\
t = [r[col["t"]] for r in data]
for name in ("s_total", "i_total", "r", "incidence"):
    plt.plot(t, [r[col[name]] for r in data], label=name)
plt.xlabel("t"); plt.ylabel("fraction"); plt.legend(); plt.tight_layout()
plt.savefig("trajectory.png", dpi=150)
"""

_PLOT_ENSEMBLE = """\
t = [r[col["t"]] for r in data]
mean = [r[col["mean_prev"]] for r in data]
se = [r[col["se_prev"]] for r in data]
plt.plot(t, mean, label="mean prevalence")
plt.fill_between(t, [m - 3 * s for m, s in zip(mean, se)],
                 [m + 3 * s for m, s in zip(mean, se)], alpha=0.3, label="+-3 SE")
plt.xlabel("t"); plt.ylabel("prevalence"); plt.legend(); plt.tight_layout()
plt.savefig("ensemble.png", dpi=150)
"""

_PLOT_COMPARISON = """\
import json

band = json.load(open(Path(__file__).parent / "comparison.json"))["band_sigmas"]
t = [r[col["t"]] for r in data]
mean = [r[col["mean_prev"]] for r in data]
se = [r[col["se_prev"]] for r in data]
plt.fill_between(t, [m - band * s for m, s in zip(mean, se)],
                 [m + band * s for m, s in zip(mean, se)], alpha=0.3,
                 label=f"ABM +-{band:g} SE")
plt.plot(t, [r[col["ode_prev"]] for r in data], "k-", label="ODE")
plt.xlabel("t"); plt.ylabel("prevalence"); plt.legend(); plt.tight_layout()
plt.savefig("comparison.png", dpi=150)
"""

_PLOT_SOBOL = """\
t = [r[col["t"]] for r in data]
for name in header[1:]:
    plt.plot(t, [r[col[name]] for r in data], label=name)
plt.xlabel("t"); plt.ylabel("first-order index"); plt.legend(); plt.tight_layout()
plt.savefig("sobol.png", dpi=150)
"""

_PLOT_PHASE = """\
plt.plot([r[0] for r in data], [r[1] for r in data])
plt.xlabel(header[0]); plt.ylabel(header[1]); plt.tight_layout()
plt.savefig("phase.png", dpi=150)
"""


class _Command(NamedTuple):   # one per command, read by execute and by click
    help: str
    replicas: bool = False       # takes --replicas: agent-based, steps by 1, not dt
    section: bool = False        # needs the config section of its own name
    plot: tuple | None = None    # the --plot script: (CSV stem, template)


COMMANDS = {
    "run-ode": _Command("Integrate the configured ODE model and write the trajectory CSV.",
                        plot=("trajectory", _PLOT_TRAJECTORY)),
    "run-abm": _Command("Run the agent-based ensemble and write the summary CSV.",
                        replicas=True, plot=("ensemble", _PLOT_ENSEMBLE)),
    "compare": _Command("Cross-validate the ODE against the agent-based ensemble.",
                        replicas=True, plot=("comparison", _PLOT_COMPARISON)),
    "sensitivity": _Command("Sobol first-order sensitivity indices per output time.",
                            section=True, plot=("sobol", _PLOT_SOBOL)),
    "phase": _Command("Extract a (state, state-derivative) phase series.",
                      section=True, plot=("phase", _PLOT_PHASE)),
    "fit": _Command("Fit free parameters to an observed incidence series.", section=True),
}


if __name__ == "__main__":
    _build_main()()
