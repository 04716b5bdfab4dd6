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
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .abm import JOBS, REPLICAS, chain_limit, run_ensemble
from .analysis import compare_ode_abm, fit_parameters, phase_series, sobol_first_order
from .config import SimulationSpec, build_spec_model, parse_config, run_trajectory
from .errors import SEED, ConfigError, DomainError, NetepiError, StabilityError, check
from .ode import _check_grid, integrate


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


def _write_csv(path: Path, header, columns):
    """One line per row of the equal-length 1-D ``columns``, through one
    format string: %.12g for floats, plain digits for integers and bools.
    Cells become Python numbers ~2**14 at a time, never a whole table."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.12g" for c in columns) + "\n"
    step = max(1, 2 ** 14 // len(columns))

    def fill(fh):
        csv.writer(fh, lineterminator="\n").writerow(header)
        for a in range(0, len(columns[0]), step):
            fh.writelines(line % row for row in zip(*(c[a:a + step].tolist() for c in columns)))
    _write_replacing(path, fill, newline="")


def _write_json(path: Path, obj):
    def fill(fh):
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_replacing(path, fill)


def _off_grid(spec: SimulationSpec, dt):
    """(config path, message) for the first of t_span's end and the treatment
    epochs that is not a whole number of ``dt`` steps from t_span's start,
    else for the first epoch that is not a whole number of steps, at least
    one, before the next epoch or t_span's end (an epoch within the grid
    tolerance of that bound passes the first test); None when all are."""
    t0, t1 = spec.t_span
    epochs = spec.treatment.epochs if spec.treatment else ()
    for path, end in [("t_span", t1), *(("treatment.epochs", e) for e in epochs)]:
        try:
            _check_grid(t0, end, dt, what="t_span" if path == "t_span" else "treatment epoch")
        except DomainError as err:
            return path, str(err)
    for start, end in zip(epochs, (*epochs[1:], t1)):
        try:
            _check_grid(start, end, dt)
        except DomainError:
            return "treatment.epochs", (f"epoch {start!r} is not a whole number of dt={dt} "
                                        f"steps, at least one, before {end!r}")
    return None


def _fit_observations(spec: SimulationSpec):
    """The fit's (t, value) rows; a time off the model output grid
    t0 + i dt (i = 0 .. steps), by the tolerance of
    ``analysis.fit_parameters``, is a ConfigError naming its field."""
    fit, (t0, t1), dt = spec.fit, spec.t_span, spec.dt
    if "observed" in fit:
        source, observed = "fit.observed", np.asarray(fit["observed"], dtype=float)
    else:
        source, observed = "fit.observed_csv", _read_observed_csv(fit["observed_csv"])
    times, steps = observed[:, 0], _check_grid(t0, t1, dt)
    off = np.abs(t0 + np.clip(np.rint((times - t0) / dt), 0, steps) * dt - times) > 1e-9
    if off.any():
        t = float(times[off.argmax()])
        raise ConfigError(source, f"observed time {t!r} does not lie on the model output grid "
                                  f"{t0:g} + i * {dt:g}, i = 0..{steps}")
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
    off = _off_grid(spec, 1.0)
    if off is not None:
        path, message = off
        raise ConfigError(path, f"agent-based runs take unit steps from {t0:g}; {message}")
    steps = round(t1 - t0)
    try:
        return run_ensemble(
            model, spec.abm["n"], steps, replicas=replicas,
            base_seed=spec.abm["seed"] if seed is None else seed,
            schedule=spec.treatment, n_jobs=threads, t0=t0,
        )
    except DomainError as err:
        # the library names its argument; steps come from t_span here, and
        # n, which sets how many stubs a step pairs, from abm.n
        if str(err).startswith("steps="):
            raise ConfigError("t_span", f"{steps} unit steps from {t0:g} to {t1:g} are too "
                              f"many to record") from None
        if str(err).startswith("n="):
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
    if entry.steps_at_dt:
        off = _off_grid(spec, spec.dt)
        if off is not None:
            path, message = off
            raise ConfigError("dt" if path == "t_span" else path, message)
    observed = _fit_observations(spec) if command == "fit" else None
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
                columns += list(model.degree_columns(traj.Y).T)
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
                # the library names its argument; n_base comes from the config
                if str(err).startswith("n_base="):
                    raise ConfigError("sensitivity.n_base", str(err)) from None
                raise
            _write_csv(target("sobol.csv"), ["t"] + [f"S_{p}" for p in result.parameters],
                       [result.times, *result.indices])
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
            _write_csv(target("phase.csv"), [f"{prefix}_m", f"d{prefix}_n_dt"], series.T)
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
    replicas: bool = False       # takes --replicas
    section: bool = False        # needs the config section of its own name
    plot: tuple | None = None    # the --plot script: (CSV stem, template)
    steps_at_dt: bool = True     # integrates at the config's dt; agent-based runs step by 1


COMMANDS = {
    "run-ode": _Command("Integrate the configured ODE model and write the trajectory CSV.",
                        plot=("trajectory", _PLOT_TRAJECTORY)),
    "run-abm": _Command("Run the agent-based ensemble and write the summary CSV.",
                        replicas=True, plot=("ensemble", _PLOT_ENSEMBLE), steps_at_dt=False),
    "compare": _Command("Cross-validate the ODE against the agent-based ensemble.",
                        replicas=True, plot=("comparison", _PLOT_COMPARISON),
                        steps_at_dt=False),
    "sensitivity": _Command("Sobol first-order sensitivity indices per output time.",
                            section=True, plot=("sobol", _PLOT_SOBOL)),
    "phase": _Command("Extract a (state, state-derivative) phase series.",
                      section=True, plot=("phase", _PLOT_PHASE)),
    "fit": _Command("Fit free parameters to an observed incidence series.", section=True),
}


if __name__ == "__main__":
    _build_main()()
