"""Acceptance suite: one test per release criterion.

Each test runs inside a wall-clock budget and prints a single PASS line
(run with ``pytest -s`` to see them stream).  Tolerances are pinned in the
assertions.  The agent-based criteria (5, 6) dominate the runtime.
"""

import math
import time

import numpy as np
from scipy import stats

from approximations import normal_approx_pmf
from netepi.abm import run_ensemble
from netepi.analysis import compare_ode_abm, fit_parameters, phase_series, sobol_first_order
from netepi.cli import execute
from netepi.config import parse_config_data
from netepi.degree import truncated_power_law
from netepi.mixing import LinkProbabilities, hazard_profile, hazard_profile_two
from netepi.ode import EpidemicParams, TreatmentSchedule, build_model, integrate


class budget:
    """Wall-clock guard for one criterion; prints the PASS line on exit."""

    def __init__(self, criterion, seconds=None):
        self.criterion = criterion
        self.seconds = seconds
        self.message = ""

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.started
        if self.seconds is not None:
            assert elapsed <= self.seconds, (
                f"criterion {self.criterion} took {elapsed:.1f}s > {self.seconds}s budget")
            print(f"[criterion {self.criterion}] PASS ({elapsed:.1f}s/{self.seconds:g}s): "
                  f"{self.message}")
        else:
            print(f"[criterion {self.criterion}] PASS ({elapsed:.1f}s): {self.message}")
        return False


def shoelace_area(series):
    x, y = series[:, 0], series[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def linear_fit_r2(x, y):
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    return 1.0 - residual @ residual / np.sum((y - y.mean()) ** 2)


def classic_sir_rhs(y, params):
    """Time derivative (ds, drho, dr) of the bilinear classic SIR triple."""
    s, rho, r = y
    infections = params.lam * rho * s
    return np.array([-infections, infections - params.mu * rho, params.mu * rho])


def rk4_oracle(rhs, y0, steps, dt):
    """Plain fixed-step rk4; row i is the state after i steps."""
    ys = [np.asarray(y0, dtype=float)]
    for _ in range(steps):
        y = ys[-1]
        k1 = rhs(y)
        k2 = rhs(y + (dt / 2) * k1)
        k3 = rhs(y + (dt / 2) * k2)
        k4 = rhs(y + dt * k3)
        ys.append(y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(ys)


def test_c01_homogeneous_reduction():
    # all degree mass at k=1; the fixed-denominator link probability
    # p = rho/<k> reproduces the classic bilinear transmission term, here
    # integrated independently of the model code
    with budget(1, 1.0) as b:
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)
        classic = integrate(build_model("classic", params), (0, 200), 0.1, "rk4")
        oracle = rk4_oracle(lambda y: classic_sir_rhs(y, params), [0.99, 0.01, 0.0], 2000, 0.1)
        dev = max(
            np.abs(classic.susceptible - oracle[:, 0]).max(),
            np.abs(classic.prevalence - oracle[:, 1]).max(),
            np.abs(classic.removed - oracle[:, 2]).max(),
        )
        assert dev <= 1e-10
        b.message = (f"classic (stratified k=1) vs bilinear SIR, "
                     f"max abs deviation {dev:.3e} <= 1e-10")


def test_c02_conservation_all_models():
    with budget(2, 10.0) as b:
        dist = truncated_power_law(3, 1, 60)
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)
        models = {
            "classic": build_model("classic", params),
            "stratified": build_model("stratified", params, dist),
            "two_type": build_model(
                "two_type", EpidemicParams(lam=0.05, mu=0.05, rho0=0.01, lam2=0.02,
                                           rho0_type2=0.3), dist),
            "bipartite": build_model(
                "bipartite", EpidemicParams(lam=0.1, mu=0.05, rho0=0.01, lam2=0.2), dist, dist),
            "hiv_msm": build_model("hiv_msm", EpidemicParams(lam=0.3, rho0=0.005), dist),
            "hiv_hetero": build_model(
                "hiv_hetero", EpidemicParams(lam=0.28, rho0=0.002), dist, dist),
        }
        worst = 0.0
        for name, model in models.items():
            traj = integrate(model, (0, 50), 0.1, "rk4")   # 500 recorded steps
            drift = np.abs(traj.susceptible + traj.prevalence + traj.removed - 1.0).max()
            assert drift <= 1e-8, f"{name} drifted by {drift}"
            worst = max(worst, drift)
        b.message = f"six models, d=0, 500 steps: worst |sum - 1| = {worst:.3e} <= 1e-8"


def test_c03_multinomial_collapse():
    with budget(3, 1.0) as b:
        grid = (0.05, 0.15, 0.25, 0.35, 0.45)
        lam = 0.3
        worst = 0.0
        for k in range(1, 11):
            for p1 in grid:
                for p2 in grid:
                    degree = np.array([k])
                    merged = hazard_profile(degree, p1 + p2, lam)[0]
                    two = hazard_profile_two(degree, LinkProbabilities(p1, p2), lam, lam)[0]
                    brute = 0.0
                    for k1 in range(k + 1):
                        for k2 in range(k - k1 + 1):
                            k3 = k - k1 - k2
                            coef = math.factorial(k) // (
                                math.factorial(k1) * math.factorial(k2) * math.factorial(k3))
                            f = 1 - (1 - lam) ** k1 * (1 - lam) ** k2
                            brute += f * coef * p1 ** k1 * p2 ** k2 * (1 - p1 - p2) ** k3
                    worst = max(worst, abs(two - merged), abs(two - brute))
        assert worst <= 1e-12
        b.message = (f"k <= 10, 5x5 (p1, p2) grid: "
                     f"max |two-group - merged| = {worst:.3e} <= 1e-12")


def test_c04_closed_form_hazard_identity():
    # the production kernel is the closed form; the binomial average of
    # f(l, lam) over the shared-link count l is summed here independently
    with budget(4, 1.0) as b:
        degrees = np.arange(1, 201)
        links = np.arange(201)
        worst = 0.0
        for p in (0.0, 0.05, 0.37, 0.9, 1.0):
            link_mass = stats.binom.pmf(links[None, :], degrees[:, None], p)  # zero for l > k
            for lam in (0.0, 0.05, 0.37, 0.9, 1.0):
                summed = link_mass @ (1.0 - (1.0 - lam) ** links)
                closed = hazard_profile(degrees, p, lam)
                worst = max(worst, np.abs(summed - closed).max())
        assert worst <= 1e-10
        b.message = (f"hazard vs binomial sum of f over links for k <= 200: "
                     f"max abs dev {worst:.3e} <= 1e-10")


def test_c05_ode_vs_abm_reference_setup():
    # gamma = 3.0, K_max = 30, infection rate 0.05, n = 1e4, 100 replicas;
    # mu = 0.05 and rho0 = 0.05 are the config choices for this run
    with budget(5, 300.0) as b:
        dist = truncated_power_law(3.0, 1, 30)
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        steps = 200
        model = build_model("stratified", params, dist)
        ens = run_ensemble(model, 10 ** 4, steps, replicas=100, base_seed=20250810)
        ode = integrate(model, (0, steps), 1.0, "euler")
        report = compare_ode_abm(ode, ens, band_sigmas=3.0)
        assert report.coverage >= 0.90
        assert report.peak_relative_deviation <= 0.10
        b.message = (f"coverage {report.coverage:.3f} >= 0.90, "
                     f"peak rel dev {report.peak_relative_deviation:.4f} <= 0.10")


def test_c06_ode_vs_abm_at_scale():
    # gamma = 1.6, K_max = 150, n = 1e5, 25 replicas (scaled down for desk runtime)
    with budget(6, 1200.0) as b:
        dist = truncated_power_law(1.6, 1, 150)
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.05)
        steps = 150
        model = build_model("stratified", params, dist)
        ens = run_ensemble(model, 10 ** 5, steps, replicas=25, base_seed=20250810)
        ode = integrate(model, (0, steps), 1.0, "euler")
        report = compare_ode_abm(ode, ens, band_sigmas=3.0)
        assert report.coverage >= 0.90
        assert report.peak_relative_deviation <= 0.10
        b.message = (f"n=1e5 coverage {report.coverage:.3f} >= 0.90, "
                     f"peak rel dev {report.peak_relative_deviation:.4f} <= 0.10")


def test_c07_de_moivre_laplace_budget():
    with budget(7, 1.0) as b:
        worst = 0.0
        for n in (100, 200, 400):
            k = np.arange(n + 1)
            for p in np.arange(0.1, 0.95, 0.1):
                exact = stats.binom.pmf(k, n, float(p))
                approx = np.array([normal_approx_pmf(n, int(ki), float(p)) for ki in k])
                worst = max(worst, np.abs(approx - exact).max())
        assert worst < 1e-3
        b.message = (f"N in (100, 200, 400), p in 0.1..0.9: "
                     f"max abs pmf error {worst:.3e} < 1e-3")


def test_c08_sensitivity_qualitative():
    # Y = incidence per time step on the degree-stratified model
    with budget(8, 600.0) as b:
        def runner(overrides):
            params = EpidemicParams(lam=overrides["lambda"], mu=0.05,
                                    rho0=overrides["rho0"])
            dist = truncated_power_law(overrides["gamma"], 1, 60)
            return integrate(build_model("stratified", params, dist), (0, 100), 1.0, "euler")

        ranges = {"gamma": (2.0, 3.0), "lambda": (0.05, 0.15), "rho0": (0.001, 0.01)}
        result = sobol_first_order(runner, ranges, n_base=512, seed=2025)
        nominal = runner({"gamma": 2.5, "lambda": 0.1, "rho0": 0.005})
        t_peak = int(np.argmax(nominal.incidence))

        s_rho0 = result.indices[result.parameters.index("rho0")]
        s_gamma = result.indices[result.parameters.index("gamma")]
        assert s_rho0[0] > s_rho0[t_peak]
        assert 0.1 <= s_gamma[t_peak] <= 0.6
        sums = np.nansum(result.indices, axis=0)
        defined = ~np.isnan(result.indices).all(axis=0)
        assert sums[defined].max() <= 1.1
        b.message = (f"rho0 index decays ({s_rho0[0]:.3f} -> {s_rho0[t_peak]:.3f}), "
                     f"gamma@peak {s_gamma[t_peak]:.3f} in [0.1, 0.6], "
                     f"max sum {sums[defined].max():.3f} <= 1.1")


def test_c09_phase_plot_structure():
    with budget(9, 10.0) as b:
        dist = truncated_power_law(3, 1, 60)
        params = EpidemicParams(lam=0.05, mu=0.05, rho0=0.01)
        traj = integrate(build_model("stratified", params, dist), (0, 400), 0.1, "rk4")
        areas, r2s = [], []
        for k in (1, 10, 30):
            infected = phase_series(traj, k, k)
            assert abs(infected[0, 1]) < 1e-4
            assert abs(infected[-1, 1]) < 1e-4
            area = shoelace_area(infected)
            assert area > 1e-13
            areas.append(area)
            healthy = phase_series(traj, k, k, variant="healthy")
            tail = healthy[int(0.8 * len(healthy)):]
            r2 = linear_fit_r2(tail[:, 0], tail[:, 1])
            assert r2 > 0.99
            r2s.append(r2)
        b.message = (f"loops closed with areas {['%.2e' % a for a in areas]}, "
                     f"late-stage healthy-group linearity R^2 "
                     f"{['%.5f' % r for r in r2s]} > 0.99")


def test_c10_fit_self_consistency():
    with budget(10, 120.0) as b:
        dist = truncated_power_law(3, 1, 60)

        def runner(overrides):
            params = EpidemicParams(lam=overrides["lambda"], mu=0.05, rho0=0.01)
            return integrate(build_model("stratified", params, dist), (0, 100), 1.0, "euler")

        truth = runner({"lambda": 0.1})
        clean = fit_parameters(runner, truth.times, truth.incidence,
                               {"lambda": (0.01, 0.3)}, {"lambda": 0.2})
        err_clean = abs(clean.parameters["lambda"] - 0.1)
        assert err_clean <= 1e-3

        rng = np.random.default_rng(99)
        noisy_series = truth.incidence + 0.05 * truth.incidence.max() * (
            rng.standard_normal(truth.incidence.shape))
        noisy = fit_parameters(runner, truth.times, noisy_series,
                               {"lambda": (0.01, 0.3)}, {"lambda": 0.2})
        err_noisy = abs(noisy.parameters["lambda"] - 0.1) / 0.1
        assert err_noisy <= 0.10
        b.message = (f"recovered lambda: noise-free within {err_clean:.2e} <= 1e-3, "
                     f"5% noise within {100 * err_noisy:.2f}% <= 10%")


def test_c11_hiv_symmetry_and_treatment_response():
    with budget(11, 30.0) as b:
        dist = truncated_power_law(2.7, 1, 60)

        # symmetry: remove the halved male rate, seed both sides identically
        sym_params = EpidemicParams(lam=0.28, rho0=0.002, d=0.02, asymmetry=1.0)
        sym = integrate(build_model("hiv_hetero", sym_params, dist, dist),
                        (0, 50), 0.25, "rk4")
        # per degree, every recorded row: s and the stage-summed infected
        # of each type, clamped at 0
        (s_m, inf_m, _), (s_w, inf_w, _) = sym.model.blocks(sym.Y)
        rho_m, rho_w = (np.maximum(i.sum(axis=-2), 0.0) for i in (inf_m, inf_w))
        worst = max(np.abs(np.maximum(s_m, 0.0) - np.maximum(s_w, 0.0)).max(),
                    np.abs(rho_m - rho_w).max())
        assert worst <= 1e-10

        # treatment epoch in the growth phase: normalized derivative
        # discontinuity grows with degree
        params = EpidemicParams(lam=0.28, rho0=0.002, d=0.05, treatment_efficacy=0.4)
        schedule = TreatmentSchedule(epochs=(4.0,), coverages=(0.7,))
        traj = integrate(build_model("hiv_hetero", params, dist, dist), (0, 40), 0.25, "rk4",
                         schedule=schedule)
        epoch_index = int(np.flatnonzero(traj.times == 4.0)[0])
        jumps = []
        for k in (1, 10, 50):
            series = phase_series(traj, k, k, population=2)
            dy = series[:, 1]
            jumps.append(abs(dy[epoch_index] - dy[epoch_index - 1]) / np.abs(dy).max())
        assert jumps[0] < jumps[1] < jumps[2]
        b.message = (f"men/women symmetry dev {worst:.2e} <= 1e-10; normalized epoch "
                     f"jumps {['%.3f' % j for j in jumps]} increase with degree")


def test_c12_byte_identical_reruns(tmp_path):
    configs = {
        "run-ode": {
            "model": "classic", "lambda": 0.05, "mu": 0.05, "rho0": 0.01,
            "t_span": [0, 50],
        },
        "run-abm": {
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 20], "method": "euler", "dt": 1.0,
            "abm": {"n": 500, "replicas": 6, "seed": 13},
        },
        "compare": {
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.05,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 20},
            "t_span": [0, 20], "method": "euler", "dt": 1.0,
            "abm": {"n": 500, "replicas": 6, "seed": 13},
        },
        "sensitivity": {
            "model": "stratified", "lambda": 0.1, "mu": 0.05, "rho0": 0.005,
            "distribution": {"type": "power_law", "gamma": 2.5, "k_min": 1, "k_max": 20},
            "t_span": [0, 20], "method": "euler", "dt": 1.0,
            "sensitivity": {"ranges": {"lambda": [0.05, 0.15], "gamma": [2, 3]},
                            "n_base": 64, "seed": 3},
        },
        "phase": {
            "model": "stratified", "lambda": 0.05, "mu": 0.05, "rho0": 0.01,
            "distribution": {"type": "power_law", "gamma": 3, "k_min": 1, "k_max": 30},
            "t_span": [0, 50], "dt": 0.5, "phase": {"m": 5, "n": 5},
        },
        "fit": {
            "model": "classic", "lambda": 0.1, "mu": 0.05, "rho0": 0.01,
            "t_span": [0, 30], "method": "euler", "dt": 1.0,
            "fit": {"free": {"lambda": [0.01, 0.3]}, "initial": {"lambda": 0.2},
                    "observed": [[5, 0.001], [10, 0.002], [20, 0.004]]},
        },
    }
    with budget(12) as b:
        for command, cfg in configs.items():
            spec = parse_config_data(cfg)
            outputs = []
            for attempt, threads in ((0, 1), (1, 2)):
                out = tmp_path / f"{command.replace('-', '_')}_{attempt}"
                _, files = execute(spec, command, out_dir=out, threads=threads)
                outputs.append({f.name: f.read_bytes() for f in sorted(files)})
            assert outputs[0] == outputs[1], f"{command} outputs differ between reruns"
        b.message = "all six commands byte-identical across reruns (including threaded)"
