"""JSON run configuration: schema validation and model construction.

A configuration is one JSON object selecting a model and its parameters.
Unknown keys are rejected everywhere (typo safety) and every diagnostic
carries the dotted path of the offending field.  The canonical form emitted
by ``SimulationSpec.canonical_dict`` round-trips through ``parse_config``
unchanged.  README.md ("Configuration") has examples.

The model-specific fields, "distribution" among them, are read per
MODEL_FIELDS below.  A distribution is either {"type": "power_law",
"gamma": 3, "k_min": 1, "k_max": 60} or {"type": "weights", "k_min": 1,
"weights": [...]}.  Command-specific sections ("abm", "compare",
"sensitivity", "phase", "fit") are validated when present.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

from .degree import DegreeDistribution, from_weights, truncated_power_law
from .errors import ConfigError, DomainError
from .ode import MODEL_NAMES, EpidemicParams, TreatmentSchedule, build_model, integrate

# Per model, the model-specific fields it reads, REQUIRED_FIELDS required.
# The parser rejects a field outside the row, naming it; sensitivity.ranges,
# fit.free and overrides vary lambda2, mu and treatment_efficacy only inside
# it; phase.population 2 needs distribution2; canonical_dict writes, and
# build_spec_model passes the builder, the row's BUILDER_FIELDS and treatment
# as the initial coverage.  Two exceptions: a top-level mu outside the row is
# accepted at 0 (those models remove infected through demography), and a
# top-level treatment_efficacy on every model (canonical_dict writes it).
MODEL_FIELDS = {
    "classic": ("mu",),
    "stratified": ("mu", "distribution", "stage_rates"),
    "two_type": ("mu", "distribution", "lambda2", "split", "rho0_type2", "stage_rates"),
    "bipartite": ("mu", "distribution", "distribution2", "lambda2", "rho0_2", "side_fraction",
                  "stage_rates"),
    "hiv_msm": ("treatment_efficacy", "distribution", "treatment", "stage_rates"),
    "hiv_hetero": ("treatment_efficacy", "distribution", "distribution2", "rho0_2",
                   "asymmetry", "side_fraction", "treatment", "stage_rates"),
}
REQUIRED_FIELDS = ("distribution", "lambda2")
BUILDER_FIELDS = ("split", "rho0_type2", "asymmetry", "side_fraction", "stage_rates")
_TABLE_FIELDS = {name for row in MODEL_FIELDS.values() for name in row}

# parameters the sensitivity and fit commands may vary, each with its domain
# (lower, upper, lower open, upper open)
_DOMAINS = {
    "lambda": (0, 1, False, False), "mu": (0, 1, False, False), "rho0": (0, 1, True, True),
    "d": (0, 1, False, False), "lambda2": (0, 1, False, False),
    "treatment_efficacy": (0, 1, False, False), "gamma": (0, float("inf"), True, True),
}
TUNABLE = tuple(_DOMAINS)


def _expect(mapping, path, known):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _number(full, value) -> float:
    """A JSON number as a float; bools, nan, inf and ints no float holds
    are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(full, f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(full, f"expected a finite number, got {value}")
    return float(value)


def _get(mapping, path, key, kind, default=..., required=False):
    full = f"{path}.{key}" if path else key
    if key not in mapping:
        if required:
            raise ConfigError(full, "missing required field")
        return default
    value = mapping[key]
    if kind is float:
        return _number(full, value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(full, "expected an integer")
    if kind is int and isinstance(value, int):
        return value
    if kind is not float and kind is not int and isinstance(value, kind):
        return value
    raise ConfigError(full, f"expected {kind.__name__}, got {type(value).__name__}")


def _check_range(path, value, lo, hi, lo_open=False, hi_open=False):
    ok = (value > lo if lo_open else value >= lo) and (value < hi if hi_open else value <= hi)
    if not ok:
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise ConfigError(path, f"out of {lo_b}{lo}, {hi}{hi_b}: {value}")
    return value


def _parse_distribution(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    kind = _get(obj, path, "type", str, required=True)
    if kind == "power_law":
        _expect(obj, path, {"type", "gamma", "k_min", "k_max"})
        gamma = _get(obj, path, "gamma", float, required=True)
        k_min = _get(obj, path, "k_min", int, default=1)
        k_max = _get(obj, path, "k_max", int, required=True)
        if gamma <= 0:
            raise ConfigError(f"{path}.gamma", f"must be > 0, got {gamma}")
        if k_min < 1 or k_max < k_min:
            bad = "k_min" if k_min < 1 else "k_max"
            raise ConfigError(f"{path}.{bad}", f"invalid support [{k_min}, {k_max}]")
        return {"type": "power_law", "gamma": gamma, "k_min": k_min, "k_max": k_max}
    if kind == "weights":
        _expect(obj, path, {"type", "k_min", "weights"})
        k_min = _get(obj, path, "k_min", int, default=1)
        weights = _get(obj, path, "weights", list, required=True)
        weights = [_number(f"{path}.weights", w) for w in weights]
        if not weights or min(weights) < 0:
            raise ConfigError(f"{path}.weights", "expected nonnegative numbers")
        if sum(weights) <= 0:
            raise ConfigError(f"{path}.weights", "at least one weight must be positive")
        if k_min < 1:
            raise ConfigError(f"{path}.k_min", f"must be >= 1, got {k_min}")
        return {"type": "weights", "k_min": k_min, "weights": weights}
    raise ConfigError(f"{path}.type", f"expected 'power_law' or 'weights', got {kind!r}")


def build_distribution(spec_dict) -> DegreeDistribution:
    if spec_dict["type"] == "power_law":
        return truncated_power_law(spec_dict["gamma"], spec_dict["k_min"], spec_dict["k_max"])
    return from_weights(spec_dict["k_min"], spec_dict["weights"])


def _parse_bounds_map(obj, path, model, dist, stage_rates):
    """Parameter ranges inside each parameter's domain, for parameters the
    model uses as configured."""
    if not isinstance(obj, dict) or not obj:
        raise ConfigError(path, "expected a nonempty object of parameter ranges")
    out = {}
    for name, pair in obj.items():
        full = f"{path}.{name}"
        if name not in TUNABLE:
            raise ConfigError(full, f"unknown parameter; expected one of {TUNABLE}")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(full, "expected [lower, upper]")
        lo, hi = (_number(full, v) for v in pair)
        if hi <= lo:
            raise ConfigError(full, f"lower {lo} must be below upper {hi}")
        for bound in (lo, hi):
            _check_range(full, bound, *_DOMAINS[name])
        reason = _fixed_reason(name, model, dist, stage_rates)
        if reason:
            raise ConfigError(full, reason)
        out[name] = (lo, hi)
    return out


def _fixed_reason(name, model, dist, stage_rates):
    """Why the model as configured cannot vary the TUNABLE parameter
    ``name``, or None when it can."""
    if name in _TABLE_FIELDS and name not in MODEL_FIELDS[model]:
        return f"not used by model {model!r}"
    if name == "gamma" and (dist is None or dist["type"] != "power_law"):
        return "can only be varied on a power_law distribution"
    if name == "mu" and stage_rates is not None:
        return "stage_rates replaces mu; mu must stay 0"
    return None


@dataclass
class SimulationSpec:
    """Fully validated run configuration."""

    model: str
    params: EpidemicParams
    t_span: tuple
    method: str = "rk4"
    dt: float = 0.1
    link_mode: str = "active"
    distribution: dict | None = None
    distribution2: dict | None = None
    split: object = "hazard"
    rho0_type2: float = 0.0
    asymmetry: float = 0.5
    side_fraction: float = 0.5
    stage_rates: list | None = None
    treatment: TreatmentSchedule | None = None
    per_degree: bool = False
    out_dir: str = "."
    abm_n: int | None = None
    abm_replicas: int = 100
    abm_seed: int = 0
    compare_band_sigmas: float = 3.0
    sensitivity: dict | None = None
    phase: dict | None = None
    fit: dict | None = None

    def canonical_dict(self) -> dict:
        """JSON-ready dict that parses back to an identical spec."""
        out = {
            "model": self.model,
            "lambda": self.params.lam,
            "mu": self.params.mu,
            "rho0": self.params.rho0,
            "d": self.params.d,
            "treatment_efficacy": self.params.treatment_efficacy,
            "t_span": list(self.t_span),
            "method": self.method,
            "dt": self.dt,
            "link_mode": self.link_mode,
            "per_degree": self.per_degree,
            "out_dir": self.out_dir,
            "abm": {
                "replicas": self.abm_replicas,
                "seed": self.abm_seed,
            },
            "compare": {"band_sigmas": self.compare_band_sigmas},
        }
        if self.params.lam2 is not None:
            out["lambda2"] = self.params.lam2
        if self.params.rho0_2 is not None:
            out["rho0_2"] = self.params.rho0_2
        if self.abm_n is not None:
            out["abm"]["n"] = self.abm_n
        if self.distribution is not None:
            out["distribution"] = dict(self.distribution)
        if self.distribution2 is not None:
            out["distribution2"] = dict(self.distribution2)
        for name in BUILDER_FIELDS:
            if name in MODEL_FIELDS[self.model] and getattr(self, name) is not None:
                out[name] = getattr(self, name)
        if self.treatment is not None:
            out["treatment"] = {
                "initial_coverage": self.treatment.initial_coverage,
                "epochs": list(self.treatment.epochs),
                "coverages": list(self.treatment.coverages),
            }
        if self.sensitivity is not None:
            out["sensitivity"] = {
                "ranges": {k: list(v) for k, v in self.sensitivity["ranges"].items()},
                "n_base": self.sensitivity["n_base"],
                "seed": self.sensitivity["seed"],
                "output": self.sensitivity["output"],
            }
        if self.phase is not None:
            out["phase"] = dict(self.phase)
        if self.fit is not None:
            fit = {
                "free": {k: list(v) for k, v in self.fit["free"].items()},
                "initial": dict(self.fit["initial"]),
                "output": self.fit["output"],
            }
            if self.fit.get("observed") is not None:
                fit["observed"] = [list(pair) for pair in self.fit["observed"]]
            if self.fit.get("observed_csv") is not None:
                fit["observed_csv"] = self.fit["observed_csv"]
            out["fit"] = fit
        return out


_TOP_KEYS = _TABLE_FIELDS | {
    "model", "lambda", "rho0", "d", "t_span", "method", "dt", "link_mode", "per_degree",
    "out_dir", "abm", "compare", "sensitivity", "phase", "fit",
}


def _given(data, model, name) -> bool:
    """Whether the MODEL_FIELDS field ``name`` is in ``data``: it is rejected
    outside the model's row and, if REQUIRED_FIELDS, required inside it."""
    if name not in MODEL_FIELDS[model]:
        if name in data:
            raise ConfigError(name, f"not used by model {model!r}")
        return False
    if name in REQUIRED_FIELDS and name not in data:
        raise ConfigError(name, f"required for model {model!r}")
    return name in data


def _model_number(data, model, name, default, **open_ends):
    """The MODEL_FIELDS number ``name`` in [0, 1] (ends open per
    ``open_ends``), or ``default`` when absent."""
    if not _given(data, model, name):
        return default
    return _check_range(name, _get(data, "", name, float), 0, 1, **open_ends)


def parse_config_data(data) -> SimulationSpec:
    """Validate a decoded JSON object into a SimulationSpec."""
    if not isinstance(data, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    _expect(data, "", _TOP_KEYS)

    model = _get(data, "", "model", str, required=True)
    if model not in MODEL_NAMES:
        raise ConfigError("model", f"expected one of {MODEL_NAMES}, got {model!r}")

    lam = _check_range("lambda", _get(data, "", "lambda", float, required=True), 0, 1)
    mu = _check_range("mu", _get(data, "", "mu", float, default=0.0), 0, 1)
    rho0 = _check_range("rho0", _get(data, "", "rho0", float, required=True), 0, 1,
                        lo_open=True, hi_open=True)
    d = _check_range("d", _get(data, "", "d", float, default=0.0), 0, 1)
    efficacy = _check_range(
        "treatment_efficacy", _get(data, "", "treatment_efficacy", float, default=0.4), 0, 1)

    lam2 = _model_number(data, model, "lambda2", None)
    rho0_2 = _model_number(data, model, "rho0_2", None, hi_open=True)
    if mu != 0.0 and "mu" not in MODEL_FIELDS[model]:
        raise ConfigError("mu", f"model {model!r} removes through demography; mu must be 0")

    span = _get(data, "", "t_span", list, required=True)
    if len(span) != 2:
        raise ConfigError("t_span", "expected [t0, t1]")
    t0, t1 = (_number("t_span", v) for v in span)
    if t1 <= t0:
        raise ConfigError("t_span", f"end {t1} must exceed start {t0}")

    method = _get(data, "", "method", str, default="rk4")
    if method not in ("euler", "rk4"):
        raise ConfigError("method", f"expected 'euler' or 'rk4', got {method!r}")
    dt = _get(data, "", "dt", float, default=0.1)
    if dt <= 0:
        raise ConfigError("dt", f"must be positive, got {dt}")
    link_mode = _get(data, "", "link_mode", str, default="active")
    if link_mode not in ("active", "fixed"):
        raise ConfigError("link_mode", f"expected 'active' or 'fixed', got {link_mode!r}")

    dist = dist2 = None
    if _given(data, model, "distribution"):
        dist = _parse_distribution(data["distribution"], "distribution")
    if _given(data, model, "distribution2"):
        dist2 = _parse_distribution(data["distribution2"], "distribution2")

    split = data["split"] if _given(data, model, "split") else "hazard"
    if split != "hazard":
        if isinstance(split, bool) or not isinstance(split, (int, float)):
            raise ConfigError("split", "expected 'hazard' or a fraction in [0, 1]")
        split = _check_range("split", float(split), 0, 1)

    rho0_type2 = _model_number(data, model, "rho0_type2", 0.0)
    asymmetry = _model_number(data, model, "asymmetry", 0.5)
    side_fraction = _model_number(data, model, "side_fraction", 0.5, lo_open=True, hi_open=True)

    stage_rates = None
    if _given(data, model, "stage_rates"):
        stage_rates = data["stage_rates"]
        if not isinstance(stage_rates, list) or not stage_rates:
            raise ConfigError("stage_rates", "expected per-stage rates in [0, 1]")
        rows = stage_rates if isinstance(stage_rates[0], list) else [stage_rates]
        if (not all(isinstance(r, list) and r for r in rows) or len({len(r) for r in rows}) > 1
                or not all(0 <= _number("stage_rates", v) <= 1 for row in rows for v in row)):
            raise ConfigError("stage_rates", "expected per-stage rates in [0, 1], as many per type")
        if mu != 0.0:
            raise ConfigError("stage_rates", "stage_rates replaces mu; set mu=0")

    treatment = None
    if _given(data, model, "treatment"):
        tr = data["treatment"]
        if not isinstance(tr, dict):
            raise ConfigError("treatment", "expected an object")
        _expect(tr, "treatment", {"initial_coverage", "epochs", "coverages"})
        epochs = _get(tr, "treatment", "epochs", list, required=True)
        coverages = _get(tr, "treatment", "coverages", list, required=True)
        initial = _check_range(
            "treatment.initial_coverage",
            _get(tr, "treatment", "initial_coverage", float, default=0.0), 0, 1)
        epochs = tuple(_number("treatment.epochs", e) for e in epochs)
        coverages = tuple(_number("treatment.coverages", c) for c in coverages)
        if not all(0 <= c <= 1 for c in coverages):
            raise ConfigError("treatment.coverages", "expected fractions in [0, 1]")
        try:
            treatment = TreatmentSchedule(epochs, coverages, initial_coverage=initial)
        except DomainError as exc:
            raise ConfigError("treatment", str(exc)) from exc

    per_degree = _get(data, "", "per_degree", bool, default=False)
    out_dir = _get(data, "", "out_dir", str, default=".")

    abm_n, abm_replicas, abm_seed = None, 100, 0
    if "abm" in data:
        abm = data["abm"]
        if not isinstance(abm, dict):
            raise ConfigError("abm", "expected an object")
        _expect(abm, "abm", {"n", "replicas", "seed"})
        abm_n = _get(abm, "abm", "n", int, default=None)
        if abm_n is not None and abm_n < 2:
            raise ConfigError("abm.n", f"must be >= 2, got {abm_n}")
        abm_replicas = _get(abm, "abm", "replicas", int, default=100)
        if abm_replicas < 2:
            raise ConfigError("abm.replicas", f"must be >= 2, got {abm_replicas}")
        abm_seed = _get(abm, "abm", "seed", int, default=0)
        if abm_seed < 0:
            raise ConfigError("abm.seed", f"must be >= 0, got {abm_seed}")

    band = 3.0
    if "compare" in data:
        cmp_obj = data["compare"]
        if not isinstance(cmp_obj, dict):
            raise ConfigError("compare", "expected an object")
        _expect(cmp_obj, "compare", {"band_sigmas"})
        band = _get(cmp_obj, "compare", "band_sigmas", float, default=3.0)
        if band <= 0:
            raise ConfigError("compare.band_sigmas", f"must be positive, got {band}")

    sensitivity = None
    if "sensitivity" in data:
        sen = data["sensitivity"]
        if not isinstance(sen, dict):
            raise ConfigError("sensitivity", "expected an object")
        _expect(sen, "sensitivity", {"ranges", "n_base", "seed", "output"})
        ranges = _parse_bounds_map(_get(sen, "sensitivity", "ranges", dict, required=True),
                                   "sensitivity.ranges", model, dist, stage_rates)
        n_base = _get(sen, "sensitivity", "n_base", int, default=512)
        if n_base < 64:
            raise ConfigError("sensitivity.n_base", f"must be >= 64, got {n_base}")
        output = _get(sen, "sensitivity", "output", str, default="incidence")
        if output not in ("incidence", "prevalence"):
            raise ConfigError("sensitivity.output", f"expected 'incidence' or 'prevalence', got {output!r}")
        sen_seed = _get(sen, "sensitivity", "seed", int, default=0)
        if sen_seed < 0:
            raise ConfigError("sensitivity.seed", f"must be >= 0, got {sen_seed}")
        sensitivity = {"ranges": ranges, "n_base": n_base, "seed": sen_seed, "output": output}

    phase = None
    if "phase" in data:
        ph = data["phase"]
        if not isinstance(ph, dict):
            raise ConfigError("phase", "expected an object")
        _expect(ph, "phase", {"m", "n", "variant", "population"})
        variant = _get(ph, "phase", "variant", str, default="infected")
        if variant not in ("infected", "healthy"):
            raise ConfigError("phase.variant", f"expected 'infected' or 'healthy', got {variant!r}")
        population = _get(ph, "phase", "population", int, default=1)
        if population not in (1, 2):
            raise ConfigError("phase.population", f"expected 1 or 2, got {population}")
        phase = {
            "m": _get(ph, "phase", "m", int, required=True),
            "n": _get(ph, "phase", "n", int, required=True),
            "variant": variant, "population": population,
        }
        if population == 2 and "distribution2" not in MODEL_FIELDS[model]:
            raise ConfigError("phase.population", f"model {model!r} has one population")
        # a model without a distribution has the one degree 1
        chosen = build_distribution(dist if population == 1 else dist2 or dist) if dist else None
        lo, hi = (chosen.k_min, chosen.k_max) if chosen else (1, 1)
        for key in ("m", "n"):
            if not lo <= phase[key] <= hi:
                raise ConfigError(f"phase.{key}", f"degree {phase[key]} outside the degree "
                                  f"support [{lo}, {hi}] of population {population}")

    fit = None
    if "fit" in data:
        ft = data["fit"]
        if not isinstance(ft, dict):
            raise ConfigError("fit", "expected an object")
        _expect(ft, "fit", {"free", "initial", "observed", "observed_csv", "output"})
        free = _parse_bounds_map(_get(ft, "fit", "free", dict, required=True), "fit.free",
                                 model, dist, stage_rates)
        initial_obj = _get(ft, "fit", "initial", dict, required=True)
        initial = {name: _check_range(f"fit.initial.{name}",
                                      _get(initial_obj, "fit.initial", name, float,
                                           required=True), *free[name])
                   for name in free}
        for name in initial_obj:
            if name not in free:
                raise ConfigError(f"fit.initial.{name}", "no matching free parameter")
        observed = ft.get("observed")
        observed_csv = _get(ft, "fit", "observed_csv", str, default=None)
        if (observed is None) == (observed_csv is None):
            raise ConfigError("fit.observed", "provide exactly one of observed, observed_csv")
        if observed is not None:
            if (not isinstance(observed, list) or not observed
                    or not all(isinstance(p, list) and len(p) == 2 for p in observed)):
                raise ConfigError("fit.observed", "expected [[t, value], ...]")
            observed = [[_number("fit.observed", v) for v in p] for p in observed]
        output = _get(ft, "fit", "output", str, default="incidence")
        if output not in ("incidence", "prevalence"):
            raise ConfigError("fit.output", f"expected 'incidence' or 'prevalence', got {output!r}")
        fit = {"free": free, "initial": initial, "observed": observed,
               "observed_csv": observed_csv, "output": output}

    try:
        params = EpidemicParams(
            lam=lam, mu=mu, rho0=rho0, d=d, lam2=lam2, rho0_2=rho0_2,
            treatment_efficacy=efficacy,
        )
    except DomainError as exc:
        raise ConfigError("", str(exc)) from exc

    return SimulationSpec(
        model=model, params=params, t_span=(t0, t1), method=method, dt=dt,
        link_mode=link_mode, distribution=dist, distribution2=dist2,
        split=split, rho0_type2=rho0_type2, asymmetry=asymmetry,
        side_fraction=side_fraction, stage_rates=stage_rates,
        treatment=treatment, per_degree=per_degree, out_dir=out_dir,
        abm_n=abm_n, abm_replicas=abm_replicas, abm_seed=abm_seed,
        compare_band_sigmas=band, sensitivity=sensitivity, phase=phase, fit=fit,
    )


def parse_config(path) -> SimulationSpec:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON in {path}: {exc}") from exc
    return parse_config_data(data)


def build_spec_model(spec: SimulationSpec, overrides: dict | None = None):
    """Instantiate the configured model, optionally overriding tunables.

    Overrides may touch the TUNABLE parameters the model uses as
    configured, by the same rule as ``sensitivity.ranges`` and ``fit.free``;
    any other override is a DomainError naming it.
    """
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in _DOMAINS:
            raise DomainError(f"override {name!r}: unknown parameter; expected one of {TUNABLE}")
        reason = _fixed_reason(name, spec.model, spec.distribution, spec.stage_rates)
        if reason:
            raise DomainError(f"override {name!r}: {reason}")
    dist_dict = spec.distribution
    if "gamma" in overrides:
        dist_dict = {**dist_dict, "gamma": overrides.pop("gamma")}
    rename = {"lambda": "lam", "lambda2": "lam2"}
    params = replace(spec.params, **{rename.get(name, name): float(value)
                                     for name, value in overrides.items()})
    dist = build_distribution(dist_dict) if dist_dict else None
    dist2 = build_distribution(spec.distribution2) if spec.distribution2 else None
    return build_model(spec.model, params, dist=dist, dist2=dist2,
                       link_mode=spec.link_mode, **builder_options(spec))


def builder_options(spec: SimulationSpec) -> dict:
    """The keyword options ``build_spec_model`` passes the model's builder:
    its row's BUILDER_FIELDS, and treatment as the initial coverage."""
    row = MODEL_FIELDS[spec.model]
    options = {name: getattr(spec, name) for name in BUILDER_FIELDS if name in row}
    if "treatment" in row:
        options["coverage"] = spec.treatment.initial_coverage if spec.treatment else 0.0
    return options


def run_trajectory(spec: SimulationSpec, overrides: dict | None = None,
                   method: str | None = None, dt: float | None = None):
    """Integrate the configured model and return its Trajectory."""
    model = build_spec_model(spec, overrides)
    return integrate(
        model, spec.t_span, dt if dt is not None else spec.dt,
        method if method is not None else spec.method,
        schedule=spec.treatment,
    )
