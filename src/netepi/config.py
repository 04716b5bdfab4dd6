"""JSON run configuration: schema validation and model construction.

A configuration is one JSON object selecting a model and its parameters.
FIELDS is the one place a field is declared: one row per dotted path, with
the field's JSON kind, its default (or REQUIRED) and its domain.  One
reader walks it: unknown keys are rejected everywhere (typo safety), every
value is checked, every default filled in, and every diagnostic carries the
dotted path of the offending field.  The dict it builds is the canonical
form: ``SimulationSpec.canonical_dict`` returns a copy, which parses back
unchanged.  What a row cannot state is written out after the table: which
model reads which field (MODEL_FIELDS) and the rules tying fields together.
README.md ("Configuration") has examples and the scalar fields of the table.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .degree import DegreeDistribution, from_weights, truncated_power_law
from .errors import ConfigError, DomainError
from .ode import MODEL_NAMES, EpidemicParams, TreatmentSchedule, build_model, integrate

REQUIRED = object()
_INF = float("inf")
# bounds: (lower, upper, lower open, upper open)
_UNIT = (0, 1, False, False)
_OPEN_UNIT = (0, 1, True, True)
_POSITIVE = (0, _INF, True, True)
_OUTPUTS = ("incidence", "prevalence")


def _at_least(lower):
    return (lower, _INF, False, True)


class Field(NamedTuple):
    """One FIELDS row.  A value is one of ``choices`` as it stands, or of
    ``kind`` (float, int, str, bool, list or dict) inside ``bounds`` (for a
    list: each element a number inside them).  An absent field takes
    ``default``; REQUIRED makes it an error, None leaves it out.  A dict
    field with rows under its path is read by them, a default {} reading
    an absent one as empty."""

    kind: type
    default: object = None
    bounds: tuple | None = None
    choices: tuple = ()


# the keys of a distribution section of each type, besides "type"
_DISTRIBUTIONS = {"power_law": ("gamma", "k_min", "k_max"), "weights": ("k_min", "weights")}

FIELDS = {
    "model": Field(str, REQUIRED, choices=MODEL_NAMES),
    "lambda": Field(float, REQUIRED, _UNIT),
    "mu": Field(float, 0.0, _UNIT),
    "rho0": Field(float, REQUIRED, _OPEN_UNIT),
    "d": Field(float, 0.0, _UNIT),
    "treatment_efficacy": Field(float, 0.4, _UNIT),
    "lambda2": Field(float, None, _UNIT),
    "rho0_2": Field(float, None, (0, 1, False, True)),
    "split": Field(float, "hazard", _UNIT, ("hazard",)),
    "rho0_type2": Field(float, 0.0, _UNIT),
    "asymmetry": Field(float, 0.5, _UNIT),
    "side_fraction": Field(float, 0.5, _OPEN_UNIT),
    "stage_rates": Field(list),
    "t_span": Field(list, REQUIRED),
    "method": Field(str, "rk4", choices=("euler", "rk4")),
    "dt": Field(float, 0.1, _POSITIVE),
    "link_mode": Field(str, "active", choices=("active", "fixed")),
    "per_degree": Field(bool, False),
    "out_dir": Field(str, "."),
    # distribution2 is read by the distribution rows
    "distribution": Field(dict),
    "distribution2": Field(dict),
    "distribution.type": Field(str, REQUIRED, choices=tuple(_DISTRIBUTIONS)),
    "distribution.gamma": Field(float, REQUIRED, _POSITIVE),
    "distribution.k_min": Field(int, 1, _at_least(1)),
    "distribution.k_max": Field(int, REQUIRED, _at_least(1)),
    "distribution.weights": Field(list, REQUIRED, _at_least(0)),
    "treatment": Field(dict),
    "treatment.initial_coverage": Field(float, 0.0, _UNIT),
    "treatment.epochs": Field(list, REQUIRED, (-_INF, _INF, True, True)),
    "treatment.coverages": Field(list, REQUIRED, _UNIT),
    "abm": Field(dict, {}),
    "abm.n": Field(int, None, _at_least(2)),
    "abm.replicas": Field(int, 100, _at_least(2)),
    "abm.seed": Field(int, 0, _at_least(0)),
    "compare": Field(dict, {}),
    "compare.band_sigmas": Field(float, 3.0, _POSITIVE),
    "sensitivity": Field(dict),
    "sensitivity.ranges": Field(dict, REQUIRED),
    "sensitivity.n_base": Field(int, 512, _at_least(64)),
    "sensitivity.seed": Field(int, 0, _at_least(0)),
    "sensitivity.output": Field(str, "incidence", choices=_OUTPUTS),
    "phase": Field(dict),
    "phase.m": Field(int, REQUIRED),
    "phase.n": Field(int, REQUIRED),
    "phase.variant": Field(str, "infected", choices=("infected", "healthy")),
    "phase.population": Field(int, 1, (1, 2, False, False)),
    "fit": Field(dict),
    "fit.free": Field(dict, REQUIRED),
    "fit.initial": Field(dict, REQUIRED),
    "fit.observed": Field(list),
    "fit.observed_csv": Field(str),
    "fit.output": Field(str, "incidence", choices=_OUTPUTS),
}

# the rows of each section by key, "" the top level
_SECTIONS = {}
for _path, _field in FIELDS.items():
    _prefix, _, _key = _path.rpartition(".")
    _SECTIONS.setdefault(_prefix, {})[_key] = _field
_SECTIONS["distribution2"] = _SECTIONS["distribution"]

# Per model, the model-specific fields it reads, REQUIRED_FIELDS required.
# The parser rejects a field outside the row, naming it, so the one
# EpidemicParams it builds holds the defaults there; sensitivity.ranges,
# fit.free and overrides vary lambda2, mu and treatment_efficacy only inside
# it; phase.population 2 needs distribution2; run_trajectory passes integrate
# the treatment schedule.
# Two exceptions (_ANY_MODEL): a top-level mu outside the row is accepted at
# 0 (those models remove infected through demography), and a top-level
# treatment_efficacy on every model.
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
_TABLE_FIELDS = tuple(dict.fromkeys(name for row in MODEL_FIELDS.values() for name in row))
_ANY_MODEL = ("mu", "treatment_efficacy")

# the parameters sensitivity.ranges, fit.free and overrides may vary, each
# with the bounds of its row
_DOMAINS = {path.rpartition(".")[2]: FIELDS[path].bounds for path in (
    "lambda", "mu", "rho0", "d", "lambda2", "treatment_efficacy", "distribution.gamma")}
TUNABLE = tuple(_DOMAINS)
# the EpidemicParams field of each config key that sets one
_PARAM_NAMES = {**{f.name: f.name for f in fields(EpidemicParams)},
                "lambda": "lam", "lambda2": "lam2"}

_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
          bool: (bool, "true or false"), list: (list, "a list"), dict: (dict, "an object")}


def _number(full, value) -> float:
    """A JSON number as a float; bools, nan, inf and ints no float holds
    are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(full, f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(full, f"expected a finite number, got {value}")
    return float(value)


def _within(full, value, bounds):
    lo, hi, lo_open, hi_open = bounds
    if not ((value > lo if lo_open else value >= lo) and (value < hi if hi_open else value <= hi)):
        raise ConfigError(full, f"out of {'(' if lo_open else '['}{lo}, {hi}"
                                f"{')' if hi_open else ']'}: {value}")
    return value


def _value(mapping, path, key, field):
    """``mapping[key]`` (``mapping`` sits at ``path``) checked against its
    row ``field``, or the row's default."""
    full = f"{path}.{key}" if path else key
    if key in mapping:
        value = mapping[key]
    elif field.default is REQUIRED:
        raise ConfigError(full, "missing required field")
    elif isinstance(field.default, dict):  # an absent section reads as empty
        value = field.default
    else:
        return field.default
    if isinstance(value, str) and value in field.choices:
        return value
    if field.choices and field.kind is str:
        raise ConfigError(full, f"expected one of {field.choices}, got {value!r}")
    if isinstance(value, str) and "\x00" in value:   # no file path holds one
        raise ConfigError(full, "expected a string without a NUL character")
    accepted, name = _KINDS[field.kind]
    if not isinstance(value, accepted) or isinstance(value, bool) and field.kind is not bool:
        expected = " or ".join([*map(repr, field.choices), name])
        raise ConfigError(full, f"expected {expected}, got {type(value).__name__}")
    if field.kind is list and field.bounds:
        return [_within(full, _number(full, v), field.bounds) for v in value]
    if field.kind is float:
        value = _number(full, value)
    if field.bounds:
        _within(full, value, field.bounds)
    if field.kind is dict and full in _SECTIONS:
        return _section(value, full)
    return value


def _section(obj, path, skip=()):
    """The object ``obj`` at ``path`` read by its rows, but those in
    ``skip``: unknown keys rejected, values checked, defaults filled in."""
    rows = _SECTIONS[path]
    if "type" in rows:  # a distribution: its type selects the other rows
        kind = _value(obj, path, "type", rows["type"])
        rows = {key: rows[key] for key in ("type", *_DISTRIBUTIONS[kind])}
    for key in obj:
        if key not in rows:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    out = {}
    for key, field in rows.items():
        if key not in skip:
            value = _value(obj, path, key, field)
            if value is not None:
                out[key] = value
    return out


def _interval(full, pair):
    """``pair`` as (lower, upper): two finite numbers, lower below upper."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(full, "expected [lower, upper]")
    lo, hi = (_number(full, v) for v in pair)
    if hi <= lo:
        raise ConfigError(full, f"lower {lo} must be below upper {hi}")
    return lo, hi


def build_distribution(spec_dict) -> DegreeDistribution:
    if spec_dict["type"] == "power_law":
        return truncated_power_law(spec_dict["gamma"], spec_dict["k_min"], spec_dict["k_max"])
    return from_weights(spec_dict["k_min"], spec_dict["weights"])


def _bounds_map(obj, path, config):
    """Parameter ranges inside each parameter's domain, for parameters the
    model uses as configured."""
    if not obj:
        raise ConfigError(path, "expected a nonempty object of parameter ranges")
    out = {}
    for name, pair in obj.items():
        full = f"{path}.{name}"
        if name not in TUNABLE:
            raise ConfigError(full, f"unknown parameter; expected one of {TUNABLE}")
        out[name] = _interval(full, pair)
        for bound in out[name]:
            _within(full, bound, _DOMAINS[name])
        reason = _fixed_reason(name, config)
        if reason:
            raise ConfigError(full, reason)
    return out


def _fixed_reason(name, config):
    """Why the model as configured cannot vary the TUNABLE parameter
    ``name``, or None when it can."""
    model = config["model"]
    if name in _TABLE_FIELDS and name not in MODEL_FIELDS[model]:
        return f"not used by model {model!r}"
    if name == "gamma" and config.get("distribution", {}).get("type") != "power_law":
        return "can only be varied on a power_law distribution"
    if name == "mu" and "stage_rates" in config:
        return "stage_rates replaces mu; mu must stay 0"
    return None


@dataclass
class SimulationSpec:
    """Fully validated run configuration: ``config``, the dict the parser
    built with every default filled in, and the objects built from it.
    Each top-level field of ``config`` reads as an attribute too (None when
    absent); params and treatment are its parameters and schedule as
    objects."""

    config: dict
    params: EpidemicParams
    treatment: TreatmentSchedule | None

    def __getattr__(self, name):
        if name in _SECTIONS[""]:
            return self.config.get(name)
        raise AttributeError(name)

    def canonical_dict(self) -> dict:
        """JSON-ready copy of ``config``; it parses back to an equal spec."""
        return json.loads(json.dumps(self.config))


def _outside_row(data, model):
    """The MODEL_FIELDS fields outside the model's row, _ANY_MODEL aside.
    Each is rejected when given, and a REQUIRED_FIELDS field inside the row
    when missing."""
    row = MODEL_FIELDS[model]
    for name in REQUIRED_FIELDS:
        if name in row and name not in data:
            raise ConfigError(name, f"required for model {model!r}")
    outside = [name for name in _TABLE_FIELDS if name not in row and name not in _ANY_MODEL]
    for name in outside:
        if name in data:
            raise ConfigError(name, f"not used by model {model!r}")
    return outside


def parse_config_data(data) -> SimulationSpec:
    """Validate a decoded JSON object into a SimulationSpec."""
    if not isinstance(data, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    model = _value(data, "", "model", FIELDS["model"])
    config = _section(data, "", skip=_outside_row(data, model))
    if config["mu"] != 0.0 and "mu" not in MODEL_FIELDS[model]:
        raise ConfigError("mu", f"model {model!r} removes through demography; mu must be 0")
    config["t_span"] = list(_interval("t_span", config["t_span"]))

    for name in ("distribution", "distribution2"):
        dist = config.get(name, {})
        if "k_max" in dist and dist["k_max"] < dist["k_min"]:
            raise ConfigError(f"{name}.k_max", f"below k_min {dist['k_min']}")
        if "weights" in dist and not sum(dist["weights"]) > 0:
            raise ConfigError(f"{name}.weights", "expected at least one positive weight")

    try:
        params = EpidemicParams(**{_PARAM_NAMES[k]: v for k, v in config.items()
                                   if k in _PARAM_NAMES})
    except DomainError as exc:   # the fields above leave only stage_rates to the record
        raise ConfigError("stage_rates", str(exc)) from None

    treatment = None
    if "treatment" in config:
        tr = config["treatment"]
        try:
            treatment = TreatmentSchedule(tuple(tr["epochs"]), tuple(tr["coverages"]),
                                          initial_coverage=tr["initial_coverage"])
        except DomainError as exc:
            raise ConfigError("treatment", str(exc)) from exc
        t0, t1 = config["t_span"]
        for epoch in treatment.epochs:
            if not t0 < epoch < t1:
                raise ConfigError("treatment.epochs", f"epoch {epoch:g} is not strictly inside "
                                  f"t_span [{t0:g}, {t1:g}]")

    if "sensitivity" in config:
        sen = config["sensitivity"]
        sen["ranges"] = _bounds_map(sen["ranges"], "sensitivity.ranges", config)

    if "phase" in config:
        phase, population = config["phase"], config["phase"]["population"]
        if population == 2 and "distribution2" not in MODEL_FIELDS[model]:
            raise ConfigError("phase.population", f"model {model!r} has one population")
        # a model without a distribution has the one degree 1
        dist, dist2 = config.get("distribution"), config.get("distribution2")
        chosen = build_distribution(dist if population == 1 else dist2 or dist) if dist else None
        lo, hi = (chosen.k_min, chosen.k_max) if chosen else (1, 1)
        for key in ("m", "n"):
            if not lo <= phase[key] <= hi:
                raise ConfigError(f"phase.{key}", f"degree {phase[key]} outside the degree "
                                  f"support [{lo}, {hi}] of population {population}")

    if "fit" in config:
        fit = config["fit"]
        free = fit["free"] = _bounds_map(fit["free"], "fit.free", config)
        initial = {name: _value(fit["initial"], "fit.initial", name,
                                Field(float, REQUIRED, (*free[name], False, False)))
                   for name in free}
        for name in fit["initial"]:
            if name not in free:
                raise ConfigError(f"fit.initial.{name}", "no matching free parameter")
        fit["initial"] = initial
        if ("observed" in fit) == ("observed_csv" in fit):
            raise ConfigError("fit.observed", "provide exactly one of observed, observed_csv")
        if "observed" in fit:
            observed = fit["observed"]
            if not observed or not all(isinstance(p, list) and len(p) == 2 for p in observed):
                raise ConfigError("fit.observed", "expected [[t, value], ...]")
            fit["observed"] = [[_number("fit.observed", v) for v in p] for p in observed]

    return SimulationSpec(config, params, treatment)


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
    config = spec.config   # read directly: a spec attribute goes through the slower __getattr__
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in _DOMAINS:
            raise DomainError(f"override {name!r}: unknown parameter; expected one of {TUNABLE}")
        reason = _fixed_reason(name, config)
        if reason:
            raise DomainError(f"override {name!r}: {reason}")
    dist_dict, dist2_dict = config.get("distribution"), config.get("distribution2")
    if "gamma" in overrides:
        dist_dict = {**dist_dict, "gamma": overrides.pop("gamma")}
    params = replace(spec.params, **{_PARAM_NAMES[k]: float(v) for k, v in overrides.items()})
    dist = build_distribution(dist_dict) if dist_dict else None
    dist2 = build_distribution(dist2_dict) if dist2_dict else None
    return build_model(config["model"], params, dist=dist, dist2=dist2)


def run_trajectory(spec: SimulationSpec, overrides: dict | None = None):
    """Integrate the configured model and return its Trajectory."""
    config = spec.config
    return integrate(build_spec_model(spec, overrides), config["t_span"], config["dt"],
                     config["method"], schedule=spec.treatment)
