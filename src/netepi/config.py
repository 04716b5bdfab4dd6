"""JSON run configuration: schema validation and model construction.

A configuration is one JSON object selecting a model and its parameters.
FIELDS is the one place a field is declared: one row per dotted path, with
the field's JSON kind, its default (or REQUIRED) and its domain, the rule
the library declares for the argument the field sets (``errors``).  One
reader walks it: unknown keys are rejected everywhere (typo safety), every
value is checked through ``errors.check``, every default filled in, and
every diagnostic carries the dotted path of the offending field.  The dict it builds is the canonical
form: ``SimulationSpec.canonical_dict`` returns a copy, which parses back
unchanged.  What a row cannot state is written out after the table: which
model reads which field (MODEL_FIELDS) and the rules tying fields together.
README.md ("Configuration") has examples and the scalar fields of the table.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .abm import NODES, REPLICAS
from .analysis import BAND_SIGMAS, N_BASE, OUTPUTS, PARAMETERS, POPULATIONS, VARIANTS
from .degree import (DEGREE, GAMMA, WEIGHTS, DegreeDistribution, from_weights, support,
                     truncated_power_law)
from .errors import (INTEGER, NUMBERS, POSITIVE, RANGE, SEED, UNIT, ConfigError, Domain,
                     DomainError, Interval, check, check_kind, is_number, one_of)
from .ode import (COVERAGES, LINK_MODES, METHODS, MODELS, PARAM_INTERVALS, SPLIT, EpidemicParams,
                  TreatmentSchedule, build_model, integrate)

REQUIRED = object()


class Field(NamedTuple):
    """One FIELDS row.  A value must lie in ``domain``, by default any value
    of ``kind`` (float, int, str, bool, list or dict); a float row stores a
    number as a float, a list row with a domain its numbers as floats.  An
    absent field takes ``default``; REQUIRED makes it an error, None leaves
    it out.  A dict field with rows under its path is read by them, a
    default {} reading an absent one as empty."""

    kind: type
    default: object = None
    domain: Domain | None = None


# the keys of a distribution section of each type, besides "type"
_DISTRIBUTIONS = {"power_law": ("gamma", "k_min", "k_max"), "weights": ("k_min", "weights")}
# the EpidemicParams fields, and the field each config key sets
_RECORD = {f.name: f for f in fields(EpidemicParams)}
_PARAM_NAMES = {**{name: name for name in _RECORD}, "lambda": "lam", "lambda2": "lam2"}


def _param(key, required=False):
    """The row of ``key``'s EpidemicParams field: its interval, and its default or REQUIRED."""
    name = _PARAM_NAMES[key]
    return Field(float, REQUIRED if required else _RECORD[name].default, PARAM_INTERVALS[name])


FIELDS = {
    "model": Field(str, REQUIRED, MODELS),
    "lambda": _param("lambda", required=True),
    "mu": _param("mu"),
    "rho0": _param("rho0", required=True),
    "d": _param("d"),
    "treatment_efficacy": _param("treatment_efficacy"),
    "lambda2": _param("lambda2"),
    "rho0_2": _param("rho0_2"),
    "split": Field(float, _RECORD["split"].default, SPLIT),
    "rho0_type2": _param("rho0_type2"),
    "asymmetry": _param("asymmetry"),
    "side_fraction": _param("side_fraction"),
    "stage_rates": Field(list),
    "t_span": Field(list, REQUIRED, RANGE),
    "method": Field(str, "rk4", METHODS),
    "dt": Field(float, 0.1, POSITIVE),
    "link_mode": Field(str, _RECORD["link_mode"].default, LINK_MODES),
    "per_degree": Field(bool, False),
    "out_dir": Field(str, "."),
    # distribution2 is read by the distribution rows
    "distribution": Field(dict),
    "distribution2": Field(dict),
    "distribution.type": Field(str, REQUIRED, one_of(*_DISTRIBUTIONS)),
    "distribution.gamma": Field(float, REQUIRED, GAMMA),
    "distribution.k_min": Field(int, 1, DEGREE),
    "distribution.k_max": Field(int, REQUIRED, DEGREE),
    "distribution.weights": Field(list, REQUIRED, WEIGHTS),
    "treatment": Field(dict),
    "treatment.initial_coverage": Field(float, 0.0, UNIT),
    "treatment.epochs": Field(list, REQUIRED, NUMBERS),
    "treatment.coverages": Field(list, REQUIRED, COVERAGES),
    "abm": Field(dict, {}),
    "abm.n": Field(int, None, NODES),
    "abm.replicas": Field(int, 100, REPLICAS),
    "abm.seed": Field(int, 0, SEED),
    "compare": Field(dict, {}),
    "compare.band_sigmas": Field(float, 3.0, BAND_SIGMAS),
    "sensitivity": Field(dict),
    "sensitivity.ranges": Field(dict, REQUIRED, PARAMETERS),
    "sensitivity.n_base": Field(int, 512, N_BASE),
    "sensitivity.seed": Field(int, 0, SEED),
    "sensitivity.output": Field(str, "incidence", OUTPUTS),
    "phase": Field(dict),
    "phase.m": Field(int, REQUIRED),
    "phase.n": Field(int, REQUIRED),
    "phase.variant": Field(str, "infected", VARIANTS),
    "phase.population": Field(int, 1, POPULATIONS),
    "fit": Field(dict),
    "fit.free": Field(dict, REQUIRED, PARAMETERS),
    "fit.initial": Field(dict, REQUIRED),
    "fit.observed": Field(list),
    "fit.observed_csv": Field(str),
    "fit.output": Field(str, "incidence", OUTPUTS),
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
# with the domain of its row
_DOMAINS = {path.rpartition(".")[2]: FIELDS[path].domain for path in (
    "lambda", "mu", "rho0", "d", "lambda2", "treatment_efficacy", "distribution.gamma")}
TUNABLE = tuple(_DOMAINS)
# what a value of each kind of row must be when the row declares no domain;
# a free string is a file path, which holds no NUL character
_KINDS = {int: INTEGER, bool: Domain(lambda v: isinstance(v, bool), "true or false"),
          str: Domain(lambda v: isinstance(v, str) and "\x00" not in v,
                      "a string without a NUL character"),
          list: Domain(lambda v: isinstance(v, list), "a list"),
          dict: Domain(lambda v: isinstance(v, dict), "an object")}
_OBSERVED = Domain(lambda v: len(v) > 0 and all(
    isinstance(p, list) and len(p) == 2 and all(map(is_number, p)) for p in v),
    "a nonempty list of [t, value] pairs of finite numbers")


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
    check(full, value, field.domain or _KINDS[field.kind], config=True)
    if field.kind is float and not isinstance(value, str):   # split's "hazard" stays
        return float(value)
    if field.kind is list and field.domain:
        return [float(v) for v in value]
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


def build_distribution(spec_dict, path="distribution") -> DegreeDistribution:
    """The distribution of the config section at ``path``; a power law whose
    support is too large to allocate is a ConfigError naming path.k_max."""
    if spec_dict["type"] == "power_law":
        try:
            return truncated_power_law(spec_dict["gamma"], spec_dict["k_min"],
                                       spec_dict["k_max"])
        except DomainError as err:
            if err.field != "k_max":
                raise
            raise ConfigError(f"{path}.k_max", str(err)) from None
    return from_weights(spec_dict["k_min"], spec_dict["weights"])


def _bounds_map(obj, path, config):
    """Parameter ranges inside each parameter's domain, for parameters the
    model uses as configured."""
    out = {}
    for name, pair in obj.items():
        full = f"{path}.{name}"
        reason = _fixed_reason(name, config)
        if reason:
            raise ConfigError(full, reason)
        for bound in check(full, pair, RANGE, config=True):
            check(full, bound, _DOMAINS[name], config=True)
        out[name] = (float(pair[0]), float(pair[1]))
    return out


def _fixed_reason(name, config):
    """Why the model as configured cannot vary the parameter ``name``, or
    None when it can: a TUNABLE one it uses as configured."""
    model = config["model"]
    if name not in _DOMAINS:
        return f"unknown parameter; expected one of {TUNABLE}"
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

    for name in ("distribution", "distribution2"):
        dist = config.get(name, {})
        if "k_max" in dist and dist["k_max"] < dist["k_min"]:
            raise ConfigError(f"{name}.k_max", f"below k_min {dist['k_min']}")

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
        path = "distribution2" if population == 2 and "distribution2" in config else "distribution"
        chosen = build_distribution(config[path], path) if "distribution" in config else None
        degrees = support(chosen.k_min, chosen.k_max) if chosen else support(1, 1)
        for key in ("m", "n"):
            check(f"phase.{key}", phase[key], degrees, config=True)

    if "fit" in config:
        fit = config["fit"]
        free = fit["free"] = _bounds_map(fit["free"], "fit.free", config)
        initial = {name: _value(fit["initial"], "fit.initial", name,
                                Field(float, REQUIRED, Interval(*free[name])))
                   for name in free}
        for name in fit["initial"]:
            if name not in free:
                raise ConfigError(f"fit.initial.{name}", "no matching free parameter")
        fit["initial"] = initial
        if ("observed" in fit) == ("observed_csv" in fit):
            raise ConfigError("fit.observed", "provide exactly one of observed, observed_csv")
        if "observed" in fit:
            observed = check("fit.observed", fit["observed"], _OBSERVED, config=True)
            fit["observed"] = [[float(v) for v in p] for p in observed]

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
    configured, each in its domain, by the same rules as
    ``sensitivity.ranges`` and ``fit.free``; any other override is a
    DomainError naming it.
    """
    config = spec.config   # read directly: a spec attribute goes through the slower __getattr__
    check_kind("overrides", overrides, Mapping, optional=True)
    overrides = dict(overrides or {})
    for name, value in overrides.items():
        reason = _fixed_reason(name, config)
        if reason:
            raise DomainError(f"override {name!r}: {reason}")
        if value not in _DOMAINS[name]:   # the name is formatted only for the error
            check(f"override {name!r}", value, _DOMAINS[name])
    dist_dict, dist2_dict = config.get("distribution"), config.get("distribution2")
    if "gamma" in overrides:
        dist_dict = {**dist_dict, "gamma": overrides.pop("gamma")}
    params = replace(spec.params, **{_PARAM_NAMES[k]: float(v) for k, v in overrides.items()})
    dist = build_distribution(dist_dict) if dist_dict else None
    dist2 = build_distribution(dist2_dict, "distribution2") if dist2_dict else None
    return build_model(config["model"], params, dist=dist, dist2=dist2)


def run_trajectory(spec: SimulationSpec, overrides: dict | None = None):
    """Integrate the configured model and return its Trajectory."""
    config = spec.config
    return integrate(build_spec_model(spec, overrides), config["t_span"], config["dt"],
                     config["method"], schedule=spec.treatment)
