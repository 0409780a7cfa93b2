"""Experiment configuration: JSON documents in, validated objects out.

The shipped config schema is the single source of numeric defaults; the
loader injects them before validation so every report records the numbers a
run actually used.  All validation failures surface as ConfigError, which
the CLI maps to exit code 2.
"""

import copy
import json
import math
import numbers
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from .errors import ConfigError, DomainError, NumericalError
from .schedules import (
    BUILTIN_SHAPES,
    Schedule,
    check_rate_consistency,
    constant_hold,
    tabulated,
)
from .systems import SystemModel, box, power_law

KINDS = (
    "classical_trajectory",
    "classical_ensemble",
    "quantum_grid",
    "quantum_basis",
    "generator_check",
)


def _load_schema(name: str) -> dict:
    text = resources.files("cdrive.schemas").joinpath(name).read_text()
    return json.loads(text)


CONFIG_SCHEMA = _load_schema("config-v1.json")
REPORT_SCHEMA = _load_schema("report-v1.json")

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": numbers.Number, "integer": int}
# the Draft 7 keywords _schema_errors knows, annotations included
_KEYWORDS = {"type", "enum", "const", "minimum", "exclusiveMinimum", "minItems", "items",
             "required", "properties", "additionalProperties", "$ref",
             "title", "description", "default", "$schema", "$id", "definitions"}


def _is(instance, name: str) -> bool:
    """A bool is no number.  "integer" is an int, so an integral float such as
    128.0, which jsonschema would accept, cannot reach an engine as a count."""
    return isinstance(instance, _TYPES[name]) and not (
        isinstance(instance, bool) and name in ("number", "integer"))


def _schema_errors(instance, schema: dict, root: dict, path: tuple = ()):
    """(path, message) for each way instance breaks the Draft 7 schema, in
    jsonschema 4's order and words.  Only the keywords the shipped schemas
    use are known; any other raises."""
    if "$ref" in schema:  # Draft 7 ignores the siblings of a $ref
        name = schema["$ref"].removeprefix("#/definitions/")
        yield from _schema_errors(instance, root["definitions"][name], root, path)
        return
    is_object = isinstance(instance, dict)
    for key, value in schema.items():
        if key == "type":
            types = value if isinstance(value, list) else [value]
            if not any(_is(instance, t) for t in types):
                yield path, f"{instance!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum" and instance not in value:
            yield path, f"{instance!r} is not one of {value!r}"
        elif key == "const" and instance != value:
            yield path, f"{value!r} was expected"
        elif key in ("minimum", "exclusiveMinimum"):
            exclusive = key == "exclusiveMinimum"
            if _is(instance, "number") and (instance <= value if exclusive else instance < value):
                yield path, (f"{instance!r} is less than {'or equal to ' * exclusive}"
                             f"the minimum of {value!r}")
        elif key == "minItems" and isinstance(instance, list) and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1 else "is too short")
        elif key == "items" and isinstance(instance, list):
            for i, item in enumerate(instance):
                yield from _schema_errors(item, value, root, (*path, i))
        elif key == "required" and is_object:
            yield from ((path, f"{n!r} is a required property") for n in value if n not in instance)
        elif key == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _schema_errors(instance[name], sub, root, (*path, name))
        elif key == "additionalProperties" and is_object:
            extras = [name for name in instance if name not in schema.get("properties", {})]
            if isinstance(value, dict):
                for name in extras:
                    yield from _schema_errors(instance[name], value, root, (*path, name))
            elif not value and extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key not in _KEYWORDS:
            raise NotImplementedError(f"schema keyword {key!r} is not supported")


def _schema_error(instance, schema: dict) -> Optional[str]:
    """"<path>: <message>" of the error jsonschema.exceptions.best_match picks,
    or None: the shallowest, then the greatest path, then the first found."""
    error = max(_schema_errors(instance, schema, schema),
                key=lambda e: (-len(e[0]), e[0]), default=None)
    return error and f"{'/'.join(map(str, error[0])) or '<root>'}: {error[1]}"


def _inject_defaults(obj: dict, schema: dict) -> None:
    for key, sub in schema.get("properties", {}).items():
        if "default" in sub and key not in obj:
            obj[key] = copy.deepcopy(sub["default"])
        if key in obj and isinstance(obj[key], dict) and "properties" in sub:
            _inject_defaults(obj[key], sub)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: built objects plus the raw document."""

    kind: str
    system: SystemModel
    schedule: Schedule
    cd_enabled: bool
    seed: int
    generator: str
    initial: dict
    shells: tuple
    snapshots: Optional[tuple]
    numerics: dict
    assertions: dict
    sweep_axis: str
    sweep_values: tuple
    out_dir: Optional[str]
    raw: dict

    def with_updates(self, **top_level) -> "ExperimentConfig":
        """Rebuild from the raw document with top-level keys replaced."""
        data = copy.deepcopy(self.raw)
        data.update(top_level)
        return config_from_dict(data)

    def with_duration(self, T: float) -> "ExperimentConfig":
        data = copy.deepcopy(self.raw)
        sched = data["schedule"]
        if sched["shape"] not in BUILTIN_SHAPES and sched["shape"] != "hold":
            raise ConfigError(
                "sweeping over T needs a closed-form schedule shape, "
                f"not {sched['shape']!r}"
            )
        sched["duration"] = float(T)
        if "snapshots" in data:
            del data["snapshots"]
        return config_from_dict(data)


def _build_system(spec: dict) -> SystemModel:
    if spec["kind"] == "box":
        if "b" in spec or "epsilon" in spec:
            raise ConfigError("box systems take no b or epsilon")
        return box(mass=spec.get("mass", 1.0))
    if "b" not in spec:
        raise ConfigError("power_law systems need the exponent b")
    return power_law(spec["b"], epsilon=spec.get("epsilon", 1.0),
                     mass=spec.get("mass", 1.0))


def _require(spec: dict, keys, shape: str) -> None:
    missing = [k for k in keys if k not in spec]
    if missing:
        raise ConfigError(f"{shape!r} schedule needs {', '.join(missing)}")


def _build_schedule(spec: dict) -> Schedule:
    shape = spec["shape"]
    if shape in BUILTIN_SHAPES:
        _require(spec, ("lam_start", "lam_end", "duration"), shape)
        return BUILTIN_SHAPES[shape](spec["lam_start"], spec["lam_end"],
                                     spec["duration"])
    if shape == "hold":
        _require(spec, ("value", "duration"), shape)
        return constant_hold(spec["value"], spec["duration"])
    # tabulated: the spline is the schedule; a rates column is only checked
    # against the spline's slope, never used
    _require(spec, ("times", "values"), shape)
    sched = tabulated(spec["times"], spec["values"])
    if "rates" in spec:
        from scipy.interpolate import make_interp_spline

        if len(spec["rates"]) != len(spec["times"]):
            raise ConfigError("times, values, and rates must have matching lengths")
        column = make_interp_spline(spec["times"], spec["rates"], k=1)
        check_rate_consistency(replace(sched, rate=column), rtol=1e-2)
    return sched


def _check_kind_inputs(data: dict, system: SystemModel, schedule: Schedule) -> None:
    kind = data["kind"]
    initial = data["initial"]
    if kind in ("classical_trajectory", "classical_ensemble"):
        has_shell = "energy" in initial
        has_gas = "gas_momentum" in initial
        if kind == "classical_trajectory" and not has_shell:
            raise ConfigError("classical_trajectory needs initial.energy")
        if kind == "classical_ensemble" and not (has_shell or has_gas):
            raise ConfigError(
                "classical_ensemble needs initial.energy or initial.gas_momentum"
            )
        if has_shell and has_gas:
            raise ConfigError("give initial.energy or initial.gas_momentum, not both")
        if has_gas and system.kind != "box":
            raise ConfigError("gas initial conditions need the box")
    if kind == "quantum_grid" and system.kind != "power_law":
        raise ConfigError("quantum_grid drives smooth wells; use quantum_basis for the box")
    if kind == "quantum_basis":
        if system.kind != "box":
            raise ConfigError("quantum_basis is the box eigenbasis path")
        if initial.get("level", 0) >= data["numerics"]["n_levels"]:
            raise ConfigError("initial.level must lie below n_levels")
    if kind == "generator_check" and not data.get("shells"):
        raise ConfigError("generator_check needs a nonempty shells list")
    if data["generator"] == "numeric" and system.kind == "box":
        raise ConfigError("numeric generators are for smooth wells; "
                          "the box generator is analytic")
    snapshots = data.get("snapshots")
    if snapshots is not None:
        if any(t < 0 or t > schedule.duration for t in snapshots):
            raise ConfigError("snapshot times must lie within the schedule window")


def _check_finite(obj, path: str = "") -> None:
    """ConfigError naming the first non-finite number in obj.  NaN passes every
    schema bound, since each comparison with it is false, and inf passes a
    lower bound."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        where = f"{path}/{key}" if path else str(key)
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
            if not math.isfinite(value):
                raise ConfigError(f"invalid config at {where}: config numbers must be "
                                  f"finite, got {value}")
        else:
            _check_finite(value, where)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = copy.deepcopy(data)
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    _check_finite(data)
    _inject_defaults(data, CONFIG_SCHEMA)
    error = _schema_error(data, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"invalid config at {error}")
    try:
        system = _build_system(data["system"])
        schedule = _build_schedule(data["schedule"])
        _check_kind_inputs(data, system, schedule)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = data.get("sweep", {})
    return ExperimentConfig(
        kind=data["kind"],
        system=system,
        schedule=schedule,
        cd_enabled=data["cd_enabled"],
        seed=data["seed"],
        generator=data["generator"],
        initial=data["initial"],
        shells=tuple(data.get("shells", ())),
        snapshots=tuple(data["snapshots"]) if "snapshots" in data else None,
        numerics=data["numerics"],
        assertions=data["assertions"],
        sweep_axis=sweep.get("axis", "T"),
        sweep_values=tuple(sweep.get("values", ())),
        out_dir=data.get("out_dir"),
        raw=data,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def validate_report(report: dict) -> None:
    """Self-check an emitted report against the shipped schema; a report that
    breaks it is a NumericalError, which the CLI maps to exit code 3."""
    error = _schema_error(report, REPORT_SCHEMA)
    if error is not None:
        raise NumericalError(f"report breaks cdrive-report-v1 at {error}")
