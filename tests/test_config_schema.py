"""The config layer's schema walker against jsonschema as an oracle.

jsonschema is a test dependency only: the walker must accept exactly what a
Draft 7 validator with an int-only "integer" accepts, and name the error that
jsonschema.exceptions.best_match picks, in the same words.
"""

import copy
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdrive.config as config
from cdrive.cli import main

SCHEMAS = {"config": config.CONFIG_SCHEMA, "report": config.REPORT_SCHEMA}


def _oracle(schema):
    cls = jsonschema.Draft7Validator
    integer = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return jsonschema.validators.extend(cls, type_checker=integer)(schema)


ORACLES = {name: _oracle(schema) for name, schema in SCHEMAS.items()}


def _keywords(schema: dict) -> set:
    """Every keyword the schema uses, in every subschema."""
    found = set(schema)
    for key in ("properties", "definitions"):
        for sub in schema.get(key, {}).values():
            found |= _keywords(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            found |= _keywords(schema[key])
    return found


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_shipped_schemas_are_valid_and_walkable(name):
    jsonschema.Draft7Validator.check_schema(SCHEMAS[name])
    assert _keywords(SCHEMAS[name]) <= config._KEYWORDS


@pytest.mark.parametrize("schema", [
    {"type": "array", "maxItems": 1},
    {"$ref": "#/properties/a"},
])
def test_walker_raises_on_what_it_does_not_know(schema):
    with pytest.raises((NotImplementedError, KeyError)):
        config._schema_error([1.0, 2.0], {**schema, "definitions": {}})


def _valid_configs() -> dict:
    """A valid config of each kind with its defaults injected, holding every
    optional section the kind takes."""
    quartic = {"kind": "power_law", "b": 4, "epsilon": 1.5, "mass": 2.0}
    ramp = {"shape": "linear", "lam_start": 1.0, "lam_end": 1.4, "duration": 0.5}
    common = {"numerics": {"dt": 1e-2, "n_points": 128}, "assertions": {"omega_drift": 1e-3},
              "snapshots": [0.0, 0.25], "shells": [1.0, 2.0],
              "sweep": {"axis": "T", "values": [0.5, 1.0]}, "out_dir": "o"}
    kinds = {
        "classical_trajectory": {"system": quartic, "schedule": ramp,
                                 "initial": {"energy": 1.0}},
        "classical_ensemble": {"system": {"kind": "box"},
                               "schedule": {"shape": "hold", "value": 1.5, "duration": 0.5},
                               "initial": {"gas_momentum": 2.0, "momentum_law": "gaussian"}},
        "quantum_grid": {"system": quartic, "initial": {"level": 1}, "schedule": {
            "shape": "tabulated", "times": [0.0, 0.25, 0.5], "values": [1.0, 1.2, 1.4],
            "rates": [0.8, 0.8, 0.8]}},
        "quantum_basis": {"system": {"kind": "box", "mass": 2.0}, "schedule": ramp},
        "generator_check": {"system": quartic, "schedule": ramp},
    }
    return {kind: config.config_from_dict({"kind": kind, **cfg, **common}).raw
            for kind, cfg in kinds.items()}


def _real_reports(out) -> dict:
    """report.json of a run, a compare and a sweep, with and without --verify."""
    sched = {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0, "duration": 0.05}
    gas = {"kind": "classical_ensemble", "system": {"kind": "box"}, "schedule": sched,
           "initial": {"gas_momentum": 25.0}, "numerics": {"n_particles": 50},
           "snapshots": [0.0, 0.025, 0.05], "assertions": {"ks_gap": 0.1}}
    runs = {
        "trajectory": ({"kind": "classical_trajectory", "system": {"kind": "box"},
                        "schedule": sched, "initial": {"energy": 2.0},
                        "assertions": {"omega_drift": 1e-7}}, ["run"]),
        "gas": (gas, ["compare", "--verify"]),
        "basis": ({"kind": "quantum_basis", "system": {"kind": "box"}, "schedule": sched,
                   "numerics": {"n_levels": 8, "dt": 1e-3}}, ["compare", "--verify"]),
        "sweep": ({**gas, "assertions": {"dissipation_on_max": 1.0}},
                  ["sweep", "--values", "0.05,0.5"]),
        "check": ({"kind": "generator_check", "system": {"kind": "power_law", "b": 4},
                   "schedule": sched, "shells": [1.0, 2.0]}, ["run"]),
    }
    reports = {}
    for name, (cfg, argv) in runs.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main([argv[0], str(path), "--out", str(out / name), *argv[1:]]) in (0, 1)
        reports[name] = json.loads((out / name / "report.json").read_text())
    return reports


# stand-ins for a node: wrong types, bools, numbers on and past every bound,
# unknown strings, short and odd arrays, objects
_VALUES = [None, True, False, 0, 1, -1, 63, 99, 0.0, -0.0, -2.5, 0.5, 128.0, 10**6,
           "", "x", "box", "T", "cdrive-report-v1", [], [0.5], [-1.0, 2.0], ["x"],
           {}, {"bogus": 1}, {"time": 0.0}]
_EXTRA_KEYS = ["bogus", "a", "zz", "0", "kind", "omega_drift"]


def _locations(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _locations(value, (*path, key))


@st.composite
def _mutated(draw, docs):
    """A seed document with one to four mutations: a node replaced, a key or
    an item removed, keys added, or an array cut short."""
    family, name = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[family, name])
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_locations(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        op = draw(st.sampled_from(["replace", "delete", "extra", "shorten"]))
        if op == "delete":
            del parent[path[-1]]
        elif op == "extra" and isinstance(node, dict):
            for key in draw(st.lists(st.sampled_from(_EXTRA_KEYS), min_size=1, max_size=3)):
                node[key] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        elif op == "shorten" and isinstance(node, list) and node:
            del node[draw(st.integers(0, len(node) - 1)):]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    return family, doc


def _exercised(error, schema: dict) -> set:
    """The error's keyword and each "<keyword> descent" that led to it."""
    found = {error.validator}
    node = schema
    for key in list(error.relative_schema_path)[:-1]:
        if "$ref" in node:
            found.add("$ref descent")
            node = schema["definitions"][node["$ref"].removeprefix("#/definitions/")]
        if key in ("properties", "items", "additionalProperties"):
            found.add(f"{key} descent")
        node = node[key]
    return found


def test_walker_agrees_with_jsonschema(tmp_path):
    docs = {("config", kind): doc for kind, doc in _valid_configs().items()}
    docs.update({("report", name): rep for name, rep in _real_reports(tmp_path).items()})
    for (family, _), doc in docs.items():
        assert config._schema_error(doc, SCHEMAS[family]) is None
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_mutated(docs))
    def agree(case):
        family, doc = case
        errors = list(ORACLES[family].iter_errors(doc))
        got = config._schema_error(doc, SCHEMAS[family])
        if not errors:
            assert got is None
            seen.add("a valid mutant")
            return
        want = jsonschema.exceptions.best_match(errors)
        path = "/".join(str(p) for p in want.absolute_path) or "<root>"
        assert got == f"{path}: {want.message}"
        for error in errors:
            seen.update(_exercised(error, SCHEMAS[family]))

    agree()
    assert seen >= {"type", "enum", "const", "minimum", "exclusiveMinimum", "minItems",
                    "required", "additionalProperties", "properties descent",
                    "items descent", "additionalProperties descent", "$ref descent",
                    "a valid mutant"}
