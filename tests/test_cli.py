"""End-to-end tests of the batch front end.

Exit-code contract: 0 assertions pass, 1 assertion failed after a completed
run, 2 config error, 3 numerical failure with an error.json diagnostic.
"""

import copy
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import cdrive.cli as cli
import cdrive.config as config
from cdrive._csv import write_csv
from cdrive.cli import main
from cdrive.errors import ConfigError, NumericalError


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def box_expansion(**extra):
    cfg = {
        "kind": "classical_trajectory",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.05},
        "initial": {"energy": 2.0},
        "assertions": {"omega_drift": 1e-7},
    }
    cfg.update(extra)
    return cfg


def load_report(out):
    return json.loads((out / "report.json").read_text())


def test_run_cd_on_passes(tmp_path):
    p = write_config(tmp_path, "c.json", box_expansion())
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["passed"] is True
    assert rep["metrics"]["omega_drift"] < 1e-7
    assert rep["numerics"]["dt"] is not None  # resolved value, not the null default
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,q,p,H0,omega"


@pytest.mark.parametrize("mode, extra", [
    ("run", []), ("compare", []), ("sweep", ["--values", "0.05,0.1"]),
])
def test_trajectory_report_states_the_record_every_it_ran_with(tmp_path, mode, extra):
    # trajectory.csv holds every accepted step, whatever the config asks for
    cfg = box_expansion(numerics={"record_every": 10}, assertions={})
    out = tmp_path / "out"
    assert main([mode, write_config(tmp_path, "c.json", cfg), "--out", str(out), *extra]) == 0
    rep = load_report(out)
    assert rep["numerics"]["record_every"] == 1
    if mode == "run":
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == round(0.05 / rep["numerics"]["dt"]) + 1


_QUARTIC_RAMP = {"system": {"kind": "power_law", "b": 4},
                 "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 1.3,
                              "duration": 0.1}}


@pytest.mark.parametrize("cfg, record_every", [
    (box_expansion(kind="classical_ensemble", initial={"gas_momentum": 25.0},
                   numerics={"n_particles": 50}, assertions={}), None),
    ({"kind": "generator_check", **_QUARTIC_RAMP, "shells": [1.0]}, None),
    ({"kind": "quantum_grid", **_QUARTIC_RAMP,
      "numerics": {"n_points": 128, "dt": 1e-2, "record_every": 5}}, 5),
    (box_expansion(kind="quantum_basis", initial={},
                   numerics={"n_levels": 8, "dt": 1e-3, "record_every": 5}, assertions={}), 5),
], ids=["gas", "generator_check", "grid", "basis"])
def test_report_record_every_is_what_the_kind_used(tmp_path, cfg, record_every):
    # ensembles and generator checks record nothing at a step interval, so
    # their reports hold null rather than the config's default; trajectories
    # are the test above
    out = tmp_path / "out"
    assert main(["compare", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    assert load_report(out)["numerics"]["record_every"] == record_every


def test_run_report_matches_shipped_schema(tmp_path):
    p = write_config(tmp_path, "c.json", box_expansion())
    out = tmp_path / "out"
    main(["run", p, "--out", str(out)])
    schema = json.loads(
        resources.files("cdrive.schemas").joinpath("report-v1.json").read_text()
    )
    rep = load_report(out)
    jsonschema.validate(rep, schema)
    assert rep["schema_version"] == "cdrive-report-v1"


def test_run_bare_fails_assertion(tmp_path):
    p = write_config(tmp_path, "c.json", box_expansion(cd_enabled=False))
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 1
    rep = load_report(out)  # run completed, report still written
    assert rep["passed"] is False
    assert rep["metrics"]["omega_drift"] > 1e-2
    row = rep["assertions"][0]
    assert row["name"] == "omega_drift" and row["passed"] is False


def test_run_seed_override_controls_csv_bytes(tmp_path):
    p = write_config(tmp_path, "c.json", box_expansion())
    outs = [tmp_path / f"o{i}" for i in range(3)]
    main(["run", p, "--out", str(outs[0]), "--seed", "7"])
    main(["run", p, "--out", str(outs[1]), "--seed", "7"])
    main(["run", p, "--out", str(outs[2]), "--seed", "8"])
    a, b, c = [(o / "trajectory.csv").read_bytes() for o in outs]
    assert a == b
    assert a != c


def test_inconsistent_rates_rejected(tmp_path):
    cfg = box_expansion()
    cfg["schedule"] = {"shape": "tabulated", "times": [0.0, 0.5, 1.0],
                       "values": [1.0, 1.5, 2.0], "rates": [0.0, 0.0, 0.0]}
    p = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_consistent_rates_accepted(tmp_path):
    ts = np.linspace(0.0, 0.5, 41)
    cfg = box_expansion()
    cfg["schedule"] = {"shape": "tabulated", "times": list(ts),
                       "values": list(1.0 + 2.0 * ts), "rates": [2.0] * 41}
    p = write_config(tmp_path, "c.json", cfg)
    assert main(["run", p, "--out", str(tmp_path / "out")]) == 0


def test_rates_column_is_checked_not_used(tmp_path):
    # lam = 1 + t^2 on 81 knots with exact rates 2t: the schedule is the
    # spline through the values, with or without the column
    ts = np.linspace(0.0, 1.0, 81)
    spec = {"shape": "tabulated", "times": ts.tolist(), "values": (1.0 + ts**2).tolist()}
    plain = config.config_from_dict(box_expansion(schedule=spec)).schedule
    ruled = config.config_from_dict(
        box_expansion(schedule={**spec, "rates": (2.0 * ts).tolist()})).schedule
    probe = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_array_equal(ruled.value(probe), plain.value(probe))
    np.testing.assert_array_equal(ruled.rate(probe), plain.rate(probe))
    # the rate is the derivative of the value (a piecewise-linear value
    # with the column as its rate misses by 0.0125)
    t, h = probe[1:-1], 1e-6
    fd = (ruled.value(t + h) - ruled.value(t - h)) / (2.0 * h)
    assert np.max(np.abs(ruled.rate(t) - fd)) < 1e-8

    for i, rates in enumerate([(2.04 * ts).tolist(), (2.0 * ts[:-1]).tolist()]):
        p = write_config(tmp_path, f"c{i}.json", box_expansion(schedule={**spec, "rates": rates}))
        assert main(["run", p, "--out", str(tmp_path / f"o{i}")]) == 2


def test_config_rejections(tmp_path):
    bad = box_expansion()
    bad["bogus"] = 1
    assert main(["run", write_config(tmp_path, "a.json", bad),
                 "--out", str(tmp_path / "o1")]) == 2

    bad = box_expansion(assertions={"no_such_metric": 1.0})
    assert main(["run", write_config(tmp_path, "b.json", bad),
                 "--out", str(tmp_path / "o2")]) == 2

    bad = box_expansion(initial={})  # trajectory kind needs a shell energy
    assert main(["run", write_config(tmp_path, "d.json", bad),
                 "--out", str(tmp_path / "o3")]) == 2

    assert main(["run", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o4")]) == 2


@pytest.mark.parametrize("change", [
    {"bogus": 1},
    {"kind": "quantum_wave"},
    {"schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                  "duration": -1.0}},
    {"numerics": {"n_particles": 0}},
    {"seed": -3},
    {"initial": {"energy": "high"}},
    {"system": {"kind": "box", "mass": 0}},
])
def test_config_errors_match_schema_validation(change):
    # the cached validator must raise what jsonschema.validate raised
    data = {**box_expansion(), **change}
    doc = copy.deepcopy(data)
    config._inject_defaults(doc, config.CONFIG_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, config.CONFIG_SCHEMA)
    path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        config.config_from_dict(data)
    assert str(got.value) == f"invalid config at {path}: {want.value.message}"


def test_config_error_message_is_unchanged():
    with pytest.raises(ConfigError) as got:
        config.config_from_dict({**box_expansion(), "bogus": 1})
    assert str(got.value) == (
        "invalid config at <root>: Additional properties are not allowed "
        "('bogus' was unexpected)")


@pytest.mark.parametrize("section, key, value", [
    ("numerics", "n_points", 128.0),
    ("numerics", "record_every", 5.0),
    ("system", "b", 4.0),
])
def test_integral_float_count_is_config_error(tmp_path, capsys, section, key, value):
    # jsonschema alone counts 128.0 as an integer; the config layer does not
    cfg = {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 4},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.1},
        "numerics": {"n_points": 128, "dt": 1e-2},
    }
    cfg[section][key] = value
    p = write_config(tmp_path, "c.json", cfg)
    assert main(["run", p, "--out", str(tmp_path / "out")]) == 2
    assert (f"invalid config at {section}/{key}: {value} is not of type 'integer'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value, literal", [
    ("gas_momentum", float("nan"), "NaN"),
    ("gas_momentum", float("inf"), "Infinity"),
    ("energy", float("inf"), "Infinity"),
    ("energy", float("-inf"), "-Infinity"),
])
def test_non_finite_number_is_config_error_before_any_run(tmp_path, capsys, key, value,
                                                          literal):
    # json reads NaN and Infinity as floats that pass exclusiveMinimum: 0
    cfg = {"kind": "classical_ensemble", "system": {"kind": "box"},
           "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                        "duration": 0.05},
           "initial": {key: value}, "numerics": {"n_particles": 50}}
    p = write_config(tmp_path, "c.json", cfg)
    assert literal in (tmp_path / "c.json").read_text()
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 2
    assert f"config numbers must be finite, got {value}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_report_validation_matches_schema_validation(tmp_path):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "c.json", box_expansion()),
                 "--out", str(out)]) == 0
    report = load_report(out)
    config.validate_report(report)
    for bad in ({**report, "mode": "bogus"}, {**report, "extra": 1},
                {k: v for k, v in report.items() if k != "metrics"}):
        # jsonschema.validate raises the error best_match picks
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, config.REPORT_SCHEMA)
        path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
        with pytest.raises(NumericalError) as got:
            config.validate_report(bad)
        assert str(got.value) == (
            f"report breaks cdrive-report-v1 at {path}: {want.value.message}")


def test_overflowing_number_literal_is_config_error(tmp_path, capsys):
    # json reads 1e999 as inf without calling parse_constant
    p = tmp_path / "c.json"
    p.write_text(json.dumps(box_expansion()).replace('"energy": 2.0', '"energy": 1e999'))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert ("invalid config at initial/energy: config numbers must be finite, got inf"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _number_field_configs():
    """One valid config of each kind that holds every number field the kind
    takes; hold and tabulated schedules stand in for the ramps on two kinds."""
    quartic = {"kind": "power_law", "b": 4, "epsilon": 1.5, "mass": 2.0}
    ramp = {"shape": "linear", "lam_start": 1.0, "lam_end": 1.4, "duration": 0.5}
    common = {"numerics": {"dt": 1e-2, "tol": 1e-8, "e_max": 30.0, "hbar": 1.0},
              "assertions": {"omega_drift": 1e-3}, "snapshots": [0.0, 0.25],
              "shells": [1.0, 2.0], "sweep": {"axis": "T", "values": [0.5, 1.0]}}
    return {
        "classical_trajectory": {"system": quartic, "schedule": ramp,
                                 "initial": {"energy": 1.0}, **common},
        "classical_ensemble": {"system": {"kind": "box", "mass": 2.0},
                               "schedule": {"shape": "hold", "value": 1.5, "duration": 0.5},
                               "initial": {"gas_momentum": 2.0}, **common},
        "quantum_grid": {"system": quartic, "schedule": {
            "shape": "tabulated", "times": [0.0, 0.25, 0.5], "values": [1.0, 1.2, 1.4],
            "rates": [0.8, 0.8, 0.8]}, **common},
        "quantum_basis": {"system": {"kind": "box", "mass": 2.0}, "schedule": ramp, **common},
        "generator_check": {"system": quartic, "schedule": ramp,
                            "initial": {"energy": 1.0}, **common},
    }


def _number_fields(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _number_fields(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _number_fields(value, (*path, i))
    elif isinstance(obj, float):
        yield path


def _non_finite_cases():
    for kind, cfg in _number_field_configs().items():
        for path in _number_fields(cfg):
            for value in (float("nan"), float("inf"), float("-inf")):
                where = "/".join(map(str, path))
                yield pytest.param(kind, path, value, id=f"{kind}-{where}-{value}")


@pytest.mark.parametrize("kind, path, value", _non_finite_cases())
def test_config_from_dict_rejects_non_finite_numbers(kind, path, value):
    # the API path parses no JSON, so it sees the floats themselves: NaN
    # passes every schema bound and inf every lower bound
    data = {"kind": kind, **copy.deepcopy(_number_field_configs()[kind])}
    assert config.config_from_dict(data).kind == kind
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    where = "/".join(map(str, path))
    with pytest.raises(ConfigError, match=(
            f"^invalid config at {where}: config numbers must be finite, got {value}$")):
        config.config_from_dict(data)


_BOX_RUNS = """
import json, sys
from pathlib import Path
import cdrive.cli as cli
watched = set(sys.argv[2].split(","))
on_import = sorted(m for m in sys.modules if m.split(".")[0] in watched)
out = Path(sys.argv[1])
sched = {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0, "duration": 0.05}
gas = {"kind": "classical_ensemble", "system": {"kind": "box"}, "schedule": sched,
       "initial": {"gas_momentum": 25.0}, "numerics": {"n_particles": 50},
       "snapshots": [0.0, 0.025, 0.05]}
basis = {"kind": "quantum_basis", "system": {"kind": "box"}, "schedule": sched,
         "numerics": {"n_levels": 8, "dt": 1e-3}}
check = {"kind": "generator_check", "system": {"kind": "box"}, "schedule": sched,
         "shells": [1.0, 2.0]}
trajectory = {"kind": "classical_trajectory", "system": {"kind": "box"}, "schedule": sched,
              "initial": {"energy": 5000.0}, "numerics": {"dt": 1e-4}}
for name, cfg, argv in (("gas", gas, ["compare", "--verify"]),
                        ("basis", basis, ["compare", "--verify"]),
                        ("trajectory", trajectory, ["compare", "--verify"]),
                        ("sweep", gas, ["sweep", "--values", "0.05,0.5"]),
                        ("check", check, ["run", "--verify"])):
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([argv[0], str(path), "--out", str(out / name), *argv[1:]])
    assert code in (0, 1), (name, code)
print(json.dumps([on_import, sorted(m for m in sys.modules if m.split(".")[0] in watched)]))
"""


def _box_runs_load(tmp_path, watched: str) -> tuple[list, list]:
    """The modules of the watched packages loaded on importing the CLI, and
    after the box runs of _BOX_RUNS."""
    proc = subprocess.run([sys.executable, "-c", _BOX_RUNS, str(tmp_path), watched],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("gas/on", "gas/off", "basis/on", "basis/off", "trajectory/on",
                 "trajectory/off", "sweep", "check"):
        assert (tmp_path / name).is_dir()
    return json.loads(proc.stdout)


def test_box_runs_leave_out_unused_scipy_subpackages(tmp_path):
    # the box engines and the box spectrum are closed-form: importing the CLI,
    # then a gas, a basis and a trajectory compare (all with --verify), a gas
    # sweep and a generator check load no scipy module at all
    assert _box_runs_load(tmp_path, "scipy") == [[], []]


def test_box_runs_load_no_schema_validator(tmp_path):
    # the config layer walks its schemas itself: jsonschema and what it
    # imports load neither with the CLI nor in the box runs
    assert _box_runs_load(tmp_path, "jsonschema,referencing,attrs,attr,rpds") == [[], []]


_POWER_LAW_RUNS = """
import json, sys
from pathlib import Path
import cdrive.cli as cli
out = Path(sys.argv[1])
quartic = {"kind": "power_law", "b": 4}
ramp = {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 1.3, "duration": 0.1}
grid = {"kind": "quantum_grid", "system": quartic, "schedule": ramp, "initial": {"level": 1},
        "numerics": {"n_points": 128, "dt": 1e-2}}
numeric = {"kind": "classical_trajectory", "system": quartic, "generator": "numeric",
           "schedule": ramp, "initial": {"energy": 1.0}, "numerics": {"dt": 1e-2, "tol": 1e-7}}
shell = {"kind": "classical_ensemble", "system": quartic, "schedule": ramp,
         "initial": {"energy": 1.0}, "numerics": {"n_particles": 20}}
for name, cfg, argv in (("grid", grid, ["compare", "--verify"]),
                        ("numeric", numeric, ["compare", "--verify"]),
                        ("shell", shell, ["run"])):
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([argv[0], str(path), "--out", str(out / name), *argv[1:]])
    assert code in (0, 1), (name, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_power_law_runs_leave_out_unused_scipy_subpackages(tmp_path):
    # power-law spectra are banded and orbit states invert the orbit-time
    # quadrature, so a b = 4 grid compare, numeric trajectory compare (both
    # with --verify) and shell ensemble run need scipy's LAPACK extension
    # only, loaded without the scipy.linalg package
    proc = subprocess.run([sys.executable, "-c", _POWER_LAW_RUNS, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "scipy.linalg" not in loaded
    assert "scipy.linalg._flapack" in loaded
    for sub in ("integrate", "optimize", "interpolate", "special", "sparse"):
        assert f"scipy.{sub}" not in loaded
    for name in ("grid/on", "grid/off", "numeric/on", "numeric/off", "shell"):
        assert (tmp_path / name).is_dir()


def test_numerical_failure_writes_diagnostic(tmp_path, monkeypatch):
    def boom(cfg, arms):
        raise NumericalError("solver fell over")

    monkeypatch.setitem(cli._RUNNERS, "classical_trajectory", boom)
    p = write_config(tmp_path, "c.json", box_expansion())
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 3
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "NumericalError"
    assert "solver fell over" in diag["message"]


def test_report_that_breaks_its_schema_exits_3(tmp_path, monkeypatch):
    # the report self-check is a numerical failure, not a config error
    monkeypatch.setitem(cli._RUNNERS, "classical_trajectory", lambda cfg, arms: {
        cd: ({"omega_drift": "x"}, {}, {"integrator": "rk4"}) for cd in arms})
    p = write_config(tmp_path, "c.json", box_expansion(assertions={}))
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 3
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "NumericalError"
    assert diag["message"] == ("report breaks cdrive-report-v1 at metrics/omega_drift: "
                               "'x' is not of type 'number', 'null'")
    assert not (out / "report.json").exists()


def test_non_finite_grid_state_exits_3(tmp_path, monkeypatch):
    import cdrive.quantum as quantum

    real = quantum.solve_banded
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        if len(calls) == 5:
            x[:] = np.nan
        return x

    monkeypatch.setattr(quantum, "solve_banded", poisoned)
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 2},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.1},
        "numerics": {"n_points": 128, "dt": 1e-2},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 3
    # both arms step in one job, so neither arm leaves files behind
    assert [f.relative_to(out).as_posix() for f in out.rglob("*")] == ["error.json"]
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "NumericalError"
    assert "norm drift nan" in diag["message"]


def _fail_cd_arm(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("cd arm fell over")

    monkeypatch.setattr(cli, "evolve_cd", boom)


def test_failed_classical_arm_leaves_only_the_diagnostic_compare(tmp_path, monkeypatch):
    # the off arm runs to the end, but its files wait until every job returned
    _fail_cd_arm(monkeypatch)
    p = write_config(tmp_path, "c.json", box_expansion(assertions={}))
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 3
    assert [f.relative_to(out).as_posix() for f in out.rglob("*")] == ["error.json"]
    assert "cd arm fell over" in json.loads((out / "error.json").read_text())["message"]


def test_failed_classical_arm_leaves_only_the_diagnostic_sweep(tmp_path, monkeypatch):
    _fail_cd_arm(monkeypatch)
    p = write_config(tmp_path, "c.json", box_expansion(assertions={}))
    out = tmp_path / "out"
    assert main(["sweep", p, "--out", str(out), "--values", "0.05,0.5"]) == 3
    assert [f.relative_to(out).as_posix() for f in out.rglob("*")] == ["error.json"]
    assert "cd arm fell over" in json.loads((out / "error.json").read_text())["message"]


def test_failed_record_eigensolve_exits_3(tmp_path, monkeypatch):
    import cdrive.quantum as quantum

    real = quantum.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        energies, vecs = real(*args, **kwargs)
        vecs[:, 0] += 1e-6 * vecs[:, -1]
        return energies, vecs

    monkeypatch.setattr(quantum, "eigh_tridiagonal", perturbed)
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 2},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.1},
        "numerics": {"n_points": 128, "dt": 1e-2},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 3
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "NumericalError"
    assert "eigendecomposition residual" in diag["message"]


def test_quantum_grid_compare_verify_needs_no_dense_eigensolve(tmp_path, monkeypatch):
    import cdrive.quantum as quantum

    def dense(*args, **kwargs):
        raise AssertionError("dense eigh called on a finite-difference H0")

    monkeypatch.setattr(quantum, "eigh", dense)
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 4},
        "initial": {"level": 1},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.2},
        "numerics": {"n_points": 512, "e_max": 40.0, "dt": 2e-3},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out), "--verify"]) == 0
    rep = load_report(out)
    assert rep["verify"]["commutator"]["relative_residual"] < 1e-8
    for arm in ("on", "off"):
        assert (out / arm / "spectrum.csv").exists()


def test_grid_levels_past_the_grid_are_config_error(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 2},
        "initial": {"level": 62},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.01},
        "numerics": {"n_points": 64, "n_levels": 64, "dt": 1e-2},
    })
    assert main(["run", p, "--out", str(tmp_path / "out")]) == 2


_GAS = {"kind": "classical_ensemble", "system": {"kind": "box"},
        "initial": {"gas_momentum": 2.0}, "numerics": {"n_particles": 50}}
_WELL_ENSEMBLE = {"kind": "classical_ensemble", "system": {"kind": "power_law", "b": 2},
                  "initial": {"energy": 1.0}, "numerics": {"n_particles": 2}}
_BASIS = {"kind": "quantum_basis", "system": {"kind": "box"},
          "numerics": {"n_levels": 8, "dt": 1e-3}}


@pytest.mark.parametrize("cfg, cd_enabled, integrator", [
    (_GAS, True, "box_exact_flow"),
    (_GAS, False, "box_exact_flow"),
    (_WELL_ENSEMBLE, True, "adaptive_rk4"),
    (_BASIS, True, "exact_phase"),
    (_BASIS, False, "strang_split"),
    (box_expansion(), True, "box_exact_flow"),
])
def test_report_names_the_integrator_that_ran(tmp_path, cfg, cd_enabled, integrator):
    cfg = {"schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                        "duration": 0.05},
           **cfg, "cd_enabled": cd_enabled}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    assert load_report(out)["numerics"]["integrator"] == integrator


def test_basis_run_on_a_rough_tabulated_schedule(tmp_path):
    # 301 noisy knots: the exact phase target is integrated knot to knot
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.05, 301)
    noise = 1.0 + rng.uniform(-0.01, 0.01, times.size)
    values = (1.5 + 0.3 * np.sin(140.0 * times)) * noise
    p = write_config(tmp_path, "c.json", {
        **_BASIS, "numerics": {"n_levels": 8, "dt": 1e-4},
        "schedule": {"shape": "tabulated", "times": times.tolist(), "values": values.tolist()},
    })
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 0
    assert load_report(out)["metrics"]["phase_error"] < 1e-8


_PIN_BARE = {"kind": "quantum_basis", "system": {"kind": "box"}, "cd_enabled": False,
             "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                          "duration": 0.05},
             "numerics": {"n_levels": 64, "dt": 2e-5}}


def test_bare_basis_arm_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 64 levels is where a 64x64 complex matrix-vector product would go
    # multithreaded; the kick's real products are two columns wide and stay
    # on one thread, so both runs write the same bytes
    p = write_config(tmp_path, "pin.json", _PIN_BARE)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    csvs = []
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "cdrive", "run", p, "--out", str(out)],
                              env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "trajectory.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_compare_quantum_grid(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 2},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.889},
        "numerics": {"n_points": 256, "dt": 5e-4},
        "assertions": {"fidelity_on": 0.999, "fidelity_off": 0.99},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["mode"] == "compare" and rep["cd_enabled"] is None
    assert rep["compare"]["on"]["min_fidelity"] > 0.999
    assert rep["compare"]["off"]["final_fidelity"] < 0.99
    assert rep["compare"]["gaps"]["fidelity_gap"] > 0.04
    for arm in ("on", "off"):
        assert (out / arm / "trajectory.csv").exists()
        assert (out / arm / "spectrum.csv").read_text().startswith(
            "level,energy_start,energy_end"
        )


def test_grid_compare_arms_equal_single_runs(tmp_path):
    cfg = {
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 4},
        "initial": {"level": 1},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.1},
        "numerics": {"n_points": 128, "e_max": 40.0, "dt": 2e-3, "record_every": 7},
    }
    out = tmp_path / "cmp"
    assert main(["compare", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    # the arms share one job on the calling thread
    assert load_report(out)["numerics"]["threads"] == 1
    for arm, cd in (("on", True), ("off", False)):
        single = tmp_path / arm
        p = write_config(tmp_path, f"{arm}.json", {**cfg, "cd_enabled": cd})
        assert main(["run", p, "--out", str(single)]) == 0
        for name in ("trajectory.csv", "spectrum.csv"):
            assert (out / arm / name).read_bytes() == (single / name).read_bytes(), (arm, name)


def test_compare_static_schedule_gives_identical_arms(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_basis",
        "system": {"kind": "box"},
        "schedule": {"shape": "hold", "value": 1.0, "duration": 0.5},
        "numerics": {"n_levels": 16, "dt": 1e-3},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["compare"]["gaps"]["fidelity_gap"] == 0.0
    on = (out / "on" / "trajectory.csv").read_bytes()
    off = (out / "off" / "trajectory.csv").read_bytes()
    assert on == off


def test_compare_box_gas_ks_gap(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "classical_ensemble",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.05},
        "initial": {"gas_momentum": 25.0},
        "numerics": {"n_particles": 2000},
        "snapshots": [0.0, 0.025, 0.05],
        "assertions": {"ks_gap": 0.08},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["compare"]["gaps"]["ks_gap"] > 0.08
    assert rep["compare"]["off"]["ks_max"] > 0.1
    # one csv per snapshot per arm
    for k in range(3):
        assert (out / "on" / f"ensemble_{k}.csv").exists()


def test_compare_csvs_identical_across_thread_counts(tmp_path, monkeypatch):
    box_gas = {
        "kind": "classical_ensemble",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.05},
        "initial": {"gas_momentum": 25.0, "momentum_law": "two_point"},
        "numerics": {"n_particles": 200},
        "snapshots": [0.0, 0.025, 0.05],
        "seed": 23,
    }
    well_shell = {
        "kind": "classical_ensemble",
        "system": {"kind": "power_law", "b": 4},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 1.0},
        "initial": {"energy": 1.0},
        "numerics": {"n_particles": 30},
        "snapshots": [0.0, 0.4, 1.0],
        "seed": 23,
    }
    for name, cfg in (("box_gas", box_gas), ("well_shell", well_shell)):
        p = write_config(tmp_path, f"{name}.json", cfg)
        csvs = {}
        for threads in (1, 2):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: threads)
            out = tmp_path / f"{name}{threads}"
            assert main(["compare", p, "--out", str(out)]) == 0
            assert load_report(out)["numerics"]["threads"] == threads
            csvs[threads] = {f.relative_to(out): f.read_bytes()
                             for f in sorted(out.glob("*/ensemble_*.csv"))}
        assert len(csvs[1]) == 6, name
        assert csvs[1] == csvs[2], name


def test_generator_check_numeric(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "generator_check",
        "system": {"kind": "power_law", "b": 4},
        "schedule": {"shape": "hold", "value": 1.0, "duration": 1.0},
        "generator": "numeric",
        "shells": [1.0, 2.0],
        "assertions": {"bracket_residual": 1e-3, "average_residual": 1e-6},
    })
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 0
    res = load_report(out)["metrics"]["generator_residuals"]
    assert res["shells"] == [1.0, 2.0]
    assert res["bracket_residual"] < 1e-3
    # the generator classical runs use, held to the --verify bound
    assert res["bracket_residual"] < 1e-8


def test_numeric_generator_drift_matches_analytic(tmp_path):
    # b = 4 trajectory from E = 1, seed 1234: the pointwise numeric generator
    # must hold the invariant about as well as the closed form does
    drifts = {}
    for generator in ("numeric", "analytic"):
        p = write_config(tmp_path, f"{generator}.json", {
            "kind": "classical_trajectory",
            "system": {"kind": "power_law", "b": 4},
            "generator": generator,
            "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 1.3,
                         "duration": 0.5},
            "initial": {"energy": 1.0},
            "numerics": {"dt": 1e-2, "tol": 1e-7},
            "seed": 1234,
        })
        out = tmp_path / generator
        assert main(["compare", p, "--out", str(out)]) == 0
        drifts[generator] = load_report(out)["compare"]["on"]["omega_drift"]
    assert drifts["numeric"] < 2.0 * drifts["analytic"]


@pytest.mark.parametrize("mode, assertions, extra", [
    ("run", {"phase_error": 1e-8, "population_drift": 1e-12}, []),
    ("compare", {"fidelity_on": 0.999}, []),
    ("sweep", {}, ["--values", "0.5,1"]),
], ids=["run", "compare", "sweep"])
def test_verify_flag_appends_residual_suite(tmp_path, mode, assertions, extra):
    p = write_config(tmp_path, "c.json", {
        "kind": "quantum_basis",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 1.0},
        "numerics": {"n_levels": 16, "dt": 1e-3},
        "assertions": assertions,
    })
    out = tmp_path / "out"
    assert main([mode, p, "--out", str(out), "--verify", *extra]) == 0
    rep = load_report(out)
    assert rep["verify"]["generator"]["bracket_residual"] < 1e-8
    assert rep["verify"]["commutator"]["relative_residual"] < 1e-8
    # every mode appends the same verify rows after its own
    rows = [(row["name"], row["threshold"]) for row in rep["assertions"]]
    assert rows == [(name, float(assertions[name])) for name in sorted(assertions)] + [
        ("verify_average_residual", 1e-8),
        ("verify_bracket_residual", 1e-8),
        ("verify_commutator", 1e-8),
    ]


def test_sweep_dissipation_trend(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "classical_ensemble",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 1.0},
        "initial": {"energy": 334.47},
        "numerics": {"n_particles": 200},
        "seed": 11,
        "assertions": {"monotone_dissipation_off": 1, "omega_drift_on": 1e-7},
    })
    out = tmp_path / "out"
    assert main(["sweep", p, "--out", str(out), "--values", "0.05,0.5,5"]) == 0
    rep = load_report(out)
    diss = [r["dissipation_off"] for r in rep["sweep"]["rows"]]
    assert diss[0] > diss[1] > diss[2] > 0
    assert rep["sweep"]["flags"]["dissipation_off_strictly_decreasing"] is True
    assert rep["sweep"]["flags"]["max_omega_drift_on"] < 1e-7
    assert rep["numerics"]["integrator"] == "box_exact_flow"
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("T,omega_drift_on,omega_drift_off,dissipation_on")
    assert len(lines) == 4
    # classical rows have no fidelity columns
    assert lines[1].endswith(",,")


def test_sweep_rejects_bad_inputs(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "classical_ensemble",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 1.0},
        "initial": {"energy": 2.0},
        "numerics": {"n_particles": 50},
    })
    out = str(tmp_path / "out")
    assert main(["sweep", p, "--out", out]) == 2  # no values anywhere
    assert main(["sweep", p, "--out", out, "--values", "0.5,0.05"]) == 2
    assert main(["sweep", p, "--out", out, "--values", "0.05,0.5",
                 "--axis", "E"]) == 2

    tab = {
        "kind": "classical_ensemble",
        "system": {"kind": "box"},
        "schedule": {"shape": "tabulated", "times": [0.0, 1.0],
                     "values": [1.0, 2.0]},
        "initial": {"energy": 2.0},
        "numerics": {"n_particles": 50},
    }
    p2 = write_config(tmp_path, "t.json", tab)
    assert main(["sweep", p2, "--out", out, "--values", "0.05,0.5"]) == 2


@pytest.mark.parametrize("mode, name, extra", [
    ("run", "fidelity_on", []),
    ("compare", "omega_drift", []),
    ("sweep", "ks_gap", ["--values", "0.05,0.5"]),
], ids=["run", "compare", "sweep"])
def test_unknown_assertion_is_rejected_before_any_job(
        tmp_path, monkeypatch, capsys, mode, name, extra):
    ran, real = [], cli._RUNNERS["classical_ensemble"]
    monkeypatch.setitem(cli._RUNNERS, "classical_ensemble",
                        lambda cfg, arms: ran.append(cfg) or real(cfg, arms))
    p = write_config(tmp_path, "c.json", {
        **_GAS, "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                             "duration": 0.05},
        "assertions": {name: 1e-3}})
    out = tmp_path / "out"
    assert main([mode, p, "--out", str(out), *extra]) == 2
    assert f"unknown assertion {name!r}" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    box_expansion(), _GAS,
    {"kind": "quantum_grid", "system": {"kind": "power_law", "b": 2},
     "numerics": {"n_points": 64, "n_levels": 8}},
    _BASIS,
], ids=["classical_trajectory", "classical_ensemble", "quantum_grid", "quantum_basis"])
def test_zero_dt_is_config_error(tmp_path, cfg):
    cfg = {**cfg, "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                               "duration": 0.05},
           "numerics": {**cfg.get("numerics", {}), "dt": 0}}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("cfg", [box_expansion(), _GAS],
                         ids=["classical_trajectory", "classical_ensemble"])
def test_tabulated_spline_below_zero_is_config_error(tmp_path, capsys, cfg):
    # positive knots whose spline dips to -0.18 near t = 0.81: rejected
    # with the config, before any engine runs
    cfg = {**cfg, "schedule": {"shape": "tabulated", "times": [0.0, 0.3, 0.5, 0.7, 1.0],
                               "values": [1.0, 0.05, 0.6, 0.05, 1.0]}}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert "positive parameter range" in capsys.readouterr().err
    assert not out.exists()


def test_drift_ratio_passes_over_an_exact_driven_arm(tmp_path):
    p = write_config(tmp_path, "c.json", {
        "kind": "classical_ensemble", "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0, "duration": 0.05},
        "initial": {"energy": 2.0}, "numerics": {"n_particles": 20},
        "assertions": {"drift_ratio": 10},
    })
    out = tmp_path / "out"
    assert main(["compare", p, "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["compare"]["on"]["omega_drift"] == 0.0
    assert rep["compare"]["off"]["omega_drift"] > 0.01
    assert rep["compare"]["gaps"]["drift_ratio"] is None  # JSON has no inf
    assert rep["assertions"] == [
        {"name": "drift_ratio", "threshold": 10.0, "value": None, "passed": True}]


def test_write_csv_pins_the_cell_format(tmp_path):
    rng = np.random.default_rng(5)
    floats = np.concatenate((
        [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1.5e300],
        # the edges of the range where orjson's notation is repr's
        [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, -1e16, np.nan,
         np.inf, -np.inf, 2.0**53, np.finfo(float).max, np.finfo(float).tiny],
        rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
    ))
    n = floats.size
    gap = [None, 1e-5, -np.inf, 2.5, 1e300, np.nan, 7] * (n // 7) + [None] * (n % 7)
    path = tmp_path / "x.csv"
    write_csv(path, ("x", "k", "gap"), (floats, np.arange(n), gap))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,k,gap"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == n
    finite = np.isfinite(floats)
    back = np.array([float(c[0]) for c in cells])
    np.testing.assert_array_equal(back[finite].view(np.int64),
                                  floats[finite].view(np.int64))  # bit for bit
    assert [c[0] for c in cells] == [repr(float(v)) for v in floats]
    assert [c[1] for c in cells] == [str(k) for k in range(n)]
    assert [c[2] for c in cells] == ["" if v is None else repr(v) for v in gap]

    bits = rng.integers(-2**63, 2**63 - 1, 10**5, dtype=np.int64).view(np.float64)
    assert not np.isfinite(bits).all()
    write_csv(path, ("x",), (bits,))
    assert path.read_text() == "x\n" + "".join(map("{!r}\n".format, bits.tolist()))

    write_csv(path, ("x", "k"), (floats[:0], np.arange(0)))
    assert path.read_text() == "x,k\n"


@pytest.mark.parametrize("cfg", [_GAS, _BASIS], ids=["classical", "quantum"])
def test_sweep_csv_cells_equal_report_rows(tmp_path, cfg):
    p = write_config(tmp_path, "c.json", {
        **cfg, "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                            "duration": 0.05}})
    out = tmp_path / "out"
    assert main(["sweep", p, "--out", str(out), "--values", "0.05,0.1"]) == 0
    rows = load_report(out)["sweep"]["rows"]
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == len(rows) == 2
    for line, row in zip(lines, rows):
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells == {k: "" if v is None else repr(v) for k, v in row.items()}


def test_console_entry_point(tmp_path):
    p = write_config(tmp_path, "c.json", box_expansion())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cdrive", "run", p, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
