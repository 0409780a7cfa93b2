"""The benchmark tracer (cdbench/tracing.py) rebinds cdrive names in place.

Deleting or renaming one of those names breaks every traced benchmark run,
and the benchmark's own tests are not part of this suite, so this test loads
the tracer by path, installs it and checks that uninstalling restores every
module global, class method and shape registry entry it touched.  It also
checks that the tracer still sees every Cayley solve, every numeric-generator
gradient and every compare and sweep job the CLI's thread pool runs, and it
pins the work of a grid compare, whose two arms step as one job.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import cdrive.cli  # noqa: F401  (loads every layer)
import cdrive.generators as generators
import cdrive.quantum as quantum
import cdrive.schedules as schedules
import cdrive.systems as systems

TRACING = Path(__file__).resolve().parents[1] / "cdbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("cdbench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cdrive_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "cdrive" or name.startswith("cdrive.")}


def _wrapped_classes(tracing):
    rows = [(layer, cls) for layer, cls, _ in tracing._SPANNED_METHODS]
    rows += [(mod, cls) for mod, cls, _ in tracing._CSV_METHODS]
    classes = [getattr(sys.modules[f"cdrive.{mod}"], cls) for mod, cls in rows]
    return classes + [systems.SystemModel]


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    modules = _cdrive_modules()
    globals_before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = _wrapped_classes(tracing)
    methods_before = [dict(vars(cls)) for cls in classes]
    shapes_before = dict(schedules.BUILTIN_SHAPES)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for mod, name in (("cli", "ThreadPoolExecutor"), ("quantum", "solve_banded"),
                          ("classical", "np")):
            assert vars(modules[f"cdrive.{mod}"])[name] is not globals_before[
                f"cdrive.{mod}"][name], f"{mod}.{name} was not rebound"
        for layer, names in tracing._SPANNED_FUNCTIONS.items():
            current = vars(modules[f"cdrive.{layer}"])
            for name in names:
                assert current[name] is not globals_before[f"cdrive.{layer}"][name], (
                    f"{layer}.{name} was not rebound")
    finally:
        tracer.uninstall()

    assert _cdrive_modules().keys() == modules.keys()
    for name, mod in modules.items():
        after = vars(mod)
        before = globals_before[name]
        assert after.keys() == before.keys(), name
        changed = [k for k in before if after[k] is not before[k]]
        assert not changed, f"{name}: {changed} not restored"
    for cls, before in zip(classes, methods_before):
        after = vars(cls)
        assert after.keys() == before.keys(), cls.__name__
        changed = [k for k in before if after[k] is not before[k]]
        assert not changed, f"{cls.__name__}: {changed} not restored"
    assert schedules.BUILTIN_SHAPES.keys() == shapes_before.keys()
    assert all(schedules.BUILTIN_SHAPES[k] is v for k, v in shapes_before.items())


def test_tracer_counts_every_cayley_solve():
    # a Cayley step that skips quantum.solve_banded would zero this counter
    system = systems.power_law(4)
    grid = quantum.well_grid(system, 1.0, 20.0, 64)
    es = quantum.eigensystem(quantum.discretize_h0(system, 1.0, grid), grid, 1.0, n_levels=1)
    psi0 = quantum.QuantumState("grid", es.states[:, 0].astype(complex), grid)
    sched = schedules.smoothstep_ramp(1.0, 1.5, 0.65)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        quantum.propagate_grid(system, sched, psi0, dt=0.01, record_every=64)
        assert tracer.counts()["quantum.banded_solves"] == 65
    finally:
        tracer.uninstall()


def test_tracer_counts_every_numeric_gradient():
    # the benchmark's generators.grad_evals counts spans on this method; a
    # refactor that bypasses NumericShellGenerator.evaluate_grad_z zeros it
    gen = generators.NumericShellGenerator(systems.power_law(4))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for k in range(10):
            gen.evaluate_grad_z((0.1 * k - 0.4, 0.7), 1.2)
        assert tracer.counts()["generators.grad_evals"] == 10
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("mode, extra, n_jobs", [
    ("compare", [], 2),
    ("sweep", ["--values", "0.05,0.5"], 4),
], ids=["compare", "sweep"])
def test_tracer_sees_the_cli_thread_pool(tmp_path, mode, extra, n_jobs):
    # the benchmark's cli.workers and cli.queue_wait_s come from the pool
    # class the tracer rebinds; a fan-out that captured the class at import
    # time would leave both empty
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "classical_trajectory",
        "system": {"kind": "box"},
        "schedule": {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.05},
        "initial": {"energy": 2.0},
    }))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = cdrive.cli.main([mode, str(cfg), "--out", str(tmp_path / "out"), *extra])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.workers >= 1
    assert len(tracer.queue_waits) == n_jobs


def test_grid_compare_shares_its_solves_and_spectra(tmp_path):
    # one stacked Cayley solve per step, one record spectrum per record time
    # for both arms, and no pool job: the two arms run on the calling thread
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "quantum_grid",
        "system": {"kind": "power_law", "b": 4},
        "initial": {"level": 1},
        "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                     "duration": 0.1},
        "numerics": {"n_points": 128, "e_max": 40.0, "dt": 2e-3, "record_every": 7},
    }))
    n_steps = 50
    n_records = len(range(0, n_steps, 7)) + 1  # every 7th step and the last
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = cdrive.cli.main(["compare", str(cfg), "--out", str(tmp_path / "out"),
                                "--verify"])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts()
    assert counts["quantum.banded_solves"] == n_steps
    # the start and end spectra, and one in the --verify suite
    assert counts["quantum.eigensolves"] == n_records + 2 + 1
    assert tracer.queue_waits == []
