"""Batch front end: `cdrive run|compare|sweep <config.json>`.

Every invocation writes report.json (validated against the shipped report
schema) plus the data CSVs for the experiment kind.  Exit codes: 0 all
configured assertions pass; 1 an assertion failed but the run completed;
2 invalid configuration; 3 numerical failure, with a diagnostic error.json
left in the output directory.

compare and sweep run a CD-on and a CD-off arm.  A quantum_grid config's
arms share their spectra and Cayley solves, so they run as one lockstep job;
every other kind runs one job per arm.  A lone job runs on the calling
thread, several on one thread pool.  Files are written once every job has
returned, so a failed arm leaves only error.json.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._csv import write_csv
from .classical import (
    _draw_initial_conditions,
    _ensemble_step,
    dissipation,
    evolve_bare,
    evolve_cd,
    evolve_ensemble,
    shell_sampler,
    uniform_gas_sampler,
)
from .config import ExperimentConfig, load_config, validate_report
from .errors import ConfigError, DomainError, NumericalError
from .generators import (
    NumericShellGenerator,
    analytic_generator_for,
    verify_generator,
)
from .quantum import (
    QuantumState,
    _band_eigensystem,
    _h0_bands,
    _propagate_arms,
    _stretch_times,
    _xi_spectral_parts,
    box_grid,
    box_phase,
    propagate_basis,
    well_grid,
)

SCHEMA_VERSION = "cdrive-report-v1"


# ---------------------------------------------------------------------------
# experiment runners map (cfg, arms {cd_enabled: output directory or None}) to
# per-arm (metrics, {artifact name: writer taking its path}, resolved numerics
# naming the integrator); an arm without a directory gets no writers


def _generator(cfg: ExperimentConfig):
    """The generator the config's `generator` choice names, in every kind."""
    if cfg.generator == "numeric":
        return NumericShellGenerator(cfg.system)
    return analytic_generator_for(cfg.system)


def _run_classical_trajectory(cfg, cd, out):
    sched = cfg.schedule
    energy = float(cfg.initial["energy"])
    qs, ps = _draw_initial_conditions(
        cfg.system, shell_sampler(energy), sched.initial, 1, cfg.seed
    )
    z0 = (float(qs[0]), float(ps[0]))
    dt = sched.duration / 2000.0 if cfg.numerics["dt"] is None else cfg.numerics["dt"]
    tol = cfg.numerics["tol"]
    # trajectory.csv holds every accepted step; the config's record_every is not used
    if cd:
        rec = evolve_cd(cfg.system, _generator(cfg), sched, z0, dt, tol=tol, record_every=1)
    else:
        rec = evolve_bare(cfg.system, sched, z0, dt, tol=tol, record_every=1)
    s = rec.summary()
    metrics = {
        "omega_drift": float(s["drift"]),
        "final_h0": float(s["final_h0"]),
        "n_collisions": int(s["n_collisions"]),
    }
    integrator = "box_exact_flow" if cfg.system.kind == "box" else "adaptive_rk4"
    files = {} if out is None else {"trajectory.csv": rec.to_csv}
    return metrics, files, {"dt": float(dt), "record_every": 1, "integrator": integrator}


def _run_classical_ensemble(cfg, cd, out):
    sched = cfg.schedule
    if "gas_momentum" in cfg.initial:
        sampler = uniform_gas_sampler(
            cfg.initial["gas_momentum"], cfg.initial.get("momentum_law", "two_point")
        )
    else:
        sampler = shell_sampler(cfg.initial["energy"])
    snaps = list(cfg.snapshots) if cfg.snapshots is not None else [0.0, sched.duration]
    dt = cfg.numerics["dt"]
    rec = evolve_ensemble(
        cfg.system, _generator(cfg) if cd else None, sched, sampler,
        cfg.numerics["n_particles"], cfg.seed, snaps,
        dt=dt, tol=cfg.numerics["tol"],
    )
    files = {} if out is None else {f"ensemble_{k}.csv": functools.partial(rec.snapshot_csv, k)
                                    for k in range(len(rec.snapshot_times))}
    w0 = rec.omegas(cfg.system, 0)
    w_final = rec.omegas(cfg.system, len(rec.snapshot_times) - 1)
    scale = float(np.mean(np.abs(w0)))
    metrics = {
        "omega_drift": float(np.max(np.abs(w_final - w0)) / scale),
        "dissipation": float(dissipation(rec, cfg.system, sched)),
    }
    if rec.ks_stats is not None:
        metrics["ks_series"] = [
            {"time": float(t), "statistic": float(s)}
            for t, s in zip(rec.snapshot_times, rec.ks_stats)
        ]
        metrics["ks_max"] = float(np.max(rec.ks_stats))
    return metrics, files, {
        "dt": float(dt if dt is not None else _ensemble_step(cfg.system, sched.duration)),
        "record_every": None,
        "integrator": "box_exact_flow" if cfg.system.kind == "box" else "adaptive_rk4",
    }


def _run_quantum_grid(cfg, arms):
    sched, system, num = cfg.schedule, cfg.system, cfg.numerics
    level = int(cfg.initial.get("level", 0))
    # size the grid for the widest well the schedule visits
    lam_wide = float(np.max(sched.value(np.linspace(0.0, sched.duration, 65))))
    grid = well_grid(system, lam_wide, num["e_max"], num["n_points"])
    n_keep = max(8, level + 4)

    def spectrum(lam):  # from the bands of H0: no n x n matrix
        return _band_eigensystem(*_h0_bands(system, lam, grid, num["hbar"]), grid, lam, n_keep)

    es0 = spectrum(sched.initial)
    # the level's parity part, (v + (-1)^level Pv)/2: the other part is exactly
    # zero, so the arms step one half grid
    v = es0.states[:, level]
    psi0 = QuantumState("grid", (0.5 * (v + (-1) ** level * v[::-1])).astype(complex), grid)
    dt = 2e-4 if num["dt"] is None else num["dt"]
    recs = _propagate_arms(
        system, sched, psi0, dt, tuple(arms), track_level=level,
        n_leading=max(4, level + 1), record_every=num["record_every"],
        hbar=num["hbar"],
    )
    es_end = spectrum(sched.final) if any(arms.values()) else None

    def spectrum_csv(path):
        write_csv(path, ("level", "energy_start", "energy_end"),
                  (np.arange(n_keep), es0.energies, es_end.energies))

    results = {}
    for (cd, out), rec in zip(arms.items(), recs):
        files = {} if out is None else {"trajectory.csv": rec.to_csv, "spectrum.csv": spectrum_csv}
        metrics = {
            "min_fidelity": float(rec.min_fidelity),
            "final_fidelity": float(rec.final_fidelity),
            "norm_drift": float(np.max(np.abs(rec.norms - 1.0))),
        }
        results[cd] = (metrics, files, {"dt": float(dt), "integrator": "cayley_midpoint"})
    return results


def _run_quantum_basis(cfg, cd, out):
    sched, num = cfg.schedule, cfg.numerics
    level = int(cfg.initial.get("level", 0))
    c0 = np.zeros(num["n_levels"], dtype=complex)
    c0[level] = 1.0
    dt = 1e-4 if num["dt"] is None else num["dt"]
    rec = propagate_basis(
        sched, c0, n_levels=num["n_levels"], dt=dt, with_cd=cd,
        mass=cfg.system.mass, hbar=num["hbar"], record_every=num["record_every"],
    )
    files = {} if out is None else {
        "trajectory.csv": functools.partial(rec.to_csv, track_level=level)}
    pops = rec.populations
    target = box_phase(level + 1, sched, sched.duration,
                       mass=cfg.system.mass, hbar=num["hbar"])
    metrics = {
        "min_fidelity": float(np.min(pops[:, level])),
        "final_fidelity": float(pops[-1, level]),
        "phase_error": abs(float(rec.phase(level)[-1]) - target),
        "population_drift": float(np.max(np.abs(pops - pops[0]))),
        "norm_drift": float(np.max(np.abs(rec.norms - 1.0))),
        "leakage_warning": bool(rec.leakage_warning),
    }
    integrator = "exact_phase" if cd else "strang_split"
    return metrics, files, {"dt": float(dt), "integrator": integrator}


def _generator_residuals(cfg, generator, shells: list) -> dict:
    """The report's residual block for generator checked on shells at the
    schedule's initial lam."""
    chk = verify_generator(cfg.system, generator, cfg.schedule.initial, shells,
                           n_points=cfg.numerics["shell_points"])
    return {
        "shells": shells,
        "bracket_residual": float(chk.bracket_residual),
        "average_residual": float(chk.average_residual),
    }


def _run_generator_check(cfg, cd, out):
    residuals = _generator_residuals(cfg, _generator(cfg), [float(E) for E in cfg.shells])
    return {"generator_residuals": residuals}, {}, {"record_every": None,
                                                    "integrator": "orbit_quadrature"}


def _each_arm(run_arm):  # a runner from a one-arm body run_arm(cfg, cd, out)
    return lambda cfg, arms: {cd: run_arm(cfg, cd, out) for cd, out in arms.items()}


_RUNNERS = {
    "classical_trajectory": _each_arm(_run_classical_trajectory),
    "classical_ensemble": _each_arm(_run_classical_ensemble),
    "quantum_grid": _run_quantum_grid,
    "quantum_basis": _each_arm(_run_quantum_basis),
    "generator_check": _each_arm(_run_generator_check),
}


def _execute_all(groups: list) -> tuple[dict, int]:
    """Run the arms of every (key, cfg, arms) group in jobs grouped as the
    module docstring says, then write every arm's files, so a failed job
    leaves none; returns each arm's (metrics, artifact names, resolved)
    under (key, cd_enabled) and the thread count."""
    jobs = [(key, cfg, part) for key, cfg, arms in groups for part in (
        [arms] if cfg.kind == "quantum_grid" else [{cd: out} for cd, out in arms.items()])]
    threads = max(1, min(os.cpu_count() or 1, len(jobs)))
    if len(jobs) == 1:
        done = [_RUNNERS[cfg.kind](cfg, arms) for _, cfg, arms in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_RUNNERS[cfg.kind], cfg, arms) for _, cfg, arms in jobs]
            done = [fut.result() for fut in futures]
    results = {}
    for (key, _, arms), job in zip(jobs, done):
        for cd, (metrics, files, resolved) in job.items():
            for name, write in files.items():
                write(arms[cd] / name)
            results[(key, cd)] = (metrics, list(files), resolved)
    return results, threads


# ---------------------------------------------------------------------------
# assertions

_RUN_RULES = {
    "omega_drift": ("<", lambda m: m.get("omega_drift")),
    "dissipation_max": ("<", lambda m: m.get("dissipation")),
    "dissipation_min": (">", lambda m: m.get("dissipation")),
    "min_fidelity": (">", lambda m: m.get("min_fidelity")),
    "final_fidelity_max": ("<", lambda m: m.get("final_fidelity")),
    "ks_max": ("<", lambda m: m.get("ks_max")),
    "phase_error": ("<", lambda m: m.get("phase_error")),
    "population_drift": ("<", lambda m: m.get("population_drift")),
    "norm_drift": ("<", lambda m: m.get("norm_drift")),
    "bracket_residual": ("<", lambda m: (m.get("generator_residuals") or {}).get("bracket_residual")),
    "average_residual": ("<", lambda m: (m.get("generator_residuals") or {}).get("average_residual")),
}


def _drift_ratio(compare: dict):
    """The gaps' drift ratio, or inf when it is null because the on arm is
    exact (zero drift) and the off arm drifts: any threshold then passes."""
    gaps = compare["gaps"]
    if "drift_ratio" in gaps and gaps["drift_ratio"] is None:
        return math.inf
    return gaps.get("drift_ratio")


_COMPARE_RULES = {
    "fidelity_on": (">", lambda c: c["on"].get("min_fidelity")),
    "fidelity_off": ("<", lambda c: c["off"].get("final_fidelity")),
    "drift_ratio": (">", _drift_ratio),
    "ks_gap": (">", lambda c: c["gaps"].get("ks_gap")),
    "dissipation_gap": (">", lambda c: c["gaps"].get("dissipation_gap")),
}

_SWEEP_RULES = {
    "monotone_dissipation_off": ("flag", lambda s: s["flags"].get("dissipation_off_strictly_decreasing")),
    "monotone_fidelity_deficit_off": ("flag", lambda s: s["flags"].get("fidelity_deficit_off_strictly_decreasing")),
    "omega_drift_on": ("<", lambda s: s["flags"].get("max_omega_drift_on")),
    "dissipation_on_max": ("<", lambda s: s["flags"].get("max_dissipation_on")),
}

# --verify rows, read from the report's verify block
_VERIFY_RULES = {
    "verify_bracket_residual": ("<", lambda v: v["generator"]["bracket_residual"]),
    "verify_average_residual": ("<", lambda v: v["generator"]["average_residual"]),
    "verify_commutator": ("<", lambda v: v["commutator"]["relative_residual"]),
}


def _check_names(assertions: dict, rules: dict) -> None:
    """Reject an assertion the mode does not know, before any job runs."""
    for name in sorted(assertions):
        if name not in rules:
            raise ConfigError(
                f"unknown assertion {name!r}; this mode knows: "
                + ", ".join(sorted(rules))
            )


def _evaluate(assertions: dict, rules: dict, source) -> tuple[list, bool]:
    """Each configured assertion becomes a report row; a missing value (the
    experiment did not produce that metric) fails the row rather than
    erroring, so exit 1 still means 'run completed'."""
    rows, all_ok = [], True
    for name in sorted(assertions):
        threshold = float(assertions[name])
        direction, get = rules[name]
        value = get(source)
        if value is None:
            passed = False
        elif direction == "<":
            passed = value < threshold
        elif direction == ">":
            passed = value > threshold
        else:
            passed = bool(value) == bool(threshold)
        rows.append({
            "name": name,
            "threshold": threshold,
            "value": None if value is None or math.isinf(value) else float(value),
            "passed": bool(passed),
        })
        all_ok = all_ok and passed
    return rows, all_ok


# ---------------------------------------------------------------------------
# --verify: generator and commutator residual suites


def _commutator_residual(cfg: ExperimentConfig) -> dict:
    system, num = cfg.system, cfg.numerics
    lam0 = cfg.schedule.initial
    n_points, n_levels = 256, 8
    if system.kind == "box":
        grid = box_grid(lam0, n_points)
    else:
        grid = well_grid(system, lam0, num["e_max"], n_points)
    hbar = num["hbar"]
    xs, es, block = _xi_spectral_parts(system, lam0, grid, n_levels, hbar)
    h0 = np.diag(es.energies)
    comm = xs.matrix @ h0 - h0 @ xs.matrix
    target = 1j * hbar * (block - np.diag(np.diag(block)))
    scale = float(np.max(np.abs(block)))
    # xi_dilation = -i mu hbar / L (QD + DQ) / 2, applied by bands
    dil = -1j * system.mu * hbar / lam0 * grid.h * (es.states.T @ _stretch_times(grid, es.states))
    dil_scale = float(np.max(np.abs(dil)))
    return {
        "relative_residual": float(np.max(np.abs(comm - target)) / scale),
        "dilation_agreement": float(np.max(np.abs(xs.matrix - dil)) / dil_scale),
        "n_points": n_points,
        "n_levels": n_levels,
    }


def _verify_block(cfg: ExperimentConfig) -> tuple[dict, list, bool]:
    if cfg.shells:
        shells = [float(E) for E in cfg.shells]
    elif "energy" in cfg.initial:
        shells = [float(cfg.initial["energy"])]
    else:
        shells = [1.0, 2.0, 4.0]
    block = {
        "generator": _generator_residuals(cfg, analytic_generator_for(cfg.system), shells),
        "commutator": None,
    }
    bounds = {"verify_bracket_residual": 1e-8, "verify_average_residual": 1e-8}
    if cfg.kind in ("quantum_grid", "quantum_basis"):
        block["commutator"] = _commutator_residual(cfg)
        bounds["verify_commutator"] = 1e-8
    return (block, *_evaluate(bounds, _VERIFY_RULES, block))


# ---------------------------------------------------------------------------
# report assembly


def _base_report(cfg: ExperimentConfig, mode: str, threads: int, resolved: dict) -> dict:
    system = cfg.system
    numerics = {
        "threads": int(threads),
        **{k: cfg.numerics.get(k) for k in (
            "dt", "tol", "n_points", "n_levels", "n_particles", "e_max",
            "record_every", "shell_points", "hbar",
        )},
    }
    numerics.update(resolved)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "kind": cfg.kind,
        "seed": int(cfg.seed),
        "system": {
            "kind": system.kind,
            "b": system.b,
            "epsilon": system.epsilon,
            "mass": float(system.mass),
        },
        "schedule": {
            "tag": cfg.schedule.tag,
            "duration": float(cfg.schedule.duration),
            "lam_start": float(cfg.schedule.initial),
            "lam_end": float(cfg.schedule.final),
        },
        "numerics": numerics,
    }


def _write_report(report: dict, out: Path) -> None:
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text + "\n")


def _finish(cfg, out, t0, report, rules, source, artifacts, verify) -> int:
    """The tail every mode shares: assertion rows from rules over source (plus
    the --verify rows), artifacts, runtime and report.json.  Returns the exit
    code: 0 when every row passed, else 1."""
    rows, ok = _evaluate(cfg.assertions, rules, source)
    if verify:
        report["verify"], vrows, vok = _verify_block(cfg)
        rows, ok = rows + vrows, ok and vok
    report["assertions"] = rows
    report["passed"] = bool(ok)
    report["artifacts"] = artifacts + ["report.json"]
    report["runtime_seconds"] = time.perf_counter() - t0
    _write_report(report, out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# modes


def do_run(cfg: ExperimentConfig, out: Path, verify: bool) -> int:
    t0 = time.perf_counter()
    _check_names(cfg.assertions, _RUN_RULES)
    results, _ = _execute_all([(None, cfg, {cfg.cd_enabled: out})])
    [(metrics, artifacts, resolved)] = results.values()
    report = _base_report(cfg, "run", 1, resolved)
    report["cd_enabled"] = bool(cfg.cd_enabled)
    report["metrics"] = metrics
    return _finish(cfg, out, t0, report, _RUN_RULES, metrics, artifacts, verify)


def _gaps(on: dict, off: dict) -> dict:
    gaps = {}
    d_on, d_off = on.get("omega_drift"), off.get("omega_drift")
    if d_on is not None and d_off is not None:
        if d_off == d_on:
            gaps["drift_ratio"] = 1.0
        else:
            gaps["drift_ratio"] = d_off / d_on if d_on > 0 else None
    f_on, f_off = on.get("final_fidelity"), off.get("final_fidelity")
    if f_on is not None and f_off is not None:
        gaps["fidelity_gap"] = f_on - f_off
    k_on, k_off = on.get("ks_max"), off.get("ks_max")
    if k_on is not None and k_off is not None:
        gaps["ks_gap"] = k_off - k_on
    e_on, e_off = on.get("dissipation"), off.get("dissipation")
    if e_on is not None and e_off is not None:
        gaps["dissipation_gap"] = e_off - e_on
    return gaps


def do_compare(cfg: ExperimentConfig, out: Path, verify: bool) -> int:
    t0 = time.perf_counter()
    _check_names(cfg.assertions, _COMPARE_RULES)
    results, threads = _execute_all([(None, cfg, {True: out / "on", False: out / "off"})])
    on, off = results[(None, True)], results[(None, False)]
    compare = {"on": on[0], "off": off[0], "gaps": _gaps(on[0], off[0])}
    report = _base_report(cfg, "compare", threads, on[2])
    report["cd_enabled"] = None
    report["metrics"] = on[0]
    report["compare"] = compare
    artifacts = [f"{arm}/{a}" for arm, res in (("on", on), ("off", off)) for a in res[1]]
    return _finish(cfg, out, t0, report, _COMPARE_RULES, compare, artifacts, verify)


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values[:-1], values[1:]))


def do_sweep(cfg: ExperimentConfig, out: Path, axis: str, values, verify: bool) -> int:
    t0 = time.perf_counter()
    if axis != "T":
        raise ConfigError(f"only the duration axis T can be swept, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs a nonempty values list "
                          "(--values or the config sweep block)")
    ts = [float(v) for v in values]
    if any(v <= 0 for v in ts) or any(a >= b for a, b in zip(ts[:-1], ts[1:])):
        raise ConfigError("sweep values must be positive and strictly ascending")
    _check_names(cfg.assertions, _SWEEP_RULES)

    results, threads = _execute_all(
        [(T, cfg.with_duration(T), {True: None, False: None}) for T in ts])

    def deficit(metrics):
        f = metrics.get("final_fidelity")
        return None if f is None else 1.0 - f

    # one column per metric and arm, one entry per T: the report rows, the
    # flags and sweep.csv all read this table
    table = {"T": ts}
    for name, get in (("omega_drift", lambda m: m.get("omega_drift")),
                      ("dissipation", lambda m: m.get("dissipation")),
                      ("fidelity_deficit", deficit)):
        for arm, cd in (("on", True), ("off", False)):
            table[f"{name}_{arm}"] = [get(results[(T, cd)][0]) for T in ts]

    def over(name, reduce):  # None unless every T produced the metric
        col = table[name]
        return None if None in col else reduce(col)

    flags = {
        "dissipation_off_strictly_decreasing": over("dissipation_off", _strictly_decreasing),
        "fidelity_deficit_off_strictly_decreasing":
            over("fidelity_deficit_off", _strictly_decreasing),
        "max_omega_drift_on": over("omega_drift_on", max),
        "max_dissipation_on": over("dissipation_on", max),
    }
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    sweep_block = {"axis": "T", "values": ts, "rows": rows, "flags": flags}
    write_csv(out / "sweep.csv", list(table), list(table.values()))

    # the arms' resolved numerics, less dt, which may follow T
    resolved = {k: v for k, v in results[(ts[0], True)][2].items() if k != "dt"}
    report = _base_report(cfg, "sweep", threads, resolved)
    report["cd_enabled"] = None
    report["metrics"] = {}
    report["sweep"] = sweep_block
    return _finish(cfg, out, t0, report, _SWEEP_RULES, sweep_block, ["sweep.csv"], verify)


# ---------------------------------------------------------------------------
# entry point


def _parse_values(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --values {text!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdrive",
        description="Counter-diabatic driving experiments: run, compare cd "
                    "on/off arms, or sweep the schedule duration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "execute one experiment"),
        ("compare", "run cd on/off arms with identical seeds"),
        ("sweep", "repeat the experiment across schedule durations"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to the experiment JSON")
        p.add_argument("--out", help="output directory (default: config "
                                     "out_dir, else ./cdrive-out)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--verify", action="store_true",
                       help="also run the generator/commutator residual suites")
        if name == "sweep":
            p.add_argument("--axis", default="T", help="sweep axis (only T)")
            p.add_argument("--values", help="comma-separated durations, "
                                            "e.g. 0.05,0.5,5,50")
    args = parser.parse_args(argv)

    out = None
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_updates(seed=args.seed)
        out = Path(args.out or cfg.out_dir or "cdrive-out")
        if args.command == "run":
            return do_run(cfg, out, args.verify)
        if args.command == "compare":
            return do_compare(cfg, out, args.verify)
        values = _parse_values(args.values) if args.values else list(cfg.sweep_values)
        return do_sweep(cfg, out, args.axis, values, args.verify)
    except (ConfigError, DomainError) as exc:
        print(f"cdrive: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "config": str(args.config),
        }
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.json").write_text(
                json.dumps(diagnostic, indent=2, sort_keys=True) + "\n"
            )
        print(f"cdrive: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
