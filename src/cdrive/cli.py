"""Batch front end: `cdrive run|compare|sweep <config.json>`.

Every invocation writes report.json (validated against the shipped report
schema) plus the data CSVs for the experiment kind.  Exit codes: 0 all
configured assertions pass; 1 an assertion failed but the run completed;
2 invalid configuration; 3 numerical failure, with a diagnostic error.json
left in the output directory.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np

from .classical import (
    _draw_initial_conditions,
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
    build_xi_numeric,
    verify_generator,
)
from .quantum import (
    QuantumState,
    _xi_spectral_parts,
    box_grid,
    box_phase,
    discretize_h0,
    eigensystem,
    propagate_basis,
    propagate_grid,
    well_grid,
    xi_dilation,
)

SCHEMA_VERSION = "cdrive-report-v1"


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("CDRIVE_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"CDRIVE_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise ConfigError(f"CDRIVE_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


# ---------------------------------------------------------------------------
# experiment runners: each returns (metrics, artifact names, resolved numerics);
# the resolved numerics name the integrator that ran


def _classical_generator(cfg: ExperimentConfig):
    if not cfg.cd_enabled:
        return None
    if cfg.generator == "numeric":
        return NumericShellGenerator(cfg.system)
    return analytic_generator_for(cfg.system)


def _run_classical_trajectory(cfg, out):
    sched = cfg.schedule
    energy = float(cfg.initial["energy"])
    qs, ps = _draw_initial_conditions(
        cfg.system, shell_sampler(energy), sched.initial, 1, cfg.seed
    )
    z0 = (float(qs[0]), float(ps[0]))
    dt = cfg.numerics["dt"] or sched.duration / 2000.0
    tol = cfg.numerics["tol"]
    gen = _classical_generator(cfg)
    if gen is None:
        rec = evolve_bare(cfg.system, sched, z0, dt, tol=tol)
    else:
        rec = evolve_cd(cfg.system, gen, sched, z0, dt, tol=tol)
    artifacts = []
    if out is not None:
        rec.to_csv(out / "trajectory.csv")
        artifacts.append("trajectory.csv")
    s = rec.summary()
    metrics = {
        "omega_drift": float(s["drift"]),
        "final_h0": float(s["final_h0"]),
        "n_collisions": int(s["n_collisions"]),
    }
    integrator = "box_exact_flow" if cfg.system.kind == "box" else "adaptive_rk4_events"
    return metrics, artifacts, {"dt": float(dt), "integrator": integrator}


def _run_classical_ensemble(cfg, out):
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
        cfg.system, _classical_generator(cfg), sched, sampler,
        cfg.numerics["n_particles"], cfg.seed, snaps,
        dt=dt, tol=cfg.numerics["tol"],
    )
    artifacts = []
    if out is not None:
        for k in range(len(rec.snapshot_times)):
            name = f"ensemble_{k}.csv"
            rec.snapshot_csv(k, out / name)
            artifacts.append(name)
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
    # mirror the engine's internal step default so the report records it
    is_box = cfg.system.kind == "box"
    auto = sched.duration / (500.0 if is_box else 1000.0)
    return metrics, artifacts, {
        "dt": float(dt if dt is not None else auto),
        "integrator": "box_exact_flow" if is_box else "adaptive_rk4_events",
    }


def _run_quantum_grid(cfg, out):
    sched, system, num = cfg.schedule, cfg.system, cfg.numerics
    level = int(cfg.initial.get("level", 0))
    # size the grid for the widest well the schedule visits
    lam_wide = float(np.max(sched.value(np.linspace(0.0, sched.duration, 65))))
    grid = well_grid(system, lam_wide, num["e_max"], num["n_points"])
    n_keep = max(8, level + 4)
    es0 = eigensystem(
        discretize_h0(system, sched.initial, grid, num["hbar"]),
        grid, sched.initial, n_levels=n_keep,
    )
    psi0 = QuantumState("grid", es0.states[:, level].astype(complex), grid)
    dt = num["dt"] or 2e-4
    rec = propagate_grid(
        system, sched, psi0, dt, with_cd=cfg.cd_enabled, track_level=level,
        n_leading=max(4, level + 1), record_every=num["record_every"],
        hbar=num["hbar"],
    )
    artifacts = []
    if out is not None:
        rec.to_csv(out / "trajectory.csv")
        artifacts.append("trajectory.csv")
        es_end = eigensystem(
            discretize_h0(system, sched.final, grid, num["hbar"]),
            grid, sched.final, n_levels=n_keep,
        )
        with open(out / "spectrum.csv", "w") as fh:
            fh.write("level,energy_start,energy_end\n")
            for k in range(n_keep):
                fh.write(f"{k},{float(es0.energies[k])!r},{float(es_end.energies[k])!r}\n")
        artifacts.append("spectrum.csv")
    metrics = {
        "min_fidelity": float(rec.min_fidelity),
        "final_fidelity": float(rec.final_fidelity),
        "norm_drift": float(np.max(np.abs(rec.norms - 1.0))),
    }
    return metrics, artifacts, {"dt": float(dt), "integrator": "cayley_midpoint"}


def _run_quantum_basis(cfg, out):
    sched, num = cfg.schedule, cfg.numerics
    level = int(cfg.initial.get("level", 0))
    c0 = np.zeros(num["n_levels"], dtype=complex)
    c0[level] = 1.0
    dt = num["dt"] or 1e-4
    rec = propagate_basis(
        sched, c0, n_levels=num["n_levels"], dt=dt, with_cd=cfg.cd_enabled,
        mass=cfg.system.mass, hbar=num["hbar"], record_every=num["record_every"],
    )
    artifacts = []
    if out is not None:
        rec.to_csv(out / "trajectory.csv", track_level=level)
        artifacts.append("trajectory.csv")
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
    integrator = "exact_phase" if cfg.cd_enabled else "strang_split"
    return metrics, artifacts, {"dt": float(dt), "integrator": integrator}


def _run_generator_check(cfg, out):
    lam = cfg.schedule.initial
    n_pts = cfg.numerics["shell_points"]
    shells = [float(E) for E in cfg.shells]
    if cfg.generator == "numeric":
        # tables are shell-local, so verify one at a time and keep the worst
        brackets, averages = [], []
        for E in shells:
            table = build_xi_numeric(cfg.system, E, lam)
            chk = verify_generator(cfg.system, table, lam, [E], n_points=n_pts)
            brackets.append(chk.bracket_residual)
            averages.append(chk.average_residual)
        residuals = {
            "shells": shells,
            "bracket_residual": float(max(brackets)),
            "average_residual": float(max(averages)),
        }
    else:
        chk = verify_generator(
            cfg.system, analytic_generator_for(cfg.system), lam, shells,
            n_points=n_pts,
        )
        residuals = {
            "shells": shells,
            "bracket_residual": float(chk.bracket_residual),
            "average_residual": float(chk.average_residual),
        }
    return {"generator_residuals": residuals}, [], {"integrator": "orbit_quadrature"}


_RUNNERS = {
    "classical_trajectory": _run_classical_trajectory,
    "classical_ensemble": _run_classical_ensemble,
    "quantum_grid": _run_quantum_grid,
    "quantum_basis": _run_quantum_basis,
    "generator_check": _run_generator_check,
}


def _execute(cfg: ExperimentConfig, out):
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.kind](cfg, out)


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

_COMPARE_RULES = {
    "fidelity_on": (">", lambda c: c["on"].get("min_fidelity")),
    "fidelity_off": ("<", lambda c: c["off"].get("final_fidelity")),
    "drift_ratio": (">", lambda c: c["gaps"].get("drift_ratio")),
    "ks_gap": (">", lambda c: c["gaps"].get("ks_gap")),
    "dissipation_gap": (">", lambda c: c["gaps"].get("dissipation_gap")),
}

_SWEEP_RULES = {
    "monotone_dissipation_off": ("flag", lambda s: s["flags"].get("dissipation_off_strictly_decreasing")),
    "monotone_fidelity_deficit_off": ("flag", lambda s: s["flags"].get("fidelity_deficit_off_strictly_decreasing")),
    "omega_drift_on": ("<", lambda s: s["flags"].get("max_omega_drift_on")),
    "dissipation_on_max": ("<", lambda s: s["flags"].get("max_dissipation_on")),
}


def _evaluate(assertions: dict, rules: dict, source) -> tuple[list, bool]:
    """Each configured assertion becomes a report row; a missing value (the
    experiment did not produce that metric) fails the row rather than
    erroring, so exit 1 still means 'run completed'."""
    rows, all_ok = [], True
    for name in sorted(assertions):
        if name not in rules:
            raise ConfigError(
                f"unknown assertion {name!r}; this mode knows: "
                + ", ".join(sorted(rules))
            )
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
            "value": None if value is None else float(value),
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
        grid, mu = box_grid(lam0, n_points), 1.0
    else:
        grid = well_grid(system, lam0, num["e_max"], n_points)
        mu = system.b / (system.b + 2.0)
    hbar = num["hbar"]
    xs, es, block = _xi_spectral_parts(system, lam0, grid, n_levels, hbar)
    h0 = np.diag(es.energies)
    comm = xs.matrix @ h0 - h0 @ xs.matrix
    target = 1j * hbar * (block - np.diag(np.diag(block)))
    scale = float(np.max(np.abs(block)))
    dil = grid.h * (es.states.conj().T @ xi_dilation(lam0, mu, grid, hbar).matrix @ es.states)
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
    chk = verify_generator(
        cfg.system, analytic_generator_for(cfg.system), cfg.schedule.initial,
        shells, n_points=cfg.numerics["shell_points"],
    )
    block = {
        "generator": {
            "shells": shells,
            "bracket_residual": float(chk.bracket_residual),
            "average_residual": float(chk.average_residual),
        },
        "commutator": None,
    }
    fixed = {
        "verify_bracket_residual": (chk.bracket_residual, 1e-8),
        "verify_average_residual": (chk.average_residual, 1e-8),
    }
    if cfg.kind in ("quantum_grid", "quantum_basis"):
        comm = _commutator_residual(cfg)
        block["commutator"] = comm
        fixed["verify_commutator"] = (comm["relative_residual"], 1e-8)
    rows, ok = [], True
    for name in sorted(fixed):
        value, threshold = fixed[name]
        passed = value < threshold
        rows.append({
            "name": name, "threshold": threshold,
            "value": float(value), "passed": bool(passed),
        })
        ok = ok and passed
    return block, rows, ok


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
    (out / "report.json").write_text(text + "\n")


# ---------------------------------------------------------------------------
# modes


def do_run(cfg: ExperimentConfig, out: Path, verify: bool) -> int:
    t0 = time.perf_counter()
    metrics, artifacts, resolved = _execute(cfg, out)
    rows, ok = _evaluate(cfg.assertions, _RUN_RULES, metrics)
    report = _base_report(cfg, "run", 1, resolved)
    report["cd_enabled"] = bool(cfg.cd_enabled)
    report["metrics"] = metrics
    if verify:
        block, vrows, vok = _verify_block(cfg)
        report["verify"] = block
        rows, ok = rows + vrows, ok and vok
    report["assertions"] = rows
    report["passed"] = bool(ok)
    report["artifacts"] = artifacts + ["report.json"]
    report["runtime_seconds"] = time.perf_counter() - t0
    _write_report(report, out)
    return 0 if ok else 1


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
    arms = {
        "on": cfg.with_updates(cd_enabled=True),
        "off": cfg.with_updates(cd_enabled=False),
    }
    threads = _worker_count(2)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {
            name: pool.submit(_execute, arm, out / name)
            for name, arm in arms.items()
        }
        results = {name: fut.result() for name, fut in futures.items()}
    on, off = results["on"][0], results["off"][0]
    compare = {"on": on, "off": off, "gaps": _gaps(on, off)}
    rows, ok = _evaluate(cfg.assertions, _COMPARE_RULES, compare)
    report = _base_report(cfg, "compare", threads, results["on"][2])
    report["cd_enabled"] = None
    report["metrics"] = on
    report["compare"] = compare
    if verify:
        block, vrows, vok = _verify_block(cfg)
        report["verify"] = block
        rows, ok = rows + vrows, ok and vok
    report["assertions"] = rows
    report["passed"] = bool(ok)
    report["artifacts"] = (
        [f"on/{a}" for a in results["on"][1]]
        + [f"off/{a}" for a in results["off"][1]]
        + ["report.json"]
    )
    report["runtime_seconds"] = time.perf_counter() - t0
    _write_report(report, out)
    return 0 if ok else 1


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

    jobs = {}
    for T in ts:
        base = cfg.with_duration(T)
        jobs[(T, "on")] = base.with_updates(cd_enabled=True)
        jobs[(T, "off")] = base.with_updates(cd_enabled=False)
    threads = _worker_count(len(jobs))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {key: pool.submit(_execute, job, None) for key, job in jobs.items()}
        results = {key: fut.result() for key, fut in futures.items()}

    def deficit(metrics):
        f = metrics.get("final_fidelity")
        return None if f is None else 1.0 - f

    rows = []
    for T in ts:
        on, off = results[(T, "on")][0], results[(T, "off")][0]
        rows.append({
            "T": T,
            "omega_drift_on": on.get("omega_drift"),
            "omega_drift_off": off.get("omega_drift"),
            "dissipation_on": on.get("dissipation"),
            "dissipation_off": off.get("dissipation"),
            "fidelity_deficit_on": deficit(on),
            "fidelity_deficit_off": deficit(off),
        })

    def column(name):
        vals = [r[name] for r in rows]
        return vals if all(v is not None for v in vals) else None

    diss_off = column("dissipation_off")
    defc_off = column("fidelity_deficit_off")
    drift_on = column("omega_drift_on")
    diss_on = column("dissipation_on")
    flags = {
        "dissipation_off_strictly_decreasing":
            None if diss_off is None else _strictly_decreasing(diss_off),
        "fidelity_deficit_off_strictly_decreasing":
            None if defc_off is None else _strictly_decreasing(defc_off),
        "max_omega_drift_on": None if drift_on is None else float(max(drift_on)),
        "max_dissipation_on": None if diss_on is None else float(max(diss_on)),
    }
    sweep_block = {"axis": "T", "values": ts, "rows": rows, "flags": flags}
    rows_a, ok = _evaluate(cfg.assertions, _SWEEP_RULES, sweep_block)

    out.mkdir(parents=True, exist_ok=True)
    names = ("omega_drift_on", "omega_drift_off", "dissipation_on",
             "dissipation_off", "fidelity_deficit_on", "fidelity_deficit_off")
    with open(out / "sweep.csv", "w") as fh:
        fh.write("T," + ",".join(names) + "\n")
        for r in rows:
            cells = [repr(float(r["T"]))]
            cells += ["" if r[n] is None else repr(float(r[n])) for n in names]
            fh.write(",".join(cells) + "\n")

    integrator = results[(ts[0], "on")][2]["integrator"]
    report = _base_report(cfg, "sweep", threads, {"integrator": integrator})
    report["cd_enabled"] = None
    report["metrics"] = {}
    report["sweep"] = sweep_block
    if verify:
        block, vrows, vok = _verify_block(cfg)
        report["verify"] = block
        rows_a, ok = rows_a + vrows, ok and vok
    report["assertions"] = rows_a
    report["passed"] = bool(ok)
    report["artifacts"] = ["sweep.csv", "report.json"]
    report["runtime_seconds"] = time.perf_counter() - t0
    _write_report(report, out)
    return 0 if ok else 1


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
    except (NumericalError, jsonschema.ValidationError) as exc:
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
