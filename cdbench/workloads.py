"""Workloads of the cdrive benchmark: generated configs, CLI calls and gates.

Each operation is one ``cdrive compare|sweep --verify`` call on a config the
benchmark writes itself.  Every operation carries a correctness gate built
from the repository's own acceptance bounds (tests/test_acceptance.py and
tests/test_cli.py); none is tightened or loosened here.

This module uses the standard library only, so the runner can import it
without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# ops per workload, in the order a pass runs them
WORKLOADS = {
    "box_fast": ("gas_compare", "basis_compare"),
    "box_adiabatic": ("sweep_T",),
    "wells": ("grid_compare", "numeric_compare"),
}

ALL_OPS = tuple(name for ops in WORKLOADS.values() for name in ops)

# seeds of the pinned acceptance configs; ops without randomness take none
DEFAULT_SEEDS = {"gas_compare": 23, "sweep_T": 11, "numeric_compare": 1234}

SHOCK_T = 0.05  # criterion 9 and the basis pin: L 1 -> 2 over T = 0.05
SHELL_E = 334.47  # test_sweep_dissipation_trend shell energy
SWEEP_VALUES = "0.05,0.5,5"
BASIS_PIN = 0.36366  # bare-arm final fidelity at n_levels 64, dt 2e-5
BASIS_PIN_TOL = 5e-4
# criterion 6, b = 4: T = 0.2 * 2 pi / gap at L = 1 on the n = 512 grid
GRID_T = 0.72858

# Reduced sizes for the benchmark's own smoke test.  The gates stay as they
# are, so a smoke run may report failed operations; it checks plumbing only.
SMOKE = {
    "n_particles_gas": 400,
    "n_particles_sweep": 20,
    "n_levels": 16,
    "basis_dt": 2e-4,
    "n_points": 128,
    "grid_dt": 2e-3,
    "numeric_T": 0.1,
    "sweep_values": "0.05,0.5",
}


@dataclass(frozen=True)
class Operation:
    name: str
    mode: str  # "compare" or "sweep"
    config: dict
    extra_args: tuple = ()


def _linear(T):
    return {"shape": "linear", "lam_start": 1.0, "lam_end": 2.0, "duration": T}


def build_operation(name: str, seed: int | None, smoke: bool = False) -> Operation:
    """The config and CLI arguments of one operation for a given seed.

    ``seed=None`` takes the pinned default; ops without randomness ignore it.
    """
    s = DEFAULT_SEEDS.get(name) if seed is None else int(seed)
    if name == "gas_compare":
        T = SHOCK_T
        return Operation(name, "compare", {
            "kind": "classical_ensemble",
            "system": {"kind": "box"},
            "schedule": _linear(T),
            "initial": {"gas_momentum": 2.0},
            "numerics": {"n_particles": SMOKE["n_particles_gas"] if smoke else 10_000},
            "snapshots": [0.0, T / 4, T / 2, 3 * T / 4, T],
            "seed": s,
        })
    if name == "basis_compare":
        return Operation(name, "compare", {
            "kind": "quantum_basis",
            "system": {"kind": "box"},
            "schedule": _linear(SHOCK_T),
            "initial": {"level": 0},
            "numerics": {
                "n_levels": SMOKE["n_levels"] if smoke else 64,
                "dt": SMOKE["basis_dt"] if smoke else 2e-5,
            },
        })
    if name == "sweep_T":
        return Operation(name, "sweep", {
            "kind": "classical_ensemble",
            "system": {"kind": "box"},
            "schedule": _linear(1.0),
            "initial": {"energy": SHELL_E},
            "numerics": {"n_particles": SMOKE["n_particles_sweep"] if smoke else 200},
            "seed": s,
        }, ("--values", SMOKE["sweep_values"] if smoke else SWEEP_VALUES))
    if name == "grid_compare":
        return Operation(name, "compare", {
            "kind": "quantum_grid",
            "system": {"kind": "power_law", "b": 4},
            "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 2.0,
                         "duration": GRID_T},
            "initial": {"level": 1},
            "numerics": {
                "n_points": SMOKE["n_points"] if smoke else 512,
                "e_max": 40.0,
                "dt": SMOKE["grid_dt"] if smoke else 2e-4,
                "record_every": 50,
            },
        })
    if name == "numeric_compare":
        return Operation(name, "compare", {
            "kind": "classical_trajectory",
            "system": {"kind": "power_law", "b": 4},
            "generator": "numeric",
            "schedule": {"shape": "smoothstep", "lam_start": 1.0, "lam_end": 1.3,
                         "duration": SMOKE["numeric_T"] if smoke else 0.5},
            "initial": {"energy": 1.0},
            "numerics": {"dt": 1e-2, "tol": 1e-7},
            "seed": s,
        })
    raise KeyError(f"unknown operation {name!r}")


# ---------------------------------------------------------------------------
# gates: each returns the list of broken bounds for one report


def _gas_gate(rep):
    on, off = rep["compare"]["on"], rep["compare"]["off"]
    broken = []
    if not on["ks_max"] < 0.02:
        broken.append(f"on-arm ks_max {on['ks_max']!r} >= 0.02")
    for row in off["ks_series"]:
        if row["time"] > 0 and not row["statistic"] > 0.1:
            broken.append(f"off-arm KS {row['statistic']!r} <= 0.1 at t={row['time']!r}")
    if not on["omega_drift"] < 1e-7:
        broken.append(f"on-arm omega_drift {on['omega_drift']!r} >= 1e-7")
    return broken


def _basis_gate(rep):
    on, off = rep["compare"]["on"], rep["compare"]["off"]
    broken = []
    if not on["phase_error"] < 1e-8:
        broken.append(f"on-arm phase_error {on['phase_error']!r} >= 1e-8")
    if not on["population_drift"] < 1e-12:
        broken.append(f"on-arm population_drift {on['population_drift']!r} >= 1e-12")
    if not abs(off["final_fidelity"] - BASIS_PIN) < BASIS_PIN_TOL:
        broken.append(f"off-arm final_fidelity {off['final_fidelity']!r} "
                      f"not within {BASIS_PIN_TOL} of {BASIS_PIN}")
    return broken


def _sweep_gate(rep):
    flags = rep["sweep"]["flags"]
    broken = []
    if flags["dissipation_off_strictly_decreasing"] is not True:
        broken.append("off-arm dissipation not strictly decreasing in T")
    if not flags["max_omega_drift_on"] < 1e-7:
        broken.append(f"max_omega_drift_on {flags['max_omega_drift_on']!r} >= 1e-7")
    if not flags["max_dissipation_on"] < 1e-6 * SHELL_E:
        broken.append(f"max_dissipation_on {flags['max_dissipation_on']!r} >= 1e-6 E")
    return broken


def _grid_gate(rep):
    on, off = rep["compare"]["on"], rep["compare"]["off"]
    broken = []
    if not on["min_fidelity"] > 0.999:
        broken.append(f"on-arm min_fidelity {on['min_fidelity']!r} <= 0.999")
    if not off["final_fidelity"] < 0.99:
        broken.append(f"off-arm final_fidelity {off['final_fidelity']!r} >= 0.99")
    return broken


def _numeric_gate(rep):
    d_on = rep["compare"]["on"]["omega_drift"]
    d_off = rep["compare"]["off"]["omega_drift"]
    broken = []
    if not d_on < 1e-3:
        broken.append(f"on-arm drift {d_on!r} >= 1e-3")
    if not d_off > 10.0 * d_on:
        broken.append(f"off-arm drift {d_off!r} <= 10x on-arm drift {d_on!r}")
    return broken


GATES = {
    "gas_compare": _gas_gate,
    "basis_compare": _basis_gate,
    "sweep_T": _sweep_gate,
    "grid_compare": _grid_gate,
    "numeric_compare": _numeric_gate,
}


def check_operation(name: str, exit_code, report, digest, reference_digest) -> list:
    """Every reason the operation failed; empty when it passed.

    An operation fails on a nonzero exit, a broken gate, a report that lacks
    a gated value, or artifacts that differ from the first pass.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}")
    if report is None:
        problems.append("no report.json")
    else:
        try:
            problems += GATES[name](report)
        except (KeyError, TypeError) as exc:
            problems.append(f"report lacks a gated value: {exc!r}")
    if reference_digest is not None and digest != reference_digest:
        changed = sorted(k for k in set(digest) | set(reference_digest)
                         if digest.get(k) != reference_digest.get(k))
        problems.append("artifacts differ from the first pass: " + ", ".join(changed))
    return problems


def accuracy(name: str, report) -> dict:
    """The accuracy figures one passing operation contributes to the traced
    metrics."""
    if name == "gas_compare":
        on = report["compare"]["on"]
        return {"classical.omega_drift_on": on["omega_drift"],
                "classical.ks_max_on": on["ks_max"]}
    if name == "sweep_T":
        return {"classical.omega_drift_on": report["sweep"]["flags"]["max_omega_drift_on"]}
    if name in ("basis_compare", "grid_compare"):
        on, off = report["compare"]["on"], report["compare"]["off"]
        out = {"quantum.min_fidelity_on": on["min_fidelity"],
               "quantum.norm_drift_off": off["norm_drift"]}
        if name == "basis_compare":
            out["quantum.phase_error_on"] = on["phase_error"]
        return out
    if name == "numeric_compare":
        return {"generators.omega_drift_numeric_on": report["compare"]["on"]["omega_drift"]}
    return {}


def combine_accuracy(values: dict, extra: dict) -> dict:
    """Fold one operation's figures in: the worst case across operations."""
    out = dict(values)
    for key, v in extra.items():
        worst = min if key == "quantum.min_fidelity_on" else max
        out[key] = worst(out[key], float(v)) if key in out else float(v)
    return out
