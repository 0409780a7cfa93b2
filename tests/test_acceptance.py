"""Acceptance suite: the ten delivery criteria, one test each.

Everything here is deliberately redundant with the unit suites; this file is
the go/no-go checklist, with tolerances and wall-clock budgets pinned.  Run
with -v to get one pass/fail line per criterion.
"""

import math
import time

import numpy as np

from cdrive.classical import (
    dissipation,
    evolve_bare,
    evolve_cd,
    evolve_ensemble,
    shell_sampler,
    uniform_gas_sampler,
)
from cdrive.generators import (
    AnalyticGenerator,
    box_generator,
    build_xi_numeric,
    power_law_generator,
    verify_generator,
)
from cdrive.quantum import (
    QuantumState,
    box_grid,
    box_phase,
    discretize_h0,
    eigensystem,
    grad_h0_matrix,
    propagate_basis,
    propagate_grid,
    well_grid,
    xi_dilation,
    xi_spectral,
)
from cdrive.schedules import (
    constant_hold,
    cosine_ramp,
    linear_ramp,
    smoothstep_ramp,
)
from cdrive.shells import orbit_period, turning_points
from cdrive.systems import box, power_law
from oracles import finite_stretch, infinitesimal_stretch

BOX = box()


def _ramps(T=0.05):
    return (
        linear_ramp(1.0, 2.0, T),
        smoothstep_ramp(1.0, 2.0, T),
        cosine_ramp(1.0, 2.0, T),
    )


def test_criterion_01_box_exact_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    points = list(zip(rng.uniform(0.05, 0.95, 20),
                      rng.uniform(1.0, 4.5, 20) * rng.choice([-1.0, 1.0], 20)))
    gen = box_generator()
    for sched in _ramps():
        for z0 in points:
            rec = evolve_cd(BOX, gen, sched, z0, dt=sched.duration / 2000,
                            tol=1e-11)
            assert rec.drift() < 1e-7
        for z0 in points:
            assert evolve_bare(BOX, sched, z0, dt=sched.duration / 2000).drift() > 1e-2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_power_law_conservation_and_order():
    t0 = time.perf_counter()
    for b in (2, 4, 6):
        system = power_law(b)
        gen = power_law_generator(b)
        q_plus = turning_points(system, 2.0, 1.0)[1]
        for sched in _ramps():
            for z0 in ((q_plus, 0.0), (0.3 * q_plus, 1.1), (-0.6 * q_plus, -0.7)):
                rec = evolve_cd(system, gen, sched, z0, dt=1e-4)
                assert rec.drift() < 1e-7, f"b={b} {sched.tag}"
    # halving the fixed step cuts the drift by ~2^4
    system, gen = power_law(2), power_law_generator(2)
    sched = smoothstep_ramp(1.0, 2.0, 0.1 * orbit_period(system, 1.0, 1.0))
    q_plus = turning_points(system, 1.0, 1.0)[1]
    drifts = [
        evolve_cd(system, gen, sched, (q_plus, 0.0), dt=sched.duration / n,
                  fixed_step=True).drift()
        for n in (40, 80)
    ]
    assert 8.0 < drifts[0] / drifts[1] < 32.0
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_numeric_generator_matches_closed_form():
    t0 = time.perf_counter()
    for b, mu in ((2, 0.5), (4, 2.0 / 3.0)):
        system = power_law(b)
        for E, lam in ((1.0, 1.0), (2.0, 1.3)):
            table = build_xi_numeric(system, E, lam, n_samples=256)
            ref = mu * table.qs * table.ps / lam
            assert np.max(np.abs(table.xis - ref)) < 1e-6, f"b={b} E={E}"
            assert abs(table.time_average()) < 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_shell_conditions_and_corrupted_control():
    cases = [(BOX, box_generator())]
    cases += [(power_law(b), power_law_generator(b)) for b in (2, 4, 6)]
    for system, gen in cases:
        report = verify_generator(system, gen, 1.0, [0.5, 1.0, 2.0], n_points=100)
        assert report.bracket_residual < 1e-8, system.kind
        assert report.average_residual < 1e-8, system.kind

    def value(z, lam):
        return 0.4 * z[0] * z[1] / lam

    def grad(z, lam):
        return 0.4 * z[1] / lam, 0.4 * z[0] / lam

    bad = AnalyticGenerator(value, grad, name="corrupted")
    report = verify_generator(power_law(2), bad, 1.0, [1.0], n_points=100)
    assert report.bracket_residual > 1e-2


def test_criterion_05_basis_phases_match_exact_solution():
    for sched in (constant_hold(1.0, 1.0), linear_ramp(1.0, 2.0, 1.0)):
        for level in (0, 2):
            c0 = np.zeros(16, dtype=complex)
            c0[level] = 1.0
            rec = propagate_basis(sched, c0, n_levels=16, dt=1e-3)
            exact = box_phase(level + 1, sched, sched.duration)
            assert abs(rec.phase(level)[-1] - exact) < 1e-8, sched.tag
            assert np.max(np.abs(rec.populations - rec.populations[0])) < 1e-12


def test_criterion_06_transitionless_grid_driving():
    t0 = time.perf_counter()
    for system, level in ((power_law(2), 0), (power_law(4), 1)):
        grid = well_grid(system, 2.0, 40.0, 512)
        es = eigensystem(discretize_h0(system, 1.0, grid), grid, 1.0, n_levels=4)
        gap = es.energies[1] - es.energies[0]
        sched = smoothstep_ramp(1.0, 2.0, 0.2 * 2.0 * math.pi / gap)
        psi0 = QuantumState("grid", es.states[:, level].astype(complex), grid)
        on = propagate_grid(system, sched, psi0, dt=2e-4, track_level=level,
                            record_every=50)
        off = propagate_grid(system, sched, psi0, dt=2e-4, with_cd=False,
                             track_level=level, record_every=50)
        assert on.min_fidelity > 0.999, f"b={system.b}"
        assert off.final_fidelity < 0.99, f"b={system.b}"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_stretch_maps():
    grid = well_grid(power_law(2), 1.0, 15.0, 512)
    om = math.sqrt(2.0)
    ground = (om / math.pi) ** 0.25 * np.exp(-0.5 * om * grid.qs**2)
    psi = QuantumState("grid", ground.astype(complex), grid)
    s = 1.2
    out = finite_stretch(psi, s)
    target = s**-0.5 * (om / math.pi) ** 0.25 * np.exp(-0.5 * om * (grid.qs / s) ** 2)
    assert np.max(np.abs(out.amplitudes - target)) < 1e-4

    gb = box_grid(1.0, 512)
    sine = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * gb.qs), gb)
    d = 1e-3
    out = infinitesimal_stretch(sine, 1.0, d)
    target = np.sqrt(2.0 / (1 + d)) * np.sin(math.pi * gb.qs / (1 + d))
    assert np.max(np.abs(out.amplitudes - target)) < 1e-4


def test_criterion_08_commutator_and_construction_agreement():
    system = power_law(2)
    n_levels = 12
    grid = well_grid(system, 1.0, 15.0, 1024)
    xs = xi_spectral(system, 1.0, grid, n_levels)
    es = eigensystem(discretize_h0(system, 1.0, grid), grid, 1.0, n_levels=n_levels)
    grad = grad_h0_matrix(system, 1.0, grid)
    block = grid.h * (es.states.T @ grad @ es.states)
    h0 = np.diag(es.energies)
    comm = xs.matrix @ h0 - h0 @ xs.matrix
    target = 1j * (block - np.diag(np.diag(block)))
    assert np.max(np.abs(comm - target)) < 1e-8 * np.max(np.abs(block))

    dil = grid.h * (es.states.conj().T @ xi_dilation(1.0, 0.5, grid).matrix @ es.states)
    err = np.max(np.abs(xs.matrix[:10, :10] - dil[:10, :10]))
    assert err / np.max(np.abs(dil[:10, :10])) < 1e-3


def test_criterion_09_shock_suppression():
    t0 = time.perf_counter()
    sched = linear_ramp(1.0, 2.0, 0.05)
    snaps = [0.0, 0.0125, 0.025, 0.0375, 0.05]
    on = evolve_ensemble(BOX, box_generator(), sched, uniform_gas_sampler(2.0),
                         10_000, seed=23, snapshot_times=snaps)
    off = evolve_ensemble(BOX, None, sched, uniform_gas_sampler(2.0),
                          10_000, seed=23, snapshot_times=snaps)
    assert float(np.max(on.ks_stats)) < 0.02
    assert float(np.min(off.ks_stats[1:])) > 0.1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_adiabatic_limit_trend():
    # durations span three decades at mid-fraction bounce counts, away from
    # the measure-zero resonances where the bare loss crosses zero
    E0 = 450.0
    bare, driven = [], []
    for T in (0.073, 0.73, 7.35, 73.38):
        sched = linear_ramp(1.0, 2.0, T)
        off = evolve_ensemble(BOX, None, sched, shell_sampler(E0), 1200,
                              seed=7, snapshot_times=[0.0, T])
        on = evolve_ensemble(BOX, box_generator(), sched, shell_sampler(E0),
                             1200, seed=7, snapshot_times=[0.0, T])
        bare.append(dissipation(off, BOX, sched))
        driven.append(dissipation(on, BOX, sched))
    assert all(w > 0 for w in bare)
    assert all(a > b for a, b in zip(bare[:-1], bare[1:]))
    for w in driven:
        assert abs(w) < 1e-6 * E0
