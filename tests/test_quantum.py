"""Wavefunction-layer tests.

The driven box has a closed-form solution (stretched sine times a dynamical
phase); it oracles the basis propagator and the dilation maps.  The smooth
wells check the spectral generator against the dilation form and the grid
propagator against its own convergence order.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cdrive.errors import DomainError, NumericalError
from cdrive.quantum import (
    BasisTrajectory,
    EigenSystem,
    GridSpec,
    HermitianOperator,
    QuantumState,
    berry_connection,
    box_grid,
    box_phase,
    discretize_h0,
    eigensystem,
    exact_box_state,
    fidelity,
    finite_stretch,
    grad_h0_matrix,
    infinitesimal_stretch,
    propagate_basis,
    propagate_grid,
    well_grid,
    xi_dilation,
    xi_spectral,
    _potential_diagonal,
    _sine_coupling,
)
from cdrive.schedules import constant_hold, linear_ramp, smoothstep_ramp
from cdrive.systems import box, power_law

BOX = box()
SHO = power_law(2)
QUARTIC = power_law(4)


def sho_ground(grid):
    om = math.sqrt(2.0)
    psi = (om / math.pi) ** 0.25 * np.exp(-0.5 * om * grid.qs**2)
    return QuantumState("grid", psi.astype(complex), grid)


# ---------------------------------------------------------------------------
# domain types


def test_grid_spacing_convention():
    g = GridSpec(0.0, 1.0, 99)
    assert g.h == pytest.approx(0.01)
    assert g.qs[0] == pytest.approx(0.01)
    assert g.qs[-1] == pytest.approx(0.99)
    assert len(g.qs) == 99


def test_grid_rejects_small_and_empty():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 32)
    with pytest.raises(DomainError):
        GridSpec(1.0, 1.0, 128)


def test_state_norm_conventions():
    g = box_grid(1.0, 128)
    st = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    st.check_normalized()
    cs = QuantumState("eigenbasis", np.array([0.6, 0.8j]))
    assert cs.norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NumericalError):
        QuantumState("grid", np.ones(128), g).check_normalized()
    with pytest.raises(DomainError):
        QuantumState("fourier", np.ones(4))


def test_hermitian_operator_rejects_defect():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(NumericalError):
        HermitianOperator(m)
    HermitianOperator(np.zeros((4, 4)))  # zero operator is fine


# ---------------------------------------------------------------------------
# discretization and spectra


def test_power_law_potential_diagonal_matches_pointwise_loop():
    # one numpy expression in place of the per-point loop: same arithmetic,
    # so within a few ulps of the scalar potential at every grid point
    for b in (2, 4, 6):
        system = power_law(b, epsilon=1.7)
        for lam in (1.0, 1.37):
            grid = well_grid(system, lam, 40.0, 512)
            ref = np.array([system.potential_energy(q, lam) for q in grid.qs])
            np.testing.assert_allclose(
                _potential_diagonal(system, lam, grid), ref, rtol=4 * np.finfo(float).eps, atol=0
            )


def test_box_ground_energy():
    g = box_grid(1.0, 512)
    es = eigensystem(discretize_h0(BOX, 1.0, g), g, 1.0)
    exact = math.pi**2 / 2
    assert abs(es.energies[0] - exact) / exact < 1e-3


def test_sho_level_spacing():
    g = well_grid(SHO, 1.0, 15.0, 512)
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=8)
    gap = es.energies[1] - es.energies[0]
    assert abs(gap - math.sqrt(2)) / math.sqrt(2) < 1e-3


def test_eigenvalue_error_is_second_order():
    exact = math.pi**2 / 2
    errs = []
    for n in (128, 256):
        g = box_grid(1.0, n)
        es = eigensystem(discretize_h0(BOX, 1.0, g), g, 1.0, n_levels=4)
        errs.append(abs(es.energies[0] - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_box_eigenvectors_match_sines():
    g = box_grid(1.0, 256)
    es = eigensystem(discretize_h0(BOX, 1.0, g), g, 1.0, n_levels=3)
    for n in (1, 2, 3):
        target = np.sqrt(2) * np.sin(n * math.pi * g.qs)
        assert np.max(np.abs(es.states[:, n - 1] - target)) < 1e-10


def test_eigensystem_orthonormal_and_signed():
    g = well_grid(SHO, 1.0, 15.0, 256)
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=16)
    gram = g.h * (es.states.T @ es.states)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10
    for col in range(16):
        v = es.states[:, col]
        lead = v[np.flatnonzero(np.abs(v) > 1e-8)[0]]
        assert lead > 0


def test_quartic_ground_state_node_free():
    g = well_grid(QUARTIC, 1.0, 15.0, 256)
    es = eigensystem(discretize_h0(QUARTIC, 1.0, g), g, 1.0, n_levels=5)
    for n in range(5):
        v = es.states[:, n]
        # Sturm oscillation: n-th state has n sign changes (0-based)
        big = v[np.abs(v) > 1e-6 * np.max(np.abs(v))]
        assert np.sum(np.diff(np.sign(big)) != 0) == n
    sym = es.states[:, 0] - es.states[::-1, 0]
    assert np.max(np.abs(sym)) < 1e-9


def test_eigensystem_rejects_degeneracy():
    m = np.eye(64)
    m[0, 0] = m[1, 1] = 1.0
    m[2, 2] = 2.0
    g = GridSpec(0.0, 1.0, 64)
    with pytest.raises(NumericalError):
        eigensystem(HermitianOperator(m), g, 1.0)


def test_box_needs_matching_grid():
    with pytest.raises(DomainError):
        discretize_h0(BOX, 2.0, box_grid(1.0, 128))


# ---------------------------------------------------------------------------
# generator construction


def test_grad_h0_smooth_is_potential_gradient():
    g = well_grid(SHO, 1.0, 15.0, 128)
    m = grad_h0_matrix(SHO, 1.0, g)
    assert np.max(np.abs(m - np.diag(-2.0 * g.qs**2))) < 1e-12


def test_xi_dilation_structure():
    g = box_grid(1.0, 128)
    op = xi_dilation(1.0, 1.0, g)
    assert op.hermiticity_defect == 0.0
    assert np.max(np.abs(np.diag(op.matrix))) == 0.0
    assert np.max(np.abs(xi_dilation(1.0, 0.0, g).matrix)) == 0.0
    with pytest.raises(DomainError):
        xi_dilation(1.0, 1.5, g)


def test_xi_spectral_matches_dilation_harmonic():
    g = well_grid(SHO, 1.0, 15.0, 1024)
    xs = xi_spectral(SHO, 1.0, g, 12)
    assert xs.hermiticity_defect < 1e-12 * np.max(np.abs(xs.matrix))
    assert np.max(np.abs(np.diag(xs.matrix))) == 0.0
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=12)
    blk = g.h * (es.states.conj().T @ xi_dilation(1.0, 0.5, g).matrix @ es.states)
    num = np.max(np.abs(xs.matrix[:10, :10] - blk[:10, :10]))
    assert num / np.max(np.abs(blk[:10, :10])) < 1e-3


def test_xi_spectral_box_equals_dilation():
    # with the frame-change completion of dH0/dL the two constructions
    # coincide as matrices, not merely up to grid error
    g = box_grid(1.0, 256)
    xs = xi_spectral(BOX, 1.0, g, 10)
    es = eigensystem(discretize_h0(BOX, 1.0, g), g, 1.0, n_levels=10)
    blk = g.h * (es.states.conj().T @ xi_dilation(1.0, 1.0, g).matrix @ es.states)
    assert np.max(np.abs(xs.matrix - blk)) / np.max(np.abs(blk)) < 1e-10


def test_xi_spectral_commutator_identity():
    g = well_grid(SHO, 1.0, 15.0, 512)
    n_levels = 12
    xs = xi_spectral(SHO, 1.0, g, n_levels)
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=n_levels)
    grad = grad_h0_matrix(SHO, 1.0, g)
    block = g.h * (es.states.T @ grad @ es.states)
    h0 = np.diag(es.energies)
    comm = xs.matrix @ h0 - h0 @ xs.matrix
    target = 1j * (block - np.diag(np.diag(block)))
    assert np.max(np.abs(comm - target)) < 1e-8 * np.max(np.abs(block))


def test_xi_spectral_rejects_bad_truncation():
    g = well_grid(SHO, 1.0, 15.0, 128)
    with pytest.raises(DomainError):
        xi_spectral(SHO, 1.0, g, 1)
    with pytest.raises(DomainError):
        xi_spectral(SHO, 1.0, g, 500)


# ---------------------------------------------------------------------------
# stretch maps


def test_infinitesimal_stretch_box_sine():
    g = box_grid(1.0, 512)
    psi = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    d = 1e-3
    out = infinitesimal_stretch(psi, 1.0, d)
    target = np.sqrt(2 / (1 + d)) * np.sin(math.pi * g.qs / (1 + d))
    assert np.max(np.abs(out.amplitudes - target)) < 1e-4


def test_infinitesimal_stretch_remainder_is_second_order():
    g = box_grid(1.0, 512)
    psi = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    errs = []
    for d in (2e-3, 1e-3):
        out = infinitesimal_stretch(psi, 1.0, d)
        target = np.sqrt(2 / (1 + d)) * np.sin(math.pi * g.qs / (1 + d))
        errs.append(np.max(np.abs(out.amplitudes - target)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_finite_stretch_matches_scaled_state():
    g = well_grid(SHO, 1.0, 15.0, 512)
    st = sho_ground(g)
    s = 1.2
    out = finite_stretch(st, s)
    om = math.sqrt(2.0)
    target = s**-0.5 * (om / math.pi) ** 0.25 * np.exp(-0.5 * om * (g.qs / s) ** 2)
    assert np.max(np.abs(out.amplitudes - target)) < 1e-4
    assert abs(out.norm() - 1.0) < 1e-10


def test_stretch_norm_is_exact():
    g = box_grid(1.0, 256)
    psi = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    out = finite_stretch(psi, 1.001)
    assert abs(out.norm() - 1.0) < 1e-12
    with pytest.raises(DomainError):
        finite_stretch(psi, -1.0)


# ---------------------------------------------------------------------------
# grid propagation


def test_stationary_state_phase_and_fidelity():
    g = well_grid(SHO, 1.0, 15.0, 256)
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=2)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    period = 2 * math.pi / math.sqrt(2)
    rec = propagate_grid(SHO, constant_hold(1.0, period), psi0, dt=period / 4000,
                         record_every=100)
    assert rec.min_fidelity > 1 - 1e-8
    assert rec.phases[-1] == pytest.approx(-es.energies[0] * period, abs=1e-6)
    assert np.max(np.abs(rec.norms - 1.0)) < 1e-10


def _driving_setup(system, n_points):
    g0 = well_grid(system, 2.0, 40.0, n_points)
    es = eigensystem(discretize_h0(system, 1.0, g0), g0, 1.0, n_levels=4)
    gap = es.energies[1] - es.energies[0]
    sched = smoothstep_ramp(1.0, 2.0, 0.2 * 2 * math.pi / gap)
    return g0, es, sched


def test_transitionless_driving_harmonic():
    g, es, sched = _driving_setup(SHO, 256)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    on = propagate_grid(SHO, sched, psi0, dt=2e-4, record_every=50)
    off = propagate_grid(SHO, sched, psi0, dt=2e-4, with_cd=False, record_every=50)
    assert on.min_fidelity > 0.999
    assert off.final_fidelity < 0.99


def test_driving_excited_quartic():
    g, es, sched = _driving_setup(QUARTIC, 256)
    psi0 = QuantumState("grid", es.states[:, 1].astype(complex), g)
    rec = propagate_grid(QUARTIC, sched, psi0, dt=2e-4, track_level=1, record_every=50)
    assert rec.min_fidelity > 0.995


def test_grid_fidelity_deficit_second_order_in_dt():
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    fids = [
        propagate_grid(SHO, sched, psi0, dt, with_cd=False, record_every=10**9).final_fidelity
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    ratio = (fids[0] - fids[1]) / (fids[1] - fids[2])
    assert 3.0 < ratio < 5.5


def test_propagate_grid_rejects_box():
    g = box_grid(1.0, 128)
    psi = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    with pytest.raises(DomainError):
        propagate_grid(BOX, linear_ramp(1.0, 2.0, 1.0), psi, dt=1e-3)


def test_grid_trajectory_csv(tmp_path):
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    rec = propagate_grid(SHO, sched, psi0, dt=1e-3, record_every=100)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,fidelity,norm,phase,pop0,pop1,pop2,pop3"
    assert len(rows) == len(rec.times) + 1
    back = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    np.testing.assert_allclose(back[:, 1], rec.fidelities, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# basis propagation and the exact oracle


def test_exact_box_state_values():
    g = box_grid(1.0, 256)
    hold = constant_hold(1.0, 2.0)
    st = exact_box_state(1, hold, 0.0, g)
    assert np.max(np.abs(st.amplitudes - np.sqrt(2) * np.sin(math.pi * g.qs))) < 1e-12
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert box_phase(1, hold, 1.0) == pytest.approx(-math.pi**2 / 2, abs=1e-10)
    ramp = linear_ramp(1.0, 2.0, 1.0)
    assert box_phase(1, ramp, 1.0) == pytest.approx(-math.pi**2 / 4, abs=1e-10)


def test_basis_cd_phases_match_exact_solution():
    c0 = np.zeros(16, dtype=complex)
    c0[0] = 1.0
    for sched in (constant_hold(1.0, 1.0), linear_ramp(1.0, 2.0, 1.0)):
        rec = propagate_basis(sched, c0, n_levels=16, dt=1e-3)
        assert abs(rec.phase(0)[-1] - box_phase(1, sched, 1.0)) < 1e-8
        assert np.max(np.abs(rec.populations - rec.populations[0])) < 1e-12
        assert np.max(np.abs(rec.norms - 1.0)) < 1e-12


def test_basis_cd_excited_state_phase():
    c0 = np.zeros(16, dtype=complex)
    c0[2] = 1.0
    sched = linear_ramp(1.0, 2.0, 0.5)
    rec = propagate_basis(sched, c0, n_levels=16, dt=1e-3)
    assert abs(rec.phase(2)[-1] - box_phase(3, sched, 0.5)) < 1e-8


def test_basis_bare_expansion_regression():
    # fast expansion leaves the sudden-approximation ground population;
    # value pinned as a regression and stable under basis doubling
    sched = linear_ramp(1.0, 2.0, 0.05)
    pops = []
    for n_levels in (64, 128):
        c0 = np.zeros(n_levels, dtype=complex)
        c0[0] = 1.0
        rec = propagate_basis(sched, c0, n_levels=n_levels, dt=2e-5, with_cd=False)
        assert not rec.leakage_warning
        pops.append(rec.populations[-1, 0])
    assert pops[0] == pytest.approx(0.36366, abs=5e-4)
    assert abs(pops[0] - pops[1]) < 1e-3


def test_basis_bare_flags_truncation_leakage():
    # level 3 of 8 under a sudden doubling spills most of its population into
    # the top retained level, which the retained norm cannot show
    c0 = np.zeros(8, dtype=complex)
    c0[3] = 1.0
    rec = propagate_basis(linear_ramp(1.0, 2.0, 0.05), c0, n_levels=8, dt=2e-5,
                          with_cd=False)
    assert np.max(np.abs(rec.norms - 1.0)) < 1e-6
    assert rec.leakage_warning
    assert rec.edge_population > 0.5


def test_basis_cd_superposition_phases_match_box_phase():
    rng = np.random.default_rng(8)
    c0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    c0 /= np.linalg.norm(c0)
    for sched in (linear_ramp(1.0, 2.0, 0.05), smoothstep_ramp(1.0, 0.6, 0.02)):
        T = sched.duration
        rec = propagate_basis(sched, c0, n_levels=16, dt=1e-5, record_every=1)
        for n in range(16):
            advance = rec.phase(n)[-1] - np.angle(c0[n])
            assert abs(advance - box_phase(n + 1, sched, T)) < 1e-10, (sched.tag, n)
        assert np.max(np.abs(rec.populations - rec.populations[0])) < 1e-12


def _box_overlaps(ns, la, lb):
    """Exact overlaps <n(la)|m(lb)> of box sine states over [0, min(la, lb)]."""
    a = math.pi * ns[:, None] / la
    b = math.pi * ns[None, :] / lb
    cut = min(la, lb)
    ints = 0.5 * cut * (np.sinc((a - b) * cut / math.pi) - np.sinc((a + b) * cut / math.pi))
    return 2.0 / math.sqrt(la * lb) * ints


def _fd_box_coupling(n_levels, lam, delta_rel=1e-6):
    """<n|d/dL m> by central differencing of the exact overlaps, antisymmetrized."""
    ns = np.arange(1, n_levels + 1, dtype=float)
    d = delta_rel * lam
    raw = (_box_overlaps(ns, lam, lam + d) - _box_overlaps(ns, lam, lam - d)) / (2.0 * d)
    return 0.5 * (raw - raw.T)


def test_sine_coupling_closed_form():
    d1 = _sine_coupling(32)
    np.testing.assert_array_equal(d1, -d1.T)
    for lam in (1.0, 1.7, 3.0):
        err = np.max(np.abs(d1 / lam - _fd_box_coupling(32, lam)))
        assert err < 1e-8 * np.max(np.abs(d1)) / lam, lam


def test_basis_superposition_interference():
    # equal superposition keeps its populations under driving
    c0 = np.zeros(8, dtype=complex)
    c0[0] = c0[1] = 1 / math.sqrt(2)
    rec = propagate_basis(smoothstep_ramp(1.0, 1.5, 0.3), c0, n_levels=8, dt=5e-4)
    assert np.max(np.abs(rec.populations[-1] - rec.populations[0])) < 1e-12


def test_basis_trajectory_csv(tmp_path):
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    rec = propagate_basis(linear_ramp(1.0, 2.0, 0.1), c0, n_levels=8, dt=1e-3)
    path = tmp_path / "basis.csv"
    rec.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,fidelity,norm,phase,pop0,pop1,pop2,pop3"
    assert len(rows) == len(rec.times) + 1


def test_basis_input_validation():
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 2.0
    with pytest.raises(DomainError):
        propagate_basis(linear_ramp(1.0, 2.0, 1.0), c0, n_levels=8)
    with pytest.raises(DomainError):
        propagate_basis(linear_ramp(1.0, 2.0, 1.0), np.ones(4) / 2, n_levels=8)


# ---------------------------------------------------------------------------
# connection and fidelity diagnostics


def _es_pair(system, lam, d_lam, n_points=256):
    g = well_grid(system, 1.0, 15.0, n_points)
    es_a = eigensystem(discretize_h0(system, lam, g), g, lam, n_levels=8)
    es_b = eigensystem(discretize_h0(system, lam + d_lam, g), g, lam + d_lam, n_levels=8)
    return es_a, es_b


def test_berry_connection_vanishes():
    es_a, es_b = _es_pair(SHO, 1.0, 1e-6)
    for n in (0, 1, 3):
        assert abs(berry_connection(es_a, es_b, n)) < 1e-8
    # normalization derivative: Re<n|dn> = 0
    h = es_a.grid.h
    dv = (es_b.states[:, 0] - es_a.states[:, 0]) / 1e-6
    assert abs(float(np.real(h * np.vdot(es_a.states[:, 0], dv)))) < 1e-6


def test_berry_connection_box():
    g = box_grid(1.0, 256)
    es_a = eigensystem(discretize_h0(BOX, 1.0, g), g, 1.0, n_levels=4)
    d = 1e-6
    # compare the stretched-box states on the shared interior index map
    gb = box_grid(1.0 + d, 256)
    es_b = eigensystem(discretize_h0(BOX, 1.0 + d, gb), g, 1.0 + d, n_levels=4)
    for n in range(4):
        assert abs(berry_connection(es_a, es_b, n)) < 1e-8


def test_berry_connection_corrects_sign_flip():
    es_a, es_b = _es_pair(SHO, 1.0, 1e-6)
    flipped = replace(es_b, states=-es_b.states)
    assert abs(berry_connection(es_a, flipped, 2)) < 1e-8


def test_fidelity_projections():
    g = well_grid(SHO, 1.0, 15.0, 256)
    es = eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=4)
    psi = QuantumState("grid", es.states[:, 1].astype(complex), g)
    assert fidelity(psi, es, 1) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(psi, es, 0) == pytest.approx(0.0, abs=1e-12)
    mix = QuantumState(
        "grid", ((es.states[:, 0] + es.states[:, 1]) / math.sqrt(2)).astype(complex), g
    )
    assert fidelity(mix, es, 0) == pytest.approx(0.5, abs=1e-10)
    assert fidelity(mix, es, 1) == pytest.approx(0.5, abs=1e-10)
    coeff = QuantumState("eigenbasis", np.array([0.6, 0.8]))
    assert fidelity(coeff, es, 1) == pytest.approx(0.64)
