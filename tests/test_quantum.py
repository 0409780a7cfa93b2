"""Wavefunction-layer tests.

The driven box has a closed-form solution (stretched sine times a dynamical
phase); it oracles the basis propagator and the dilation maps.  The bare
basis arm on a linear ramp is held to the exact Doescher-Rice state.  The smooth
wells check the spectral generator against the dilation form and the grid
propagator against its own convergence order and, with the CD term on a
power-law well, against the exact scale-invariant state.
"""

import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import cdrive.quantum as quantum
from cdrive.errors import DomainError, NumericalError
from cdrive.quantum import (
    BasisTrajectory,
    EigenSystem,
    GridSpec,
    HermitianOperator,
    QuantumState,
    box_grid,
    box_phase,
    discretize_h0,
    eigensystem,
    exact_box_state,
    fidelity,
    grad_h0_matrix,
    propagate_basis,
    propagate_grid,
    well_grid,
    xi_dilation,
    xi_spectral,
    _dilation_offdiag,
    _band_eigensystem,
    _fix_signs,
    _h0_bands,
    _kick,
    _kick_basis,
    _potential_diagonal,
    _propagate_arms,
    _sine_coupling,
)
from cdrive.schedules import (
    Schedule,
    clock,
    constant_hold,
    cosine_ramp,
    linear_ramp,
    smoothstep_ramp,
    tabulated,
)
from cdrive.systems import SystemModel, box, generic_1d, power_law
from oracles import (
    berry_connection,
    doescher_rice_coefficients,
    ermakov_ground_state,
    finite_stretch,
    infinitesimal_stretch,
)

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


def test_grid_point_count_must_be_an_integer():
    # a float count is rejected, not rounded; numpy integers are integers
    for n in (100.7, 128.0, math.nan, "128"):
        with pytest.raises(DomainError, match="grid point count must be an integer"):
            GridSpec(0.0, 1.0, n)
    assert len(GridSpec(0.0, 1.0, np.int64(100)).qs) == 100


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


def test_nan_grid_state_fails_norm_check():
    g = box_grid(1.0, 128)
    with pytest.raises(NumericalError):
        QuantumState("grid", np.full(128, np.nan), g).check_normalized()


def test_basis_rejects_nan_coefficients():
    c0 = np.zeros(8, dtype=complex)
    c0[0] = np.nan
    with pytest.raises(DomainError):
        propagate_basis(linear_ramp(1.0, 2.0, 0.05), c0, n_levels=8, dt=1e-3)


def test_hermitian_operator_rejects_defect():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(NumericalError):
        HermitianOperator(m)
    HermitianOperator(np.zeros((4, 4)))  # zero operator is fine


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (2, 2, 2)])
def test_hermitian_operator_rejects_empty_or_non_square_matrices(shape):
    with pytest.raises(DomainError, match=re.escape(f"square and nonempty, got {shape}")):
        HermitianOperator(np.zeros(shape))


@pytest.mark.parametrize("entry, value", [((2, 2), np.nan), ((0, 3), np.inf)],
                         ids=["nan-diagonal", "inf-off-diagonal"])
def test_hermitian_operator_rejects_non_finite_entries(entry, value):
    m = np.diag(np.arange(1.0, 9.0)) + np.diag(np.full(7, 0.5), 1) + np.diag(np.full(7, 0.5), -1)
    m[entry] = value
    with pytest.raises(NumericalError, match="must be finite"):
        HermitianOperator(m)


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


def test_eigensystem_subset_matches_full_decomposition():
    # a dense symmetric eigensolver is accurate to a few rounding units of the
    # spectral radius, which on stiff grids exceeds 1e-12 of the lowest
    # energies (box, 256 points: the full solve is 5e-12 off the closed-form
    # finite-difference levels); the energy bound allows for that floor
    eps = np.finfo(float).eps
    g = box_grid(1.0, 256)
    h0 = discretize_h0(BOX, 1.0, g)
    full = eigensystem(h0, g, 1.0)
    floor = 64 * eps * np.max(np.abs(full.energies))
    for k in (1, 8, 40):
        es = eigensystem(h0, g, 1.0, n_levels=k)
        np.testing.assert_allclose(es.energies, full.energies[:k], rtol=1e-12, atol=floor)
        np.testing.assert_allclose(es.states, full.states[:, :k], rtol=0, atol=1e-10)
    # wide well grids: the full spectrum is near-degenerate at the top, so
    # the full decomposition is taken straight from LAPACK
    for system, lam in ((SHO, 1.0), (QUARTIC, 1.3), (power_law(6), 0.8)):
        g = well_grid(system, lam, 40.0, 512)
        h0 = discretize_h0(system, lam, g)
        energies, vecs = scipy.linalg.eigh(h0.matrix.real)
        floor = 64 * eps * np.max(np.abs(energies))
        for k in (1, 8, 40):
            es = eigensystem(h0, g, lam, n_levels=k)
            np.testing.assert_allclose(es.energies, energies[:k], rtol=1e-12, atol=floor)
            np.testing.assert_allclose(
                es.states, _fix_signs(vecs[:, :k]) / math.sqrt(g.h), rtol=0, atol=1e-10
            )


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


def test_dense_eigensystem_rejects_degeneracy():
    # a coupling off the tridiagonal band takes the dense solve
    m = np.eye(64, dtype=complex)
    m[2, 2] = 2.0
    m[5, 60], m[60, 5] = 1e-3j, -1e-3j
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


@pytest.mark.parametrize("lam", [1.0, 1.7])
def test_grad_h0_box_matches_two_grid_difference(lam):
    # central difference of H0 on [0, L +- d] grids with matched indices,
    # plus the frame-change commutator, built here independently.  The
    # scalar part is c/L^2, whose central difference carries the relative
    # truncation 2(d/L)^2; rounding in H0 of relative size eps, divided by
    # d, adds eps L/d.  Scale: the -2H0/L piece the difference measures.
    n = 128
    g = box_grid(lam, n)
    d = 1e-5 * lam
    plus = discretize_h0(BOX, lam + d, box_grid(lam + d, n)).matrix.real
    minus = discretize_h0(BOX, lam - d, box_grid(lam - d, n)).matrix.real
    h0 = discretize_h0(BOX, lam, g).matrix.real
    w = (g.qs[:-1] + g.qs[1:]) / (4.0 * g.h)
    a = np.diag(w, 1) - np.diag(w, -1)
    fd = (plus - minus) / (2.0 * d) - (a @ h0 - h0 @ a) / lam
    bound = 2.0 * (d / lam) ** 2 + np.finfo(float).eps * lam / d
    err = np.max(np.abs(grad_h0_matrix(BOX, lam, g) - fd))
    assert err < bound * np.max(np.abs(2.0 * h0 / lam))


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


@pytest.mark.parametrize("lam0, lam1", [(1.0, 2.0), (2.0, 1.0)], ids=["expand", "compress"])
@pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
def test_grid_bare_arm_matches_ermakov_state(lam0, lam1, T):
    # from the grid ground state, the bare arm of V = (q/lam)^2 misses the
    # exact Ermakov state by O(h^2): its fidelity history and its final state
    # (phase included) each come 4.0x closer per doubling of n_points, 256 ->
    # 512 measured 3.98-4.03, and the 512-point misses are at most 1.18e-4 and
    # 6.1e-4 T (the phase error grows with T).  With the potential band's lam
    # scaled by 1.01 the drops read 0.78-1.42 and the misses at least 7.7e-4
    # and 4.3e-3 T
    sched = smoothstep_ramp(lam0, lam1, T)
    misses = []
    for n in (256, 512):
        g = well_grid(SHO, 2.0, 40.0, n)
        es = eigensystem(discretize_h0(SHO, lam0, g), g, lam0, n_levels=1)
        psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
        off, = _propagate_arms(SHO, sched, psi0, 1e-3, (False,))
        fids, psi = ermakov_ground_state(SHO, sched, off.times, g.qs)
        overlap = g.h * np.vdot(psi, off.final_state.amplitudes)
        misses.append((np.max(np.abs(off.fidelities - fids)), abs(overlap - 1.0)))
    (fid_256, state_256), (fid_512, state_512) = misses
    assert 3.9 < fid_256 / fid_512 < 4.1 and 3.9 < state_256 / state_512 < 4.1
    assert fid_512 < 1.5e-4 and state_512 < 7.5e-4 * T


_GL64 = np.polynomial.legendre.leggauss(64)


def _grid_cd_oracle_check(b, duration, lam0, lam1):
    """Run the CD grid arm on level 1 of power_law(b) at 512 and 1024 points
    and hold it to the exact scale-invariant state: fidelity 1 and phase
    -E_1(lam=1) tau_mu / hbar, tau_mu = int lam^(-2 mu) dt, with E_1 from
    the same grid at lam = 1.  Both errors are grid errors, falling 4x
    (phase) and 16x (fidelity deficit) per doubling, so the 1024-point
    error is bounded by 1.5 times its Richardson estimate from the pair.
    """
    system, level = power_law(b), 1
    sched = smoothstep_ramp(lam0, lam1, duration)
    nodes, weights = _GL64
    t = 0.5 * duration * (nodes + 1.0)
    tau = 0.5 * duration * float(weights @ sched.value(t) ** (-2.0 * system.mu))
    dt = 2.5e-4 if duration < 1.0 else 2e-3  # time error well under the grid error
    phase_err, deficit = [], []
    for n in (512, 1024):
        g = well_grid(system, 2.0, 40.0, n)
        e1 = _band_eigensystem(*_h0_bands(system, 1.0, g), g, 1.0, level + 1).energies[level]
        es0 = _band_eigensystem(*_h0_bands(system, lam0, g), g, lam0, level + 1)
        psi0 = QuantumState("grid", es0.states[:, level].astype(complex), g)
        rec = propagate_grid(system, sched, psi0, dt, track_level=level,
                             record_every=round(duration / dt / 40))
        phase_err.append(rec.phases[-1] + e1 * tau)
        deficit.append(1.0 - rec.final_fidelity)
    phase_bound = 1.5 * abs(phase_err[0] - phase_err[1]) / 3.0
    deficit_bound = 1.5 * (deficit[0] - deficit[1]) / 15.0
    assert abs(phase_err[1]) <= phase_bound, f"phase error {phase_err[1]:.3e} > {phase_bound:.3e}"
    assert deficit[1] <= deficit_bound, f"fidelity deficit {deficit[1]:.3e} > {deficit_bound:.3e}"


@pytest.mark.parametrize("lam0, lam1", [(1.0, 2.0), (2.0, 1.0)], ids=["expand", "compress"])
@pytest.mark.parametrize("duration", [0.2, 5.0])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_grid_cd_arm_matches_the_exact_scale_invariant_state(b, duration, lam0, lam1):
    _grid_cd_oracle_check(b, duration, lam0, lam1)


def test_grid_cd_oracle_rejects_a_mis_scaled_cd_band(monkeypatch):
    real = quantum._dilation_offdiag
    monkeypatch.setattr(quantum, "_dilation_offdiag", lambda *args: 1.01 * real(*args))
    with pytest.raises(AssertionError, match="fidelity deficit"):
        _grid_cd_oracle_check(4, 0.2, 1.0, 2.0)


def test_propagate_grid_rejects_box():
    g = box_grid(1.0, 128)
    psi = QuantumState("grid", np.sqrt(2) * np.sin(math.pi * g.qs), g)
    with pytest.raises(DomainError):
        propagate_grid(BOX, linear_ramp(1.0, 2.0, 1.0), psi, dt=1e-3)


def test_propagate_grid_rejects_nonpositive_schedule():
    g, es, _ = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    with pytest.raises(DomainError, match="positive parameter range"):
        propagate_grid(SHO, linear_ramp(1.0, -1.0, 0.1), psi0, dt=1e-2)


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


def _reference_propagate_grid(system, schedule, psi0, dt, with_cd=True, track_level=0,
                              n_leading=4, record_every=10, hbar=1.0):
    """The per-step Cayley loop as first written: the schedule is called and
    every band rebuilt from scratch at each step.  Returns (times, norms,
    fidelities, phases, populations, final amplitudes)."""
    grid = psi0.grid
    n = grid.n_points
    h = grid.h
    kin = hbar * hbar / (2.0 * system.mass * h * h)
    mu = system.mu if with_cd else 0.0
    n_steps = max(1, math.ceil(schedule.duration / dt - 1e-12))
    step = schedule.duration / n_steps
    kappa = step / (2.0 * hbar)
    psi = psi0.amplitudes.copy()
    times, norms, fids, phases, pops = [], [], [], [], []

    def record(t, psi):
        lam_t = float(schedule.value(t))
        diag0 = 2.0 * kin + _potential_diagonal(system, lam_t, grid)
        off0 = np.full(n - 1, -kin)
        k = max(n_leading, track_level + 1)
        _, vecs = scipy.linalg.eigh_tridiagonal(diag0, off0, select="i",
                                                select_range=(0, k - 1))
        vecs = _fix_signs(vecs) / math.sqrt(h)
        coeff = h * (vecs.T @ psi)
        times.append(t)
        norms.append(math.sqrt(h * float(np.sum(np.abs(psi) ** 2))))
        fids.append(float(np.abs(coeff[track_level]) ** 2))
        phases.append(float(np.angle(coeff[track_level])))
        pops.append(np.abs(coeff[:n_leading]) ** 2)

    record(0.0, psi)
    ab = np.zeros((3, n), dtype=complex)
    for i in range(n_steps):
        t_mid = (i + 0.5) * step
        lam = float(schedule.value(t_mid))
        rate = float(schedule.rate(t_mid))
        diag = 2.0 * kin + _potential_diagonal(system, lam, grid)
        upper = np.full(n - 1, -kin, dtype=complex)
        lower = np.full(n - 1, -kin, dtype=complex)
        if mu != 0.0 and rate != 0.0:
            w = rate * _dilation_offdiag(lam, mu, grid, hbar)
            upper -= 1j * w
            lower += 1j * w
        rhs = (1.0 - 1j * kappa * diag) * psi
        rhs[:-1] -= 1j * kappa * upper * psi[1:]
        rhs[1:] -= 1j * kappa * lower * psi[:-1]
        ab[0, 1:] = 1j * kappa * upper
        ab[1, :] = 1.0 + 1j * kappa * diag
        ab[2, :-1] = 1j * kappa * lower
        psi = scipy.linalg.solve_banded((1, 1), ab, rhs)
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            record((i + 1) * step, psi)
    return (np.array(times), np.array(norms), np.array(fids),
            np.unwrap(np.array(phases)), np.array(pops), psi)


def _assert_matches_reference(system, sched, psi0, dt, with_cd, **kw):
    rec = propagate_grid(system, sched, psi0, dt, with_cd=with_cd, **kw)
    times, norms, fids, phases, pops, psi = _reference_propagate_grid(
        system, sched, psi0, dt, with_cd=with_cd, **kw
    )
    np.testing.assert_array_equal(rec.times, times)
    for got, want in ((rec.final_state.amplitudes, psi), (rec.fidelities, fids),
                      (rec.phases, phases), (rec.norms, norms), (rec.populations, pops)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_propagate_grid_matches_per_step_loop():
    # the hoisted stepper rescales fixed bands (V = lam^-b V(q; 1), xi = xi(1)/lam)
    # and evaluates the schedule once; the loop rebuilds everything per step
    T = 0.6
    knots = np.linspace(0.0, T, 9)
    schedules = (
        linear_ramp(1.0, 1.7, T),
        smoothstep_ramp(1.0, 1.7, T),
        cosine_ramp(1.7, 1.0, T),
        tabulated(knots, 1.0 + 0.7 * np.sin(0.5 * math.pi * knots / T) ** 2),
    )
    for b in (2, 4, 6):
        system = power_law(b)
        g = well_grid(system, 1.7, 15.0, 128)
        es = eigensystem(discretize_h0(system, 1.0, g), g, 1.0, n_levels=2)
        psi0 = QuantumState("grid", es.states[:, 1].astype(complex), g)
        for sched in schedules:
            for with_cd in (True, False):
                _assert_matches_reference(system, sched, psi0, 3e-3, with_cd,
                                          track_level=1, record_every=7)


def test_propagate_grid_generic_well_matches_per_step_loop():
    well = generic_1d(lambda q, lam: (q / lam) ** 4 + 0.3 * q * q)
    g = GridSpec(-4.0, 4.0, 128)
    es = eigensystem(discretize_h0(well, 1.0, g), g, 1.0, n_levels=2)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    _assert_matches_reference(well, smoothstep_ramp(1.0, 1.5, 0.3), psi0, 5e-3, False,
                              record_every=7)


@pytest.mark.parametrize("record_every", [1, 7, 64, 65])
@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 129])
def test_propagate_grid_matches_per_step_loop_at_block_edges(n_steps, record_every):
    # the bands are built quantum._GRID_BLOCK = 64 steps at a time: runs that
    # end and record on, just before and just after a block edge
    T = 0.3
    sched = smoothstep_ramp(1.0, 1.6, T)
    for b in (2, 4):
        system = power_law(b)
        g = well_grid(system, 1.6, 15.0, 128)
        es = eigensystem(discretize_h0(system, 1.0, g), g, 1.0, n_levels=2)
        psi0 = QuantumState("grid", es.states[:, 1].astype(complex), g)
        for with_cd in (True, False):
            _assert_matches_reference(system, sched, psi0, T / n_steps, with_cd,
                                      track_level=1, record_every=record_every)
    well = generic_1d(lambda q, lam: (q / lam) ** 4 + 0.3 * q * q)
    g = GridSpec(-4.0, 4.0, 128)
    es = eigensystem(discretize_h0(well, 1.0, g), g, 1.0, n_levels=1)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    _assert_matches_reference(well, sched, psi0, T / n_steps, False, record_every=record_every)


@pytest.mark.parametrize("n", [2, 3, 64, 512])
def test_solve_banded_matches_scipy(n):
    rng = np.random.default_rng(n)
    ab = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    ab[1] += 6.0  # diagonally dominant
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = scipy.linalg.solve_banded((1, 1), ab, b)
    assert np.array_equal(quantum.solve_banded(ab.copy(), b.copy()), want)


def test_solve_banded_singular_is_numerical_error():
    with pytest.raises(NumericalError, match="LAPACK info 1"):
        quantum.solve_banded(np.zeros((3, 8), dtype=complex), np.ones(8, dtype=complex))


def _assert_eigh_tridiagonal_matches_scipy(d, e, k):
    got = quantum.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    want = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 256, 511])
def test_eigh_tridiagonal_matches_scipy_on_random_bands(n):
    # the stebz path of scipy's eigh_tridiagonal, step for step: bit-identical
    rng = np.random.default_rng(n)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    for k in sorted({1, min(2, n), min(8, n)}):
        _assert_eigh_tridiagonal_matches_scipy(d, e, k)


@pytest.mark.parametrize("n", [128, 129])
@pytest.mark.parametrize("b", [2, 4])
def test_eigh_tridiagonal_matches_scipy_on_half_grid_bands(monkeypatch, b, n):
    # the bands a power-law grid run solves, one half grid of each parity
    # (closed at the centre as the stepper closes them), at every record
    system = power_law(b)
    g = well_grid(system, 1.7, 15.0, n)
    v0, v1 = eigensystem(discretize_h0(system, 1.0, g), g, 1.0, n_levels=2).states.T
    psi0 = QuantumState("grid", ((v0 + v1) / math.sqrt(2.0)).astype(complex), g)
    bands, real = [], quantum.eigh_tridiagonal

    def captured(d, e, **kwargs):
        bands.append((d.copy(), e.copy()))
        return real(d, e, **kwargs)

    monkeypatch.setattr(quantum, "eigh_tridiagonal", captured)
    propagate_grid(system, smoothstep_ramp(1.0, 1.7, 0.1), psi0, 1e-2, record_every=5)
    monkeypatch.undo()
    assert {d.size for d, _ in bands} == {n // 2, (n + 1) // 2} and len(bands) == 6
    for d, e in bands:
        for k in (1, 2, 8):
            _assert_eigh_tridiagonal_matches_scipy(d, e, k)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_eigh_tridiagonal_lapack_failure_is_numerical_error(monkeypatch, routine):
    real = quantum._flapack()

    class Failing:
        def __getattr__(self, name):
            fn = getattr(real, name)
            return (lambda *args: (*fn(*args)[:-1], 1)) if name == routine else fn

    monkeypatch.setattr(quantum, "_flapack", Failing)
    d, e = np.arange(1.0, 9.0), np.ones(7)
    with pytest.raises(NumericalError, match="LAPACK info 1"):
        quantum.eigh_tridiagonal(d, e, select="i", select_range=(0, 2))


_LOADER_ORDER = """
import sys
import cdrive.quantum as quantum
if sys.argv[1] == "loader-first":
    flapack = quantum._flapack()
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
else:
    import scipy.linalg
    flapack = quantum._flapack()
assert flapack is sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
assert quantum._flapack().zgtsv is scipy.linalg.lapack.zgtsv
"""


@pytest.mark.parametrize("order", ["loader-first", "scipy-first"])
def test_flapack_loader_shares_the_module_with_scipy_linalg(order):
    # loaded first, the extension is the one a later scipy.linalg import
    # uses; loaded second, it is scipy.linalg's own module, not a second copy
    proc = subprocess.run([sys.executable, "-c", _LOADER_ORDER, order],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [2, 7, 64])
def test_solve_banded_stacked_blocks_match_per_block_solves(n):
    # two blocks with zero coupling at the junction; |dl| far above |d| and
    # |du| makes gtsv interchange rows at every step, so it writes fill-in
    # next to the junction as well
    rng = np.random.default_rng(n)
    ab = (rng.normal(size=(3, 2 * n)) + 1j * rng.normal(size=(3, 2 * n))) * np.array(
        [[0.1], [0.1], [10.0]])
    ab[0, n] = ab[2, n - 1] = 0.0
    b = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    blocks = [quantum.solve_banded(ab[:, s].copy(), b[s].copy())
              for s in (slice(0, n), slice(n, 2 * n))]
    assert np.array_equal(quantum.solve_banded(ab.copy(), b.copy()), np.concatenate(blocks))


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_grid_arms_in_lockstep_match_separate_runs(b, level):
    # 100 steps, recorded every 7: the last record is off the stride
    system = power_law(b)
    g = well_grid(system, 1.7, 15.0, 128)
    es = eigensystem(discretize_h0(system, 1.0, g), g, 1.0, n_levels=2)
    psi0 = QuantumState("grid", es.states[:, level].astype(complex), g)
    sched = smoothstep_ramp(1.0, 1.7, 0.3)
    kw = {"track_level": level, "record_every": 7}
    arms = _propagate_arms(system, sched, psi0, 3e-3, (True, False), **kw)
    assert len(arms) == 2 and arms[0].times.size == 16
    for rec, with_cd in zip(arms, (True, False)):
        alone = propagate_grid(system, sched, psi0, 3e-3, with_cd=with_cd, **kw)
        assert np.array_equal(rec.times, alone.times)
        for got, want in ((rec.final_state.amplitudes, alone.final_state.amplitudes),
                          (rec.fidelities, alone.fidelities), (rec.phases, alone.phases),
                          (rec.norms, alone.norms), (rec.populations, alone.populations)):
            assert np.array_equal(got, want), with_cd


@pytest.mark.parametrize("arm", [0, 1])
def test_grid_arm_norm_drift_alone_raises(monkeypatch, arm):
    # a drift of about 1e-9 in one arm's half of one stacked solve; the even
    # psi0 puts each arm on one 64-row half grid
    real = quantum.solve_banded
    calls = []
    g, es, sched = _driving_setup(SHO, 128)

    def drifted(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        assert x.size == 2 * 64
        if len(calls) == 3:
            x[arm * 64:(arm + 1) * 64] *= 1.0 + 1e-9
        return x

    monkeypatch.setattr(quantum, "solve_banded", drifted)
    v = es.states[:, 0]
    psi0 = QuantumState("grid", (0.5 * (v + v[::-1])).astype(complex), g)
    with pytest.raises(NumericalError, match="norm drift .* at step 2"):
        _propagate_arms(SHO, sched, psi0, 1e-2, (True, False))


@pytest.mark.parametrize("step", [63, 64, 99], ids=["block-end", "next-block-start", "last-step"])
def test_grid_norm_drift_is_named_at_block_edges(monkeypatch, step):
    # the norms are checked once per block of quantum._GRID_BLOCK = 64 steps:
    # a drift on the last step of a block, the first of the next, or the last
    # step of a final partial block (steps 64..99) names the step it began
    real = quantum.solve_banded
    calls = []
    g, es, sched = _driving_setup(SHO, 128)

    def drifted(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        if len(calls) == step + 1:
            x *= 1.0 + 1e-9
        return x

    monkeypatch.setattr(quantum, "solve_banded", drifted)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    with pytest.raises(NumericalError, match=f"norm drift .* at step {step}$"):
        propagate_grid(SHO, sched, psi0, dt=sched.duration / 100, record_every=64)


def test_grid_arms_own_their_final_states():
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    on, off = _propagate_arms(SHO, sched, psi0, 1e-2, (True, False))
    # not views into the stacked state
    assert on.final_state.amplitudes.flags.owndata and off.final_state.amplitudes.flags.owndata
    kept = off.final_state.amplitudes.copy()
    on.final_state.amplitudes[:] = 0.0
    assert np.array_equal(off.final_state.amplitudes, kept)
    assert np.array_equal(psi0.amplitudes, es.states[:, 0])


class _FullGridWell(SystemModel):
    """A generic_1d well that carries a power law's dilation coefficient, so
    that both grid arms step it on the whole grid."""

    @property
    def mu(self):
        return self.b / (self.b + 2.0)


@pytest.mark.parametrize("start", ["level0", "level1", "mixed"])
@pytest.mark.parametrize("n", [128, 129])
@pytest.mark.parametrize("b", [2, 4])
def test_parity_sectors_match_the_full_grid(monkeypatch, b, n, start):
    # power_law(b) steps the nonzero parity parts of psi0 on half grids; the
    # same potential as a generic_1d well steps the whole grid.  Both arms,
    # 100 steps recorded every 7, agree within the 1e-12 of the per-step loop
    # comparisons.  A parity-definite psi0, (v +- Pv)/2, occupies one half
    # grid: one eigensolve of at most (n + 1) // 2 rows per record, and the
    # other parity's populations and final amplitudes are exact zeros
    system = power_law(b)
    well = _FullGridWell(kind="generic_1d", b=b, potential=lambda q, lam: (q / lam) ** b)
    g = well_grid(system, 1.7, 15.0, n)
    v0, v1 = eigensystem(discretize_h0(system, 1.0, g), g, 1.0, n_levels=2).states.T
    amps = {"level0": 0.5 * (v0 + v0[::-1]), "level1": 0.5 * (v1 - v1[::-1]),
            "mixed": (v0 + v1) / math.sqrt(2.0)}[start]
    psi0 = QuantumState("grid", amps.astype(complex), g)
    level = 0 if start == "level0" else 1
    sched = smoothstep_ramp(1.0, 1.7, 0.3)
    kw = {"track_level": level, "record_every": 7}
    rows, real = [], quantum.eigh_tridiagonal

    def counted(diag, *args, **kwargs):
        rows.append(diag.size)
        return real(diag, *args, **kwargs)

    monkeypatch.setattr(quantum, "eigh_tridiagonal", counted)
    halves = _propagate_arms(system, sched, psi0, 3e-3, (True, False), **kw)
    assert len(rows) == halves[0].times.size * (2 if start == "mixed" else 1)
    assert max(rows) <= (n + 1) // 2
    fulls = _propagate_arms(well, sched, psi0, 3e-3, (True, False), **kw)
    for half, full in zip(halves, fulls):
        assert np.array_equal(half.times, full.times)
        for got, want in ((half.final_state.amplitudes, full.final_state.amplitudes),
                          (half.fidelities, full.fidelities), (half.phases, full.phases),
                          (half.norms, full.norms), (half.populations, full.populations)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if start != "mixed":
            parity = (-1) ** level
            assert np.all(half.populations[:, 1 - level::2] == 0.0)
            final = half.final_state.amplitudes
            assert np.array_equal(final, parity * final[::-1])


def _sector_bands(system, lam, g, parity):
    """The bands of H0 on one parity's half grid: the left rows, closed at
    the centre by the mirror row (even n) or by q = 0 (odd n)."""
    diag, off = _h0_bands(system, lam, g)
    n, kin = g.n_points, -off[0]
    m = (n + (parity > 0)) // 2
    diag, off = diag[:m].copy(), off[:m - 1].copy()
    if n % 2 == 0:
        diag[-1] -= parity * kin  # psi at the mirror row is parity * psi at this one
    elif parity > 0:
        off[-1] *= math.sqrt(2.0)  # the centre row holds psi(0) / sqrt2
    return diag, off


def _unfolded(states, n, parity):
    """Full-grid h-normalized columns of half-grid h-normalized sector columns."""
    left = states[:n // 2] / math.sqrt(2.0)
    mid = states[n // 2:] if parity > 0 else np.zeros((n % 2, states.shape[1]))
    return np.concatenate([left, mid, parity * left[::-1]])


@pytest.mark.parametrize("n", [512, 511])
@pytest.mark.parametrize("lam", [0.8, 1.0, 1.7])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_parity_sector_spectra_interlace(b, lam, n):
    # level g of the full grid is level g // 2 of parity (-1)^g: the records
    # of a half-grid run label their levels this way.  The bounds are those
    # of test_band_eigensystem_matches_dense_oracle
    system = power_law(b)
    g = well_grid(system, lam, 40.0, n)
    energies, vecs = scipy.linalg.eigh(discretize_h0(system, lam, g).matrix.real)
    floor = 64 * np.finfo(float).eps * np.max(np.abs(energies))
    even, odd = (_band_eigensystem(*_sector_bands(system, lam, g, parity), g, lam, 20)
                 for parity in (1, -1))
    assert np.all(even.energies < odd.energies)
    assert np.all(odd.energies[:-1] < even.energies[1:])
    merged = np.empty(40)
    merged[0::2], merged[1::2] = even.energies, odd.energies
    np.testing.assert_allclose(merged, energies[:40], rtol=1e-12, atol=floor)
    states = np.empty((n, 40))
    states[:, 0::2] = _unfolded(even.states, n, 1)
    states[:, 1::2] = _unfolded(odd.states, n, -1)
    np.testing.assert_allclose(states, _fix_signs(vecs[:, :40]) / math.sqrt(g.h),
                               rtol=0, atol=1e-10)


def test_propagate_grid_makes_one_banded_solve_per_step(monkeypatch):
    real = quantum.solve_banded
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantum, "solve_banded", counted)
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    for n_steps in (1, 63, 64, 65, 129, 200):
        calls.clear()
        rec = propagate_grid(SHO, sched, psi0, dt=sched.duration / n_steps, record_every=64)
        assert len(calls) == n_steps
        assert rec.times[-1] == pytest.approx(sched.duration, rel=1e-15)


_BAD_STEPPING = [
    pytest.param({"dt": math.nan}, "dt must be finite and positive", id="dt-nan"),
    pytest.param({"dt": math.inf}, "dt must be finite and positive", id="dt-inf"),
    pytest.param({"record_every": 0}, "record_every must be at least 1", id="record-0"),
    pytest.param({"record_every": -5}, "record_every must be at least 1", id="record-neg"),
    pytest.param({"record_every": math.nan}, "record_every must be at least 1", id="record-nan"),
    pytest.param({"record_every": 2.5}, "record_every must be an integer", id="record-2.5"),
    pytest.param({"record_every": math.inf}, "record_every must be an integer", id="record-inf"),
]


@pytest.mark.parametrize("bad, message", _BAD_STEPPING)
def test_propagate_grid_rejects_bad_stepping(bad, message):
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    with pytest.raises(DomainError, match=message):
        propagate_grid(SHO, sched, psi0, **{"dt": 1e-2, **bad})


@pytest.mark.parametrize("with_cd", [True, False])
@pytest.mark.parametrize("bad, message", _BAD_STEPPING)
def test_propagate_basis_rejects_bad_stepping(bad, message, with_cd):
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    with pytest.raises(DomainError, match=message):
        propagate_basis(linear_ramp(1.0, 2.0, 0.1), c0, n_levels=8, with_cd=with_cd,
                        **{"dt": 1e-3, **bad})


@pytest.mark.parametrize("with_cd", [True, False])
def test_propagate_basis_takes_a_numpy_integer_record_interval(with_cd):
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    a, b = (propagate_basis(linear_ramp(1.0, 2.0, 0.1), c0, n_levels=8, dt=1e-3,
                            with_cd=with_cd, record_every=k) for k in (7, np.int64(7)))
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("with_cd", [True, False])
def test_propagate_basis_rejects_a_schedule_leaving_positive_lam(with_cd):
    # the driven arm takes no steps: the clock's check is what stops it
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    with pytest.raises(DomainError, match="^schedule leaves the positive parameter range$"):
        propagate_basis(linear_ramp(1.0, -1.0, 1.0), c0, n_levels=8, dt=1e-3, with_cd=with_cd)


@pytest.mark.parametrize("with_cd", [True, False])
@pytest.mark.parametrize("n_levels", [2.0, 0])
def test_propagate_basis_rejects_bad_level_count(n_levels, with_cd):
    # checked before c0: a vector of n_levels entries does not get past it
    c0 = np.zeros(int(n_levels), dtype=complex)
    c0[:1] = 1.0
    with pytest.raises(DomainError, match=r"n_levels must be an integer in \[1, inf\]"):
        propagate_basis(linear_ramp(1.0, 2.0, 0.1), c0, n_levels=n_levels, dt=1e-3,
                        with_cd=with_cd)


_BAD_LEVELS = [
    pytest.param({"track_level": -1}, r"track_level .* in \[0, 127\]", id="track-negative"),
    pytest.param({"track_level": 500}, r"track_level .* in \[0, 127\]", id="track-past-grid"),
    pytest.param({"track_level": 1.5}, "track_level must be an integer", id="track-float"),
    pytest.param({"n_leading": 0}, r"n_leading .* in \[1, 128\]", id="leading-0"),
]


@pytest.mark.parametrize("bad, message", _BAD_LEVELS)
def test_propagate_grid_rejects_bad_levels(bad, message):
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    with pytest.raises(DomainError, match=message):
        propagate_grid(SHO, sched, psi0, dt=1e-2, **bad)


def test_eigensystem_rejects_fractional_level_count():
    g = well_grid(SHO, 1.0, 15.0, 128)
    with pytest.raises(DomainError, match="n_levels must be an integer"):
        eigensystem(discretize_h0(SHO, 1.0, g), g, 1.0, n_levels=2.5)


def test_propagate_grid_checks_its_record_eigensolves(monkeypatch):
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    real = quantum.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        energies, vecs = real(*args, **kwargs)
        vecs[:, 0] += 1e-6 * vecs[:, -1]
        return energies, vecs

    monkeypatch.setattr(quantum, "eigh_tridiagonal", perturbed)
    with pytest.raises(NumericalError):
        propagate_grid(SHO, sched, psi0, dt=1e-2)


def _sine_cases():
    for n in (1, 2, 3, 64, 256, 511):
        for k in sorted({1, 8, n}):
            if k <= n:
                for off in (-3.7, 2.1):
                    yield pytest.param(n, k, off, id=f"n{n}-k{k}-off{off}")


def _constant_bands(n, off):
    # a 64-point grid stands in below 64 rows: the checks read only its h
    return np.full(n, 5.3), np.full(n - 1, off), GridSpec(0.0, 1.0, max(n, 64))


@pytest.mark.parametrize("n, k, off", _sine_cases())
def test_constant_band_closed_form_matches_lapack(n, k, off):
    # discrete sines against LAPACK, for either sign of the coupling (the
    # ascending order runs the other way for off > 0) and down to one row
    diag, offs, g = _constant_bands(n, off)
    es = _band_eigensystem(diag, offs, g, 1.0, k)
    if n == 1:
        energies, vecs = diag[:1], np.ones((1, 1))
    else:
        energies, vecs = scipy.linalg.eigh_tridiagonal(diag, offs, select="i",
                                                       select_range=(0, k - 1))
    eps = np.finfo(float).eps
    assert np.all(np.diff(es.energies) > 0)
    np.testing.assert_allclose(es.energies, energies, rtol=0,
                               atol=64 * eps * np.max(np.abs(energies)))
    np.testing.assert_allclose(math.sqrt(g.h) * es.states, _fix_signs(vecs), rtol=0,
                               atol=8 * n * eps)


@pytest.mark.parametrize("n, k, off", _sine_cases())
def test_closed_form_spectrum_is_checked(monkeypatch, n, k, off):
    # one energy 1e-6 off must fail the residual check the LAPACK path passes
    real = quantum._sine_eigenpairs

    def mutated(*args):
        energies, vecs = real(*args)
        energies[np.argmax(np.abs(energies))] *= 1.0 + 1e-6
        return energies, vecs

    monkeypatch.setattr(quantum, "_sine_eigenpairs", mutated)
    with pytest.raises(NumericalError, match="eigendecomposition residual"):
        _band_eigensystem(*_constant_bands(n, off), 1.0, k)


def _dense_oracle_cases():
    for n in (256, 512):
        yield pytest.param(BOX, 1.0, box_grid(1.0, n), id=f"box-{n}")
    for b in (2, 4, 6):
        for lam in (0.8, 1.0, 1.7):
            system = power_law(b)
            yield pytest.param(system, lam, well_grid(system, lam, 40.0, 512),
                               id=f"b{b}-lam{lam}")
    well = generic_1d(lambda q, lam: (q / lam) ** 4 + 0.3 * q * q)
    yield pytest.param(well, 1.0, GridSpec(-4.0, 4.0, 512), id="generic")


@pytest.mark.parametrize("system, lam, g", _dense_oracle_cases())
def test_band_eigensystem_matches_dense_oracle(system, lam, g):
    # the bounds of test_eigensystem_subset_matches_full_decomposition; the
    # full spectrum is compared where LAPACK finds it nondegenerate
    energies, vecs = scipy.linalg.eigh(discretize_h0(system, lam, g).matrix.real)
    floor = 64 * np.finfo(float).eps * np.max(np.abs(energies))
    spread = energies[-1] - energies[0]
    full = np.min(np.diff(energies)) > 1e-8 * spread
    assert full or system.kind != "box"
    diag, off = _h0_bands(system, lam, g)
    for k in (1, 8, 40) + ((g.n_points,) if full else ()):
        es = _band_eigensystem(diag, off, g, lam, k)
        np.testing.assert_allclose(es.energies, energies[:k], rtol=1e-12, atol=floor)
        np.testing.assert_allclose(
            es.states, _fix_signs(vecs[:, :k]) / math.sqrt(g.h), rtol=0, atol=1e-10
        )


@given(
    b=st.sampled_from([2, 4, 6]),
    dt=st.floats(1.5e-3, 2e-2),
    lam0=st.floats(0.6, 1.8),
    lam1=st.floats(0.6, 1.8),
    with_cd=st.booleans(),
)
def test_cayley_grid_unitary_and_time_reversible(b, dt, lam0, lam1, with_cd):
    # H0 is real and xi purely imaginary, so conjugation maps the driven
    # Hamiltonian onto the one of the reversed ramp, whose lam_dot flips sign:
    # conj(U_rev) is the exact inverse of the forward midpoint Cayley product
    system = power_law(b)
    T = 0.3
    g = well_grid(system, max(lam0, lam1), 30.0, 128)
    es = eigensystem(discretize_h0(system, lam0, g), g, lam0, n_levels=1)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    fwd = propagate_grid(system, smoothstep_ramp(lam0, lam1, T), psi0, dt,
                         with_cd=with_cd, record_every=5)
    assert np.max(np.abs(fwd.norms - 1.0)) < 1e-12
    back = QuantumState("grid", fwd.final_state.amplitudes.conj(), g)
    rev = propagate_grid(system, smoothstep_ramp(lam1, lam0, T), back, dt,
                         with_cd=with_cd, record_every=10**9)
    np.testing.assert_allclose(rev.final_state.amplitudes.conj(), psi0.amplitudes,
                               rtol=0, atol=1e-10)


def test_propagate_grid_non_finite_state_is_numerical_error(monkeypatch):
    real = quantum.solve_banded
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        if len(calls) == 3:
            x[:] = np.nan
        return x

    monkeypatch.setattr(quantum, "solve_banded", poisoned)
    g, es, sched = _driving_setup(SHO, 128)
    psi0 = QuantumState("grid", es.states[:, 0].astype(complex), g)
    with pytest.raises(NumericalError, match="at step 2"):
        propagate_grid(SHO, sched, psi0, dt=1e-2)


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


def test_box_phase_oracles():
    # closed forms: integral_0^t L^-2 is t / (L0 L(t)) on a linear ramp and
    # t / L^2 on a hold
    c = -math.pi**2 / 2
    ramp, hold = linear_ramp(1.0, 2.5, 2.0), constant_hold(1.3, 2.0)
    for t in (0.0, 0.37, 1.1, 2.0):
        lam = 1.0 + 1.5 * t / 2.0
        assert box_phase(1, ramp, t) == pytest.approx(c * t / lam, rel=1e-13, abs=0)
        assert box_phase(2, hold, t, mass=0.5, hbar=0.7) == pytest.approx(
            -4 * math.pi**2 * 0.7 / (2 * 0.5) * t / 1.3**2, rel=1e-13, abs=0)
    # against quad where no closed form is at hand
    from scipy.integrate import quad

    knots = np.linspace(0.0, 1.5, 41)
    for sched in (smoothstep_ramp(1.0, 0.6, 0.02), cosine_ramp(1.0, 2.5, 3.0),
                  tabulated([0.0, 0.3, 0.7, 1.0], [1.0, 1.1, 1.6, 2.0]),
                  tabulated(knots, 1.0 + 0.7 * np.sin(0.5 * math.pi * knots / 1.5) ** 2)):
        for t in (0.37 * sched.duration, sched.duration):
            ref, _ = quad(lambda s: float(sched.value(s)) ** -2.0, 0.0, t,
                          epsabs=0.0, epsrel=1e-13, limit=400)
            assert box_phase(3, sched, t) == pytest.approx(9 * c * ref, rel=1e-12, abs=0)
    # a jump in L never converges: the bisection gives up at its depth bound
    jump = Schedule(1.0, lambda t: np.where(np.asarray(t) < 0.4, 1.0, 2.0),
                    lambda t: np.zeros_like(np.asarray(t, dtype=float)), "jump")
    with pytest.raises(NumericalError, match="did not converge"):
        box_phase(1, jump, 1.0)


def test_box_phase_past_the_ramp_splits_at_its_end():
    # L = 1 + t up to T = 1, then 2: integral_0^1.5 L^-2 = 1/2 + 1/8 once the
    # rate's jump at T is a piece edge
    ramp = linear_ramp(1.0, 2.0, 1.0)
    assert box_phase(1, ramp, 1.5) == pytest.approx(-math.pi**2 / 2 * 0.625, rel=1e-13, abs=0)
    # at T the edges are unchanged, so the value keeps its bits: the basis
    # arm's phase_error reads it there
    assert box_phase(1, ramp, 1.0) == -2.4674011002723417
    spline = tabulated([0.0, 0.3, 0.7, 1.0], [1.0, 1.1, 1.6, 2.0])
    assert box_phase(3, spline, 1.0) == -27.35813235814634


def test_box_phase_rejects_times_before_the_start_or_not_finite():
    ramp = linear_ramp(1.0, 2.0, 1.0)
    for t in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="phase time must be finite and nonnegative"):
            box_phase(1, ramp, t)


def test_box_phase_rejects_a_schedule_leaving_positive_lam():
    for sched in (linear_ramp(1.0, -1.0, 1.0), constant_hold(0.0, 1.0)):
        with pytest.raises(DomainError, match="^schedule leaves the positive parameter range$"):
            box_phase(1, sched, 1.0)


def _rough_spline(n_knots=301, duration=0.05, seed=5):
    """Cubic spline through 1.5 + 0.3 sin(140 t) with 1% uniform noise."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, duration, n_knots)
    noise = 1.0 + rng.uniform(-0.01, 0.01, ts.size)
    return tabulated(ts, (1.5 + 0.3 * np.sin(140.0 * ts)) * noise)


def test_box_phase_splits_at_the_knots_of_a_rough_spline():
    # the spline's third derivative jumps at each of its 299 interior knots,
    # which no single smooth quadrature rule resolves to 1e-12; between two
    # knots L is a cubic, so the reference is quad over each knot interval
    from scipy.integrate import quad

    sched = _rough_spline()
    knots = np.array([0.0, *sched.breaks, sched.duration])
    for t in (0.37 * sched.duration, sched.duration):
        edges = [*knots[knots < t], t]
        ref = sum(quad(lambda s: float(sched.value(s)) ** -2.0, a, b, epsabs=0.0,
                       epsrel=1e-13)[0] for a, b in zip(edges[:-1], edges[1:]))
        assert box_phase(2, sched, t) == pytest.approx(-2 * math.pi**2 * ref, rel=1e-12, abs=0)


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


def _bare_basis_oracle_check(lam0, lam1, duration, levels=16):
    """Run the bare basis arm from level 1 at (128 levels, dt 1e-5) and
    (256, 5e-6) and hold its first levels final coefficients to the exact
    Doescher-Rice state.  The error falls about 7x per step of this
    refinement (dt^2 from the Strang steps, with the truncation) and at
    least 4x, so the finer error is bounded by 1.5 times its Richardson
    estimate from the pair.
    """
    exact = doescher_rice_coefficients(lam0, lam1, duration, [1.0])[:levels]
    finals = []
    for n_levels, dt in ((128, 1e-5), (256, 5e-6)):
        c0 = np.zeros(n_levels, dtype=complex)
        c0[0] = 1.0
        rec = propagate_basis(linear_ramp(lam0, lam1, duration), c0, n_levels=n_levels, dt=dt,
                              with_cd=False)
        finals.append(rec.coeffs[-1, :levels])
    err = np.max(np.abs(finals[1] - exact))
    bound = 1.5 * np.max(np.abs(finals[0] - finals[1])) / 3.0
    assert err <= bound, f"error {err:.3e} > {bound:.3e}"


@pytest.mark.parametrize("lam0, lam1", [(1.0, 2.0), (2.0, 1.0)], ids=["expand", "compress"])
@pytest.mark.parametrize("duration", [0.01, 0.05])
def test_basis_bare_arm_matches_the_doescher_rice_state(lam0, lam1, duration):
    _bare_basis_oracle_check(lam0, lam1, duration)


def test_doescher_rice_ground_population():
    # L 1 -> 2 over 0.05 from level 1: stable to about 3e-12 from 128 modes on
    for n_modes in (128, 256):
        c = doescher_rice_coefficients(1.0, 2.0, 0.05, [1.0], n_modes=n_modes)
        assert abs(c[0]) ** 2 == pytest.approx(0.3636554005, abs=1e-10)


def test_bare_basis_oracle_rejects_a_mis_scaled_kick(monkeypatch):
    real = quantum._kick_basis
    monkeypatch.setattr(quantum, "_kick_basis",
                        lambda n: (lambda q, w: (q, 1.01 * w))(*real(n)))
    with pytest.raises(AssertionError, match="^error .* > "):
        _bare_basis_oracle_check(1.0, 2.0, 0.01)


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


def _reference_propagate_basis(schedule, c0, n_levels, dt, mass=1.0, hbar=1.0,
                               record_every=50):
    """The bare arm as interaction-picture RK4: a_n = c_n exp(i theta_n) with
    theta_n = n^2 pi^2 hbar tau / (2 m) on the clock, stepped by RK4 under
    da/dt = -(L_dot / L) u (D1 @ (conj(u) a)), u = exp(i theta).  Returns
    (times, lab coefficients, norms, edge population) at the records."""
    n_steps = max(1, math.ceil(schedule.duration / dt - 1e-12))
    step = schedule.duration / n_steps
    half = np.arange(2 * n_steps + 1) * (0.5 * step)
    taus = clock(schedule, half)
    phase_k = math.pi * math.pi * hbar / (2.0 * mass)
    ns2 = np.arange(1, n_levels + 1, dtype=float) ** 2
    top = n_levels - math.ceil(n_levels / 10)
    d1 = _sine_coupling(n_levels).astype(complex)
    gain = -np.asarray(schedule.rate(half)) / np.asarray(schedule.value(half))

    def rhs(j, a):
        u = np.exp(1j * phase_k * taus[j] * ns2)
        return gain[j] * (u * (d1 @ (np.conj(u) * a)))

    a = np.asarray(c0, dtype=complex).copy()
    times, coeffs, norms = [0.0], [a.copy()], [np.linalg.norm(a)]
    peak = float(np.max(np.abs(a[top:]) ** 2))
    for i in range(n_steps):
        k1 = rhs(2 * i, a)
        k2 = rhs(2 * i + 1, a + 0.5 * step * k1)
        k3 = rhs(2 * i + 1, a + 0.5 * step * k2)
        k4 = rhs(2 * i + 2, a + step * k3)
        a = a + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        peak = max(peak, float(np.max(np.abs(a[top:]) ** 2)))
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            times.append((i + 1) * step)
            coeffs.append(a * np.exp(-1j * phase_k * taus[2 * i + 2] * ns2))
            norms.append(np.linalg.norm(a))
    return np.array(times), np.array(coeffs), np.array(norms), peak


_PIN = linear_ramp(1.0, 2.0, 0.05)  # the bare-arm pin: 64 levels, dt 2e-5


def _ground(n_levels):
    c0 = np.zeros(n_levels, dtype=complex)
    c0[0] = 1.0
    return c0


@pytest.fixture(scope="module")
def pin_reference():
    return _reference_propagate_basis(_PIN, _ground(64), 64, 2e-5)


def test_basis_bare_matches_rk4_reference(pin_reference):
    times, coeffs, norms, peak = pin_reference
    rec = propagate_basis(_PIN, _ground(64), n_levels=64, dt=2e-5, with_cd=False)
    np.testing.assert_array_equal(rec.times, times)
    assert np.max(np.abs(rec.coeffs - coeffs)) < 1e-6
    assert rec.edge_population == pytest.approx(peak, rel=1e-2)
    # unitary steps: the norm drift is no worse than the RK4 reference's
    assert np.max(np.abs(rec.norms - 1.0)) <= np.max(np.abs(norms - 1.0))


def test_basis_bare_split_step_is_second_order(pin_reference):
    final = pin_reference[1][-1]
    errs = [np.max(np.abs(propagate_basis(_PIN, _ground(64), n_levels=64, dt=dt,
                                          with_cd=False).coeffs[-1] - final))
            for dt in (2e-5, 1e-5, 5e-6)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 3.6 < coarse / fine < 4.4, errs


def _random_state(seed, n_levels):
    rng = np.random.default_rng(seed)
    c0 = rng.normal(size=n_levels) + 1j * rng.normal(size=n_levels)
    return c0 / np.linalg.norm(c0)


_RAMPS = {"linear": linear_ramp, "smoothstep": smoothstep_ramp, "cosine": cosine_ramp}


@given(
    shape=st.sampled_from(sorted(_RAMPS)),
    lam0=st.floats(0.5, 2.0),
    lam1=st.floats(0.5, 2.0),
    T=st.floats(0.01, 0.3),
    n_steps=st.integers(1, 400),
    n_levels=st.integers(1, 65),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_bare_arm_is_unitary(shape, lam0, lam1, T, n_steps, n_levels, seed):
    rec = propagate_basis(_RAMPS[shape](lam0, lam1, T), _random_state(seed, n_levels),
                          n_levels=n_levels, dt=T / n_steps, with_cd=False, record_every=7)
    assert np.max(np.abs(rec.norms - 1.0)) < 1e-12
    assert np.max(np.abs(np.sum(rec.populations, axis=1) - 1.0)) < 1e-12


@given(
    lam0=st.floats(0.6, 1.8),
    lam1=st.floats(0.6, 1.8),
    T=st.floats(0.01, 0.2),
    n_steps=st.integers(1, 300),
    n_levels=st.integers(2, 65),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_bare_arm_is_time_reversible(lam0, lam1, T, n_steps, n_levels, seed):
    # H0 is real and the coupling -(L_dot / L) D1 real, so conjugation maps
    # the driven equation onto the one of the reversed ramp; the symmetric
    # split step inherits this, so the reversed run undoes the forward one
    c0 = _random_state(seed, n_levels)
    dt = T / n_steps
    fwd = propagate_basis(smoothstep_ramp(lam0, lam1, T), c0, n_levels=n_levels, dt=dt,
                          with_cd=False, record_every=10**9)
    rev = propagate_basis(smoothstep_ramp(lam1, lam0, T), fwd.coeffs[-1].conj(),
                          n_levels=n_levels, dt=dt, with_cd=False, record_every=10**9)
    np.testing.assert_allclose(rev.coeffs[-1].conj(), c0, rtol=0, atol=1e-10)


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


@pytest.mark.parametrize("n_levels", [1, 2, 3, 63, 64, 65])
def test_kick_is_the_matrix_exponential_of_the_coupling(n_levels):
    # q^T D1 q is 2x2 blocks [[0, -w], [w, 0]], so Q rot(kappa) Q^T, which
    # _kick applies, is exp(-kappa D1); each column is checked against expm
    q, w = _kick_basis(n_levels)
    d1 = _sine_coupling(n_levels)
    blocks = np.kron(np.diag(w), [[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(q.T @ d1 @ q - blocks)) < 1e-12 * max(1.0, np.max(w))
    for kappa in (3e-4, -3e-4, 0.3, -0.3):
        turn = np.exp(-1j * kappa * w)
        kick = np.array([_kick(e, q, turn) for e in np.eye(n_levels, dtype=complex)]).T
        assert np.max(np.abs(kick - scipy.linalg.expm(-kappa * d1))) < 1e-13, kappa


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
