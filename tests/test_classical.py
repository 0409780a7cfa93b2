"""Driving-engine tests.

The box with a linearly moving wall has closed-form flows in both the
driven and bare cases; those serve as exact oracles for the numerical
event-driven integrator.
"""

import math

import numpy as np
import pytest

from cdrive.classical import (
    collide,
    dissipation,
    evolve_bare,
    evolve_cd,
    evolve_ensemble,
    shell_sampler,
    uniform_gas_sampler,
)
from cdrive.errors import DomainError
from cdrive.generators import box_generator, power_law_generator, NumericShellGenerator
from cdrive.schedules import constant_hold, linear_ramp, smoothstep_ramp
from cdrive.shells import orbit_period, turning_points
from cdrive.systems import box, generic_1d, power_law

BOX = box()
SHO = power_law(2)
QUARTIC = power_law(4)


# ---------------------------------------------------------------------------
# closed-form oracles for the linearly expanding box


def _cd_linear_oracle(q0, p0, L0, c, T, m=1.0):
    """Driven box flow under L = L0 + c t: p L is conserved between
    collisions and u = q/L advances as (pL/m) * s / (L(t0) L(t0+s))."""
    t, u, pi = 0.0, q0 / L0, p0 * L0
    while pi != 0.0:
        L = L0 + c * t
        u_t = 1.0 if pi > 0 else 0.0
        den = pi / m - (u_t - u) * L * c
        if den == 0.0:
            break
        s = (u_t - u) * L * L / den
        if s <= 0.0 or t + s >= T:
            break
        t, u, pi = t + s, u_t, -pi
    L = L0 + c * t
    Lf = L0 + c * T
    u = u + (pi / m) * (T - t) / (L * Lf)
    return u * Lf, pi / Lf


def _bare_linear_oracle(q0, p0, L0, c, T, m=1.0):
    """Bare box flow under L = L0 + c t: free flight plus moving-mirror
    reflections."""
    t, q, v = 0.0, q0, p0 / m
    while True:
        cands = []
        if v > c:
            cands.append(((L0 + c * t - q) / (v - c), "right"))
        if v < 0:
            cands.append((q / (-v), "left"))
        cands = [(s, w) for s, w in cands if s > 1e-15]
        if not cands:
            break
        s, wall = min(cands)
        if t + s >= T:
            break
        t += s
        if wall == "right":
            q, v = L0 + c * t, -v + 2 * c
        else:
            q, v = 0.0, -v
    return q + v * (T - t), m * v


def test_cd_box_matches_linear_oracle():
    sched = linear_ramp(1.0, 2.0, 1.0)
    for q0, p0 in [(0.5, 3.0), (0.2, -2.5), (0.8, 6.0)]:
        rec = evolve_cd(BOX, box_generator(), sched, (q0, p0), dt=1e-3, tol=1e-12)
        q_ref, p_ref = _cd_linear_oracle(q0, p0, 1.0, 1.0, 1.0)
        qf, pf = rec.final_state
        assert qf == pytest.approx(q_ref, abs=1e-8)
        assert pf == pytest.approx(p_ref, abs=1e-8)


def test_bare_box_matches_linear_oracle():
    sched = linear_ramp(1.0, 1.5, 2.0)
    for q0, p0 in [(0.5, 3.0), (0.9, -1.5), (0.1, 2.0)]:
        rec = evolve_bare(BOX, sched, (q0, p0), dt=1e-3)
        q_ref, p_ref = _bare_linear_oracle(q0, p0, 1.0, 0.25, 2.0)
        qf, pf = rec.final_state
        assert qf == pytest.approx(q_ref, abs=1e-8)
        assert pf == pytest.approx(p_ref, abs=1e-8)


# ---------------------------------------------------------------------------
# collision rule


def test_collide_cd_right_wall():
    for L_dot in (-2.0, 0.0, 0.7, 5.0):
        assert collide(3.0, "right", 1.0, L_dot, cd=True) == -3.0


def test_collide_bare_moving_right_wall():
    assert collide(3.0, "right", 1.0, 0.5, mass=1.0, cd=False) == -2.0


def test_collide_static_left_wall():
    assert collide(-3.0, "left", 1.0, 0.0, cd=True) == 3.0
    assert collide(-3.0, "left", 1.0, 0.0, cd=False) == 3.0


def test_collide_preconditions():
    with pytest.raises(DomainError):
        collide(-1.0, "right", 1.0, 0.0, cd=True)
    with pytest.raises(DomainError):
        collide(1.0, "left", 1.0, 0.0, cd=True)
    with pytest.raises(DomainError):
        collide(0.4, "right", 1.0, 0.5, mass=1.0, cd=False)  # slower than the wall
    with pytest.raises(DomainError):
        collide(1.0, "top", 1.0, 0.0)


# ---------------------------------------------------------------------------
# invariant conservation, single trajectories


def test_cd_box_conserves_invariant():
    sched = linear_ramp(1.0, 2.0, 1.0)
    rec = evolve_cd(BOX, box_generator(), sched, (0.5, 3.0), dt=1e-3)
    assert rec.drift() < 1e-8
    assert len(rec.collisions) > 0


def test_static_box_is_bare_bouncing():
    sched = constant_hold(1.0, 3.0)
    rec = evolve_bare(BOX, sched, (0.5, 3.0), dt=1e-3)
    assert rec.drift() < 1e-10
    assert np.max(np.abs(np.abs(rec.ps) - 3.0)) < 1e-12
    gaps = np.diff([t for t, _ in rec.collisions])
    assert np.max(np.abs(gaps - gaps[0])) < 1e-9


def test_cd_power_law_drift():
    tau0 = orbit_period(SHO, 1.0, 1.0)
    sched = smoothstep_ramp(1.0, 2.0, 0.1 * tau0)
    qp = turning_points(SHO, 1.0, 1.0)[1]
    rec = evolve_cd(SHO, power_law_generator(2), sched, (qp, 0.0), dt=1e-3)
    assert rec.drift() < 1e-7


def test_bare_fast_box_expansion_pumps_invariant():
    sched = linear_ramp(1.0, 2.0, 0.05)
    rec = evolve_bare(BOX, sched, (0.5, 2.0), dt=1e-4)
    assert abs(rec.omegas[-1] - rec.omegas[0]) / rec.omegas[0] > 0.05


def test_bare_slow_box_expansion_is_adiabatic():
    # 100 initial periods; the invariant returns to its value at the ends
    tau0 = 2.0 * 1.0 * 1.0 / 2.0
    sched = smoothstep_ramp(1.0, 2.0, 100.0 * tau0)
    rec = evolve_bare(BOX, sched, (0.5, 2.0), dt=1e-2, record_every=50)
    final_drift = abs(rec.omegas[-1] - rec.omegas[0]) / rec.omegas[0]
    assert final_drift < 1e-3


def test_static_smooth_conserves_energy():
    sched = constant_hold(1.0, 5.0)
    rec = evolve_bare(SHO, sched, (0.3, 0.9), dt=1e-2, tol=1e-12)
    assert rec.drift() < 1e-10


def test_cd_generic_with_numeric_generator():
    vee = generic_1d(
        lambda q, lam: (q / lam) ** 4,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )
    gen = NumericShellGenerator(vee)
    tau0 = orbit_period(vee, 1.0, 1.0)
    sched = smoothstep_ramp(1.0, 1.3, 0.5 * tau0)
    qp = turning_points(vee, 1.0, 1.0)[1]
    # the controller tolerance sets the drift: the analytic generator of
    # this q^4 well drifts as much (about 3e-7)
    rec = evolve_cd(vee, gen, sched, (0.7 * qp, 0.4), dt=1e-2, tol=1e-7, record_every=20)
    bare = evolve_bare(vee, sched, (0.7 * qp, 0.4), dt=1e-2, record_every=20)
    assert rec.drift() < 1e-3
    assert bare.drift() > 10 * rec.drift()


def test_fixed_step_order():
    tau0 = orbit_period(SHO, 1.0, 1.0)
    sched = smoothstep_ramp(1.0, 2.0, 0.1 * tau0)
    qp = turning_points(SHO, 1.0, 1.0)[1]
    drifts = []
    for n_steps in (40, 80):
        rec = evolve_cd(
            SHO, power_law_generator(2), sched, (qp, 0.0),
            dt=sched.duration / n_steps, fixed_step=True,
        )
        drifts.append(rec.drift())
    ratio = drifts[0] / drifts[1]
    assert 8.0 < ratio < 32.0


def test_liouville_determinant():
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    gen = power_law_generator(4)
    d = 1e-5

    def final(q0, p0):
        rec = evolve_cd(QUARTIC, gen, sched, (q0, p0), dt=1e-3, record_every=10**9)
        return np.array(rec.final_state)

    q0, p0 = 0.3, 0.8
    dq = (final(q0 + d, p0) - final(q0 - d, p0)) / (2 * d)
    dp = (final(q0, p0 + d) - final(q0, p0 - d)) / (2 * d)
    det = dq[0] * dp[1] - dq[1] * dp[0]
    assert det == pytest.approx(1.0, abs=1e-4)


def test_trajectory_record_csv(tmp_path):
    sched = linear_ramp(1.0, 2.0, 0.5)
    rec = evolve_cd(BOX, box_generator(), sched, (0.5, 3.0), dt=1e-2)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(rec.times), 5)
    np.testing.assert_array_equal(data[:, 0], rec.times)
    np.testing.assert_array_equal(data[:, 4], rec.omegas)


def test_input_validation():
    sched = linear_ramp(1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        evolve_cd(BOX, box_generator(), sched, (1.5, 1.0), dt=1e-3)
    with pytest.raises(DomainError):
        evolve_cd(BOX, box_generator(), sched, (0.5, 1.0), dt=0.0)
    with pytest.raises(DomainError):
        evolve_cd(BOX, None, sched, (0.5, 1.0), dt=1e-3)


# ---------------------------------------------------------------------------
# ensembles


@pytest.mark.parametrize("T", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("lams", [(1.0, 2.0), (1.5, 0.75)])
@pytest.mark.parametrize("driven", [True, False])
def test_box_ensemble_matches_linear_oracle(T, lams, driven):
    # every particle of both exact box engines against the closed-form flows
    lam0, lam1 = lams
    sched = linear_ramp(lam0, lam1, T)
    gen, oracle = (box_generator(), _cd_linear_oracle) if driven else (None, _bare_linear_oracle)
    rec = evolve_ensemble(BOX, gen, sched, uniform_gas_sampler(20.0, "gaussian"), 200,
                          seed=19, snapshot_times=[0.0, T / 3, T])
    for k, t in enumerate(rec.snapshot_times):
        for q0, p0, q, p in zip(rec.positions[0], rec.momenta[0],
                                rec.positions[k], rec.momenta[k]):
            q_ref, p_ref = oracle(q0, p0, lam0, (lam1 - lam0) / T, t)
            assert q == pytest.approx(q_ref, abs=1e-9)
            assert p == pytest.approx(p_ref, abs=1e-9)


@pytest.mark.parametrize("driven", [True, False])
def test_box_ensemble_matches_scalar_rk4_on_smoothstep(driven):
    # no closed form for a curved ramp: the scalar event-driven RK4 is the check
    sched = smoothstep_ramp(1.0, 2.0, 0.5)
    gen = box_generator() if driven else None
    rec = evolve_ensemble(BOX, gen, sched, uniform_gas_sampler(6.0, "gaussian"), 12,
                          seed=4, snapshot_times=[0.0, 0.5])
    for q0, p0, q, p in zip(rec.positions[0], rec.momenta[0],
                            rec.positions[1], rec.momenta[1]):
        if driven:
            scalar = evolve_cd(BOX, gen, sched, (q0, p0), dt=1e-3, tol=1e-12)
        else:
            scalar = evolve_bare(BOX, sched, (q0, p0), dt=1e-3, tol=1e-12)
        q_ref, p_ref = scalar.final_state
        assert q == pytest.approx(q_ref, abs=1e-8)
        assert p == pytest.approx(p_ref, abs=1e-8)


def test_shell_ensemble_stays_on_shell():
    sched = linear_ramp(1.0, 2.0, 0.05)
    rec = evolve_ensemble(
        BOX, box_generator(), sched, shell_sampler(2.0), 300, seed=42,
        snapshot_times=[0.0, 0.025, 0.05],
    )
    w0 = rec.omegas(BOX, 0)
    wf = rec.omegas(BOX, len(rec.snapshot_times) - 1)
    assert np.max(np.abs(w0 - w0[0])) < 1e-12
    assert np.max(np.abs(wf - w0[0])) / w0[0] < 1e-7


def test_uniform_gas_stays_uniform_under_driving():
    sched = linear_ramp(1.0, 2.0, 0.05)
    rec = evolve_ensemble(
        BOX, box_generator(), sched, uniform_gas_sampler(2.0), 4000, seed=7,
        snapshot_times=np.linspace(0.0, 0.05, 6),
    )
    assert rec.ks_stats is not None
    assert float(np.max(rec.ks_stats)) < 0.025


def test_uniform_gas_shocks_without_driving():
    sched = linear_ramp(1.0, 2.0, 0.05)
    rec = evolve_ensemble(
        BOX, None, sched, uniform_gas_sampler(2.0), 4000, seed=7,
        snapshot_times=np.linspace(0.0, 0.05, 6),
    )
    assert float(np.max(rec.ks_stats)) > 0.1


def test_ensemble_determinism():
    sched = linear_ramp(1.0, 2.0, 0.05)
    kw = dict(snapshot_times=[0.0, 0.05])
    a = evolve_ensemble(BOX, box_generator(), sched, uniform_gas_sampler(1.5), 500, 11, **kw)
    b = evolve_ensemble(BOX, box_generator(), sched, uniform_gas_sampler(1.5), 500, 11, **kw)
    for k in range(len(a.snapshot_times)):
        np.testing.assert_array_equal(a.positions[k], b.positions[k])
        np.testing.assert_array_equal(a.momenta[k], b.momenta[k])


def test_smooth_shell_ensemble():
    tau0 = orbit_period(SHO, 1.0, 1.0)
    sched = smoothstep_ramp(1.0, 1.5, 0.2 * tau0)
    rec = evolve_ensemble(
        SHO, power_law_generator(2), sched, shell_sampler(1.0), 8, seed=5,
        snapshot_times=[0.0, sched.duration],
    )
    wf = rec.omegas(SHO, 1)
    w0 = rec.omegas(SHO, 0)
    assert np.max(np.abs(w0 - w0[0])) / w0[0] < 1e-9
    assert np.max(np.abs(wf - w0[0])) / w0[0] < 1e-7


def test_uniform_gas_needs_box():
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        evolve_ensemble(SHO, None, sched, uniform_gas_sampler(1.0), 10, 1, [0.0, 1.0])


def test_sampler_validation():
    with pytest.raises(DomainError):
        uniform_gas_sampler(1.0, law="levy")
    with pytest.raises(DomainError):
        uniform_gas_sampler(-1.0)


# ---------------------------------------------------------------------------
# dissipation


def test_dissipation_vanishes_under_driving():
    sched = linear_ramp(1.0, 2.0, 0.05)
    rec = evolve_ensemble(
        BOX, box_generator(), sched, shell_sampler(2.0), 400, seed=3,
        snapshot_times=[0.0, 0.05],
    )
    w = dissipation(rec, BOX, sched)
    assert abs(w) < 1e-6 * 2.0


def test_dissipation_zero_when_static():
    sched = constant_hold(1.0, 1.0)
    rec = evolve_ensemble(
        BOX, None, sched, shell_sampler(2.0), 200, seed=3,
        snapshot_times=[0.0, 1.0],
    )
    assert abs(dissipation(rec, BOX, sched)) < 1e-9


def test_bare_dissipation_positive_and_decreasing():
    # Linear wall motion removes exactly 2*L_dot of momentum per right-wall
    # bounce, so slow ramps phase-lock every particle onto the same bounce
    # count and W(T) becomes a sawtooth around zero; these T values sit at
    # mid-fraction counts (|p| = 30, count = 7.5 T) where W stays positive.
    values = []
    for T in (0.073, 0.73, 7.35):
        sched = linear_ramp(1.0, 2.0, T)
        rec = evolve_ensemble(
            BOX, None, sched, shell_sampler(450.0), 800, seed=7,
            snapshot_times=[0.0, T],
        )
        values.append(dissipation(rec, BOX, sched))
    assert all(v > 0 for v in values)
    assert values[0] > values[1] > values[2]
