"""Driving-engine tests.

The box with a linearly moving wall has closed-form flows in both the
driven and bare cases; those serve as exact oracles for the box engines.
For curved ramps the oracles below rebuild both flows from quadrature and
root finding alone, sharing no code with the engines.  A third reference
steps one bare particle through every substep end of the engine's grid with
the engine's hit rule, so the straight flight between hits can be checked
against it hit for hit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

import cdrive.classical as classical
from cdrive.classical import (
    UniformGasSampler,
    _draw_initial_conditions,
    _integrate,
    collide,
    dissipation,
    evolve_bare,
    evolve_cd,
    evolve_ensemble,
    kstest,
    shell_sampler,
    uniform_gas_sampler,
)
from cdrive.errors import DomainError, NumericalError
from cdrive.generators import box_generator, power_law_generator, NumericShellGenerator
from cdrive.schedules import (
    Schedule,
    constant_hold,
    cosine_ramp,
    linear_ramp,
    smoothstep_ramp,
    tabulated,
)
from cdrive.shells import orbit_period, orbit_states, turning_points
from cdrive.systems import SystemModel, box, generic_1d, power_law
from oracles import clock_hit_times, harmonic_fundamental_matrices

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


# ---------------------------------------------------------------------------
# independent oracles for curved ramps: quadrature and root finding only

# shape -> (schedule factory, profile f(s), f'(s)) with L = L0 + (L1 - L0) f(t/T)
_SHAPES = {
    "smoothstep": (smoothstep_ramp, lambda s: s * s * (3.0 - 2.0 * s),
                   lambda s: 6.0 * s * (1.0 - s)),
    "cosine": (cosine_ramp, lambda s: 0.5 - 0.5 * np.cos(np.pi * s),
               lambda s: 0.5 * np.pi * np.sin(np.pi * s)),
}


def _ramp(shape, lams, T):
    """The engine's schedule, and the same ramp L, dL/dt as plain formulas."""
    make, f, df = _SHAPES[shape]
    lam0, lam1 = lams
    span = lam1 - lam0
    return (make(lam0, lam1, T),
            lambda t: lam0 + span * f(np.clip(t / T, 0.0, 1.0)),
            lambda t: span * df(np.clip(t / T, 0.0, 1.0)) / T)


def _quad_clock(L, a, b):
    return quad(lambda s: L(s) ** -2, a, b, epsabs=1e-15, epsrel=1e-13)[0]


def _cd_oracle(L, q0, p0, times, m=1.0):
    """Driven box: P = pL is conserved and x = q/L runs at P/m on the clock
    tau = integral of L^-2, unfolded across walls at the integers.  Returns
    q and p at the times, folded back into the box, and the hits."""
    x0, P = q0 / L(0.0), p0 * L(0.0)
    tau = np.cumsum([0.0] + [_quad_clock(L, a, b) for a, b in zip(times[:-1], times[1:])])
    u = np.mod(x0 + P * tau / m, 2.0)
    back = u > 1.0
    lams = L(np.asarray(times))
    u_T = x0 + P * tau[-1] / m
    walls = range(1, math.ceil(u_T)) if P > 0 else range(0, math.floor(u_T), -1)
    hits = [(brentq(lambda t: x0 + P * _quad_clock(L, 0.0, t) / m - n, 0.0, times[-1],
                    xtol=1e-14 * times[-1]), "right" if n % 2 else "left")
            for n in walls]
    return lams * np.where(back, 2.0 - u, u), np.where(back, -P, P) / lams, hits


def _bare_oracle(L, L_dot, q0, p0, times, m=1.0):
    """Bare box, hit by hit: a left hit is at t + q/|v|; a right hit is the
    first root of q + v (s - t) - L(s), located on a scan of T/4000 and
    refined by brentq.  Returns q and p at the times, and the hits."""
    T = times[-1]
    t, q, v = 0.0, q0, p0 / m
    legs, hits = [(t, q, v)], []
    while True:
        end = T if v >= 0.0 else min(T, t + q / -v)
        s = np.linspace(t, end, 2 + int(4000 * (end - t) / T))
        ahead = np.nonzero(q + v * (s[1:] - t) - L(s[1:]) > 0.0)[0]
        if ahead.size:
            k = ahead[0] + 1
            t = brentq(lambda x, t=t, q=q, v=v: q + v * (x - t) - L(x), s[k - 1], s[k],
                       xtol=1e-14 * T)
            q, v, wall = L(t), -v + 2.0 * L_dot(t), "right"
        elif end < T:
            t, q, v, wall = end, 0.0, -v, "left"
        else:
            break
        legs.append((t, q, v))
        hits.append((t, wall))
    qs, ps = [], []
    for r in times:
        t, q, v = [leg for leg in legs if leg[0] <= r][-1]
        qs.append(q + v * (r - t))
        ps.append(m * v)
    return np.array(qs), np.array(ps), hits


def _bare_substep_reference(sched, q, p, times, h, m=1.0):
    """One bare box particle checked at every substep end of the engine's
    grid: wherever it lies outside [0, L], the hit is solved by the engine's
    rule (a left hit exactly, a right hit by bisection to 1e-13 T and a
    secant step) and the end is checked again.  Returns q and p at the
    times, and the hits."""
    T = sched.duration
    qs, ps, hits = [q], [p], []
    for a, b in zip(times[:-1], times[1:]):
        t = a
        for e in np.linspace(a, b, max(1, math.ceil((b - a) / h)) + 1)[1:]:
            L_e = float(sched.value(e))
            while not 0.0 <= (q1 := q + (e - t) * p / m) <= L_e:
                if q1 < 0.0:
                    t, q, p, wall = t - q * m / p, 0.0, -p, "left"
                else:
                    def g(s, q=q, v=p / m, t=t):
                        return q + v * (s - t) - float(sched.value(s))
                    lo, hi, g_lo, g_hi = t, e, min(g(t), 0.0), q1 - L_e
                    while hi - lo > 1e-13 * T:
                        mid = 0.5 * (lo + hi)
                        if (g_mid := g(mid)) > 0.0:
                            hi, g_hi = mid, g_mid
                        else:
                            lo, g_lo = mid, g_mid
                    t = lo + (hi - lo) * g_lo / (g_lo - g_hi)
                    q, p = float(sched.value(t)), -p + 2.0 * m * float(sched.rate(t))
                    wall = "right"
                hits.append((t, wall))
            q, t = q1, e
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps), hits


def _assert_matches_oracle(qs, ps, q_ref, p_ref):
    np.testing.assert_allclose(qs, q_ref, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(ps, p_ref, rtol=0.0, atol=1e-9)


_ORACLE_CASES = [
    pytest.param(shape, lams, T, id=f"{shape}-{direction}-T{T}")
    for shape in ("smoothstep", "cosine")
    for direction, lams in (("expand", (1.0, 2.0)), ("compress", (1.5, 0.75)))
    for T in (0.05, 0.5, 5.0)
]
_ORACLE_STARTS = [(0.13, 5.3), (0.46, -2.9), (0.71, 1.7), (0.88, -6.1), (0.29, -23.0)]


@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("shape, lams, T", _ORACLE_CASES)
def test_box_trajectory_matches_oracle(shape, lams, T, driven):
    sched, L, L_dot = _ramp(shape, lams, T)
    for u0, p0 in _ORACLE_STARTS:
        z0 = (u0 * lams[0], p0)
        if driven:
            rec = evolve_cd(BOX, box_generator(), sched, z0, dt=T / 400, record_every=20)
            q_ref, p_ref, hits = _cd_oracle(L, *z0, rec.times)
        else:
            rec = evolve_bare(BOX, sched, z0, dt=T / 400, record_every=20)
            q_ref, p_ref, hits = _bare_oracle(L, L_dot, *z0, rec.times)
        assert len(rec.times) == 21
        _assert_matches_oracle(rec.qs, rec.ps, q_ref, p_ref)
        assert [w for _, w in rec.collisions] == [w for _, w in hits]
        np.testing.assert_allclose([t for t, _ in rec.collisions], [t for t, _ in hits],
                                   rtol=0.0, atol=1e-9 * T)


_HIT_SCHEDULES = [
    *(pytest.param(_ramp(*case.values)[0], id=case.id) for case in _ORACLE_CASES),
    # knots inside the record intervals of every record grid below
    pytest.param(tabulated(2.0 * np.array([0.0, 0.1234, 0.3071, 0.5519, 0.7713, 1.0]),
                           [1.0, 1.3, 1.1, 1.6, 1.4, 1.8]), id="tabulated"),
    pytest.param(constant_hold(1.3, 0.5), id="hold"),
    # L dips tenfold and comes back inside one record interval when dt = T
    pytest.param(tabulated([0.0, 0.5, 1.0], [10.0, 1.0, 10.0]), id="tabulated-dip"),
]


@pytest.mark.parametrize("sched", _HIT_SCHEDULES)
def test_cd_box_hits_match_the_clock_oracle(sched):
    # the oracle times each hit by brentq on the single-point clock, apart
    # from any records; the engine's hits must agree on every record grid
    T = sched.duration
    for u0, p0 in _ORACLE_STARTS:
        z0 = (u0 * sched.initial, p0)
        ref = clock_hit_times(sched, *z0)
        for dt, record_every in ((T / 2000, 1), (T / 2000, 20), (T / 37, 1), (T / 37, 20),
                                 (T, 1)):
            rec = evolve_cd(BOX, box_generator(), sched, z0, dt=dt, record_every=record_every)
            assert [w for _, w in rec.collisions] == [w for _, w in ref]
            np.testing.assert_allclose([t for t, _ in rec.collisions], [t for t, _ in ref],
                                       rtol=0.0, atol=1e-13 * T)


def test_cd_box_hits_in_one_long_record_interval_match_the_linear_clock(monkeypatch):
    # L = 1 - 0.95 t falls 20-fold between the only two records, 0 and T,
    # and its 100 hits take two Newton batches; the clock tau = t / L(t)
    # puts the hit at unfolded x = n at t = tau_n / (1 + 0.95 tau_n)
    ends, spans = [], classical._clock_spans

    def recorded_spans(schedule, starts, stops):
        ends.append(np.max(stops))
        return spans(schedule, starts, stops)

    monkeypatch.setattr(classical, "_clock_spans", recorded_spans)
    rec = evolve_cd(BOX, box_generator(), linear_ramp(1.0, 0.05, 1.0), (0.3, 5.0), dt=1.0)
    # a Newton step here can leave the record interval: the bracket keeps
    # every iterate in it, so no solve integrates past it
    assert max(ends) <= 1.0
    tau = (np.arange(1, 101) - 0.3) / 5.0
    assert [w for _, w in rec.collisions] == ["right", "left"] * 50
    np.testing.assert_allclose([t for t, _ in rec.collisions], tau / (1.0 + 0.95 * tau),
                               rtol=0.0, atol=1e-13)


def test_cd_box_hit_solve_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(classical, "_NEWTON_ROUNDS", 1)
    with pytest.raises(NumericalError, match="^wall-hit times did not converge on the clock$"):
        evolve_cd(BOX, box_generator(), smoothstep_ramp(1.0, 2.0, 1.0), (0.5, 3.0), dt=1e-2)


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
# box trajectory properties

_BOX_RAMPS = st.builds(
    lambda make, lams, T: make(*lams, T),
    st.sampled_from([linear_ramp, smoothstep_ramp, cosine_ramp]),
    st.sampled_from([(1.0, 2.0), (1.5, 0.75)]),
    st.floats(0.05, 5.0),
)
# (q0 / L0, |p0|, sign of p0)
_BOX_STARTS = st.tuples(st.floats(0.01, 0.99), st.floats(0.3, 12.0), st.sampled_from([-1.0, 1.0]))


def _box_start(sched, start):
    u, speed, sign = start
    return u * sched.initial, sign * speed


def _box_run(sched, z0, driven, **kw):
    if driven:
        return evolve_cd(BOX, box_generator(), sched, z0, **kw)
    return evolve_bare(BOX, sched, z0, **kw)


def _assert_hits_follow_collide(rec, sched, driven):
    """Replaying collide() at each listed hit reproduces every recorded
    momentum after the start: exactly on the bare arm, and in P = pL on the
    driven one."""
    p = rec.ps[0]
    P = p * float(sched.value(0.0))
    hits = list(rec.collisions)
    for t, p_rec, lam in zip(rec.times[1:], rec.ps[1:], sched.value(rec.times[1:])):
        while hits and hits[0][0] <= t:
            t_hit, wall = hits.pop(0)
            L, L_dot = float(sched.value(t_hit)), float(sched.rate(t_hit))
            if driven:
                P = collide(P / L, wall, L, L_dot, cd=True) * L
            else:
                p = collide(p, wall, L, L_dot, cd=False)
        if driven:
            assert p_rec * lam == pytest.approx(P, rel=1e-14)
        else:
            assert p_rec == p
    assert not hits


@given(sched=_BOX_RAMPS, start=_BOX_STARTS)
def test_bare_box_time_reversal(sched, start):
    T = sched.duration
    q0, p0 = _box_start(sched, start)
    q1, p1 = evolve_bare(BOX, sched, (q0, p0), dt=T / 500).final_state
    reverse = Schedule(T, lambda t: sched.value(T - np.asarray(t)),
                       lambda t: -sched.rate(T - np.asarray(t)))
    q2, p2 = evolve_bare(BOX, reverse, (q1, -p1), dt=T / 500).final_state
    assert q2 == pytest.approx(q0, abs=1e-9)
    assert -p2 == pytest.approx(p0, abs=1e-9)


@given(sched=_BOX_RAMPS, start=_BOX_STARTS, steps=st.integers(1, 3000))
def test_cd_box_invariant_is_exact(sched, start, steps):
    rec = evolve_cd(BOX, box_generator(), sched, _box_start(sched, start),
                    dt=sched.duration / steps)
    assert rec.drift() <= 1e-14


@given(sched=_BOX_RAMPS, start=_BOX_STARTS, steps=st.floats(0.5, 3000.0),
       record_every=st.integers(1, 50), driven=st.booleans())
def test_box_records_sit_on_the_step_grid(sched, start, steps, record_every, driven):
    T = sched.duration
    dt = T / steps
    rec = _box_run(sched, _box_start(sched, start), driven, dt=dt, record_every=record_every)
    assert rec.times[0] == 0.0 and rec.times[-1] == T
    assert np.all(np.diff(rec.times) > 0.0)
    grid = rec.times[:-1] / (record_every * dt)
    np.testing.assert_allclose(grid, np.arange(grid.size), rtol=0.0, atol=1e-9)
    assert T - rec.times[-2] <= record_every * dt * (1.0 + 1e-12)


@given(sched=_BOX_RAMPS, start=_BOX_STARTS, driven=st.booleans())
def test_box_hits_follow_collide(sched, start, driven):
    rec = _box_run(sched, _box_start(sched, start), driven, dt=sched.duration / 400)
    _assert_hits_follow_collide(rec, sched, driven)


@pytest.mark.parametrize("p0, walls, q_T", [
    (1.5, ["right", "left"], 0.0),  # unfolded x lands on 2: bounced at T
    (2.5, ["right", "left"], 1.0),  # lands on 3: at the right wall, not yet bounced
    (-1.5, ["left", "right"], 1.0),  # lands on -1: bounced at T
    (-2.5, ["left", "right"], 0.0),  # lands on -2: at the left wall, not yet bounced
])
def test_cd_box_wall_reached_exactly_at_T(p0, walls, q_T):
    # on a static box the clock is exact, so x = q/L lands on a wall at T;
    # as in the ensemble engine's fold, a hit there counts only when it
    # turns the particle back into the box
    sched = constant_hold(1.0, 1.0)
    rec = evolve_cd(BOX, box_generator(), sched, (0.5, p0), dt=1.0 / 1024)
    assert [w for _, w in rec.collisions] == walls
    assert rec.final_state == (q_T, p0)
    _assert_hits_follow_collide(rec, sched, True)
    bare = evolve_bare(BOX, sched, (0.5, p0), dt=1.0 / 1024)
    _assert_hits_follow_collide(bare, sched, False)


@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("z0, wall", [((0.0, -2.2), "left"), ((1.0, 2.5), "right")])
def test_box_start_on_wall_heading_out_bounces_at_zero(driven, z0, wall):
    sched = linear_ramp(1.0, 2.0, 1.0)
    rec = _box_run(sched, z0, driven, dt=1e-3)
    assert rec.collisions[0] == (0.0, wall)
    _assert_hits_follow_collide(rec, sched, driven)


def test_cd_box_hit_on_a_record_time_follows_the_record():
    # the left wall is reached at t = 0.5, a record time, analytically; the
    # computed unfolded x there is 2 - 9e-16, so the record still shows the
    # particle heading left, and the hit must be listed after it
    sched = linear_ramp(1.0, 2.0, 1.0)
    rec = evolve_cd(BOX, box_generator(), sched, (1.0, 3.0), dt=1e-3)
    (t0, w0), (t1, w1) = rec.collisions[:2]
    assert (t0, w0, w1) == (0.0, "right", "left")
    assert 0.5 < t1 <= 0.501 and t1 == pytest.approx(0.5, abs=1e-15)
    _assert_hits_follow_collide(rec, sched, True)


def test_cd_box_walls_reached_exactly_at_records():
    # on a static box the clock is exact: x = 0.5 + 2t sits on the right wall
    # at the record t = 0.25, not yet turned back (the fold of an odd x), and
    # on the left wall at t = 0.75, already turned back (an even x)
    sched = constant_hold(1.0, 1.0)
    rec = evolve_cd(BOX, box_generator(), sched, (0.5, 2.0), dt=1.0 / 1024)
    k = np.searchsorted(rec.times, [0.25, 0.75])
    assert rec.qs[k].tolist() == [1.0, 0.0] and rec.ps[k].tolist() == [2.0, 2.0]
    assert rec.collisions == ((np.nextafter(0.25, 1.0), "right"), (0.75, "left"))
    _assert_hits_follow_collide(rec, sched, True)


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


@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_box_trajectory_rejects_bad_step(driven, dt):
    with pytest.raises(DomainError):
        _box_run(linear_ramp(1.0, 2.0, 1.0), (0.5, 1.0), driven, dt=dt)


@pytest.mark.parametrize("record_every", [0, -3, math.nan])
@pytest.mark.parametrize("system, generator, z0", [(BOX, box_generator(), (0.5, 1.0)),
                                                   (QUARTIC, power_law_generator(4), (0.3, 0.8))],
                         ids=["box", "power_law"])
def test_trajectories_reject_a_record_interval_below_one(system, generator, z0, record_every):
    # one check for every engine: no interval is clamped to 1 or taken as every step
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    message = f"^record_every must be at least 1, got {record_every}$"
    with pytest.raises(DomainError, match=message):
        evolve_cd(system, generator, sched, z0, dt=1e-2, record_every=record_every)
    with pytest.raises(DomainError, match=message):
        evolve_bare(system, sched, z0, dt=1e-2, record_every=record_every)


@pytest.mark.parametrize("record_every", [2.5, math.inf])
@pytest.mark.parametrize("system, generator, z0", [(BOX, box_generator(), (0.5, 1.0)),
                                                   (QUARTIC, power_law_generator(4), (0.3, 0.8))],
                         ids=["box", "power_law"])
def test_trajectories_reject_a_non_integral_record_interval(system, generator, z0, record_every):
    # a fractional interval would mean one thing on the box's dt grid and
    # another in RK4's step count
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    message = f"^record_every must be an integer, got {record_every}$"
    with pytest.raises(DomainError, match=message):
        evolve_cd(system, generator, sched, z0, dt=1e-1, record_every=record_every)
    with pytest.raises(DomainError, match=message):
        evolve_bare(system, sched, z0, dt=1e-1, record_every=record_every)


@pytest.mark.parametrize("system, generator, z0", [(BOX, box_generator(), (0.5, 1.0)),
                                                   (QUARTIC, power_law_generator(4), (0.3, 0.8))],
                         ids=["box", "power_law"])
def test_trajectories_take_a_numpy_integer_record_interval(system, generator, z0):
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    a, b = (evolve_cd(system, generator, sched, z0, dt=1e-1, fixed_step=True, record_every=k)
            for k in (3, np.int64(3)))
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.qs, b.qs)


@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("system, generator", [(BOX, box_generator()),
                                               (QUARTIC, power_law_generator(4))],
                         ids=["box", "power_law"])
@pytest.mark.parametrize("z0", [(math.nan, 0.8), (0.3, math.nan), (0.3, math.inf),
                                (-math.inf, 0.8)])
def test_trajectories_reject_a_non_finite_start(system, generator, z0, driven):
    # checked once, before either engine sees the point
    sched = linear_ramp(1.0, 2.0, 1.0)
    with pytest.raises(DomainError, match="^phase point must be finite"):
        if driven:
            evolve_cd(system, generator, sched, z0, dt=0.1)
        else:
            evolve_bare(system, sched, z0, dt=0.1)


@pytest.mark.parametrize("run", [
    lambda s: evolve_cd(BOX, box_generator(), s, (0.5, 3.0), dt=1e-3),
    lambda s: evolve_bare(BOX, s, (0.5, 3.0), dt=1e-3),
    lambda s: evolve_ensemble(BOX, box_generator(), s, uniform_gas_sampler(5.0), 20, 1, [0.5]),
    lambda s: evolve_ensemble(BOX, None, s, uniform_gas_sampler(5.0), 20, 1, [0.5]),
], ids=["cd-trajectory", "bare-trajectory", "cd-ensemble", "bare-ensemble"])
@pytest.mark.parametrize("sched", [linear_ramp(1.0, -1.0, 1.0), linear_ramp(0.0, 1.0, 1.0)],
                         ids=["ends-negative", "starts-at-zero"])
def test_box_engines_reject_a_schedule_leaving_positive_lam(run, sched):
    # the grid arm's error, from the records, the clock or the bare flight's walls
    with pytest.raises(DomainError, match="^schedule leaves the positive parameter range$"):
        run(sched)


# each of these hung the smooth-well RK4: a NaN step or tolerance, or a NaN
# state, gives a NaN error ratio, and no step was ever accepted
@pytest.mark.parametrize("kw", [dict(dt=math.nan), dict(dt=math.inf), dict(dt=-1e-3),
                                dict(dt=1e-3, tol=math.nan), dict(dt=1e-3, tol=0.0)])
def test_rk4_rejects_bad_step_and_tolerance(kw):
    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        evolve_cd(QUARTIC, power_law_generator(4), sched, (0.3, 0.8), **kw)


def test_rk4_nan_state_is_numerical_error():
    class NanGenerator:
        def evaluate_grad_z(self, z, lam):
            return math.nan, math.nan

    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    with pytest.raises(NumericalError):
        evolve_cd(QUARTIC, NanGenerator(), sched, (0.3, 0.8), dt=1e-3)


@pytest.mark.parametrize("fixed_step", [False, True], ids=["adaptive", "fixed"])
def test_rk4_evaluates_the_flow_once_per_point(fixed_step):
    # the slope at an accepted point serves every attempt from it: a step-halving
    # attempt costs the full step's 3 further slopes and the two half steps' 3 + 4,
    # a fixed step 3, and each accepted point before T 1 more; dt = 0.5 forces
    # rejected attempts on the adaptive path
    base = power_law_generator(4)
    calls = []

    class Counted:
        def evaluate_grad_z(self, z, lam):
            calls.append(None)
            return base.evaluate_grad_z(z, lam)

    sched = smoothstep_ramp(1.0, 1.5, 1.0)
    with mock.patch.object(classical, "_rk4", wraps=classical._rk4) as rk4:
        rec = evolve_cd(QUARTIC, Counted(), sched, (0.3, 0.8), dt=0.5, tol=1e-8,
                        fixed_step=fixed_step)
    accepted = len(rec.times) - 1
    attempts = rk4.call_count if fixed_step else rk4.call_count // 3
    if fixed_step:
        assert len(calls) == 4 * accepted
    else:
        assert attempts > accepted
        assert len(calls) == 10 * attempts + accepted


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
@pytest.mark.parametrize("shape, lams, T", _ORACLE_CASES)
def test_box_ensemble_matches_oracle(shape, lams, T, driven):
    # no closed form for a curved ramp: the quadrature oracles are the check
    sched, L, L_dot = _ramp(shape, lams, T)
    rec = evolve_ensemble(BOX, box_generator() if driven else None, sched,
                          uniform_gas_sampler(6.0, "gaussian"), 12, seed=4,
                          snapshot_times=[0.0, T / 3, T])
    rows = np.array(rec.positions), np.array(rec.momenta)
    for i, (q0, p0) in enumerate(zip(rec.positions[0], rec.momenta[0])):
        if driven:
            q_ref, p_ref, _ = _cd_oracle(L, q0, p0, rec.snapshot_times)
        else:
            q_ref, p_ref, _ = _bare_oracle(L, L_dot, q0, p0, rec.snapshot_times)
        _assert_matches_oracle(rows[0][:, i], rows[1][:, i], q_ref, p_ref)


@pytest.mark.parametrize("sched", [linear_ramp(1.0, 2.0, 0.5), linear_ramp(1.5, 0.75, 0.5),
                                   smoothstep_ramp(1.0, 2.0, 0.5)],
                         ids=["expand", "compress", "smoothstep"])
def test_bare_box_ensemble_particle_equals_its_trajectory(sched):
    # each particle of the bare ensemble is flown on its own: alone, on the
    # same dt grid with records at the snapshots, it lands on the same rows;
    # and flying straight between hits finds the hits that checking every
    # substep end finds.  At width 30 a particle meets five or more walls on
    # average, so the floor of four hits per particle is not met by luck
    T = sched.duration
    snaps = [0.0, T / 4, T / 2, 3 * T / 4, T]
    rec = evolve_ensemble(BOX, None, sched, uniform_gas_sampler(30.0, "gaussian"), 40,
                          seed=5, snapshot_times=snaps)
    qs, ps = np.array(rec.positions), np.array(rec.momenta)
    L, P = max(sched.value(np.array(snaps))), np.max(np.abs(ps))
    n_hits = 0
    for i in range(rec.n_particles):
        traj = evolve_bare(BOX, sched, (qs[0, i], ps[0, i]), dt=T / 500, record_every=125)
        np.testing.assert_allclose(traj.times, snaps, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(qs[:, i], traj.qs, rtol=0.0, atol=1e-12 * L)
        np.testing.assert_allclose(ps[:, i], traj.ps, rtol=0.0, atol=1e-12 * P)
        q_ref, p_ref, hits = _bare_substep_reference(sched, qs[0, i], ps[0, i], snaps, T / 500)
        np.testing.assert_allclose(traj.qs, q_ref, rtol=0.0, atol=1e-13 * L)
        np.testing.assert_allclose(traj.ps, p_ref, rtol=0.0, atol=1e-13 * P)
        assert [w for _, w in traj.collisions] == [w for _, w in hits]
        np.testing.assert_allclose([t for t, _ in traj.collisions], [t for t, _ in hits],
                                   rtol=0.0, atol=1e-13 * T)
        n_hits += len(hits)
    assert n_hits > 4 * rec.n_particles


@pytest.mark.parametrize("limit, raises", [(2, False), (1, True)])
def test_bare_box_collision_rounds_guard(monkeypatch, limit, raises):
    # one substep of a static unit box: from 0.5 at speed 2.2 the particle
    # hits the right wall, then the left, and ends at 0.7
    monkeypatch.setattr(classical, "_MAX_COLLISION_ROUNDS", limit)
    sched = constant_hold(1.0, 1.0)
    if raises:
        with pytest.raises(NumericalError, match="did not settle within a substep"):
            evolve_bare(BOX, sched, (0.5, 2.2), dt=1.0)
        return
    rec = evolve_bare(BOX, sched, (0.5, 2.2), dt=1.0)
    assert [w for _, w in rec.collisions] == ["right", "left"]
    assert rec.final_state == pytest.approx((0.7, 2.2), abs=1e-14)


def test_bare_box_fast_particle_in_a_narrow_box_trips_the_guard(monkeypatch):
    # 100 box widths per substep: far more hits than the guard allows
    monkeypatch.setattr(classical, "_MAX_COLLISION_ROUNDS", 8)
    sched = linear_ramp(0.01, 0.02, 1.0)
    with pytest.raises(NumericalError, match="did not settle within a substep"):
        evolve_bare(BOX, sched, (0.005, 100.0), dt=1e-2)
    with pytest.raises(NumericalError, match="did not settle within a substep"):
        evolve_ensemble(BOX, None, sched, uniform_gas_sampler(100.0), 10, seed=3,
                        snapshot_times=[0.0, 1.0])


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


def test_kstest_equals_scipy_statistic():
    # the statistic lands in report.json, so it must be scipy's to the bit;
    # samples reach past [0, 1] on both sides, where the cdf clips
    from scipy.stats import kstest as scipy_kstest

    rng = np.random.default_rng(20)
    cases = [np.array([0.5]), np.array([-0.2]), np.array([1.3]), np.zeros(5), np.ones(5),
             np.array([0.25, 0.25, 0.75, 0.75]), np.linspace(0.0, 1.0, 11)]
    for n in rng.integers(1, 20001, size=60):
        lo, hi = sorted(rng.uniform(-0.2, 1.2, size=2))
        cases.append(rng.uniform(lo, hi, size=n))
        cases.append(rng.uniform(0.0, 1.0, size=n))
    for x in cases:
        assert kstest(x) == scipy_kstest(x, "uniform").statistic, x.size


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


def _harmonic_bare_oracle_check(lam0, lam1, duration):
    """Each particle of a bare power_law(2) shell ensemble at every snapshot,
    and one bare trajectory's final state, against the exact linear flow
    (q, p)(t) = Phi(t) (q, p)(0), Phi the fundamental matrix of
    q'' = -w(t)^2 q (tests/oracles.py).

    Both run at tol 1e-8 and 1e-10.  Step-halving RK4's error falls about
    40-fold per 100-fold in tol (26- to 45-fold measured), so the change
    between the two runs is the coarse run's error, and the fine run's error
    is bounded by a quarter of it: a bound that holds for any fall of 5-fold
    or more.
    """
    sched = smoothstep_ramp(lam0, lam1, duration)
    snaps = np.linspace(0.0, duration, 5)
    z0 = (0.3, -1.1)
    ens, traj = [], []
    for tol in (1e-8, 1e-10):
        rec = evolve_ensemble(SHO, None, sched, shell_sampler(1.0), 8, seed=3,
                              snapshot_times=snaps, tol=tol)
        ens.append(np.stack([rec.positions, rec.momenta], axis=1))  # (snapshot, q|p, particle)
        traj.append(evolve_bare(SHO, sched, z0, dt=duration / 100, tol=tol))
    exact = harmonic_fundamental_matrices(SHO, sched, rec.snapshot_times) @ ens[1][0]
    ens_bound = 0.25 * np.max(np.abs(ens[0] - ens[1]))
    ens_err = np.max(np.abs(ens[1] - exact))
    assert ens_err <= ens_bound, f"ensemble error {ens_err:.3e} > {ens_bound:.3e}"
    exact = harmonic_fundamental_matrices(SHO, sched, [duration])[0] @ np.array(z0)
    traj_bound = 0.25 * np.max(np.abs(np.subtract(traj[0].final_state, traj[1].final_state)))
    traj_err = np.max(np.abs(traj[1].final_state - exact))
    assert traj_err <= traj_bound, f"trajectory error {traj_err:.3e} > {traj_bound:.3e}"


@pytest.mark.parametrize("lam0, lam1", [(1.0, 2.0), (2.0, 1.0)], ids=["expand", "compress"])
@pytest.mark.parametrize("duration", [0.3, 1.0, 3.0])
def test_bare_harmonic_ensemble_and_trajectory_match_the_exact_flow(duration, lam0, lam1):
    # the orbit period at lam = 1 is 4.4: from a sudden ramp to a slow one
    _harmonic_bare_oracle_check(lam0, lam1, duration)


def test_bare_harmonic_oracle_rejects_a_scaled_force(monkeypatch):
    real = SystemModel.grad_q
    monkeypatch.setattr(SystemModel, "grad_q", lambda self, q, lam: 1.01 * real(self, q, lam))
    with pytest.raises(AssertionError, match="ensemble error"):
        _harmonic_bare_oracle_check(1.0, 2.0, 1.0)


def _reference_draw(system, sampler, lam, n, seed):
    """The seed's documented mapping, particle by particle: the q stream and
    the p stream are default_rng of the two children of
    SeedSequence(seed).spawn(2), and particle i takes the i-th scalar draw of
    each (its orbit fraction from the q stream on a smooth well)."""
    q_rng, p_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    us = [q_rng.random() for _ in range(n)]
    if system.kind != "box":
        return orbit_states(system, sampler.E, lam, us)
    qs = np.array([u * lam for u in us])
    if isinstance(sampler, UniformGasSampler) and sampler.law == "gaussian":
        return qs, np.array([sampler.p_bar * p_rng.standard_normal() for _ in range(n)])
    if isinstance(sampler, UniformGasSampler):
        absp = sampler.p_bar
    else:
        absp = math.sqrt(2.0 * system.mass * sampler.E)
    return qs, np.array([absp if p_rng.random() < 0.5 else -absp for _ in range(n)])


_DRAW_CASES = {
    "two_point_gas": (BOX, uniform_gas_sampler(1.7)),
    "gaussian_gas": (BOX, uniform_gas_sampler(1.7, law="gaussian")),
    "box_shell": (BOX, shell_sampler(2.0)),
    "quartic_shell": (QUARTIC, shell_sampler(1.0)),
}


def _draw(case, n, seed, lam=1.3):
    system, sampler = _DRAW_CASES[case]
    return _draw_initial_conditions(system, sampler, lam, n, seed)


def _assert_draws_match(case, n, seed, lam=1.3):
    system, sampler = _DRAW_CASES[case]
    qs, ps = _draw(case, n, seed, lam)
    ref_q, ref_p = _reference_draw(system, sampler, lam, n, seed)
    assert np.array_equal(qs, ref_q) and np.array_equal(ps, ref_p)


@pytest.mark.parametrize("case", sorted(_DRAW_CASES))
@pytest.mark.parametrize("seed", [0, 1, 23, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_draws_match_per_particle_generators(case, seed, n):
    _assert_draws_match(case, n, seed)


@given(case=st.sampled_from(sorted(_DRAW_CASES)),
       seed=st.integers(0, 2**96 - 1), n=st.integers(1, 300))
def test_draws_match_per_particle_generators_property(case, seed, n):
    _assert_draws_match(case, n, seed)


@given(case=st.sampled_from(sorted(_DRAW_CASES)),
       seed=st.integers(0, 2**96 - 1), n=st.integers(1, 300), k=st.integers(1, 300))
def test_draws_for_n_particles_are_the_first_of_those_for_more(case, seed, n, k):
    qs, ps = _draw(case, n, seed)
    more_q, more_p = _draw(case, n + k, seed)
    assert np.array_equal(qs, more_q[:n]) and np.array_equal(ps, more_p[:n])


@pytest.mark.parametrize("case", sorted(_DRAW_CASES))
def test_equal_seeds_draw_equal_and_different_seeds_differ(case):
    for seed in (0, 23, 2**64 + 3):
        q, p = _draw(case, 50, seed)
        q2, p2 = _draw(case, 50, seed)
        assert np.array_equal(q, q2) and np.array_equal(p, p2)
        q3, p3 = _draw(case, 50, seed + 1)
        assert not np.array_equal(q, q3) and not np.array_equal(p, p3)


def _assert_uniform(u):
    # a sample of n from U(0, 1) exceeds 2.5/sqrt(n) with probability
    # about 2 exp(-2 * 2.5**2) = 7.5e-6
    assert kstest(u) < 2.5 / math.sqrt(len(u))


def _assert_balanced_signs(p):
    # the count of positive signs is binomial(n, 1/2): 4.5 sigma
    n = len(p)
    assert abs(np.count_nonzero(p > 0) - 0.5 * n) < 4.5 * 0.5 * math.sqrt(n)


def _quartic_orbit_fraction(q, p, E, lam):
    """Orbit-time fraction, counted from q+, of a point on the quartic shell
    E: with u = q/q+ the time from q to q+ is proportional to the integral
    of 1/sqrt(1 - u^4) from u to 1, taken with the endpoint weight
    (1 - u)^(-1/2), and the integrand is even in u."""
    def to_top(u):
        if u < 0.0:
            return full - to_top(-u)
        return quad(lambda v: 1.0 / math.sqrt((1.0 + v) * (1.0 + v * v)), u, 1.0,
                    weight="alg", wvar=(0.0, -0.5))[0]

    full = quad(lambda v: 1.0 / math.sqrt(1.0 + v * v), -1.0, 1.0,
                weight="alg", wvar=(-0.5, -0.5))[0]
    half = to_top(q / (lam * E**0.25)) / (2.0 * full)
    return half if p <= 0.0 else 1.0 - half


@pytest.mark.parametrize("case", sorted(_DRAW_CASES))
def test_draws_follow_their_law(case):
    lam, n = 1.3, 20_000
    system, sampler = _DRAW_CASES[case]
    qs, ps = _draw(case, n, 23, lam)
    if case == "quartic_shell":
        _assert_uniform([_quartic_orbit_fraction(q, p, sampler.E, lam) for q, p in zip(qs, ps)])
        return
    _assert_uniform(qs / lam)
    if case == "gaussian_gas":
        _assert_uniform(ndtr(ps / sampler.p_bar))
        return
    p_bar = sampler.p_bar if case == "two_point_gas" else math.sqrt(2.0 * sampler.E)
    assert np.array_equal(np.abs(ps), np.full(n, p_bar))
    _assert_balanced_signs(ps)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_samplers_reject_non_finite_or_non_positive_parameters(value):
    for make in (uniform_gas_sampler, lambda v: uniform_gas_sampler(v, "gaussian"),
                 shell_sampler):
        with pytest.raises(DomainError, match="must be finite and positive"):
            make(value)


def test_negative_seed_is_domain_error():
    sched = linear_ramp(1.0, 2.0, 0.05)
    with pytest.raises(DomainError):
        evolve_ensemble(BOX, box_generator(), sched, uniform_gas_sampler(1.0), 10,
                        -1, [0.0, 0.05])


@pytest.mark.parametrize("system, sampler", [(BOX, uniform_gas_sampler(1.0)),
                                             (SHO, shell_sampler(1.0))], ids=["box", "sho"])
@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("kw", [
    dict(dt=0.0), dict(dt=-1e-3), dict(dt=math.nan), dict(dt=math.inf),
    dict(snapshot_times=[0.0, math.nan]), dict(snapshot_times=[math.inf]),
    dict(snapshot_times=[-0.01]), dict(snapshot_times=[0.06]), dict(n_particles=2.5),
], ids=["dt0", "dt_neg", "dt_nan", "dt_inf", "snap_nan", "snap_inf", "snap_neg", "snap_late",
        "n_fractional"])
def test_ensemble_rejects_bad_step_and_snapshots(system, sampler, driven, kw):
    sched = linear_ramp(1.0, 2.0, 0.05)
    gen = (box_generator() if system is BOX else power_law_generator(2)) if driven else None
    kw = {"n_particles": 10, "snapshot_times": [0.0, 0.05], **kw}
    with pytest.raises(DomainError):
        evolve_ensemble(system, gen, sched, sampler, seed=1, **kw)


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
# smooth wells: the batched RK4 driver against the scalar driver and the
# per-particle ensemble loop it replaced


def _reference_integrate(system, generator, schedule, z0, dt, tol, fixed_step, record_every):
    """The scalar step-halving RK4 driver: one particle, recorded every
    record_every accepted steps and at T."""
    m, value, rate, force = system.mass, schedule.value, schedule.rate, system.grad_q
    if generator is None:
        def rhs(t, y):
            return np.array([y[1] / m, -force(y[0], value(t))])
    else:
        def rhs(t, y):
            lam = value(t)
            r = rate(t)
            gq, gp = generator.evaluate_grad_z((y[0], y[1]), lam)
            return np.array([y[1] / m + r * gp, -force(y[0], lam) - r * gq])

    def rk4(t, y, h):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    T = schedule.duration
    q0, p0 = float(z0[0]), float(z0[1])
    ts, qs, ps = [0.0], [q0], [p0]
    y = np.array([q0, p0])
    t = 0.0
    h = min(dt, T)
    steps_since_record = 0
    while t < T:
        if T - t <= 1e-14 * T:
            break
        h = min(h, T - t)
        if fixed_step:
            y_new, h_next = rk4(t, y, h), h
        else:
            y_full = rk4(t, y, h)
            y_new = rk4(t + 0.5 * h, rk4(t, y, 0.5 * h), 0.5 * h)
            err = np.max(np.abs(y_new - y_full)) / 15.0
            ratio = err / (tol * (1.0 + float(np.max(np.abs(y)))))
            factor = 0.9 * ratio ** -0.2 if ratio > 0 else 4.0
            h_next = h * min(4.0, max(0.2, factor))
            if ratio > 1.0:
                h = h_next
                continue
        t, y = t + h, y_new
        if T - t < 1e-14 * T:
            t = T
        h = h_next
        steps_since_record += 1
        if steps_since_record >= record_every or t >= T:
            ts.append(t), qs.append(float(y[0])), ps.append(float(y[1]))
            steps_since_record = 0
    if ts[-1] < t:
        ts.append(t), qs.append(float(y[0])), ps.append(float(y[1]))
    return np.array(ts), np.array(qs), np.array(ps)


def _reference_evolve_ensemble(system, generator, schedule, sampler, n_particles, seed,
                               snapshot_times, tol=1e-10):
    """The per-particle smooth-well ensemble loop: every particle restarts the
    scalar driver from dt = T/1000 on each snapshot interval, through a
    schedule re-based to start at 0.  Returns (snapshots, n) q and p arrays."""
    T = schedule.duration
    times = sorted({float(t) for t in snapshot_times} | {0.0, T})
    qs, ps = _draw_initial_conditions(system, sampler, schedule.value(0.0), n_particles, seed)
    q_rows, p_rows = [qs], [ps]
    for t_a, t_b in zip(times[:-1], times[1:]):
        seg = Schedule(t_b - t_a, lambda t, o=t_a: schedule.value(np.asarray(t) + o),
                       lambda t, o=t_a: schedule.rate(np.asarray(t) + o))
        ends = [_reference_integrate(system, generator, seg, (q, p), T / 1000, tol, False, 10**9)
                for q, p in zip(q_rows[-1], p_rows[-1])]
        q_rows.append(np.array([e[1][-1] for e in ends]))
        p_rows.append(np.array([e[2][-1] for e in ends]))
    return np.array(q_rows), np.array(p_rows)


_WELL = generic_1d(
    lambda q, lam: (q / lam) ** 4 + 0.5 * (q / lam) ** 2,
    dV_dq=lambda q, lam: 4 * q**3 / lam**4 + q / lam**2,
    dV_dlam=lambda q, lam: -4 * q**4 / lam**5 - q**2 / lam**3,
)
# name -> (system, generator or None for the bare arm, schedule)
_SMOOTH_RUNS = {
    **{f"b{b}-{arm}": (power_law(b), gen, smoothstep_ramp(1.0, 1.6, 0.4))
       for b in (2, 4, 6)
       for arm, gen in (("analytic", power_law_generator(b)),
                        ("numeric", NumericShellGenerator(power_law(b))), ("bare", None))},
    # generic gradients cost milliseconds each: a short compression
    "generic-numeric": (_WELL, NumericShellGenerator(_WELL), smoothstep_ramp(1.2, 1.0, 0.15)),
    "generic-bare": (_WELL, None, smoothstep_ramp(1.2, 1.0, 0.15)),
}


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("fixed_step", [False, True], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("run", sorted(_SMOOTH_RUNS))
def test_smooth_trajectory_equals_scalar_driver(run, fixed_step, record_every):
    system, gen, sched = _SMOOTH_RUNS[run]
    kw = dict(dt=sched.duration / 12, tol=1e-8, fixed_step=fixed_step, record_every=record_every)
    z0 = (0.3, 0.8)
    rec = (evolve_cd(system, gen, sched, z0, **kw) if gen is not None
           else evolve_bare(system, sched, z0, **kw))
    ts, qs, ps = _reference_integrate(system, gen, sched, z0, **kw)
    for got, want in ((rec.times, ts), (rec.qs, qs), (rec.ps, ps)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_one_particle_ensemble_ends_on_the_trajectory(b, driven):
    system, sched = power_law(b), smoothstep_ramp(1.0, 1.5, 0.6)
    gen = power_law_generator(b) if driven else None
    rec = evolve_ensemble(system, gen, sched, shell_sampler(1.0), 1, 9, [0.0, sched.duration])
    z0, dt = (rec.positions[0][0], rec.momenta[0][0]), sched.duration / 1000
    traj = evolve_cd(system, gen, sched, z0, dt) if driven else evolve_bare(system, sched, z0, dt)
    assert (rec.positions[-1][0], rec.momenta[-1][0]) == traj.final_state


@pytest.mark.parametrize("lams", [(1.0, 2.0), (2.0, 1.0)], ids=["expand", "compress"])
@pytest.mark.parametrize("driven", [True, False])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_smooth_ensemble_as_accurate_as_per_particle_loop(b, driven, lams):
    # the shared step is the smallest any particle asks for, so the batch is
    # no farther from a tight run than the per-particle loop, up to the
    # scatter of tolerance-level errors
    system, sched = power_law(b), smoothstep_ramp(*lams, 1.0)
    gen = power_law_generator(b) if driven else None
    args = (system, gen, sched, shell_sampler(1.0), 12, 3, [0.0, 0.3, 0.7, 1.0])
    tight = evolve_ensemble(*args, tol=1e-13)
    batch = evolve_ensemble(*args)
    ref_q, ref_p = _reference_evolve_ensemble(*args)

    def distance(qs, ps):
        return max(np.max(np.abs(np.array(qs) - np.array(tight.positions))),
                   np.max(np.abs(np.array(ps) - np.array(tight.momenta))))

    assert distance(batch.positions, batch.momenta) <= 2.0 * distance(ref_q, ref_p)


@given(n=st.integers(1, 6), snaps=st.lists(st.floats(0.0, 0.2), max_size=5))
@example(n=3, snaps=[5e-324, 0.1, math.nextafter(0.1, 1.0)])
def test_smooth_ensemble_is_one_integrate_call(n, snaps):
    sched = smoothstep_ramp(1.0, 1.5, 0.2)
    with mock.patch.object(classical, "_integrate", wraps=_integrate) as spy:
        rec = evolve_ensemble(QUARTIC, power_law_generator(4), sched, shell_sampler(1.0), n, 1,
                              snaps, tol=1e-6)
    assert spy.call_count == 1
    assert list(rec.snapshot_times) == sorted(set(snaps) | {0.0, 0.2})
    assert all(q.shape == p.shape == (n,) for q, p in zip(rec.positions, rec.momenta))
    # a snapshot no step can reach from the one before it repeats that row
    for k in np.flatnonzero(np.diff(rec.snapshot_times) <= 1e-14 * 0.2):
        assert np.array_equal(rec.positions[k + 1], rec.positions[k])


@given(b=st.sampled_from([2, 4, 6]), driven=st.booleans(), expand=st.booleans(),
       E_far=st.floats(20.0, 300.0), phase=st.floats(0.0, 1.0))
def test_far_particle_meets_tol_inside_a_batch(b, driven, expand, E_far, phase):
    """A particle far above the common shell E = 1 keeps its own error
    control: its final error stays inside the budget of tol (1 + max|y|)
    per accepted step that the controller grants each particle."""
    system, gen = power_law(b), power_law_generator(b) if driven else None
    sched = smoothstep_ramp(*((1.0, 1.5) if expand else (1.5, 1.0)), 0.3)
    T, tol = sched.duration, 1e-10
    qs, ps = orbit_states(system, 1.0, sched.initial, [0.1, 0.35, 0.6, 0.85])
    q_far, p_far = orbit_states(system, E_far, sched.initial, [phase])
    ts, q_rows, p_rows = _integrate(system, gen, sched, (np.append(qs, q_far), np.append(ps, p_far)),
                                    [T], T / 1000, tol, False, 1)
    _, q_ref, p_ref = _reference_integrate(system, gen, sched, (q_far[0], p_far[0]), T / 1000,
                                           1e-13, False, 10**9)
    error = max(abs(q_rows[-1, -1] - q_ref[-1]), abs(p_rows[-1, -1] - p_ref[-1]))
    y_max = max(np.max(np.abs(q_rows[:, -1])), np.max(np.abs(p_rows[:, -1])))
    assert error <= (len(ts) - 1) * tol * (1.0 + y_max)


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
