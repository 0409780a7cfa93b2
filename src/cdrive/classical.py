"""Trajectory and ensemble integration under H0 + lam_dot * xi.

Single trajectories use a classical fourth-order Runge-Kutta scheme with
step-halving error control (the half-step pair also brackets wall-crossing
events for the box, which are then refined by bisection); smooth-well
ensembles run it particle by particle.  Box ensembles are exact: the driven
flow is free flight of x = q/L on the clock tau = integral of L^-2
(schedules.clock), closed-form at every snapshot, and the bare flow is free
flight whose substeps only bracket the wall hits.

The hard-wall collision rules live in collide(): under the driven flow the
generator carries the wall's motion, so the bounce is p -> -p at both
walls; under the bare flow the moving wall imparts the usual -p + 2 m Ldot.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .schedules import Schedule, clock
from .shells import adiabatic_invariant, orbit_states, shell_energy_from_volume
from .systems import SystemModel, as_qp

_MAX_COLLISION_ROUNDS = 64


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled driven trajectory with its conserved-quantity diagnostics."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    h0s: np.ndarray
    omegas: np.ndarray
    collisions: tuple

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("trajectory sample times must be strictly increasing")

    @property
    def initial_omega(self) -> float:
        return float(self.omegas[0])

    @property
    def final_state(self) -> tuple[float, float]:
        return float(self.qs[-1]), float(self.ps[-1])

    def drift(self) -> float:
        """Worst relative excursion of the invariant over the record."""
        w0 = self.omegas[0]
        return float(np.max(np.abs(self.omegas - w0)) / abs(w0))

    def summary(self) -> dict:
        return {
            "n_samples": int(len(self.times)),
            "n_collisions": int(len(self.collisions)),
            "initial_omega": float(self.omegas[0]),
            "final_omega": float(self.omegas[-1]),
            "drift": self.drift(),
            "final_h0": float(self.h0s[-1]),
        }

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,q,p,H0,omega\n")
            for row in zip(self.times, self.qs, self.ps, self.h0s, self.omegas):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class EnsembleRecord:
    """Snapshot series of an independently-evolving particle collection."""

    snapshot_times: np.ndarray
    positions: tuple
    momenta: tuple
    lams: np.ndarray
    seed: int
    sampler: str
    ks_stats: Optional[np.ndarray]

    def __post_init__(self):
        counts = {len(q) for q in self.positions} | {len(p) for p in self.momenta}
        if len(counts) != 1:
            raise DomainError("particle count must stay constant across snapshots")

    @property
    def n_particles(self) -> int:
        return len(self.positions[0])

    def omegas(self, system: SystemModel, k: int) -> np.ndarray:
        lam = float(self.lams[k])
        qs, ps = self.positions[k], self.momenta[k]
        if system.kind == "box":
            return 2.0 * np.abs(ps) * lam
        return np.array(
            [adiabatic_invariant(system, (q, p), lam) for q, p in zip(qs, ps)]
        )

    def snapshot_csv(self, k: int, path) -> None:
        with open(path, "w") as fh:
            fh.write("q,p\n")
            for q, p in zip(self.positions[k], self.momenta[k]):
                fh.write(f"{float(q)!r},{float(p)!r}\n")


# ---------------------------------------------------------------------------
# collision rule


def collide(p: float, wall: str, L: float, L_dot: float, mass: float = 1.0,
            cd: bool = True) -> float:
    """Momentum after an elastic bounce at the named wall.

    Driven flow: the lab velocity at the moving wall is p/m + Ldot, matching
    the wall, so the wall-frame reflection is p -> -p at either wall.  Bare
    flow at the moving right wall: p -> -p + 2 m Ldot.  The left wall never
    moves.
    """
    if wall not in ("left", "right"):
        raise DomainError(f"unknown wall {wall!r}")
    if wall == "left":
        if p >= 0:
            raise DomainError("left-wall collision needs momentum toward the wall (p < 0)")
        return -p
    if cd:
        if p <= 0:
            raise DomainError("right-wall collision under driving needs p > 0")
        return -p
    if p / mass - L_dot <= 0:
        raise DomainError("bare right-wall collision needs relative velocity toward the wall")
    return -p + 2.0 * mass * L_dot


# ---------------------------------------------------------------------------
# scalar RK4 with step-halving control


def _rk4(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _make_rhs(system: SystemModel, generator, schedule: Schedule):
    m = system.mass
    value = schedule.value
    rate = schedule.rate
    if system.kind == "box":
        # zero force between the walls; trial RK4 stages may poke past a
        # wall before event location truncates the step, so skip the
        # position domain check here
        force = lambda q, lam: 0.0
    else:
        force = system.grad_q

    if generator is None:

        def rhs(t, y):
            lam = value(t)
            return np.array([y[1] / m, -force(y[0], lam)])

        return rhs

    def rhs(t, y):
        lam = value(t)
        r = rate(t)
        gq, gp = generator.evaluate_grad_z((y[0], y[1]), lam)
        return np.array([y[1] / m + r * gp, -force(y[0], lam) - r * gq])

    return rhs


def _integrate(system, generator, schedule, z0, dt, tol, fixed_step, record_every):
    """Shared driver: adaptive (or fixed) RK4 with box wall events."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    T = schedule.duration
    m = system.mass
    is_box = system.kind == "box"
    cd = generator is not None
    rhs = _make_rhs(system, generator, schedule)

    q0, p0 = as_qp(z0)
    lam0 = schedule.value(0.0)
    if is_box:
        if not (0.0 <= q0 <= lam0):
            raise DomainError(f"z0 must start inside the box [0, {lam0}], got q={q0}")
    else:
        system.check_position(q0, lam0)

    collisions = []
    # start exactly on a wall heading out: bounce before integrating
    if is_box and q0 == 0.0 and p0 < 0.0:
        p0 = collide(p0, "left", float(lam0), float(schedule.rate(0.0)), m, cd)
        collisions.append((0.0, "left"))
    if is_box and q0 == lam0:
        rel = p0 / m if cd else p0 / m - float(schedule.rate(0.0))
        if rel > 0.0:
            p0 = collide(p0, "right", float(lam0), float(schedule.rate(0.0)), m, cd)
            collisions.append((0.0, "right"))

    ts, qs, ps = [0.0], [q0], [p0]
    y = np.array([q0, p0])
    t = 0.0
    h = min(dt, T)
    steps_since_record = 0

    def wall_gap(tt, yy):
        # negative inside the box for both walls
        return yy[0] - schedule.value(tt), -yy[0]

    while t < T:
        if T - t <= 1e-14 * T:
            break
        h = min(h, T - t)
        if h < 1e-15 * T:
            raise NumericalError("step size underflow")
        if fixed_step:
            y_new, accept = _rk4(rhs, t, y, h), True
            h_next = h
        else:
            y_full = _rk4(rhs, t, y, h)
            y_half = _rk4(rhs, t, y, 0.5 * h)
            y_new = _rk4(rhs, t + 0.5 * h, y_half, 0.5 * h)
            err = np.max(np.abs(y_new - y_full)) / 15.0
            scale = tol * (1.0 + float(np.max(np.abs(y))))
            ratio = err / scale
            accept = ratio <= 1.0
            factor = 0.9 * ratio ** -0.2 if ratio > 0 else 4.0
            h_next = h * min(4.0, max(0.2, factor))
        if not accept:
            h = h_next
            continue

        if is_box:
            event = _first_wall_crossing(rhs, schedule, t, y, h, y_new, T)
            if event is not None:
                t_c, y_c, wall = event
                L_c = schedule.value(t_c)
                y_c[0] = L_c if wall == "right" else 0.0
                y_c[1] = collide(y_c[1], wall, L_c, schedule.rate(t_c), m, cd)
                collisions.append((t_c, wall))
                if t_c <= t:
                    t_c = np.nextafter(t, math.inf)
                t, y = t_c, y_c
                ts.append(t), qs.append(float(y[0])), ps.append(float(y[1]))
                steps_since_record = 0
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
    return np.array(ts), np.array(qs), np.array(ps), tuple(collisions)


def _first_wall_crossing(rhs, schedule, t, y, h, y_new, T):
    """Scan the accepted step for the earliest wall crossing; refine by
    bisection on the wall-gap function to |dt| < 1e-13 T."""

    def state_at(s):
        if s <= t:
            return y.copy()
        return _rk4(rhs, t, y, s - t)

    def gaps(s, yy):
        return yy[0] - schedule.value(s), -yy[0]

    n_scan = 8
    prev_s, prev_g = t, gaps(t, y)
    bracket = None
    for k in range(1, n_scan + 1):
        s = t + h * k / n_scan
        yy = y_new if k == n_scan else state_at(s)
        g = gaps(s, yy)
        for wall_idx, wall in ((0, "right"), (1, "left")):
            if prev_g[wall_idx] < 0.0 <= g[wall_idx]:
                bracket = (prev_s, s, wall)
                break
        if bracket:
            break
        prev_s, prev_g = s, g
    if bracket is None:
        return None

    a, b, wall = bracket
    idx = 0 if wall == "right" else 1
    while (b - a) > 1e-13 * T:
        mid = 0.5 * (a + b)
        if gaps(mid, state_at(mid))[idx] >= 0.0:
            b = mid
        else:
            a = mid
    t_c = 0.5 * (a + b)
    return t_c, state_at(t_c), wall


def _build_record(system, schedule, ts, qs, ps, collisions) -> TrajectoryRecord:
    lams = schedule.value(ts)
    if system.kind == "box":
        h0s = ps**2 / (2.0 * system.mass)
        omegas = np.array(
            [adiabatic_invariant(system, (q, p), lam) for q, p, lam in zip(qs, ps, lams)]
        )
    else:
        h0s = np.array([system.energy((q, p), lam) for q, p, lam in zip(qs, ps, lams)])
        omegas = np.array(
            [adiabatic_invariant(system, (q, p), lam) for q, p, lam in zip(qs, ps, lams)]
        )
    return TrajectoryRecord(
        times=ts, qs=qs, ps=ps, h0s=h0s, omegas=omegas, collisions=collisions
    )


def evolve_cd(system: SystemModel, generator, schedule: Schedule, z0, dt: float,
              tol: float = 1e-10, fixed_step: bool = False,
              record_every: int = 1) -> TrajectoryRecord:
    """Integrate the driven flow of H0 + lam_dot * xi over the schedule."""
    if generator is None:
        raise DomainError("evolve_cd needs a generator; use evolve_bare for none")
    ts, qs, ps, coll = _integrate(
        system, generator, schedule, z0, dt, tol, fixed_step, record_every
    )
    return _build_record(system, schedule, ts, qs, ps, coll)


def evolve_bare(system: SystemModel, schedule: Schedule, z0, dt: float,
                tol: float = 1e-10, fixed_step: bool = False,
                record_every: int = 1) -> TrajectoryRecord:
    """Integrate the undriven flow of H0(z; lam(t)) over the schedule."""
    ts, qs, ps, coll = _integrate(
        system, None, schedule, z0, dt, tol, fixed_step, record_every
    )
    return _build_record(system, schedule, ts, qs, ps, coll)


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class ShellSampler:
    """Initial conditions uniform in orbit time on the shell E."""

    E: float
    tag: str = "shell"


@dataclass(frozen=True)
class UniformGasSampler:
    """q uniform across the box, p from a symmetric law: two-point +-p_bar
    (default) or centered Gaussian of width p_bar."""

    p_bar: float
    law: str = "two_point"
    tag: str = "uniform_gas"

    def __post_init__(self):
        if self.law not in ("two_point", "gaussian"):
            raise DomainError(f"unknown momentum law {self.law!r}")
        if self.p_bar <= 0:
            raise DomainError("p_bar must be positive")


def shell_sampler(E: float) -> ShellSampler:
    return ShellSampler(E=float(E))


def uniform_gas_sampler(p_bar: float, law: str = "two_point") -> UniformGasSampler:
    return UniformGasSampler(p_bar=float(p_bar), law=law)


# SeedSequence and PCG64 constants (numpy's stream-stability policy, NEP 19)
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(value, const, mult=_HASH_MULT_A):
    """SeedSequence's hash of a 32-bit word; returns (value, next const)."""
    value = value ^ const
    const = (const * mult) & _M32
    value = (value * const) & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _mul_add_128(hi, lo, mul, add):
    """(hi, lo) * mul + add mod 2**128 on uint64 halves, with the
    64 x 64 -> 128 bit product of the low halves split into 32-bit limbs."""
    u64 = np.uint64
    m_hi, m_lo = u64(mul >> 64), u64(mul & (2**64 - 1))
    b0, b1 = u64(mul & _M32), u64((mul >> 32) & _M32)
    a0, a1 = lo & u64(_M32), lo >> u64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> u64(32)) + (p01 & u64(_M32)) + (p10 & u64(_M32))
    lo_out = (p00 & u64(_M32)) | (mid << u64(32))
    hi_out = (a1 * b1 + (p01 >> u64(32)) + (p10 >> u64(32)) + (mid >> u64(32))
              + hi * m_lo + lo * m_hi)
    lo_sum = lo_out + add[1]
    return hi_out + add[0] + (lo_sum < lo_out), lo_sum


def _stream_uniforms(seed, n, k):
    """The first k doubles of generator i = default_rng(child i) for the
    children of SeedSequence(seed).spawn(n), as an (k, n) array.

    Child i's entropy is the seed's 32-bit words, zero-padded to four, then
    i.  Every hash step before the last word is the same for all children,
    so it runs once on Python ints; only the rounds that mix in i run on
    uint64 arrays.  PCG64 then seeds from generate_state(4, uint64) and each
    draw is an LCG step, the XSL-RR output and (out >> 11) * 2**-53.
    """
    words = [(seed >> (32 * j)) & _M32
             for j in range(max(4, (seed.bit_length() + 31) // 32))]
    const = _HASH_INIT_A
    pool = []
    for w in words[:4]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[4:]:
        for dst in range(4):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    child = np.arange(n, dtype=np.uint64)
    for dst in range(4):
        h, const = _hashmix(child, const)
        pool[dst] = _mix(pool[dst], h)

    const = _HASH_INIT_B
    state32 = []
    for j in range(8):
        v, const = _hashmix(pool[j % 4], const, _HASH_MULT_B)
        state32.append(v)
    seed_hi, seed_lo, inc_hi, inc_lo = (
        state32[2 * j] | (state32[2 * j + 1] << np.uint64(32)) for j in range(4))

    one = np.uint64(1)
    inc = ((inc_hi << one) | (inc_lo >> np.uint64(63)), (inc_lo << one) | one)
    # state 0 steps to inc, then takes the seed and steps once more
    hi, lo = _mul_add_128(*inc, 1, (seed_hi, seed_lo))
    hi, lo = _mul_add_128(hi, lo, _PCG_MULT, inc)
    out = np.empty((k, n))
    for j in range(k):
        hi, lo = _mul_add_128(hi, lo, _PCG_MULT, inc)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[j] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out


def _draw_initial_conditions(system, sampler, lam, n, seed):
    """Initial conditions from per-particle streams split from the master
    seed, so draws do not depend on how particles are later distributed
    across workers.

    Particle i draws from default_rng(SeedSequence(seed).spawn(n)[i]), a
    PCG64 stream.  The uniform laws compute all n streams together in
    _stream_uniforms, whose doubles are those generators' own, so outputs
    stay byte-identical.  The Gaussian law keeps one Generator per particle:
    standard_normal is numpy's ziggurat, whose tables live in C.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if isinstance(sampler, UniformGasSampler):
        if system.kind != "box":
            raise DomainError("uniform_gas sampling needs box walls")
        if sampler.law == "gaussian":
            streams = [np.random.default_rng(s)
                       for s in np.random.SeedSequence(seed).spawn(n)]
            qs = np.array([r.random() * lam for r in streams])
            return qs, np.array([sampler.p_bar * r.standard_normal() for r in streams])
        p_bar = sampler.p_bar
    elif isinstance(sampler, ShellSampler):
        if system.kind != "box":
            return orbit_states(system, sampler.E, lam, _stream_uniforms(seed, n, 1)[0])
        # orbit time is uniform in position at fixed speed
        p_bar = math.sqrt(2.0 * system.mass * sampler.E)
    else:
        raise DomainError(f"unknown sampler {sampler!r}")
    u = _stream_uniforms(seed, n, 2)
    return u[0] * lam, np.where(u[1] < 0.5, p_bar, -p_bar)


# ---------------------------------------------------------------------------
# exact box ensemble propagation


def _box_cd_flow(schedule, m, qs, ps, times):
    """Driven box flow in closed form: rows of q and of p at each time.

    In x = q/L, P = pL the driving term cancels: P is conserved and x moves
    at P/m on the clock tau, unfolded across the walls with period 2.
    """
    lams = schedule.value(np.asarray(times))[:, None]
    x0, P0 = qs / lams[0], ps * lams[0]
    y = np.mod(x0 + P0 * clock(schedule, times)[:, None] / m, 2.0)
    back = y > 1.0
    return lams * np.where(back, 2.0 - y, y), np.where(back, -P0, P0) / lams


def _box_bare_flight(schedule, m, qs, ps, t_start, t_end, h_target, T):
    """Free flight with wall bounces from t_start to t_end.

    Substeps of at most h_target only bracket the wall hits.  A left-wall
    hit time is exact; a right-wall hit time comes from bisection of
    q + v (s - t) - L(s) to 1e-13 T, closed by one secant step.
    """
    n_sub = max(1, int(math.ceil((t_end - t_start) / h_target)))
    edges = np.linspace(t_start, t_end, n_sub + 1)
    qs = qs.copy()
    ps = ps.copy()
    for ta_scalar, tb in zip(edges[:-1], edges[1:]):
        ta = np.full_like(qs, ta_scalar)
        L_b = schedule.value(tb)
        for _ in range(_MAX_COLLISION_ROUNDS):
            q1 = qs + (tb - ta) * ps / m
            out_right = q1 > L_b
            ia = np.where(out_right | (q1 < 0.0))[0]
            if ia.size == 0:
                qs = q1
                break
            right = out_right[ia]
            q0, p0, t0 = qs[ia], ps[ia], ta[ia]
            left = ~right
            t_c = np.empty(ia.size)
            t_c[left] = t0[left] - q0[left] * m / p0[left]
            if np.any(right):
                qr, vr, tr = q0[right], p0[right] / m, t0[right]
                lo, hi = tr, np.full(tr.shape, tb)
                g_lo = np.minimum(qr - schedule.value(tr), 0.0)
                g_hi = q1[ia][right] - L_b
                while np.max(hi - lo) > 1e-13 * T:
                    mid = 0.5 * (lo + hi)
                    g = qr + vr * (mid - tr) - schedule.value(mid)
                    crossed = g > 0.0
                    hi, g_hi = np.where(crossed, mid, hi), np.where(crossed, g, g_hi)
                    lo, g_lo = np.where(crossed, lo, mid), np.where(crossed, g_lo, g)
                # a secant step inside the final bracket is exact for linear ramps
                t_c[right] = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            qs[ia] = np.where(right, schedule.value(t_c), 0.0)
            ps[ia] = np.where(right, -p0 + 2.0 * m * schedule.rate(t_c), -p0)
            ta[ia] = t_c
        else:
            raise NumericalError("collision resolution did not settle within a substep")
    return qs, ps


def evolve_ensemble(system: SystemModel, generator, schedule: Schedule, sampler,
                    n_particles: int, seed: int, snapshot_times,
                    dt: Optional[float] = None, tol: float = 1e-10) -> EnsembleRecord:
    """Propagate independent particles and record snapshots.

    Box systems need no time stepping.  The driven arm is the closed-form
    flow on the clock tau (it needs only the schedule, not the generator
    object, since the wall-scaling form is the unique one compatible with
    the collision rule).  The bare arm is exact free flight; dt (default
    T/500) only sets the substeps that bracket its wall hits.  For box
    systems each snapshot also gets the Kolmogorov-Smirnov statistic of q/L
    against the uniform law.  Smooth wells run the adaptive RK4 integrator
    particle by particle from dt (default T/1000).
    """
    if n_particles < 1:
        raise DomainError("need at least one particle")
    T = schedule.duration
    times = sorted(set(float(t) for t in snapshot_times) | {0.0, T})
    if times[0] < 0.0 or times[-1] > T:
        raise DomainError("snapshot times must lie within [0, duration]")
    lam0 = schedule.value(0.0)
    cd = generator is not None

    qs, ps = _draw_initial_conditions(system, sampler, lam0, n_particles, seed)

    snaps_q, snaps_p = [qs.copy()], [ps.copy()]
    if system.kind == "box" and cd:
        q_rows, p_rows = _box_cd_flow(schedule, system.mass, qs, ps, times)
        snaps_q += list(q_rows[1:])
        snaps_p += list(p_rows[1:])
    elif system.kind == "box":
        h_target = dt if dt is not None else T / 500.0
        for t_a, t_b in zip(times[:-1], times[1:]):
            qs, ps = _box_bare_flight(schedule, system.mass, qs, ps, t_a, t_b, h_target, T)
            snaps_q.append(qs.copy())
            snaps_p.append(ps.copy())
    else:
        dt0 = dt if dt is not None else T / 1000.0
        for i in range(n_particles):
            y = np.array([qs[i], ps[i]])
            for k, (t_a, t_b) in enumerate(zip(times[:-1], times[1:])):
                seg = _clip_schedule_segment(schedule, t_a, t_b)
                ts, qq, pp, _ = _integrate(
                    system, generator, seg, (y[0], y[1]), dt0, tol, False, 10**9
                )
                y = np.array([qq[-1], pp[-1]])
                if i == 0:
                    snaps_q.append(np.empty(n_particles))
                    snaps_p.append(np.empty(n_particles))
                snaps_q[k + 1][i] = y[0]
                snaps_p[k + 1][i] = y[1]

    times_arr = np.array(times)
    lams = schedule.value(times_arr)
    ks = None
    if system.kind == "box":
        ks = np.array([kstest(snaps_q[k] / lams[k]) for k in range(len(times))])
    return EnsembleRecord(
        snapshot_times=times_arr,
        positions=tuple(snaps_q),
        momenta=tuple(snaps_p),
        lams=lams,
        seed=int(seed),
        sampler=sampler.tag,
        ks_stats=ks,
    )


def kstest(sample) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of sample against U(0, 1).

    Sorts, clips to the support, then takes the larger of
    D+ = max(i/n - x_i) and D- = max(x_i - (i-1)/n), with the same arithmetic
    as scipy.stats.kstest(sample, "uniform").statistic, which it equals.
    """
    x = np.clip(np.sort(np.asarray(sample, dtype=float)), 0.0, 1.0)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def _clip_schedule_segment(schedule: Schedule, t_a: float, t_b: float) -> Schedule:
    """A schedule window [t_a, t_b] re-based to start at 0."""
    return Schedule(
        duration=t_b - t_a,
        value=lambda t, s=schedule, o=t_a: s.value(np.asarray(t) + o),
        rate=lambda t, s=schedule, o=t_a: s.rate(np.asarray(t) + o),
        tag=schedule.tag,
    )


def dissipation(record: EnsembleRecord, system: SystemModel, schedule: Schedule) -> float:
    """Mean final energy above the adiabatic target shell.

    The target is the shell at the final parameter enclosing the ensemble's
    initial invariant, so the driven flow gives zero up to integrator
    tolerance and the bare flow gives the irreversible excess.
    """
    lam_T = float(record.lams[-1])
    omega0 = float(np.mean(record.omegas(system, 0)))
    e_target = shell_energy_from_volume(system, omega0, lam_T)
    qf, pf = record.positions[-1], record.momenta[-1]
    if system.kind == "box":
        e_final = float(np.mean(pf**2 / (2.0 * system.mass)))
    else:
        e_final = float(
            np.mean([system.energy((q, p), lam_T) for q, p in zip(qf, pf)])
        )
    return e_final - e_target
