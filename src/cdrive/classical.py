"""Trajectory and ensemble integration under H0 + lam_dot * xi.

The box is exact, for single trajectories and ensembles alike: the driven
flow is free flight of x = q/L on the clock tau = integral of L^-2
(schedules.clock), closed-form at every record, and the bare flow is free
flight whose substeps only bracket the wall hits.  Smooth wells use a
classical fourth-order Runge-Kutta scheme with step-halving error control,
on a batch of particles that share one step sequence: one column for a
trajectory, the whole ensemble for an ensemble.

The hard-wall collision rules live in collide(): under the driven flow the
generator carries the wall's motion, so the bounce is p -> -p at both
walls; under the bare flow the moving wall imparts the usual -p + 2 m Ldot.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

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
# smooth wells: batched step-halving RK4; single box trajectories: exact engines


def _rk4(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _make_rhs(system: SystemModel, generator, schedule: Schedule):
    """The flow on a (2, n) batch of q and p rows: one system.grad_q and one
    generator.evaluate_grad_z call per column."""
    m, value, rate, force = system.mass, schedule.value, schedule.rate, system.grad_q

    def rhs(t, y):
        lam = value(t)
        f = np.array([force(q, lam) for q in y[0]])
        if generator is None:
            return np.array([y[1] / m, -f])
        r = rate(t)
        gq, gp = np.array([generator.evaluate_grad_z((q, p), lam) for q, p in zip(*y)]).T
        return np.array([y[1] / m + r * gp, -f - r * gq])

    return rhs


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive, got {value}")


def _integrate(system, generator, schedule, y0, stops, dt, tol, fixed_step, record_every):
    """Smooth-well driver: adaptive (or fixed-step) RK4 from step dt on a
    (2, n) batch of q and p rows that share one step sequence.

    tol holds per particle: a step is accepted when the largest over columns
    of err_i / (tol (1 + max|y_i|)) is at most 1, and that ratio sets the
    next step.  Steps land exactly on the sorted stop times.  A row is
    recorded at 0, at each stop and every record_every accepted steps;
    returns the row times and the q and p rows, each (rows, n).
    """
    _check_positive("dt", dt)
    _check_positive("tol", tol)
    T = schedule.duration
    rhs = _make_rhs(system, generator, schedule)
    t, y = 0.0, np.asarray(y0, dtype=float)
    ts, ys = [t], [y]
    h = min(dt, T)
    steps_since_record = 0

    for stop in stops:
        while stop - t > 1e-14 * T:
            h = min(h, stop - t)
            if h < 1e-15 * T:
                raise NumericalError("step size underflow")
            if fixed_step:
                y_new, h_next = _rk4(rhs, t, y, h), h
            else:
                y_full = _rk4(rhs, t, y, h)
                y_half = _rk4(rhs, t, y, 0.5 * h)
                y_new = _rk4(rhs, t + 0.5 * h, y_half, 0.5 * h)
                err = np.max(np.abs(y_new - y_full), axis=0) / 15.0
                scale = tol * (1.0 + np.max(np.abs(y), axis=0))
                ratio = np.max(err / scale)
                if not math.isfinite(ratio):
                    raise NumericalError(f"RK4 error estimate is {ratio} at t={t}")
                factor = 0.9 * ratio ** -0.2 if ratio > 0 else 4.0
                h_next = h * min(4.0, max(0.2, factor))
                if ratio > 1.0:
                    h = h_next
                    continue

            t, y = t + h, y_new
            if stop - t < 1e-14 * T:
                t = stop
            h = h_next
            steps_since_record += 1
            if steps_since_record >= record_every or t >= stop:
                ts.append(t), ys.append(y)
                steps_since_record = 0
        if ts[-1] < t:
            ts.append(t), ys.append(y)
    ys = np.array(ys)
    return np.array(ts), ys[:, 0], ys[:, 1]


def _box_trajectory(system, schedule, z0, dt, record_every, cd):
    """One box particle on its arm's exact engine, recorded every
    record_every steps of the uniform dt grid and at T."""
    _check_positive("dt", dt)
    T = schedule.duration
    q0, p0 = as_qp(z0)
    system.check_position(q0, schedule.value(0.0))
    n_steps = max(1, math.ceil(T / dt * (1.0 - 1e-12)))
    times = np.append(dt * np.arange(0, n_steps, max(1, record_every)), T)
    move = _box_cd_flow if cd else _box_bare_flight
    # the margin keeps rounding in the grid from splitting a step in two
    q_rows, p_rows, hits = move(schedule, system.mass, np.array([q0]), np.array([p0]),
                                times, dt * (1.0 + 1e-12))
    qs, ps = q_rows[:, 0], p_rows[:, 0]
    return TrajectoryRecord(times, qs, ps, ps**2 / (2.0 * system.mass),
                            2.0 * np.abs(ps) * schedule.value(times), tuple(hits))


def _evolve(system, generator, schedule, z0, dt, tol, fixed_step, record_every):
    if system.kind == "box":
        return _box_trajectory(system, schedule, z0, dt, record_every, generator is not None)
    q0, p0 = as_qp(z0)
    ts, q_rows, p_rows = _integrate(system, generator, schedule, [[q0], [p0]],
                                    [schedule.duration], dt, tol, fixed_step, record_every)
    qs, ps = q_rows[:, 0], p_rows[:, 0]
    lams = schedule.value(ts)
    h0s = np.array([system.energy((q, p), lam) for q, p, lam in zip(qs, ps, lams)])
    omegas = np.array(
        [adiabatic_invariant(system, (q, p), lam) for q, p, lam in zip(qs, ps, lams)]
    )
    return TrajectoryRecord(ts, qs, ps, h0s, omegas, ())


def evolve_cd(system: SystemModel, generator, schedule: Schedule, z0, dt: float,
              tol: float = 1e-10, fixed_step: bool = False,
              record_every: int = 1) -> TrajectoryRecord:
    """Integrate the driven flow of H0 + lam_dot * xi over the schedule.

    Smooth wells run RK4 from step dt: adaptive to tol, or fixed steps of dt
    with fixed_step, recording every record_every accepted steps.  The box
    runs the exact driven flow (_box_cd_flow); there dt is the record and
    bracket step: records sit every record_every steps of the dt grid and
    at T, and each wall hit is solved for in a bracket padded by dt.  tol
    and fixed_step apply to smooth wells only.
    """
    if generator is None:
        raise DomainError("evolve_cd needs a generator; use evolve_bare for none")
    return _evolve(system, generator, schedule, z0, dt, tol, fixed_step, record_every)


def evolve_bare(system: SystemModel, schedule: Schedule, z0, dt: float,
                tol: float = 1e-10, fixed_step: bool = False,
                record_every: int = 1) -> TrajectoryRecord:
    """Integrate the undriven flow of H0(z; lam(t)) over the schedule.

    Smooth wells run RK4 as in evolve_cd.  The box runs exact free flight
    (_box_bare_flight); there dt is the record and bracket step: records sit
    every record_every steps of the dt grid and at T, and substeps of dt
    bracket the wall hits.  tol and fixed_step apply to smooth wells only.
    """
    return _evolve(system, None, schedule, z0, dt, tol, fixed_step, record_every)


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


def _box_cd_flow(schedule, m, qs, ps, times, h_target):
    """Driven box flow in closed form from t = 0: rows of q and of p at the
    sorted times, and the wall hits as (t, wall) pairs.

    In x = q/L, P = pL the driving term cancels: P is conserved and x moves
    at P/m on the clock tau, unfolded across the walls with period 2.  The
    hits are the integers the unfolded x passes (odd: right wall, even:
    left), a wall reached exactly at T counting only once the fold has
    turned the particle back.  They come particle by particle, each listed
    in the interval that ends at the first record showing its bounce and
    timed there by brentq on the clock, and are computed only when iterated.
    """
    lams = schedule.value(np.asarray(times))[:, None]
    x0, P0 = qs / lams[0], ps * lams[0]
    y = x0 + P0 * clock(schedule, times)[:, None] / m
    folded = np.mod(y, 2.0)
    back = folded > 1.0
    q_rows, p_rows = lams * np.where(back, 2.0 - folded, folded), np.where(back, -P0, P0) / lams
    q_rows[0], p_rows[0] = qs, ps
    return q_rows, p_rows, _cd_hits(schedule, m, x0, P0, np.asarray(times), y, h_target)


def _cd_hits(schedule, m, x0, P0, times, y, h):
    T = schedule.duration
    for x, P, y_k in zip(x0, P0, y.T):
        # z counts the walls ahead as 1, 2, ...: z = y moving right, 1 - y
        # moving left (P = 0 reaches none); an odd z reached exactly at T is
        # still heading out
        z_k = y_k if P > 0 else 1.0 - y_k
        top = math.ceil(z_k[-1])
        for j in range(1, top + (top == z_k[-1] and top % 2 == 0)):
            n = j if P > 0 else 1 - j
            # record i is the first whose fold shows the bounce (an odd z reached
            # exactly does not), so the hit is listed in (times[i - 1], times[i]]
            i = int(np.searchsorted(z_k, j, side="right" if j % 2 else "left"))
            t_hit = times[i]
            if z_k[i] > j:
                tau = (n - x) * m / P
                # the clock runs on past T at L(T), so rounding cannot empty the bracket
                root = brentq(lambda s, tau=tau: clock(schedule, [s])[0] - tau,
                              max(times[i - 1] - h, 0.0), t_hit + h, xtol=1e-13 * T)
                # a start on a wall heading out keeps its hit at 0
                t_hit = min(max(root, np.nextafter(times[i - 1], T) if i > 1 else 0.0), t_hit)
            yield float(t_hit), "right" if n % 2 else "left"


def _box_bare_flight(schedule, m, qs, ps, times, h_target):
    """Free flight with wall bounces from times[0]: rows of q and of p at the
    sorted times, and the wall hits as (t, wall) pairs.

    Substeps of at most h_target only bracket the wall hits; the walls at
    all substep ends come from one schedule call.  A left-wall hit time is
    exact; a right-wall hit time comes from bisection of q + v (s - t) - L(s)
    to 1e-13 T, closed by one secant step.
    """
    T = schedule.duration
    q_rows, p_rows, hits = [qs], [ps], []
    qs, ps = qs.copy(), ps.copy()
    ends = []
    for t_start, t_end in zip(times[:-1], times[1:]):
        n_sub = max(1, int(math.ceil((t_end - t_start) / h_target)))
        # [t_end] is what linspace gives for one substep, without its cost
        ends.append(np.linspace(t_start, t_end, n_sub + 1)[1:] if n_sub > 1 else [t_end])
    walls = iter(schedule.value(np.concatenate(ends)))
    ta_scalar = times[0]
    for interval_ends in ends:
        for tb in interval_ends:
            L_b = next(walls)
            ta = np.full_like(qs, ta_scalar)
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
                hits.extend((t, "right" if r else "left")
                            for t, r in zip(t_c.tolist(), right.tolist()))
            else:
                raise NumericalError("collision resolution did not settle within a substep")
            ta_scalar = tb
        q_rows.append(qs.copy())
        p_rows.append(ps.copy())
    return np.array(q_rows), np.array(p_rows), hits


def _ensemble_step(system: SystemModel, T: float) -> float:
    """evolve_ensemble's default dt: T/500 for the box, T/1000 for smooth wells."""
    return T / (500.0 if system.kind == "box" else 1000.0)


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
    from dt (default T/1000) on all particles at once: the step sequence is
    shared and lands on every snapshot, and tol holds for each particle.  A
    particle's path therefore depends on its companions at tolerance level.
    """
    if not isinstance(n_particles, numbers.Integral) or n_particles < 1:
        raise DomainError(f"n_particles must be an integer >= 1, got {n_particles!r}")
    if dt is not None:
        _check_positive("dt", dt)
    T = schedule.duration
    snaps = [float(t) for t in snapshot_times]
    if not all(0.0 <= t <= T for t in snaps):
        raise DomainError(f"snapshot times must be finite and lie within [0, {T}]")
    times = sorted(set(snaps) | {0.0, T})
    qs, ps = _draw_initial_conditions(system, sampler, schedule.value(0.0), n_particles, seed)
    dt0 = dt if dt is not None else _ensemble_step(system, T)

    if system.kind == "box":
        move = _box_cd_flow if generator is not None else _box_bare_flight
        q_rows, p_rows, _ = move(schedule, system.mass, qs, ps, times, dt0)
    else:
        ts, q_rows, p_rows = _integrate(system, generator, schedule, (qs, ps), times[1:],
                                        dt0, tol, False, 10**9)
        # a snapshot within rounding of the one before it shares that row
        rows = np.searchsorted(ts, times, side="right") - 1
        q_rows, p_rows = q_rows[rows], p_rows[rows]

    times_arr = np.array(times)
    lams = schedule.value(times_arr)
    ks = None
    if system.kind == "box":
        ks = np.array([kstest(q / lam) for q, lam in zip(q_rows, lams)])
    return EnsembleRecord(
        snapshot_times=times_arr,
        positions=tuple(q_rows),
        momenta=tuple(p_rows),
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
