"""Trajectory and ensemble integration under H0 + lam_dot * xi.

The box is exact, for single trajectories and ensembles alike: the driven
flow is free flight of x = q/L on the clock tau = integral of L^-2
(schedules.clock), closed-form at every record and with hits timed by
Newton's method on the clock, and the bare flow is free flight whose work
scales with its wall hits, which substeps of dt only detect and bracket.
Smooth wells use a classical fourth-order Runge-Kutta scheme with
step-halving error control, on a batch of particles that share one step
sequence: one column for a trajectory, the whole ensemble for an ensemble.

Hard-wall collision rules: under the driven flow the generator carries the
wall's motion, so the bounce is p -> -p at both walls; under the bare flow
the moving wall imparts the usual -p + 2 m Ldot.  The box engines apply
them inline on whole particle arrays; collide() is the scalar reference.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csv import write_csv
from .errors import DomainError, NumericalError
from .schedules import Schedule, _clock_spans, _positive_lam, clock
from .shells import adiabatic_invariant, orbit_states, shell_energy_from_volume
from .systems import PhasePoint, SystemModel, as_qp

_MAX_COLLISION_ROUNDS = 64
_HIT_SCAN = 32  # substep ends a bare-box particle scans per round for its next hit
_NEWTON_ROUNDS = 32  # cap on the Newton steps that time a driven box's wall hits
_HIT_BATCH = 64  # driven-box hits per Newton solve, which bounds the panels it integrates


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
    def final_state(self) -> tuple[float, float]:
        return float(self.qs[-1]), float(self.ps[-1])

    def drift(self) -> float:
        """Worst relative excursion of the invariant over the record."""
        w0 = self.omegas[0]
        return float(np.max(np.abs(self.omegas - w0)) / abs(w0))

    def summary(self) -> dict:
        return {
            "n_collisions": int(len(self.collisions)),
            "drift": self.drift(),
            "final_h0": float(self.h0s[-1]),
        }

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "q", "p", "H0", "omega"),
                  (self.times, self.qs, self.ps, self.h0s, self.omegas))


@dataclass(frozen=True)
class EnsembleRecord:
    """Snapshot series of an independently-evolving particle collection."""

    snapshot_times: np.ndarray
    positions: tuple
    momenta: tuple
    lams: np.ndarray
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
        write_csv(path, ("q", "p"), (self.positions[k], self.momenta[k]))


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


def _rk4(f, t, y, h, k1):
    """One classical RK4 step from (t, y), whose slope k1 = f(t, y) is given."""
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
    k1 = None  # rhs(t, y), evaluated once per accepted point and only when needed
    steps_since_record = 0

    for stop in stops:
        while stop - t > 1e-14 * T:
            h = min(h, stop - t)
            if h < 1e-15 * T:
                raise NumericalError("step size underflow")
            if k1 is None:
                k1 = rhs(t, y)
            if fixed_step:
                y_new, h_next = _rk4(rhs, t, y, h, k1), h
            else:
                y_full = _rk4(rhs, t, y, h, k1)
                y_half = _rk4(rhs, t, y, 0.5 * h, k1)
                y_new = _rk4(rhs, t + 0.5 * h, y_half, 0.5 * h, rhs(t + 0.5 * h, y_half))
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

            t, y, k1 = t + h, y_new, None
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
    system.check_position(q0, _positive_lam(schedule, 0.0))
    n_steps = max(1, math.ceil(T / dt * (1.0 - 1e-12)))
    times = np.append(dt * np.arange(0, n_steps, record_every), T)
    move = _box_cd_flow if cd else _box_bare_flight
    # the margin keeps rounding in the grid from splitting a step in two
    q_rows, p_rows, hits = move(schedule, system.mass, np.array([q0]), np.array([p0]),
                                times, dt * (1.0 + 1e-12))
    qs, ps = q_rows[:, 0], p_rows[:, 0]
    return TrajectoryRecord(times, qs, ps, ps**2 / (2.0 * system.mass),
                            2.0 * np.abs(ps) * schedule.value(times), tuple(hits))


def _evolve(system, generator, schedule, z0, dt, tol, fixed_step, record_every):
    if not record_every >= 1:  # NaN fails too
        raise DomainError(f"record_every must be at least 1, got {record_every}")
    if record_every % 1:  # inf fails too
        raise DomainError(f"record_every must be an integer, got {record_every}")
    z0 = PhasePoint(*as_qp(z0))  # finite, or DomainError
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
    runs the exact driven flow (_box_cd_flow); there dt sets only the
    records, every record_every steps of the dt grid and at T, and each
    wall hit is timed by Newton's method on the clock from the record
    before it.  tol and fixed_step apply to smooth wells only.
    """
    if generator is None:
        raise DomainError("evolve_cd needs a generator; use evolve_bare for none")
    return _evolve(system, generator, schedule, z0, dt, tol, fixed_step, record_every)


def evolve_bare(system: SystemModel, schedule: Schedule, z0, dt: float,
                tol: float = 1e-10, fixed_step: bool = False,
                record_every: int = 1) -> TrajectoryRecord:
    """Integrate the undriven flow of H0(z; lam(t)) over the schedule.

    Smooth wells run RK4 as in evolve_cd.  The box runs exact free flight
    (_box_bare_flight), whose work scales with the wall hits; dt sets only
    the records, every record_every steps of the dt grid and at T, and the
    grid that detects and brackets hits.  tol and fixed_step apply to
    smooth wells only.
    """
    return _evolve(system, None, schedule, z0, dt, tol, fixed_step, record_every)


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class ShellSampler:
    """Initial conditions uniform in orbit time on the shell E."""

    E: float

    def __post_init__(self):
        _check_positive("shell energy E", self.E)


@dataclass(frozen=True)
class UniformGasSampler:
    """q uniform across the box, p from a symmetric law: two-point +-p_bar
    (default) or centered Gaussian of width p_bar."""

    p_bar: float
    law: str = "two_point"

    def __post_init__(self):
        if self.law not in ("two_point", "gaussian"):
            raise DomainError(f"unknown momentum law {self.law!r}")
        _check_positive("p_bar", self.p_bar)


def shell_sampler(E: float) -> ShellSampler:
    return ShellSampler(E=float(E))


def uniform_gas_sampler(p_bar: float, law: str = "two_point") -> UniformGasSampler:
    return UniformGasSampler(p_bar=float(p_bar), law=law)


def _draw_initial_conditions(system, sampler, lam, n, seed):
    """n initial conditions from two child streams of SeedSequence(seed):
    default_rng of the first draws q, or the smooth-shell orbit fraction, and
    of the second the momentum, its sign for the two-point laws.  Each
    stream fills its n draws in order, so a particle's draws do not depend
    on n.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    q_rng, p_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    if isinstance(sampler, UniformGasSampler):
        if system.kind != "box":
            raise DomainError("uniform_gas sampling needs box walls")
        if sampler.law == "gaussian":
            return q_rng.random(n) * lam, sampler.p_bar * p_rng.standard_normal(n)
        p_bar = sampler.p_bar
    elif isinstance(sampler, ShellSampler):
        if system.kind != "box":
            return orbit_states(system, sampler.E, lam, q_rng.random(n))
        # orbit time is uniform in position at fixed speed
        p_bar = math.sqrt(2.0 * system.mass * sampler.E)
    else:
        raise DomainError(f"unknown sampler {sampler!r}")
    return q_rng.random(n) * lam, np.where(p_rng.random(n) < 0.5, p_bar, -p_bar)


# ---------------------------------------------------------------------------
# exact box ensemble propagation


def _box_cd_flow(schedule, m, qs, ps, times, _h_target):
    """Driven box flow in closed form from t = 0: rows of q and of p at the
    sorted times, and the wall hits as (t, wall) pairs.

    In x = q/L, P = pL the driving term cancels: P is conserved and x moves
    at P/m on the clock tau, unfolded across the walls with period 2.  The
    hits are the integers the unfolded x passes (odd: right wall, even:
    left), a wall reached exactly at T counting only once the fold has
    turned the particle back.  Each is listed in the interval that ends at
    the first record showing its bounce and timed by Newton's method on the
    clock time left from that interval's start, kept in a bracket inside the
    interval; they are computed only when iterated.
    """
    lams = _positive_lam(schedule, np.asarray(times))[:, None]
    x0, P0 = qs / lams[0], ps * lams[0]
    y = x0 + P0 * clock(schedule, times)[:, None] / m
    folded = np.mod(y, 2.0)
    back = folded > 1.0
    q_rows, p_rows = lams * np.where(back, 2.0 - folded, folded), np.where(back, -P0, P0) / lams
    q_rows[0], p_rows[0] = qs, ps
    return q_rows, p_rows, _cd_hits(schedule, m, P0, np.asarray(times), y)


def _cd_hits(schedule, m, P0, times, y):
    for P, y_k in zip(P0, y.T):
        # z counts the walls ahead as 1, 2, ...: z = y moving right, 1 - y
        # moving left (P = 0 reaches none); an odd z reached exactly at T is
        # still heading out
        z_k = y_k if P > 0 else 1.0 - y_k
        top = math.ceil(z_k[-1])
        walls = np.arange(1, top + (top == z_k[-1] and top % 2 == 0))
        for j in np.split(walls, range(_HIT_BATCH, walls.size, _HIT_BATCH)):
            # record i is the first whose fold shows the bounce (an odd z reached
            # exactly does not), so the hit is listed in (times[i - 1], times[i]]
            i = np.where(j % 2, np.searchsorted(z_k, j, "right"), np.searchsorted(z_k, j, "left"))
            # Newton on the clock time left from record i - 1, from the secant
            # between the records, in a bracket [lo, hi] that the residual's
            # sign shrinks (an iterate leaving it takes the midpoint); r_lo sums
            # the spans up to lo, so each round integrates from lo only.  A
            # start on a wall heading out keeps its hit at 0
            a, b = times[i - 1], times[i]
            lo, hi = np.where(i > 1, np.nextafter(a, np.inf), a), b
            t = np.clip(a + (b - a) * (j - z_k[i - 1]) / (z_k[i] - z_k[i - 1]), lo, hi)
            r_lo = _clock_spans(schedule, a, lo) - (j - z_k[i - 1]) * m / abs(P)
            for _ in range(_NEWTON_ROUNDS):
                r = r_lo + _clock_spans(schedule, lo, t)
                short = r < 0.0
                lo, r_lo = np.where(short, t, lo), np.where(short, r, r_lo)
                hi = np.where(short, hi, t)
                step = r * schedule.value(t) ** 2
                t = np.where((lo <= t - step) & (t - step <= hi), t - step, 0.5 * (lo + hi))
                if np.all(np.abs(step) <= 1e-11 * schedule.duration):  # above the clock's rounding
                    break
            else:
                raise NumericalError("wall-hit times did not converge on the clock")
            t = np.where(z_k[i] > j, t, b)
            yield from zip(t.tolist(), np.where(j % 2 == (P > 0), "right", "left").tolist())


def _box_bare_flight(schedule, m, qs, ps, times, h_target):
    """Free flight with wall bounces from times[0]: rows of q and of p at the
    sorted times, and the wall hits as (t, wall) pairs.

    Work scales with the wall hits.  Substeps of at most h_target per
    interval only detect a hit, at the first substep end outside [0, L],
    and bracket it.  A particle whose straight path clears both walls by a
    rounding margin crosses the interval in one step; the others jump from
    hit to hit, scanning _HIT_SCAN ends per round.  All pending hits are
    solved together: a left-wall hit time exactly, a right-wall one by
    bisection of q + v (s - t) - L(s) to 1e-13 T closed by one secant step.
    """
    T = schedule.duration
    q_rows, p_rows, hits = [qs], [ps], []
    ps = ps.copy()
    grids = []
    for a, b in zip(times[:-1], times[1:]):
        n = max(1, int(math.ceil((b - a) / h_target)))
        # [a, b] is what linspace gives for one substep, without its cost
        grids.append(np.linspace(a, b, n + 1) if n > 1 else np.array([a, b]))
    # the first grid whole, so that lam(times[0]) is checked too
    lams = _positive_lam(schedule, np.concatenate([grids[0][:1], *(g[1:] for g in grids)]))
    walls = np.split(lams[1:], np.cumsum([g.size - 1 for g in grids[:-1]]))
    scan = np.arange(_HIT_SCAN)
    for grid, L in zip(grids, walls):
        n, start, end = grid.size - 1, grid[0], grid[-1]
        q1 = qs + (end - start) * ps / m
        # a position computed at a substep end lies on the straight path from
        # q to q1 to within a few roundings of |q| + |q1 - q|
        margin = 16.0 * np.finfo(float).eps * (np.abs(qs) + np.abs(q1 - qs))
        i = np.flatnonzero((np.minimum(qs, q1) <= margin)
                           | (np.maximum(qs, q1) + margin >= L.min()))
        q, p, ta, qs = qs[i], ps[i], np.full(i.size, start), q1
        # per particle: the next end to scan, the substep of its last hit and
        # the hits so far in that substep
        nxt, last, rounds = np.ones(i.size, int), np.zeros(i.size, int), np.zeros(i.size, int)
        while i.size:
            rows = np.arange(i.size)
            k = np.minimum(nxt[:, None] + scan, n)
            Q = q[:, None] + (grid[k] - ta[:, None]) * p[:, None] / m
            out = (Q > L[k - 1]) | (Q < 0.0)
            first = out.argmax(axis=1)
            hit = out[rows, first]
            done = ~hit & (nxt + _HIT_SCAN > n)
            qs[i[done]] = q[done] + (end - ta[done]) * p[done] / m
            ps[i[done]] = p[done]
            nxt = np.where(hit, k[rows, first], nxt + _HIT_SCAN)
            # cdbench's tracer counts the hits by this one-argument np.where
            h = np.where(hit)[0]
            j, q0, p0, t0 = nxt[h], q[h], p[h], ta[h]
            rounds[h], last[h] = np.where(j == last[h], rounds[h] + 1, 1), j
            if np.any(rounds[h] > _MAX_COLLISION_ROUNDS):
                raise NumericalError("collision resolution did not settle within a substep")
            # the bracket opens at the substep's start, or at a hit inside it
            t_lo = np.maximum(grid[j - 1], t0)
            q_lo = q0 + (t_lo - t0) * p0 / m
            g_hi = Q[h, first[h]] - L[j - 1]
            right = g_hi > 0.0
            # exact for left-wall hits; the right-wall entries are replaced below
            t_c = t_lo - q_lo * m / np.where(right, 1.0, p0)
            if np.any(right):
                qr, vr, tr = q_lo[right], p0[right] / m, t_lo[right]
                lo, hi, g_hi = tr, grid[j[right]], g_hi[right]
                g_lo = np.minimum(qr - schedule.value(tr), 0.0)
                # each bracket is bisected until it alone is narrow enough
                while np.any(wide := hi - lo > 1e-13 * T):
                    mid = 0.5 * (lo + hi)
                    g = qr + vr * (mid - tr) - schedule.value(mid)
                    up, down = wide & (g > 0.0), wide & ~(g > 0.0)
                    hi, g_hi = np.where(up, mid, hi), np.where(up, g, g_hi)
                    lo, g_lo = np.where(down, mid, lo), np.where(down, g, g_lo)
                # a secant step inside the final bracket is exact for linear ramps
                t_c[right] = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            q[h] = np.where(right, schedule.value(t_c), 0.0)
            p[h] = np.where(right, -p0 + 2.0 * m * schedule.rate(t_c), -p0)
            ta[h] = t_c
            hits.extend((t, "right" if r else "left")
                        for t, r in zip(t_c.tolist(), right.tolist()))
            i, q, p, ta, nxt, last, rounds = (a[~done] for a in (i, q, p, ta, nxt, last, rounds))
        q_rows.append(qs)
        p_rows.append(ps.copy())
    return np.array(q_rows), np.array(p_rows), hits


def _ensemble_step(system: SystemModel, T: float) -> float:
    """evolve_ensemble's default dt: T/500 for the box, T/1000 for smooth wells."""
    return T / (500.0 if system.kind == "box" else 1000.0)


def evolve_ensemble(system: SystemModel, generator, schedule: Schedule, sampler,
                    n_particles: int, seed: int, snapshot_times,
                    dt: Optional[float] = None, tol: float = 1e-10) -> EnsembleRecord:
    """Propagate independent particles and record snapshots.

    The sampler's initial conditions come from two child streams of seed
    (_draw_initial_conditions), so a particle's draws do not depend on
    n_particles.  Box systems need no time stepping.  The driven arm is the
    closed-form flow on the clock tau (it needs only the schedule, not the
    generator object, since the wall-scaling form is the unique one
    compatible with the collision rule).  The bare arm is exact free flight
    whose work scales with the wall hits; dt (default T/500) sets only the
    grid that detects and brackets them.  For box systems each snapshot also
    gets the Kolmogorov-Smirnov statistic of q/L against the uniform law.
    Smooth wells run the adaptive RK4 integrator from dt (default T/1000) on
    all particles at once: the step sequence is shared and lands on every
    snapshot, and tol holds for each particle.  A particle's path therefore
    depends on its companions at tolerance level.
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
