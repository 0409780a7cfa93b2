"""Exact solutions for the engine tests, sharing no code with the engines.

Each oracle solves the problem from its own equations, so a test that holds
an engine to it checks the engine's physics, not only its consistency with
itself.  The driven box's hit timer shares schedules.clock with the engine,
since that clock defines the driven box's time, but inverts it its own way.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from cdrive.schedules import clock


def harmonic_fundamental_matrices(system, schedule, times, rtol=1e-13):
    """The bare flow of V = eps (q/lam)^2 is linear: q'' = -w(t)^2 q with
    w^2 = 2 eps/(m lam^2), so (q, p)(t) = Phi(t) (q, p)(0) for the
    fundamental matrix Phi' = [[0, 1/m], [-m w^2, 0]] Phi, Phi(0) = 1.
    Returns Phi at the sorted times, shape (len(times), 2, 2), integrated by
    DOP853 to rtol."""
    m, eps = system.mass, system.epsilon

    def rhs(t, y):
        phi = y.reshape(2, 2)
        w2 = 2.0 * eps / (m * schedule.value(t) ** 2)
        return np.concatenate([phi[1] / m, -m * w2 * phi[0]])

    sol = solve_ivp(rhs, (0.0, schedule.duration), np.eye(2).ravel(), method="DOP853",
                    t_eval=times, rtol=rtol, atol=1e-3 * rtol)
    return sol.y.T.reshape(-1, 2, 2)


def clock_hit_times(schedule, q0, p0, m=1.0):
    """Wall hits of the driven box from (q0, p0) at t = 0, as (t, wall) pairs.

    x = q/L runs at P/m = p0 L(0)/m on the clock tau, unfolded across the
    walls at the integers n (odd: right wall, even: left).  Each n passed by
    T is timed by brentq on the single-point clock(s) - tau_n, bracketed by
    the hit before it and 2T (the clock runs on past T at L(T)), to 1e-15 T.
    """
    T = schedule.duration
    L0 = float(schedule.value(0.0))
    x0, P = q0 / L0, p0 * L0
    x_T = x0 + P * clock(schedule, [T])[0] / m
    walls = range(1, math.ceil(x_T)) if P > 0 else range(0, math.floor(x_T), -1)
    hits, t = [], 0.0
    for n in walls:
        tau = (n - x0) * m / P
        t = brentq(lambda s: clock(schedule, [s])[0] - tau, t, 2.0 * T, xtol=1e-15 * T)
        hits.append((t, "right" if n % 2 else "left"))
    return hits


def doescher_rice_coefficients(L0, L1, duration, c0, n_modes=256, mass=1.0, hbar=1.0):
    """Exact final coefficients on sin(k pi x / L1), k = 1..n_modes, of the
    box whose wall moves linearly from L0 to L1 over duration, from
    coefficients c0 on sin(n pi x / L0).

    The Doescher-Rice modes (Am. J. Phys. 37, 1246 (1969))
    sqrt(2/L) sin(n pi x/L) exp(i m v x^2/(2 hbar L) - i pi^2 hbar n^2 t/(2 m L0 L)),
    v = (L1 - L0) / duration, solve the moving-wall problem exactly and are
    orthonormal at each t.  psi0 is expanded in the first n_modes of them at
    t = 0 and projected at the end, with the overlaps
    2 int_0^1 sin(k pi y) sin(n pi y) exp(i alpha y^2) dy, alpha = m v L / (2 hbar),
    by 4 n_modes-node Gauss-Legendre.  The first 64 coefficients of a level-1
    start on L 1 -> 2 over 0.05 change by about 1e-10 from 256 to 384 modes.
    """
    v = (L1 - L0) / duration
    y, w = np.polynomial.legendre.leggauss(4 * n_modes)
    y, w = 0.5 * (y + 1.0), 0.5 * w
    ns = np.arange(1, n_modes + 1)
    sines = np.sin(math.pi * np.outer(ns, y))

    def overlaps(L):
        return 2.0 * (sines * (w * np.exp(0.5j * mass * v * L / hbar * y * y))) @ sines.T

    c = np.zeros(n_modes, dtype=complex)
    c[:len(c0)] = c0
    theta = math.pi**2 * hbar * ns**2 * duration / (2.0 * mass * L0 * L1)
    return overlaps(L1) @ (np.exp(-1j * theta) * (overlaps(L0).conj() @ c))


def orbit_average(system, observable, lam, q_plus, rtol=1e-12):
    """Time average of observable((q, p)) over one orbit of a smooth well,
    from the turning point (q_plus, 0): DOP853 to rtol on q' = p/m,
    p' = -dV/dq and the running integral of the observable.  The period is
    twice the time to the far turning point, where p first rises through 0,
    and the orbit must close on (q_plus, 0) to 1e-9 of its scale."""
    m = system.mass

    def rhs(t, y):
        return [y[1] / m, -system.grad_q(y[0], lam), observable((y[0], y[1]))]

    def far_turn(t, y):
        return y[1]

    far_turn.terminal, far_turn.direction = True, 1.0
    y0 = [q_plus, 0.0, 0.0]
    half = solve_ivp(rhs, (0.0, 1e3), y0, method="DOP853", rtol=rtol, atol=rtol, events=far_turn)
    assert half.status == 1, "no far turning point within t = 1000"
    tau = 2.0 * half.t_events[0][0]
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=rtol, atol=rtol, t_eval=[tau])
    q, p, total = sol.y[:, -1]
    p_scale = math.sqrt(2.0 * m * system.potential_energy(q_plus, lam))
    assert abs(q - q_plus) <= 1e-9 * abs(q_plus) and abs(p) <= 1e-9 * p_scale, (q, p)
    return total / tau
