"""Phase-space shell geometry for 1D confining systems.

The central objects are the phase-space volume enclosed by an energy shell,

    Omega(E, lam) = area of { (q, p) : H0(q, p; lam) <= E },

the adiabatic invariant omega(z; lam) = Omega(H0(z; lam), lam), the inverse
map E(Omega, lam), and microcanonical (single-orbit time) averages.  For a
1D bound orbit the shell is the orbit itself, so the microcanonical average
of an observable is its time average over one period.

Closed forms are used for the box (Omega = 2 lam sqrt(2 m E)) and the even
power-law well (Omega = c lam E^(1/2 + 1/b)); generic potentials go through
adaptive quadrature with a turning-point-regularizing substitution
q = q- + (q+ - q-) sin^2(theta), which removes the inverse-square-root
endpoint singularity.

Two identities are used as cross-checks throughout the tests:
dOmega/dE equals the orbit period, and the shell-energy gradient at fixed
volume equals minus the shell average of dH0/dlam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .errors import DomainError, NumericalError
from .systems import SystemModel, as_qp

_QUAD_RTOL = 1e-12
_QUAD_LIMIT = 200


# ---------------------------------------------------------------------------
# closed forms


def power_law_coefficient(system: SystemModel) -> float:
    """Prefactor c in Omega = c * lam * E^(1/2 + 1/b) for the power-law well."""
    b, eps, m = system.b, system.epsilon, system.mass
    return (
        math.sqrt(8.0 * math.pi * m)
        * eps ** (-1.0 / b)
        * math.gamma(1.0 + 1.0 / b)
        / math.gamma(1.5 + 1.0 / b)
    )


def _volume_closed(system: SystemModel, E: float, lam: float) -> float:
    if system.kind == "box":
        return 2.0 * lam * math.sqrt(2.0 * system.mass * E)
    c = power_law_coefficient(system)
    return c * lam * E ** (0.5 + 1.0 / system.b)


def _d_volume_dE_closed(system: SystemModel, E: float, lam: float) -> float:
    if system.kind == "box":
        return lam * math.sqrt(2.0 * system.mass / E)
    c = power_law_coefficient(system)
    ex = 0.5 + 1.0 / system.b
    return c * lam * ex * E ** (ex - 1.0)


# ---------------------------------------------------------------------------
# turning points and the regularized orbit quadrature


def _potential_floor(system: SystemModel, lam: float) -> tuple[float, float]:
    """(q_min, V_min) of the well.  Box and power-law floors are known."""
    if system.kind == "box":
        return 0.5 * lam, 0.0
    if system.kind == "power_law":
        return 0.0, 0.0
    # expand a sampling window until the minimum is interior
    half = max(lam, 1.0)
    for _ in range(40):
        qs = np.linspace(-half, half, 129)
        vs = np.array([system.potential_energy(q, lam) for q in qs])
        k = int(np.argmin(vs))
        if 0 < k < len(qs) - 1:
            res = minimize_scalar(
                lambda q: system.potential_energy(q, lam),
                bounds=(qs[k - 1], qs[k + 1]),
                method="bounded",
                options={"xatol": 1e-13 * half},
            )
            return float(res.x), float(res.fun)
        half *= 2.0
    raise DomainError("potential has no interior minimum; not confining")


def turning_points(system: SystemModel, E: float, lam: float) -> tuple[float, float]:
    """Classical turning points (q-, q+) with V(q+-) = E.

    Rejects energies at or below the potential floor and potentials that are
    not unimodal about a single minimum (multiple wells stay out of scope).
    """
    lam = system.check_param(lam)
    if system.kind == "box":
        raise DomainError("the box has walls, not turning points")
    if system.kind == "power_law":
        if E <= 0:
            raise DomainError(f"shell energy must exceed the potential floor 0, got {E}")
        half = lam * (E / system.epsilon) ** (1.0 / system.b)
        return -half, half

    q0, vmin = _potential_floor(system, lam)
    if E <= vmin + 1e-14 * (abs(vmin) + 1.0):
        raise DomainError(f"shell energy {E} at or below the potential floor {vmin}")

    def above(q):
        return system.potential_energy(q, lam) - E

    tps = []
    for sign in (-1.0, 1.0):
        step = 0.01 * max(lam, 1.0)
        lo = q0
        for _ in range(200):
            hi = q0 + sign * step
            if above(hi) > 0:
                break
            lo = hi
            step *= 2.0
        else:
            raise DomainError(f"potential never exceeds E={E}; not confining")
        a, b = (hi, lo) if sign < 0 else (lo, hi)
        tps.append(brentq(above, a, b, xtol=1e-15 * max(1.0, abs(b - a)), rtol=8.9e-16))
    qm, qp = tps
    _check_unimodal(system, E, lam, q0, qm, qp)
    return qm, qp


def _check_unimodal(system, E, lam, q0, qm, qp):
    """Reject potentials with structure beyond a single interior minimum.

    Sampled on a window extending one extra half-width past each turning
    point, so a second well hiding behind a barrier is seen even when the
    requested shell fits inside one sub-well.
    """
    qs = np.linspace(qm, qp, 257)
    vs = np.array([system.potential_energy(q, lam) for q in qs])
    if np.max(vs[1:-1]) > E + 1e-9 * (abs(E) + 1.0):
        raise DomainError("potential exceeds the shell energy between turning points")

    width = qp - qm
    lo, hi = qm - width, qp + width
    qs = np.linspace(lo, hi, 513)
    vs = np.array([system.potential_energy(q, lam) for q in qs], dtype=float)
    vs = np.where(np.isnan(vs), np.inf, vs)
    k = int(np.argmin(vs))
    tol = 1e-12 * (np.nanmax(vs[np.isfinite(vs)]) - vs[k] + 1e-300)
    left, right = vs[: k + 1], vs[k:]
    if np.any(np.diff(left) > tol) or np.any(np.diff(right) < -tol):
        raise DomainError("potential is not unimodal about a single minimum")


def _orbit_quadrature(
    system, E, lam, qm, qp, integrand_of_q_absp, theta=(0.0, 0.5 * math.pi), epsabs=1e-300
):
    """integral over [q-, q+] of f(q, |p(q)|) dq with the sin^2 substitution;
    a narrower theta range integrates over part of the orbit."""
    m = system.mass
    width = qp - qm

    def g(theta):
        s = math.sin(theta)
        q = qm + width * s * s
        ke = E - system.potential_energy(q, lam)
        if ke <= 0.0:
            return 0.0
        absp = math.sqrt(2.0 * m * ke)
        return integrand_of_q_absp(q, absp) * width * math.sin(2.0 * theta)

    val, err = quad(g, *theta, epsabs=epsabs, epsrel=_QUAD_RTOL, limit=_QUAD_LIMIT)
    if not math.isfinite(val):
        raise NumericalError(f"orbit quadrature failed (value {val}, error {err})")
    return val


def _volume_quadrature(system: SystemModel, E: float, lam: float) -> float:
    if system.kind == "box":
        # flat interior: integrate the momentum width across the box
        m = system.mass

        def width(q):
            return 2.0 * math.sqrt(2.0 * m * E)

        val, _ = quad(width, 0.0, lam, epsabs=1e-300, epsrel=_QUAD_RTOL)
        return val
    qm, qp = turning_points(system, E, lam)
    return 2.0 * _orbit_quadrature(system, E, lam, qm, qp, lambda q, absp: absp)


# ---------------------------------------------------------------------------
# public operations


def phase_volume(system: SystemModel, E: float, lam: float, method: str = "auto") -> float:
    """Phase-space volume enclosed by the shell H0 = E.

    method: "auto" uses closed forms for box/power_law and quadrature for
    generic potentials; "quadrature" forces the numeric route (cross-checks).
    """
    lam = system.check_param(lam)
    if not math.isfinite(E):
        raise DomainError(f"shell energy must be finite, got {E}")
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    if system.kind != "generic_1d" and E <= 0:
        raise DomainError(f"shell energy must exceed the potential floor 0, got {E}")
    if method == "quadrature" or (method == "auto" and system.kind == "generic_1d"):
        return _volume_quadrature(system, E, lam)
    if system.kind == "generic_1d":
        raise DomainError("generic_1d has no closed-form volume")
    return _volume_closed(system, E, lam)


def adiabatic_invariant(system: SystemModel, z, lam: float) -> float:
    """omega(z; lam) = Omega(H0(z; lam), lam); for the box this is 2 |p| lam."""
    lam = system.check_param(lam)
    q, p = as_qp(z)
    if system.kind == "box":
        system.check_position(q, lam)
        return 2.0 * abs(p) * lam
    return phase_volume(system, system.energy((q, p), lam), lam)


def orbit_period(system: SystemModel, E: float, lam: float, method: str = "auto") -> float:
    """Period of the closed orbit on the shell (equals dOmega/dE)."""
    lam = system.check_param(lam)
    m = system.mass
    if system.kind == "box" and method != "quadrature":
        return 2.0 * m * lam / math.sqrt(2.0 * m * E)
    if system.kind == "power_law" and method != "quadrature":
        return _d_volume_dE_closed(system, E, lam)
    if system.kind == "box":
        val, _ = quad(lambda q: 2.0 * m / math.sqrt(2.0 * m * E), 0.0, lam,
                      epsabs=1e-300, epsrel=_QUAD_RTOL)
        return val
    qm, qp = turning_points(system, E, lam)
    return 2.0 * _orbit_quadrature(system, E, lam, qm, qp, lambda q, absp: m / absp)


def orbit_states(system: SystemModel, E: float, lam: float, fractions) -> tuple:
    """Phase points (qs, ps) on a smooth-well orbit at the given fractions of
    the period, counted from the right turning point (any order)."""
    m = system.mass
    tau = orbit_period(system, E, lam)
    _, q_plus = turning_points(system, E, lam)
    ts = np.asarray(fractions, dtype=float) * tau
    order = np.argsort(ts)
    sol = solve_ivp(
        lambda t, y: [y[1] / m, -system.grad_q(y[0], lam)],
        (0.0, tau), [q_plus, 0.0], method="DOP853",
        rtol=1e-12, atol=1e-12, t_eval=ts[order],
    )
    if not sol.success:
        raise NumericalError(f"orbit sampling failed: {sol.message}")
    qs = np.empty(len(ts))
    ps = np.empty(len(ts))
    qs[order] = sol.y[0]
    ps[order] = sol.y[1]
    return qs, ps


def d_volume_dE(system: SystemModel, E: float, lam: float, method: str = "auto") -> float:
    """dOmega/dE.  Closed forms where available; otherwise the exact period
    identity dOmega/dE = tau(E) evaluated by quadrature.  method="fd" uses a
    central difference with step h = max(1e-6 E, 1e-9) as an independent
    cross-check."""
    if method == "fd":
        h = max(1e-6 * abs(E), 1e-9)
        return (
            phase_volume(system, E + h, lam, method="quadrature")
            - phase_volume(system, E - h, lam, method="quadrature")
        ) / (2 * h)
    if system.kind == "generic_1d":
        return orbit_period(system, E, lam)
    return _d_volume_dE_closed(system, E, lam)


def shell_energy_from_volume(
    system: SystemModel, omega: float, lam: float, method: str = "auto"
) -> float:
    """Invert Omega(E, lam) = omega for E (monotone in E, so the root is unique)."""
    lam = system.check_param(lam)
    if not (math.isfinite(omega) and omega > 0):
        raise DomainError(f"shell volume must be positive, got {omega}")
    if system.kind == "box" and method != "quadrature":
        return omega * omega / (8.0 * system.mass * lam * lam)
    if system.kind == "power_law" and method != "quadrature":
        c = power_law_coefficient(system)
        return (omega / (c * lam)) ** (2.0 * system.mu)

    _, vmin = _potential_floor(system, lam)

    def f(E):
        return phase_volume(system, E, lam, method="quadrature") - omega

    scale = abs(vmin) + 1.0
    lo = vmin + 1e-12 * scale
    hi = vmin + scale
    for _ in range(200):
        if f(hi) > 0:
            break
        lo = hi
        hi = vmin + (hi - vmin) * 4.0
    else:
        raise NumericalError(f"could not bracket the shell energy for volume {omega}")
    if f(lo) > 0:
        lo = vmin + 1e-15 * scale
        if f(lo) > 0:
            raise DomainError(f"volume {omega} below the resolvable range")
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-12)


def microcanonical_average(
    system: SystemModel,
    observable: Callable,
    E: float,
    lam: float,
    method: str = "orbit",
    rtol: float = 1e-12,
) -> float:
    """Time average of observable(z) over one orbit of the shell H0 = E.

    method "orbit" (primary) integrates the observable along the trajectory
    with the equations of motion; "quadrature" (cross-check) evaluates the
    line-integral form  [sum over both momentum branches of
    integral A m/|p| dq] / tau  with the regularized substitution.  For the
    box the flow between walls is trivial, so both methods reduce to the
    same two-branch integral over the interior.

    Observables taking distributional wall contributions (the box dH0/dlam)
    are not representable pointwise; use shell_average_grad_lambda.
    """
    lam = system.check_param(lam)
    m = system.mass
    if system.kind == "box":
        if E <= 0:
            raise DomainError(f"shell energy must be positive, got {E}")
        absp = math.sqrt(2.0 * m * E)

        def both(q):
            return observable((q, absp)) + observable((q, -absp))

        val, _ = quad(both, 0.0, lam, epsabs=1e-300, epsrel=_QUAD_RTOL, limit=_QUAD_LIMIT)
        return val / (2.0 * lam)

    tau = orbit_period(system, E, lam)
    qm, qp = turning_points(system, E, lam)
    if method == "quadrature":
        total = _orbit_quadrature(
            system, E, lam, qm, qp,
            lambda q, absp: (observable((q, absp)) + observable((q, -absp))) * m / absp,
        )
        return total / tau
    if method != "orbit":
        raise DomainError(f"unknown method {method!r}")

    def rhs(t, y):
        q, p, _ = y
        return [p / m, -system.grad_q(q, lam), observable((q, p))]

    sol = solve_ivp(
        rhs, (0.0, tau), [qp, 0.0, 0.0], method="DOP853",
        rtol=rtol, atol=rtol, dense_output=False, t_eval=[tau],
    )
    if not sol.success:
        raise NumericalError(f"orbit integration failed: {sol.message}")
    qf, pf, acc = sol.y[:, -1]
    scale = abs(qp - qm)
    if abs(qf - qp) > 1e-6 * scale or abs(pf) > 1e-6 * math.sqrt(2 * m * max(E, 1e-300)):
        raise NumericalError(
            f"orbit failed to close after one period: ({qf}, {pf}) vs ({qp}, 0)"
        )
    return acc / tau


def shell_average_grad_lambda(system: SystemModel, E: float, lam: float) -> float:
    """Shell (single-orbit) average of dH0/dlam.

    Smooth systems take the time average of the pointwise gradient.  For the
    box the gradient is a wall term invisible to interior sampling; the
    momentum transfer argument gives the closed form -2E/lam (force on the
    moving wall times unit displacement), which is what the volume identity
    reproduces.
    """
    lam = system.check_param(lam)
    if system.kind == "box":
        if E <= 0:
            raise DomainError(f"shell energy must be positive, got {E}")
        return -2.0 * E / lam
    return microcanonical_average(system, lambda z: system.grad_lambda(z, lam), E, lam)


def d_volume_dlam(system: SystemModel, E: float, lam: float, method: str = "auto") -> float:
    """dOmega/dlam at fixed E."""
    if system.kind == "box" and method != "fd":
        return 2.0 * math.sqrt(2.0 * system.mass * E)
    if system.kind == "power_law" and method != "fd":
        return _volume_closed(system, E, lam) / lam
    h = 1e-5 * lam
    return (
        phase_volume(system, E, lam + h, method="quadrature")
        - phase_volume(system, E, lam - h, method="quadrature")
    ) / (2 * h)


def grad_shell_energy(
    system: SystemModel, omega: float, lam: float, method: str = "auto", verify: bool = False
) -> float:
    """dE/dlam at fixed shell volume: -(dOmega/dlam) / (dOmega/dE).

    method "numeric" forces the quadrature/finite-difference route for any
    system kind (used to cross-check the closed forms).  verify=True also
    evaluates the orbit average of dH0/dlam and raises NumericalError if the
    two routes disagree beyond 1e-6 relative.
    """
    lam = system.check_param(lam)
    E = shell_energy_from_volume(system, omega, lam)
    if method == "numeric":
        val = -d_volume_dlam(system, E, lam, method="fd") / d_volume_dE(system, E, lam, method="fd")
    elif system.kind == "box":
        val = -2.0 * E / lam
    elif system.kind == "power_law":
        val = -2.0 * system.mu * E / lam
    else:
        val = -d_volume_dlam(system, E, lam) / d_volume_dE(system, E, lam)
    if verify:
        other = shell_average_grad_lambda(system, E, lam)
        scale = max(abs(val), abs(other), 1e-12)
        if abs(val - other) > 1e-6 * scale:
            raise NumericalError(
                f"volume-identity gradient {val:.12e} disagrees with the orbit "
                f"average {other:.12e} beyond 1e-6 relative"
            )
    return val


@dataclass(frozen=True)
class EnergyShell:
    """A single energy shell with its geometry precomputed."""

    system: SystemModel
    E: float
    lam: float
    volume: float
    period: float
    q_minus: Optional[float]
    q_plus: Optional[float]


def energy_shell(system: SystemModel, E: float, lam: float) -> EnergyShell:
    lam = system.check_param(lam)
    if system.kind == "box":
        qm, qp = None, None
    else:
        qm, qp = turning_points(system, E, lam)
    return EnergyShell(
        system=system,
        E=float(E),
        lam=lam,
        volume=phase_volume(system, E, lam),
        period=orbit_period(system, E, lam),
        q_minus=qm,
        q_plus=qp,
    )
