"""Phase-space shell geometry for 1D confining systems.

The central objects are the phase-space volume enclosed by an energy shell,

    Omega(E, lam) = area of { (q, p) : H0(q, p; lam) <= E },

the adiabatic invariant omega(z; lam) = Omega(H0(z; lam), lam), the inverse
map E(Omega, lam), and microcanonical (single-orbit time) averages.  For a
1D bound orbit the shell is the orbit itself, so the microcanonical average
of an observable is its time average over one period.

Scale invariance gives the box and the even power-law wells one law,
Omega = c lam E^kappa: kappa = 1/2 + 1/b and c = power_law_coefficient for
the power law, and its b -> infinity limit kappa = 1/2, c = 2 sqrt(2 m) for
the box.  Every shell quantity of these systems comes from it, the shell
average of dH0/dlam = dE/dlam at fixed Omega = -2 mu E / lam included.
Generic wells substitute q = q- + (q+ - q-) sin^2(theta), which removes the
inverse-square-root turning-point singularity: fixed-node quadrature in
theta gives Omega, tau = dOmega/dE and <dH0/dlam>, dOmega/dlam is a central
difference of the volume, and orbit states invert the tabulated orbit time.
microcanonical_average is adaptive quad in theta for every kind, the box's
orbit being [0, lam].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .systems import SystemModel, _on_nodes, as_qp

# 24- and 48-node Gauss-Legendre rules on [-1, 1], stacked so one pass gives both sums
_GL_X24, _GL_W24 = np.polynomial.legendre.leggauss(24)
_GL_X48, _GL_W48 = np.polynomial.legendre.leggauss(48)
_GL_NODES = np.concatenate([_GL_X24, _GL_X48])
_GL_RTOL = 1e-8
_BISECT_DEPTH = 8  # 2^8 pieces at most, about quad's subinterval limit


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


def _scaling(system: SystemModel) -> Optional[tuple[float, float]]:
    """(c, kappa) of the scale law Omega = c lam E^kappa; None for generic wells."""
    if system.kind == "box":  # the b -> infinity limit of the power law
        return 2.0 * math.sqrt(2.0 * system.mass), 0.5
    if system.kind == "power_law":
        return power_law_coefficient(system), 0.5 + 1.0 / system.b
    return None


def _energy_power(E: float, exponent: float) -> float:
    """E ** exponent on a scale-law shell, which needs a finite E > 0; else
    phase_volume's DomainError."""
    if not (math.isfinite(E) and E > 0):
        why = "exceed the potential floor 0" if math.isfinite(E) else "be finite"
        raise DomainError(f"shell energy must {why}, got {E}")
    return math.pow(E, exponent)


def _volume_closed(system: SystemModel, E: float, lam: float) -> float:
    c, kappa = _scaling(system)
    return c * lam * _energy_power(E, kappa)


# ---------------------------------------------------------------------------
# turning points and the regularized orbit quadrature


@functools.lru_cache(maxsize=64)
def _potential_floor(system: SystemModel, lam: float) -> tuple[float, float]:
    """(q_min, V_min) of the well; known for box and power law, else searched."""
    if system.kind == "box":
        return 0.5 * lam, 0.0
    if system.kind == "power_law":
        return 0.0, 0.0
    from scipy.optimize import minimize_scalar

    # expand a sampling window until the minimum is interior
    half = max(lam, 1.0)
    for _ in range(40):
        qs = np.linspace(-half, half, 129)
        vs = _on_nodes(system, qs, lam)
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
    if not math.isfinite(E):
        raise DomainError(f"shell energy must be finite, got {E}")
    if system.kind == "box":
        raise DomainError("the box has walls, not turning points")
    if system.kind == "power_law":
        if E <= 0:
            raise DomainError(f"shell energy must exceed the potential floor 0, got {E}")
        half = lam * (E / system.epsilon) ** (1.0 / system.b)
        return -half, half

    from scipy.optimize import brentq

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
    vs = _on_nodes(system, qs, lam)
    if np.max(vs[1:-1]) > E + 1e-9 * (abs(E) + 1.0):
        raise DomainError("potential exceeds the shell energy between turning points")

    width = qp - qm
    lo, hi = qm - width, qp + width
    qs = np.linspace(lo, hi, 513)
    vs = _on_nodes(system, qs, lam)
    vs = np.where(np.isnan(vs), np.inf, vs)
    k = int(np.argmin(vs))
    tol = 1e-12 * (np.nanmax(vs[np.isfinite(vs)]) - vs[k] + 1e-300)
    left, right = vs[: k + 1], vs[k:]
    if np.any(np.diff(left) > tol) or np.any(np.diff(right) < -tol):
        raise DomainError("potential is not unimodal about a single minimum")


def _orbit_quadrature(
    system, E, lam, qm, qp, integrand, theta=(0.0, 0.5 * math.pi), epsabs=1e-300, panels=None
):
    """Integral over [q-, q+] of f(q, |p(q)|) dq with the sin^2 substitution
    q = q- + (q+ - q-) sin^2(theta); a narrower theta range integrates over
    part of the orbit.  integrand maps the node arrays (q, |p|) to one row of
    values per integral, so integrals can share nodes.

    The substitution makes smooth-well integrands analytic in theta, so fixed
    Gauss-Legendre nodes converge exponentially.  The 48-node sum is returned
    if it is within max(epsabs, 1e-8 int |f|) of the 24-node sum (int |f|, as
    a centered integrand cancels), plus the eps (|E| + |V|) / (E - V) rounding
    of each node.  Else each half of the theta interval is retried, up to
    _BISECT_DEPTH times before NumericalError.  A panels list collects the
    accepted pieces in theta order as (a, b, 48-node values, sum)."""
    m, width = system.mass, qp - qm

    def piece(a, b, tol, depth):
        half = 0.5 * (b - a)
        th = a + half * (_GL_NODES + 1.0)
        s = np.sin(th)
        q = qm + width * s * s
        vs = _on_nodes(system, q, lam)
        ke = E - vs
        inside = ~(ke <= 0.0)  # NaN stays in, to fail the finiteness check
        absp = np.sqrt(2.0 * m * np.where(inside, ke, 1.0))
        f = np.where(inside, integrand(q, absp), 0.0) * (width * half * np.sin(2.0 * th))
        low, high = f[..., :24] @ _GL_W24, f[..., 24:] @ _GL_W48
        if not np.all(np.isfinite(high)):
            raise NumericalError(f"orbit quadrature failed (value {high})")
        size = np.abs(f[..., 24:])
        blur = np.finfo(float).eps * (abs(E) + np.abs(vs)) / np.where(inside, ke, np.inf)
        bound = np.maximum(tol, _GL_RTOL * (size @ _GL_W48)) + (size * blur[24:]) @ _GL_W48
        if np.all(np.abs(high - low) <= bound):
            if panels is not None:
                panels.append((a, b, f[..., 24:], high))
            return high
        if depth == _BISECT_DEPTH:
            raise NumericalError(f"orbit quadrature did not converge on theta in [{a}, {b}]")
        return piece(a, a + half, 0.5 * tol, depth + 1) + piece(a + half, b, 0.5 * tol, depth + 1)

    return piece(*theta, epsabs, 0)


def _orbit_moments(system, E, lam, qm, qp):
    """(tau/2, int dU/dlam m/|p| dq) over [q-, q+], two rows on shared nodes."""
    m = system.mass
    return _orbit_quadrature(system, E, lam, qm, qp, lambda x, absp: m / absp * np.stack(
        [np.ones_like(x), _on_nodes(system, x, lam, d_lam=True)]))


def _volume_quadrature(system: SystemModel, E: float, lam: float) -> float:
    qm, qp = turning_points(system, E, lam)
    return 2.0 * _orbit_quadrature(system, E, lam, qm, qp, lambda q, absp: absp)


def _period_quadrature(system: SystemModel, E: float, lam: float) -> float:
    m = system.mass
    qm, qp = turning_points(system, E, lam)
    return 2.0 * _orbit_quadrature(system, E, lam, qm, qp, lambda q, absp: m / absp)


# ---------------------------------------------------------------------------
# public operations


def phase_volume(system: SystemModel, E: float, lam: float) -> float:
    """Phase-space volume enclosed by the shell H0 = E: the scale law for
    box/power_law, the orbit quadrature for generic potentials."""
    lam = system.check_param(lam)
    if system.kind == "generic_1d":
        return _volume_quadrature(system, E, lam)
    return _volume_closed(system, E, lam)


def adiabatic_invariant(system: SystemModel, z, lam: float) -> float:
    """omega(z; lam) = Omega(H0(z; lam), lam); for the box this is 2 |p| lam."""
    lam = system.check_param(lam)
    q, p = as_qp(z)
    if system.kind == "box":
        system.check_position(q, lam)
        return 2.0 * abs(p) * lam
    return phase_volume(system, system.energy((q, p), lam), lam)


def orbit_period(system: SystemModel, E: float, lam: float) -> float:
    """Period of the closed orbit on the shell, which equals dOmega/dE:
    kappa Omega / E on the scale law, the orbit quadrature elsewhere."""
    lam = system.check_param(lam)
    if system.kind == "generic_1d":
        return _period_quadrature(system, E, lam)
    c, kappa = _scaling(system)
    return c * lam * kappa * _energy_power(E, kappa - 1.0)


def orbit_states(system: SystemModel, E: float, lam: float, fractions) -> tuple:
    """Phase points (qs, ps) on a smooth-well orbit at the given fractions of
    the period, counted from the right turning point (any order).  Fractions
    0, 1/2 and 1 give the turning points with p = 0; one outside [0, 1] is a
    DomainError.

    Time reversal folds each fraction onto the half orbit from q+.  Newton's
    method inverts the orbit time on the Legendre interpolant of dt/dtheta on
    _orbit_quadrature's panels, started at theta = (pi/2)(1 - 2t/tau), exact
    for the harmonic well.  Each point stops on its own time residual, so it
    does not depend on the rest of the call, and p = -+sqrt(2m(E - V(q)))
    puts it on the shell.
    """
    f = np.asarray(fractions, dtype=float).ravel()
    bad = ~((f >= 0.0) & (f <= 1.0))
    if bad.any():
        raise DomainError(f"orbit fractions must lie in [0, 1], got {f[bad]}")
    m, panels, leg = system.mass, [], np.polynomial.legendre
    qm, qp = turning_points(system, E, lam)
    half_tau = _orbit_quadrature(system, E, lam, qm, qp, lambda q, absp: m / absp, panels=panels)
    a, b, values, sums = (np.array(col) for col in zip(*panels))
    coef = leg.legfit(_GL_X48, values.T, 47).T  # dt/dx on each panel, theta = a + (b - a)(x + 1)/2
    times = leg.legint(coef, lbnd=-1, axis=1)
    times[:, 0] += np.cumsum(sums) - sums  # orbit time from q- on each panel
    fold = np.minimum(f, 1.0 - f)
    target = (0.5 - fold) * (2.0 * half_tau)
    theta = 0.5 * math.pi * (1.0 - 2.0 * fold)
    done = turn = (fold == 0.0) | (fold == 0.5)
    for _ in range(50):
        j = np.searchsorted(a, theta, side="right") - 1
        half = 0.5 * (b[j] - a[j])
        legendre = leg.legvander((theta - a[j]) / half - 1.0, 48)  # P_k(x) in a row per point
        r = np.sum(legendre * times[j], axis=1) - target
        done = done | (np.abs(r) <= 8.0 * np.finfo(float).eps * half_tau)  # roundings of tau/2
        if done.all():
            break
        g = np.sum(legendre[:, :48] * coef[j], axis=1) / half
        theta = np.where(done, theta, np.clip(theta - r / g, 0.0, 0.5 * math.pi))
    else:
        raise NumericalError(f"orbit time inversion did not converge on the shell E={E}")
    q = np.where(turn, np.where(fold == 0.0, qp, qm), qm + (qp - qm) * np.sin(theta) ** 2)
    absp = np.where(turn, 0.0, np.sqrt(2.0 * m * np.maximum(E - _on_nodes(system, q, lam), 0.0)))
    return q, np.where(f > 0.5, absp, -absp)


def d_volume_dE(system: SystemModel, E: float, lam: float) -> float:
    """dOmega/dE, which is the orbit period."""
    return orbit_period(system, E, lam)


def shell_energy_from_volume(system: SystemModel, omega: float, lam: float) -> float:
    """Invert Omega(E, lam) = omega for E (monotone in E, so the root is unique)."""
    lam = system.check_param(lam)
    if not (math.isfinite(omega) and omega > 0):
        raise DomainError(f"shell volume must be positive, got {omega}")
    if system.kind != "generic_1d":
        c, _ = _scaling(system)
        return (omega / (c * lam)) ** (2.0 * system.mu)  # 1 / kappa = 2 mu

    from scipy.optimize import brentq

    _, vmin = _potential_floor(system, lam)

    def f(E):
        return _volume_quadrature(system, E, lam) - omega

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
    system: SystemModel, observable: Callable, E: float, lam: float
) -> float:
    """Time average of observable(z) over one orbit of the shell H0 = E.

    The line integral [sum over both momentum branches of integral
    A(q, +-|p|) m/|p| dq] / tau, taken by adaptive quad in theta of
    q = q- + (q+ - q-) sin^2(theta) to 1e-12 relative, or 1e-12 absolute in
    the average.  The box's orbit is [0, lam] at the fixed |p| = sqrt(2 m E).

    Observables taking distributional wall contributions (the box dH0/dlam)
    are not representable pointwise; use shell_average_grad_lambda.
    """
    from scipy.integrate import quad

    tau = orbit_period(system, E, lam)
    lam, m = system.check_param(lam), system.mass
    qm, qp = (0.0, lam) if system.kind == "box" else turning_points(system, E, lam)

    def integrand(theta):
        q = qm + (qp - qm) * math.sin(theta) ** 2
        ke = E - system.potential_energy(q, lam)
        if ke <= 0.0:  # a turning point, to rounding
            return 0.0
        absp = math.sqrt(2.0 * m * ke)
        both = observable((q, absp)) + observable((q, -absp))
        return both * m / absp * (qp - qm) * math.sin(2.0 * theta)

    total, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=1e-12 * tau, epsrel=1e-12, limit=200)
    return total / tau


def shell_average_grad_lambda(system: SystemModel, E: float, lam: float) -> float:
    """Shell (single-orbit) average of dH0/dlam.

    On the scale law it is dE/dlam at fixed Omega, -2 mu E / lam; for the
    box (mu = 1) it is the force on the moving wall, invisible to interior
    sampling.  Generic wells take the ratio of the orbit quadrature of the
    pointwise gradient to the half period's.
    """
    lam = system.check_param(lam)
    if system.kind != "generic_1d":
        return -2.0 * system.mu * _energy_power(E, 1.0) / lam
    half_tau, moment = _orbit_moments(system, E, lam, *turning_points(system, E, lam))
    return moment / half_tau


def d_volume_dlam(system: SystemModel, E: float, lam: float) -> float:
    """dOmega/dlam at fixed E: Omega / lam on the scale law, a central
    difference of the quadrature volume elsewhere."""
    lam = system.check_param(lam)
    if system.kind != "generic_1d":
        return _volume_closed(system, E, lam) / lam
    h = 1e-5 * lam
    return (_volume_quadrature(system, E, lam + h) - _volume_quadrature(system, E, lam - h)) / (2 * h)


def grad_shell_energy(system: SystemModel, omega: float, lam: float) -> float:
    """dE/dlam at fixed shell volume, which is the shell average of dH0/dlam."""
    return shell_average_grad_lambda(system, shell_energy_from_volume(system, omega, lam), lam)


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
