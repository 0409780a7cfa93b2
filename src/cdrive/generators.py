"""Driving-term generators that make a parameter ramp transitionless.

A generator xi(z; lam) added to the bare Hamiltonian as lam_dot * xi keeps
every trajectory on its initial invariant shell at any ramp speed.  On a
shell it is fixed (up to a constant) by two conditions: its Poisson bracket
with H0 is the centered parameter gradient, {xi, H0} = dH0/dlam -
<dH0/dlam>_E, and its orbit average vanishes (the gauge used throughout).

Analytic forms: the box has xi = q p / lam, and the even power-law well
xi = [b/(b+2)] q p / lam.  For other smooth wells, NumericShellGenerator
integrates the first condition along the orbit from the right turning
point q+, where xi = 0, to the query point:

    xi(q, p) = -sgn(p) m int_q^{q+} [dU/dlam(q') - <dU/dlam>_E]
                                    / sqrt(2m(E - U(q'))) dq',   E = H0(q, p).

This xi is odd in p, so its orbit average vanishes by itself.  The integral
is a fixed-node Gauss-Legendre sum on the sin^2 angle of
shells._orbit_quadrature.  The shell average <dU/dlam>_E and the half period
come per kind, as in shells: the scale law gives them exactly on the power
law, and on generic wells they are two rows of one quadrature on the same
node set, so the full half-orbit integral cancels to the sums' accuracy.
The phase-space gradient splits along the flow X_H = (p/m, -dU/dq) and the
unit normal n = grad H0 / |grad H0|, which are orthogonal:

    grad xi = beta X_H + (d xi / dn) n,   beta = (dH0/dlam - <dH0/dlam>_E) / |grad H0|^2,

where beta is exact and d xi / dn is one central difference of xi along n.

NumericShellGenerator is what "generator": "numeric" names in every config
kind, generator_check included.  verify_generator checks the two shell
conditions for any generator with evaluate and evaluate_grad_z.
build_xi_numeric builds the same generator on one shell a second way, by
integrating the orbit ODE, and returns a ShellGeneratorTable: the profile
sampled at uniform orbit times, the independent oracle for the pointwise
generator in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .systems import SystemModel, _on_nodes, as_qp, box, power_law
from .shells import (
    _half_period_and_average,
    _orbit_quadrature,
    _potential_floor,
    d_volume_dE,
    d_volume_dlam,
    orbit_period,
    orbit_states,
    shell_average_grad_lambda,
    turning_points,
)


@dataclass(frozen=True)
class AnalyticGenerator:
    """A generator with closed-form value and phase-space gradient."""

    value_fn: Callable
    grad_fn: Callable  # (z, lam) -> (dxi/dq, dxi/dp)
    name: str = "analytic"

    def evaluate(self, z, lam: float) -> float:
        return float(self.value_fn(z, lam))

    def evaluate_grad_z(self, z, lam: float) -> tuple[float, float]:
        gq, gp = self.grad_fn(z, lam)
        return float(gq), float(gp)


def dilation_generator(mu: float, name: str) -> AnalyticGenerator:
    """xi = mu q p / lam: the scaling flow q -> q (1 + mu dlam/lam),
    p -> p (1 - mu dlam/lam)."""

    def value(z, lam):
        q, p = as_qp(z)
        return mu * q * p / lam

    def grad(z, lam):
        q, p = as_qp(z)
        return mu * p / lam, mu * q / lam

    return AnalyticGenerator(value, grad, name=name)


def box_generator() -> AnalyticGenerator:
    return analytic_generator_for(box())


def power_law_generator(b: int) -> AnalyticGenerator:
    return analytic_generator_for(power_law(b))


def analytic_generator_for(system: SystemModel) -> AnalyticGenerator:
    """The dilation generator at the system's mu: box_dilation, power_law_dilation_b<b>."""
    if system.kind == "generic_1d":
        raise DomainError("generic_1d has no analytic generator; use NumericShellGenerator")
    name = "box_dilation" if system.kind == "box" else f"power_law_dilation_b{system.b}"
    return dilation_generator(system.mu, name=name)


# ---------------------------------------------------------------------------
# numeric single-shell tables


@dataclass(frozen=True)
class ShellGeneratorTable:
    """Generator profile sampled along one orbit of the shell (E, lam).

    times are uniform on [0, period] starting from the right turning point;
    the stored profile has zero orbit-time average and matching endpoints.
    closure_residual records |xi(period) - xi(0)| before periodization,
    normalized by the profile scale.
    """

    system: SystemModel
    E: float
    lam: float
    period: float
    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    xis: np.ndarray
    closure_residual: float

    def time_average(self) -> float:
        """Orbit-time mean of xi: the mean of the uniform periodic samples."""
        return float(np.mean(self.xis[:-1]))


def build_xi_numeric(
    system: SystemModel, E: float, lam: float, n_samples: int = 256
) -> ShellGeneratorTable:
    """Construct the shell generator by orbit integration.

    Integrates d(xi)/dt = dH0/dlam - <dH0/dlam> along one period from the
    right turning point, checks the profile closes (it must, since the
    source term averages to zero), and subtracts the orbit-time mean so the
    gauge <xi> = 0 holds.
    """
    from scipy.integrate import solve_ivp

    if system.kind == "box":
        raise DomainError("the box generator is analytic; build_xi_numeric needs a smooth well")
    if n_samples < 64 or n_samples % 2 != 0:
        raise DomainError(f"n_samples must be even and >= 64, got {n_samples}")
    lam = system.check_param(lam)
    g = shell_average_grad_lambda(system, E, lam)
    tau = orbit_period(system, E, lam)
    qm, qp = turning_points(system, E, lam)
    m = system.mass

    def rhs(t, y):
        q, p = y[0], y[1]
        dlam_h = system.grad_lambda((q, p), lam)
        return [p / m, -system.grad_q(q, lam), dlam_h - g, y[2]]

    # state: q, p, xi, integral of xi (for the gauge shift)
    ts = np.linspace(0.0, tau, n_samples + 1)
    sol = solve_ivp(
        rhs, (0.0, tau), [qp, 0.0, 0.0, 0.0], method="DOP853",
        rtol=1e-12, atol=1e-12, t_eval=ts,
    )
    if not sol.success:
        raise NumericalError(f"orbit integration failed: {sol.message}")
    qs, ps, xis, xi_int = sol.y

    scale = float(np.max(np.abs(xis))) + 1e-300
    closure = abs(xis[-1] - xis[0]) / scale
    if closure > 1e-6:
        raise NumericalError(
            f"generator profile failed to close: residual {closure:.3e} of scale"
        )
    p_scale = math.sqrt(2 * m * (E - _potential_floor(system, lam)[1]))
    if abs(qs[-1] - qp) > 1e-8 * max(abs(qp - qm), 1.0) or abs(ps[-1]) > 1e-8 * p_scale:
        raise NumericalError("orbit failed to return to the starting turning point")

    xis = xis - xi_int[-1] / tau
    qs, ps, xis = qs.copy(), ps.copy(), xis.copy()
    qs[-1], ps[-1], xis[-1] = qs[0], ps[0], xis[0]
    return ShellGeneratorTable(
        system=system,
        E=float(E),
        lam=lam,
        period=float(tau),
        times=ts,
        qs=qs,
        ps=ps,
        xis=xis,
        closure_residual=float(closure),
    )


# ---------------------------------------------------------------------------
# pointwise generator usable inside the driving engine

# central-difference step across the shell, as a fraction of |z|
_NORMAL_STEP = 1e-4
# turning-point distance, as a fraction of the orbit width, below which the
# momentum gives it more accurately than the positions: sqrt of the rounding
# unit, where the first-order error d/width meets the rounding error eps/d
_TURNING_ZONE = math.sqrt(np.finfo(float).eps)


def _shell_source(system: SystemModel, E: float, lam: float):
    """(q-, q+, <dH0/dlam>_E, scale) of the shell H0 = E, the average from
    shells' per-kind route; scale bounds the half-orbit integral of the
    centered source dH0/dlam - <dH0/dlam>_E over the orbit time."""
    qm, qp = turning_points(system, E, lam)
    half_tau, g = _half_period_and_average(system, E, lam, qm, qp)
    ends = (abs(system.grad_lambda((x, 0.0), lam) - g) for x in (qm, qp))
    return qm, qp, g, half_tau * max(abs(g), *ends)


class NumericShellGenerator:
    """Generator of a smooth well, evaluated pointwise by one orbit quadrature
    (see the module docstring for the formula and the gradient split)."""

    def __init__(self, system: SystemModel):
        if system.kind == "box":
            raise DomainError("numeric generators are for smooth wells, not the box")
        self.system = system

    def evaluate(self, z, lam: float) -> float:
        q, p = as_qp(z)
        system, m = self.system, self.system.mass
        E = system.energy((q, p), lam)
        if p == 0.0 and E > _potential_floor(system, lam)[1]:
            return 0.0
        qm, qp, g, scale = _shell_source(system, E, lam)
        # the half-orbit integral vanishes, so [q, q+] is minus [q-, q]: take
        # the longer piece, whose nodes keep clear of the turning points where
        # rounding in E - U swamps 1/|p|.  The absolute tolerance on the shell
        # scale keeps quad from chasing that rounding or a cancelling sum.
        # Near a turning point its distance d is lost to rounding in E and q;
        # there p^2/2m = |U'(q)| d to first order gives d from the momentum.
        dist = [max(q - qm, 0.0), max(qp - q, 0.0)]
        slope = system.grad_q(q, lam)
        if slope != 0.0:
            near = p * p / (2.0 * m * abs(slope))
            if near < _TURNING_ZONE * (qp - qm):
                dist[1 if slope > 0.0 else 0] = near
        theta = math.atan2(math.sqrt(dist[0]), math.sqrt(dist[1]))
        right = theta <= 0.25 * math.pi
        part = _orbit_quadrature(
            system, E, lam, qm, qp,
            lambda x, absp: (_on_nodes(system, x, lam, d_lam=True) - g) * m / absp,
            theta=(theta, 0.5 * math.pi) if right else (0.0, theta), epsabs=1e-12 * scale,
        )
        return (part if right else -part) * (1.0 if p < 0.0 else -1.0)

    def evaluate_grad_z(self, z, lam: float) -> tuple[float, float]:
        q, p = as_qp(z)
        system = self.system
        g = _shell_source(system, system.energy((q, p), lam), lam)[2]
        hq, hp = system.grad_z((q, p), lam)
        norm = math.hypot(hq, hp)
        beta = (system.grad_lambda((q, p), lam) - g) / (norm * norm)
        nq, np_ = hq / norm, hp / norm
        h = _NORMAL_STEP * (math.hypot(q, p) or 1.0)
        dxi_dn = (
            self.evaluate((q + h * nq, p + h * np_), lam)
            - self.evaluate((q - h * nq, p - h * np_), lam)
        ) / (2.0 * h)
        # flow X_H = (hp, -hq) and normal n = (nq, np_)
        return beta * hp + dxi_dn * nq, -beta * hq + dxi_dn * np_


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class GeneratorCheck:
    """Residual report from verify_generator."""

    shells: list
    bracket_residual: float
    average_residual: float


def _orbit_fractions(n_points: int) -> np.ndarray:
    """Orbit fractions (k + 1/2)/n of the sample points, counted from q+."""
    return (np.arange(n_points) + 0.5) / n_points


def _shell_sample_points(system, E, lam, n_points):
    """n_points phase points spread uniformly in orbit time over the shell."""
    if system.kind == "box":
        absp = math.sqrt(2 * system.mass * E)
        half = n_points // 2
        qs = (np.arange(half) + 0.5) / half * lam
        pts = [(q, absp) for q in qs] + [(q, -absp) for q in qs]
        return pts
    qs, ps = orbit_states(system, E, lam, _orbit_fractions(n_points))
    return list(zip(qs, ps))


def verify_generator(
    system: SystemModel, generator, lam: float, E_list, n_points: int = 128
) -> GeneratorCheck:
    """Check the two shell conditions on each listed shell.

    Reports, per shell, the worst normalized defect of
    {xi, omega} = d(omega)/dlam over points at orbit times (k + 1/2)/n of
    the period, from the generator's gradient, and the normalized orbit
    average |<xi>|, as the mean of xi over the points (the midpoint rule on
    a periodic function).
    """
    if not hasattr(generator, "evaluate_grad_z"):
        raise DomainError(
            f"verify_generator needs a generator with phase-space gradients "
            f"(evaluate_grad_z); {type(generator).__name__} has none"
        )
    if n_points < 100:
        raise DomainError(f"need at least 100 points per shell, got {n_points}")
    lam = system.check_param(lam)
    shells = []
    for E in E_list:
        dOdE = d_volume_dE(system, E, lam)
        dOdlam = d_volume_dlam(system, E, lam)
        bracket_errs = []
        grad_scales = []
        xi_vals = []
        for q, p in _shell_sample_points(system, E, lam, n_points):
            grad_omega_lam = dOdlam + dOdE * system.grad_lambda((q, p), lam)
            gq, gp = generator.evaluate_grad_z((q, p), lam)
            hq, hp = system.grad_z((q, p), lam)
            bracket_errs.append(abs(dOdE * (gq * hp - gp * hq) - grad_omega_lam))
            grad_scales.append(abs(grad_omega_lam))
            xi_vals.append(generator.evaluate((q, p), lam))
        scale = max(max(grad_scales), 1e-300)
        bracket_residual = max(bracket_errs) / scale
        xi_scale = max(max(abs(v) for v in xi_vals), 1e-300)
        shells.append(
            {
                "E": float(E),
                "bracket_residual": float(bracket_residual),
                "average_residual": float(abs(np.mean(xi_vals)) / xi_scale),
            }
        )
    return GeneratorCheck(
        shells=shells,
        bracket_residual=max(s["bracket_residual"] for s in shells),
        average_residual=max(s["average_residual"] for s in shells),
    )


@dataclass(frozen=True)
class MapCheck:
    """Residual report from parametric_map_check."""

    dlam: float
    residual: float
    residual_half: float
    ratio: float


def parametric_map_check(
    system: SystemModel, generator, E: float, lam: float, dlam: float, n_points: int = 128
) -> MapCheck:
    """Displace shell points by the generator flow and re-measure the
    invariant at the shifted parameter.  The defect must shrink
    quadratically in dlam (the map is exact to first order)."""
    from .shells import adiabatic_invariant

    if not hasattr(generator, "evaluate_grad_z"):
        raise DomainError("map check needs a generator with phase-space gradients")

    def residual_at(d):
        if d == 0.0:
            return 0.0
        worst = 0.0
        for (q, p) in _shell_sample_points(system, E, lam, n_points):
            gq, gp = generator.evaluate_grad_z((q, p), lam)
            z2 = (q + d * gp, p - d * gq)
            w0 = adiabatic_invariant(system, (q, p), lam)
            w2 = adiabatic_invariant(system, z2, lam + d)
            worst = max(worst, abs(w2 - w0) / w0)
        return worst

    r = residual_at(dlam)
    rh = residual_at(0.5 * dlam)
    ratio = r / rh if rh > 0 else float("inf")
    return MapCheck(dlam=float(dlam), residual=r, residual_half=rh, ratio=ratio)
