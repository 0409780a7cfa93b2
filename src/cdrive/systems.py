"""Built-in one-dimensional systems and the phase-space point type.

Three kinds of system share one interface:

* ``box``        -- a particle between hard walls at q = 0 and q = lam,
                    free inside.  The control parameter is the box length.
* ``power_law``  -- V(q; lam) = epsilon * (q / lam)**b with b a positive
                    even integer; lam sets the well width.
* ``generic_1d`` -- a user-supplied confining potential V(q, lam), with
                    optional analytic derivatives (finite differences are
                    used when they are not given).

The control parameter lam is a plain positive float everywhere: every
built-in protocol drives a single parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

_FD_STEP = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (q, p) of the one-particle phase space."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise DomainError(f"phase point must be finite, got ({self.q}, {self.p})")


def as_qp(z) -> tuple[float, float]:
    """Accept a PhasePoint or a (q, p) pair and return plain floats."""
    if isinstance(z, PhasePoint):
        return z.q, z.p
    q, p = z
    return float(q), float(p)


@dataclass(frozen=True)
class SystemModel:
    """A 1D Hamiltonian H0(q, p; lam) = p^2 / 2m + V(q; lam).

    Use the :func:`box`, :func:`power_law` and :func:`generic_1d` factories
    rather than constructing this directly.
    """

    kind: str
    mass: float = 1.0
    b: Optional[int] = None
    epsilon: Optional[float] = None
    potential: Optional[Callable[[float, float], float]] = None
    dV_dq: Optional[Callable[[float, float], float]] = None
    dV_dlam: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if self.kind not in ("box", "power_law", "generic_1d"):
            raise DomainError(f"unknown system kind {self.kind!r}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.kind == "power_law":
            if self.b is None or self.b < 2 or self.b % 2 != 0:
                raise DomainError(
                    f"power_law exponent must be a positive even integer, got {self.b}"
                )
            if self.epsilon is None or self.epsilon <= 0:
                raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if self.kind == "generic_1d" and self.potential is None:
            raise DomainError("generic_1d requires a potential callable")

    # -- parameter/domain validation -------------------------------------

    def check_param(self, lam: float) -> float:
        lam = float(lam)
        if not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"control parameter must be positive, got {lam}")
        return lam

    def check_position(self, q: float, lam: float) -> None:
        if self.kind == "box" and not (0.0 <= q <= lam):
            raise DomainError(f"box position q={q} outside [0, {lam}]")

    @property
    def mu(self) -> float:
        """Dilation coefficient of the analytic generator: b/(b+2), 1 for the box."""
        if self.kind == "box":
            return 1.0
        if self.kind == "power_law":
            return self.b / (self.b + 2.0)
        raise DomainError("mu is only defined for box and power_law systems")

    # -- energies and gradients ------------------------------------------

    def potential_energy(self, q: float, lam: float) -> float:
        if self.kind == "box":
            self.check_position(q, lam)
            return 0.0
        if self.kind == "power_law":
            return self.epsilon * (q / lam) ** self.b
        return float(self.potential(q, lam))

    def energy(self, z, lam: float) -> float:
        """H0(z; lam)."""
        q, p = as_qp(z)
        return 0.5 * p * p / self.mass + self.potential_energy(q, lam)

    def grad_q(self, q: float, lam: float) -> float:
        """dV/dq.  Zero inside the box (walls carry the whole force)."""
        if self.kind == "box":
            self.check_position(q, lam)
            return 0.0
        if self.kind == "power_law":
            return self.epsilon * self.b * (q / lam) ** (self.b - 1) / lam
        if self.dV_dq is not None:
            return float(self.dV_dq(q, lam))
        h = _FD_STEP * max(1.0, abs(q))
        return (self.potential(q + h, lam) - self.potential(q - h, lam)) / (2 * h)

    def grad_z(self, z, lam: float) -> tuple[float, float]:
        """(dH0/dq, dH0/dp) at fixed lam."""
        q, p = as_qp(z)
        return self.grad_q(q, lam), p / self.mass

    def grad_lambda(self, z, lam: float) -> float:
        """dH0/dlam at fixed z.

        For the box this is zero at interior points: the parameter
        dependence sits entirely on the moving wall, and its shell average
        must be taken through the volume identity (see
        shells.shell_average_grad_lambda) rather than pointwise.
        """
        q, p = as_qp(z)
        if self.kind == "box":
            self.check_position(q, lam)
            return 0.0
        if self.kind == "power_law":
            return -self.b / lam * self.epsilon * (q / lam) ** self.b
        if self.dV_dlam is not None:
            return float(self.dV_dlam(q, lam))
        h = _FD_STEP * max(1.0, abs(lam))
        return (self.potential(q, lam + h) - self.potential(q, lam - h)) / (2 * h)


def _on_nodes(system: SystemModel, qs: np.ndarray, lam: float, d_lam: bool = False) -> np.ndarray:
    """V, or dV/dlam with d_lam, on the array qs: one array expression for the power law, one
    scalar call per node for generic wells (user callables may take scalars only), 0 in the box."""
    if system.kind == "box":
        return np.zeros(len(qs))
    if system.kind == "power_law":
        scale = -system.b / lam * system.epsilon if d_lam else system.epsilon
        return scale * (qs / lam) ** system.b
    if d_lam:
        return np.array([system.grad_lambda((q, 0.0), lam) for q in qs], dtype=float)
    return np.array([system.potential_energy(q, lam) for q in qs], dtype=float)


def box(mass: float = 1.0) -> SystemModel:
    """Hard walls at q = 0 and q = lam."""
    return SystemModel(kind="box", mass=mass)


def power_law(b: int, epsilon: float = 1.0, mass: float = 1.0) -> SystemModel:
    """V(q; lam) = epsilon * (q/lam)**b, b a positive even integer."""
    return SystemModel(kind="power_law", mass=mass, b=int(b), epsilon=float(epsilon))


def generic_1d(
    potential: Callable[[float, float], float],
    dV_dq: Optional[Callable[[float, float], float]] = None,
    dV_dlam: Optional[Callable[[float, float], float]] = None,
    mass: float = 1.0,
) -> SystemModel:
    """A user potential V(q, lam); missing derivatives fall back to central
    finite differences.  The potential must be confining and unimodal (one
    interior minimum); shell construction verifies this and rejects
    everything else."""
    return SystemModel(
        kind="generic_1d",
        mass=mass,
        potential=potential,
        dV_dq=dV_dq,
        dV_dlam=dV_dlam,
    )
