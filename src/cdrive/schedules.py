"""Parameter schedules lam(t) on [0, T] with analytic rates.

Built-ins: linear, smoothstep (3s^2 - 2s^3), cosine ramp, a constant hold,
and a tabulated schedule interpolated with a cubic spline (whose rate is the
spline derivative, so value and rate are consistent by construction).

value() and rate() accept scalars or numpy arrays; times are clamped to
[0, T] so integrators may probe the endpoints without fuss.  clock() gives
the scale-invariant time tau(t) = integral of lam^-2 that the exact box
engines run on: one table of it per schedule at fixed panel edges
(_clock_table), plus one partial-panel span, and the driven box inverts the
same table to time its wall hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Schedule:
    duration: float
    value: Callable
    rate: Callable
    tag: str = "custom"
    breaks: tuple = ()  # times where value() is only piecewise smooth, e.g. spline knots

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise DomainError(f"schedule duration must be positive, got {self.duration}")

    @property
    def initial(self) -> float:
        return float(self.value(0.0))

    @property
    def final(self) -> float:
        return float(self.value(self.duration))


def _fraction(t, duration):
    return np.clip(np.asarray(t, dtype=float) / duration, 0.0, 1.0)


def linear_ramp(lam0: float, lam1: float, duration: float) -> Schedule:
    span = lam1 - lam0

    def value(t):
        s = _fraction(t, duration)
        return lam0 + span * s

    def rate(t):
        s = _fraction(t, duration)
        return np.full_like(s, span / duration)

    return Schedule(duration, value, rate, "linear")


def smoothstep_ramp(lam0: float, lam1: float, duration: float) -> Schedule:
    """C^1 ramp with zero rate at both endpoints."""
    span = lam1 - lam0

    def value(t):
        s = _fraction(t, duration)
        return lam0 + span * s * s * (3.0 - 2.0 * s)

    def rate(t):
        s = _fraction(t, duration)
        return span * 6.0 * s * (1.0 - s) / duration

    return Schedule(duration, value, rate, "smoothstep")


def cosine_ramp(lam0: float, lam1: float, duration: float) -> Schedule:
    span = lam1 - lam0

    def value(t):
        s = _fraction(t, duration)
        return lam0 + span * 0.5 * (1.0 - np.cos(np.pi * s))

    def rate(t):
        s = _fraction(t, duration)
        return span * 0.5 * np.pi * np.sin(np.pi * s) / duration

    return Schedule(duration, value, rate, "cosine")


def constant_hold(lam: float, duration: float) -> Schedule:
    def value(t):
        return np.full_like(np.asarray(t, dtype=float), lam)

    def rate(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return Schedule(duration, value, rate, "constant")


def tabulated(times, values) -> Schedule:
    """Cubic-spline schedule through (times, values); times must start at 0,
    be strictly increasing, and the values positive, as must the spline at
    its interior minima, the roots of its derivative."""
    from scipy.interpolate import CubicSpline

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 2 or values.shape != times.shape:
        raise DomainError("tabulated schedule needs matching 1D times/values, length >= 2")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DomainError("tabulated times and values must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise DomainError("tabulated times must start at 0 and increase strictly")
    if np.any(values <= 0):
        raise DomainError("tabulated parameter values must be positive")
    spline = CubicSpline(times, values)
    deriv = spline.derivative()
    if np.any(spline(deriv.roots(extrapolate=False)) <= 0.0):
        raise DomainError("tabulated spline leaves the positive parameter range")
    duration = float(times[-1])

    def value(t):
        return spline(np.clip(t, 0.0, duration))

    def rate(t):
        return deriv(np.clip(t, 0.0, duration))

    return Schedule(duration, value, rate, "tabulated", tuple(times[1:-1].tolist()))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
# the clock table's panels are at most duration / 2048 wide, which holds the
# 4-point rule below 1e-12 of the integral; a tabulated spline's knots are
# panel edges, so no panel straddles a jump in its third derivative
_PANELS_PER_DURATION = 2048


def _positive_lam(schedule: Schedule, t) -> np.ndarray:
    """schedule.value at t, which must be positive there, else DomainError."""
    lams = np.asarray(schedule.value(t), dtype=float)
    if not np.all(lams > 0.0):  # NaN fails too
        raise DomainError("schedule leaves the positive parameter range")
    return lams


def _clock_span(schedule: Schedule, starts, ends) -> np.ndarray:
    """Integral of lam^-2 from each start to its end, by one 4-point
    Gauss-Legendre rule: exact past T, where lam holds at lam(T)."""
    h = 0.5 * (ends - starts)
    nodes = (starts + h)[..., None] + h[..., None] * _GL_NODES
    return h * (_positive_lam(schedule, nodes) ** -2.0 @ _GL_WEIGHTS)


def _clock_table(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """The panel edges on [0, T], schedule.breaks among them, and the clock
    at each edge, which clock() and the driven box's wall hits both read.  A
    break on a grid edge adds an empty panel, which no lookup lands in."""
    grid = np.linspace(0.0, schedule.duration, _PANELS_PER_DURATION + 1)
    edges = np.sort(np.concatenate((grid, schedule.breaks)))
    return edges, np.concatenate(([0.0], np.cumsum(_clock_span(schedule, edges[:-1], edges[1:]))))


def clock(schedule: Schedule, times) -> np.ndarray:
    """Scale-invariant clock tau(t) = integral_0^t lam(s)^-2 ds at sorted
    times: the table at the last edge at or before t, plus the span from
    there to t."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or not np.all(np.diff(np.concatenate(([0.0], ts))) >= 0.0):  # NaN fails too
        raise DomainError("clock times must be a sorted 1D array of nonnegative times")
    edges, taus = _clock_table(schedule)
    k = np.searchsorted(edges, ts, "right") - 1
    return taus[k] + _clock_span(schedule, edges[k], ts)


BUILTIN_SHAPES = {
    "linear": linear_ramp,
    "smoothstep": smoothstep_ramp,
    "cosine": cosine_ramp,
}


def check_rate_consistency(schedule: Schedule, n: int = 33, rtol: float = 1e-6) -> None:
    """Verify rate() against centered finite differences of value() at n
    interior times.  Raises DomainError on mismatch (used by config
    validation; built-ins satisfy it by construction)."""
    T = schedule.duration
    h = 1e-7 * T
    ts = np.linspace(h, T - h, n)
    fd = (np.asarray(schedule.value(ts + h)) - np.asarray(schedule.value(ts - h))) / (2 * h)
    an = np.asarray(schedule.rate(ts))
    scale = max(float(np.max(np.abs(an))), abs(schedule.final - schedule.initial) / T, 1e-12)
    err = float(np.max(np.abs(fd - an)))
    if err > rtol * scale:
        raise DomainError(
            f"schedule rate inconsistent with value: max |fd - rate| = {err:.3e} "
            f"exceeds {rtol:.1e} * {scale:.3e}"
        )
