from __future__ import annotations

import math

import numpy as np
import pytest

from scipy.integrate import quad

from cdrive import DomainError, constant_hold, cosine_ramp, linear_ramp, smoothstep_ramp, tabulated
from cdrive.schedules import Schedule, check_rate_consistency, clock


def test_endpoints_hit_exactly():
    for make in (linear_ramp, smoothstep_ramp, cosine_ramp):
        sched = make(1.0, 2.0, 0.05)
        assert sched.initial == pytest.approx(1.0, abs=1e-15)
        assert sched.final == pytest.approx(2.0, abs=1e-15)


def test_smoothstep_and_cosine_rates_vanish_at_ends():
    for make in (smoothstep_ramp, cosine_ramp):
        sched = make(1.0, 2.0, 0.3)
        assert float(sched.rate(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(sched.rate(0.3)) == pytest.approx(0.0, abs=1e-12)


def test_rates_consistent_with_values():
    for sched in (
        linear_ramp(1.0, 2.0, 0.05),
        smoothstep_ramp(1.0, 2.0, 0.05),
        cosine_ramp(2.0, 0.5, 1.7),
        constant_hold(1.5, 1.0),
        tabulated([0.0, 0.3, 0.7, 1.0], [1.0, 1.1, 1.6, 2.0]),
    ):
        check_rate_consistency(sched)


def test_inconsistent_rate_detected():
    base = linear_ramp(1.0, 2.0, 1.0)
    broken = Schedule(1.0, base.value, lambda t: 2.0 * np.asarray(base.rate(t)), tag="broken")
    with pytest.raises(DomainError):
        check_rate_consistency(broken)


def test_values_clamped_outside_window():
    sched = smoothstep_ramp(1.0, 2.0, 0.5)
    assert float(sched.value(-1.0)) == pytest.approx(1.0)
    assert float(sched.value(9.0)) == pytest.approx(2.0)


def test_vectorized_evaluation():
    sched = cosine_ramp(1.0, 2.0, 1.0)
    ts = np.linspace(0, 1, 11)
    vals = np.asarray(sched.value(ts))
    assert vals.shape == ts.shape
    assert np.all(np.diff(vals) >= 0)


def test_tabulated_validation():
    with pytest.raises(DomainError):
        tabulated([0.5, 1.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(DomainError):
        tabulated([0.0, 0.0, 1.0], [1.0, 1.5, 2.0])  # strictly increasing
    with pytest.raises(DomainError):
        tabulated([0.0, 1.0], [1.0, -2.0])  # positive values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulated_rejects_non_finite_entries(bad):
    # a DomainError before the spline is built, not scipy's untyped ValueError
    for times, values in (([0.0, bad, 1.0], [1.0, 1.5, 2.0]), ([0.0, 0.5, bad], [1.0, 1.5, 2.0]),
                          ([0.0, 0.5, 1.0], [1.0, bad, 2.0])):
        with pytest.raises(DomainError, match="tabulated times and values must be finite"):
            tabulated(times, values)


def test_tabulated_rejects_a_spline_that_dips_to_zero_between_knots():
    # every knot is positive, but the spline falls to -0.18 near t = 0.19
    # and t = 0.81
    with pytest.raises(DomainError, match="^tabulated spline leaves the positive parameter"):
        tabulated([0.0, 0.3, 0.5, 0.7, 1.0], [1.0, 0.05, 0.6, 0.05, 1.0])


def test_tabulated_takes_a_flat_spline():
    # its derivative vanishes on whole intervals, where the roots are NaN
    sched = tabulated([0.0, 0.5, 1.0], [1.2, 1.2, 1.2])
    np.testing.assert_array_equal(sched.value(np.linspace(0.0, 1.0, 5)), 1.2)


def test_duration_must_be_positive():
    with pytest.raises(DomainError):
        linear_ramp(1.0, 2.0, 0.0)


_KNOTS = np.linspace(0.0, 1.2, 9)


_CLOCK_SCHEDULES = [
    linear_ramp(1.0, 2.0, 0.05),
    smoothstep_ramp(2.0, 1.0, 0.3),
    cosine_ramp(1.0, 3.0, 1.7),
    constant_hold(1.5, 1.0),
    tabulated(_KNOTS, [1.0, 1.2, 1.1, 1.5, 1.9, 1.7, 2.2, 2.0, 2.4]),
]


@pytest.mark.parametrize("sched", _CLOCK_SCHEDULES, ids=lambda s: s.tag)
def test_clock_matches_adaptive_quadrature(sched):
    T = sched.duration
    knots = _KNOTS if sched.tag == "tabulated" else []
    # a tabulated schedule's knots are clock panel edges: read there too
    times = np.union1d(T * np.array([0.0, 1e-3, 0.13, 0.5, 0.77, 0.771, 1.0]), knots)

    def reference(t):
        # piecewise between spline knots, where the integrand is smooth
        cuts = [0.0, *(k for k in knots if 0.0 < k < t), t]
        return sum(quad(lambda s: float(sched.value(s)) ** -2.0, a, b,
                        epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))

    got = clock(sched, times)
    assert got[0] == 0.0
    for t, tau in zip(times[1:], got[1:]):
        ref = reference(t)
        assert abs(tau - ref) <= 1e-12 * ref


@pytest.mark.parametrize("sched", [_CLOCK_SCHEDULES[0], linear_ramp(1.0, 1e-3, 1.0),
                                   _CLOCK_SCHEDULES[-1]], ids=["expand", "compress", "tabulated"])
def test_clock_runs_on_past_T_at_the_final_lam(sched):
    # lam holds at lam(T) after T, so the clock gains s / L(T)^2 there to
    # rounding; brentq on the clock brackets wall hits out to 2T
    T = sched.duration
    for s in T * np.array([1e-9, 1e-3, 0.3, 1.0]):
        tau_T, tau = clock(sched, [T, T + s])
        gain = ((T + s) - T) / sched.final**2  # s as the sum T + s holds it
        assert abs((tau - tau_T) - gain) <= 2.0 * np.finfo(float).eps * tau


def test_clock_rejects_unsorted_times():
    sched = linear_ramp(1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        clock(sched, [0.0, 0.5, 0.2])
    with pytest.raises(DomainError):
        clock(sched, [-0.1, 0.5])
    for times in ([math.nan], [0.2, math.nan], [math.nan, 0.2]):  # NaN compares false
        with pytest.raises(DomainError):
            clock(sched, times)


@pytest.mark.parametrize("sched", [linear_ramp(1.0, -1.0, 1.0), constant_hold(0.0, 1.0),
                                   Schedule(1.0, lambda t: np.full_like(t, np.nan), None)],
                         ids=["crossing", "zero", "nan"])
def test_clock_rejects_a_schedule_leaving_positive_lam(sched):
    with pytest.raises(DomainError, match="^schedule leaves the positive parameter range$"):
        clock(sched, [0.25, 1.0])


def test_tabulated_schedule_breaks_at_its_interior_knots():
    # box_phase splits its quadrature there; smooth shapes have no breaks
    assert tabulated([0.0, 0.3, 0.7, 1.0], [1.0, 1.1, 1.6, 2.0]).breaks == (0.3, 0.7)
    assert tabulated([0.0, 1.0], [1.0, 2.0]).breaks == ()
    assert linear_ramp(1.0, 2.0, 1.0).breaks == ()
