from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

import cdrive.shells as shells
from cdrive import (
    DomainError,
    NumericalError,
    adiabatic_invariant,
    box,
    energy_shell,
    generic_1d,
    grad_shell_energy,
    microcanonical_average,
    orbit_period,
    phase_volume,
    power_law,
    power_law_coefficient,
    shell_average_grad_lambda,
    shell_energy_from_volume,
    turning_points,
)
from cdrive.shells import d_volume_dE, d_volume_dlam
from cdrive.systems import SystemModel
from oracles import orbit_average

BOX = box()
SHO = power_law(b=2)
QUARTIC = power_law(b=4)
# masses other than 1 and a scaled quartic: a scale-law constant that dropped
# m or epsilon still passes on the unit systems
MASSIVE = [box(mass=0.5), box(mass=3.0), power_law(4, epsilon=1.5, mass=2.0)]


def _scaled_quartic():
    # same well as power_law(b=4) but driven through the generic machinery
    return generic_1d(
        potential=lambda q, lam: (q / lam) ** 4,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )


# the generic test well q^4/4 + lam q^2/2
_SOFT_QUARTIC = generic_1d(lambda q, lam: 0.25 * q**4 + 0.5 * lam * q * q,
                           dV_dq=lambda q, lam: q**3 + lam * q,
                           dV_dlam=lambda q, lam: 0.5 * q * q)


# ---------------------------------------------------------------------------
# phase volume


def test_box_volume_value():
    assert phase_volume(BOX, E=2.0, lam=1.0) == pytest.approx(4.0, abs=1e-12)


def test_power_law_volume_is_ellipse_area():
    assert phase_volume(SHO, E=1.0, lam=1.0) == pytest.approx(
        math.pi * math.sqrt(2), rel=1e-12
    )


def test_generic_matches_power_law_closed_form():
    sys_g = generic_1d(potential=lambda q, lam: q * q, dV_dq=lambda q, lam: 2 * q)
    val = phase_volume(sys_g, E=1.0, lam=1.0)
    assert val == pytest.approx(math.pi * math.sqrt(2), abs=1e-9)


# routes to the shell quantities that do not use the scale law: the box's
# flat interior, the orbit quadrature of smooth wells, and central differences


def _volume_route(system, E, lam):
    if system.kind == "box":  # the momentum width times the length
        return 2.0 * lam * math.sqrt(2.0 * system.mass * E)
    return shells._volume_quadrature(system, E, lam)


def _period_route(system, E, lam):
    if system.kind == "box":  # twice the length over the speed
        return 2.0 * system.mass * lam / math.sqrt(2.0 * system.mass * E)
    return shells._period_quadrature(system, E, lam)


def _fd_dE(system, E, lam):
    h = max(1e-6 * abs(E), 1e-9)
    return (_volume_route(system, E + h, lam) - _volume_route(system, E - h, lam)) / (2 * h)


def _fd_dlam(system, E, lam):
    h = 1e-5 * lam
    return (_volume_route(system, E, lam + h) - _volume_route(system, E, lam - h)) / (2 * h)


_SCALE_LAW_QUANTITIES = ("volume", "period", "d_volume_dE", "energy", "d_volume_dlam",
                         "grad_shell_energy")


def _scale_law_misses(system, E, lam):
    # the scale-law quantities at (E, lam) that miss their flat-interior,
    # quadrature or finite-difference route, in _SCALE_LAW_QUANTITIES order
    om = _volume_route(system, E, lam)
    dlam = _fd_dlam(system, E, lam)
    dE = _fd_dE(system, E, lam)
    checks = {
        "volume": (phase_volume(system, E, lam), om, 1e-8),
        "period": (orbit_period(system, E, lam), _period_route(system, E, lam), 1e-8),
        "d_volume_dE": (d_volume_dE(system, E, lam), dE, 2e-6),
        "energy": (shell_energy_from_volume(system, om, lam), E, 1e-9),
        "d_volume_dlam": (d_volume_dlam(system, E, lam), dlam, 1e-6),
        "grad_shell_energy": (grad_shell_energy(system, om, lam), -dlam / dE, 1e-5),
    }
    return [name for name, (val, ref, rtol) in checks.items() if abs(val - ref) > rtol * abs(ref)]


def test_quadrature_route_agrees_with_closed_forms():
    cases = [(BOX, 2.0, 1.0), (BOX, 0.7, 2.5), (SHO, 1.3, 0.8), (QUARTIC, 2.2, 1.7)]
    for system, E, lam in cases + [(system, 1.3, 0.8) for system in MASSIVE]:
        assert _scale_law_misses(system, E, lam) == [], (system, E, lam)


@pytest.mark.parametrize("wrong, systems", [
    (lambda system, c: 1.01 * c, MASSIVE),
    (lambda system, c: c / math.sqrt(system.mass), MASSIVE[:2]),  # the box's c without m
], ids=["c_times_1.01", "box_c_without_m"])
def test_scale_law_checks_catch_a_wrong_constant(monkeypatch, wrong, systems):
    scaling = shells._scaling
    monkeypatch.setattr(shells, "_scaling", lambda s: (wrong(s, scaling(s)[0]), scaling(s)[1]))
    for system in systems:
        assert _scale_law_misses(system, 1.3, 0.8) == list(_SCALE_LAW_QUANTITIES), system


def test_power_law_coefficient_against_quadrature():
    # footnote prefactor re-derived from the raw area integral at E = 1, lam = 1
    for b in (2, 4, 6):
        system = power_law(b=b)
        c = power_law_coefficient(system)
        assert shells._volume_quadrature(system, 1.0, 1.0) == pytest.approx(c, rel=1e-10)


def test_volume_monotone_in_energy():
    rng = np.random.default_rng(7)
    systems = [BOX, SHO, QUARTIC, _scaled_quartic()]
    for system in systems:
        for _ in range(20):
            e1, e2 = sorted(rng.uniform(0.1, 5.0, size=2))
            if e2 - e1 < 1e-3:
                continue
            lam = rng.uniform(0.5, 2.0)
            assert phase_volume(system, e1, lam) < phase_volume(system, e2, lam)


def test_volume_rejects_bad_energy():
    with pytest.raises(DomainError):
        phase_volume(BOX, E=-1.0, lam=1.0)
    with pytest.raises(DomainError):
        phase_volume(SHO, E=0.0, lam=1.0)


@pytest.mark.parametrize("system", [box(), power_law(4)], ids=["box", "quartic"])
@pytest.mark.parametrize("E", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_scale_law_rejects_bad_energy(system, E):
    # phase_volume's DomainError on every scale-law quantity, not math.pow's
    # bare ValueError, nor a nan, 0 or inf from a shell with no volume
    why = "exceed the potential floor 0" if math.isfinite(E) else "be finite"
    for fn in (phase_volume, orbit_period, d_volume_dE, d_volume_dlam,
               shell_average_grad_lambda, _average_of_unity):
        with pytest.raises(DomainError, match=f"^shell energy must {why}, got {E}$"):
            fn(system, E, 1.0)


def _average_of_unity(system, E, lam):
    return microcanonical_average(system, lambda z: 1.0, E, lam)


@pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
def test_generic_shell_rejects_non_finite_energy(E):
    for fn in (turning_points, phase_volume, orbit_period, d_volume_dlam,
               shell_average_grad_lambda, _average_of_unity):
        with pytest.raises(DomainError, match=f"^shell energy must be finite, got {E}$"):
            fn(_scaled_quartic(), E, 1.0)


def test_double_well_rejected():
    double = generic_1d(potential=lambda q, lam: (q * q - 1.0) ** 2 / lam)
    with pytest.raises(DomainError):
        phase_volume(double, E=0.5, lam=1.0)


def test_unbounded_potential_rejected():
    runaway = generic_1d(potential=lambda q, lam: -(q * q) / lam)
    with pytest.raises(DomainError):
        phase_volume(runaway, E=1.0, lam=1.0)


# ---------------------------------------------------------------------------
# adiabatic invariant


def test_box_invariant_value():
    assert adiabatic_invariant(BOX, (0.3, -1.5), lam=2.0) == pytest.approx(6.0, abs=1e-12)


def test_invariant_is_volume_at_point_energy():
    z = (0.0, math.sqrt(2.0))
    val = adiabatic_invariant(QUARTIC, z, lam=1.0)
    assert val == pytest.approx(power_law_coefficient(QUARTIC), rel=1e-12)
    # cross-check the footnote prefactor against raw quadrature on this shell
    assert val == pytest.approx(shells._volume_quadrature(QUARTIC, 1.0, 1.0), rel=1e-10)


def test_invariant_composition_random_points():
    rng = np.random.default_rng(11)
    for system in (SHO, QUARTIC):
        for _ in range(20):
            q, p = rng.uniform(-0.9, 0.9), rng.uniform(-2, 2)
            lam = rng.uniform(0.6, 1.8)
            E = system.energy((q, p), lam)
            if E < 1e-3:
                continue
            assert adiabatic_invariant(system, (q, p), lam) == pytest.approx(
                phase_volume(system, E, lam), rel=1e-12
            )


def test_box_invariant_requires_point_inside():
    with pytest.raises(DomainError):
        adiabatic_invariant(BOX, (1.5, 1.0), lam=1.0)


# ---------------------------------------------------------------------------
# shell energy from volume


def test_box_energy_from_volume():
    assert shell_energy_from_volume(BOX, omega=4.0, lam=1.0) == pytest.approx(2.0, abs=1e-12)


def test_power_law_energy_from_volume():
    assert shell_energy_from_volume(SHO, omega=math.pi * math.sqrt(2), lam=1.0) == pytest.approx(
        1.0, rel=1e-12
    )


def test_generic_quartic_energy_roundtrip():
    sys_g = generic_1d(potential=lambda q, lam: q**4, dV_dq=lambda q, lam: 4 * q**3)
    E = shell_energy_from_volume(sys_g, omega=3.0, lam=1.0)
    # frozen from the independent footnote/quadrature oracle
    assert E == pytest.approx(0.5136891586036, abs=1e-9)
    assert phase_volume(sys_g, E, 1.0) == pytest.approx(3.0, abs=1e-10)


def test_energy_volume_roundtrip_random():
    rng = np.random.default_rng(3)
    for system in (BOX, SHO, QUARTIC, _scaled_quartic(), *MASSIVE):
        for _ in range(20):
            E = rng.uniform(0.2, 4.0)
            lam = rng.uniform(0.5, 2.0)
            om = phase_volume(system, E, lam)
            back = shell_energy_from_volume(system, om, lam)
            assert abs(back - E) <= 1e-9 * E


def test_energy_from_volume_rejects_nonpositive():
    with pytest.raises(DomainError):
        shell_energy_from_volume(BOX, omega=-1.0, lam=1.0)


# ---------------------------------------------------------------------------
# microcanonical averages


def test_box_grad_lambda_average():
    assert shell_average_grad_lambda(BOX, E=2.0, lam=1.0) == pytest.approx(-4.0, rel=1e-12)


def test_average_of_unity():
    for system in (SHO, QUARTIC):
        assert _average_of_unity(system, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert _average_of_unity(BOX, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_power_law_grad_lambda_average():
    system = SHO
    val = microcanonical_average(system, lambda z: system.grad_lambda(z, 1.0), E=1.0, lam=1.0)
    assert val == pytest.approx(-1.0, abs=1e-9)


_OBSERVABLES = {
    "kinked": lambda z: abs(z[0] - 0.123456),  # a kink no bisection point hits
    "even": lambda z: z[0] ** 2 + 0.3 * z[1] ** 2,
    "mixed": lambda z: math.cos(z[0]) * z[1] ** 2 + z[0] * z[1],
}


@pytest.mark.parametrize("system, b", [(_scaled_quartic(), 4), (SHO, 2), (QUARTIC, 4)],
                         ids=["scaled_quartic", "power_law2", "power_law4"])
@pytest.mark.parametrize("name", list(_OBSERVABLES))
def test_average_matches_the_orbit_oracle(system, b, name):
    # the DOP853 orbit integration of tests/oracles.py, whose period comes
    # from its own turning-point event; V = (q/lam)^b puts q+ at lam E^(1/b)
    for E, lam in ((1.4, 1.2), (0.3, 0.7), (5.0, 1.6)):
        val = microcanonical_average(system, _OBSERVABLES[name], E, lam)
        ref = orbit_average(system, _OBSERVABLES[name], lam, lam * E ** (1.0 / b))
        assert val == pytest.approx(ref, rel=1e-9), f"E={E} lam={lam}"


def test_box_average_of_a_kinked_observable():
    # uniform in q on [0, lam]: <|q - c|> = (c^2 + (lam - c)^2) / (2 lam)
    for c, lam in ((0.123456, 1.2), (0.3, 1.0), (1.7, 2.5)):
        val = microcanonical_average(box(mass=0.5), lambda z: abs(z[0] - c), 1.3, lam)
        assert val == pytest.approx((c * c + (lam - c) ** 2) / (2.0 * lam), rel=1e-12)


@pytest.mark.parametrize("system", [SHO, QUARTIC, power_law(6), MASSIVE[2]],
                         ids=["b2", "b4", "b6", "b4_massive"])
def test_power_law_average_obeys_the_virial_theorem(system):
    # for V ~ q^b, 2 <p^2/2m> = b <V>, with <p^2/2m> + <V> = E
    b, m = system.b, system.mass
    for E, lam in ((1.0, 1.0), (0.3, 0.7), (5.0, 1.6)):
        kinetic = microcanonical_average(system, lambda z: 0.5 * z[1] ** 2 / m, E, lam)
        potential = microcanonical_average(system, lambda z: system.potential_energy(z[0], lam),
                                           E, lam)
        assert kinetic == pytest.approx(b * E / (b + 2.0), rel=1e-12), f"E={E} lam={lam}"
        assert potential == pytest.approx(2.0 * E / (b + 2.0), rel=1e-12), f"E={E} lam={lam}"


def test_odd_momentum_observable_averages_to_zero():
    val = microcanonical_average(SHO, lambda z: z[0] * z[1], E=1.0, lam=1.0)
    assert abs(val) < 1e-10


# ---------------------------------------------------------------------------
# shell-energy gradient and the volume identity


def test_box_grad_shell_energy():
    assert grad_shell_energy(BOX, omega=4.0, lam=1.0) == pytest.approx(-4.0, rel=1e-12)


def test_box_grad_closed_form_any_volume():
    rng = np.random.default_rng(5)
    for _ in range(10):
        om = rng.uniform(1.0, 8.0)
        lam = rng.uniform(0.5, 2.0)
        E = shell_energy_from_volume(BOX, om, lam)
        assert grad_shell_energy(BOX, om, lam) == pytest.approx(-2 * E / lam, rel=1e-12)


def test_generic_gradient_matches_power_law():
    lam, E = 1.3, 0.9
    om = phase_volume(QUARTIC, E, lam)
    analytic = grad_shell_energy(QUARTIC, om, lam)
    numeric = grad_shell_energy(_scaled_quartic(), om, lam)
    assert analytic == pytest.approx(-2 * QUARTIC.mu * E / lam, rel=1e-12)
    assert numeric == pytest.approx(analytic, rel=1e-6)


def test_cyclic_identity_all_kinds():
    # -dOmega/dlam / dOmega/dE == shell average of dH0/dlam, within 1e-6
    cases = [
        (BOX, 2.0, 1.0),
        (SHO, 1.0, 1.0),
        (QUARTIC, 1.7, 0.9),
        (_scaled_quartic(), 1.1, 1.4),
    ]
    for system, E, lam in cases:
        lhs = -_fd_dlam(system, E, lam) / _fd_dE(system, E, lam)
        rhs = shell_average_grad_lambda(system, E, lam)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1e-12), (system.kind, lhs, rhs)


@pytest.mark.parametrize("system", [_scaled_quartic(), _SOFT_QUARTIC, generic_1d(
    lambda q, lam: (q / lam) ** 4, dV_dlam=lambda q, lam: -4 * q**4 / lam**5, mass=2.0)],
    ids=["scaled_quartic", "soft_quartic", "massive"])
def test_generic_grad_shell_energy_matches_the_volume_differences(system):
    # dE/dlam at fixed Omega against -(dOmega/dlam) / (dOmega/dE) by central differences
    for om, lam in ((3.0, 1.0), (0.8, 1.4)):
        E = shell_energy_from_volume(system, om, lam)
        ref = -_fd_dlam(system, E, lam) / _fd_dE(system, E, lam)
        assert abs(grad_shell_energy(system, om, lam) - ref) <= 1e-6 * abs(ref), (om, lam)


def _grad_lambda_misses(system, E, lam):
    # the scale-law <dH0/dlam> against the orbit quadrature of the pointwise
    # gradient (power law) or the flat-interior volume differences (box)
    if system.kind == "box":
        ref, rtol = -_fd_dlam(system, E, lam) / _fd_dE(system, E, lam), 1e-6
    else:
        half_tau, moment = shells._orbit_moments(system, E, lam, *turning_points(system, E, lam))
        ref, rtol = moment / half_tau, 1e-12
    return abs(shell_average_grad_lambda(system, E, lam) - ref) > rtol * abs(ref)


_GRAD_LAMBDA_CASES = [(BOX, 2.0, 1.0), (SHO, 1.0, 1.0), (QUARTIC, 1.7, 0.9),
                      (power_law(6), 0.4, 1.3), *((system, 1.3, 0.8) for system in MASSIVE)]


def test_scale_law_grad_lambda_average_matches_independent_routes():
    assert [case for case in _GRAD_LAMBDA_CASES if _grad_lambda_misses(*case)] == []


def test_scale_law_grad_lambda_checks_catch_a_wrong_mu(monkeypatch):
    mu = SystemModel.mu.fget
    monkeypatch.setattr(SystemModel, "mu", property(lambda system: 1.01 * mu(system)))
    assert all(_grad_lambda_misses(*case) for case in _GRAD_LAMBDA_CASES)


def test_numeric_route_matches_closed_forms():
    cases = [(BOX, 4.0, 1.0), (SHO, 3.0, 1.2)] + [(system, 3.0, 1.2) for system in MASSIVE]
    for system, om, lam in cases:
        E = shell_energy_from_volume(system, om, lam)
        n = -_fd_dlam(system, E, lam) / _fd_dE(system, E, lam)
        assert n == pytest.approx(grad_shell_energy(system, om, lam), rel=1e-5)


# ---------------------------------------------------------------------------
# period and shell container


def test_period_identity_dvolume_de():
    # dOmega/dE equals the orbit period (checked against a central difference)
    for system, E, lam in [(SHO, 1.0, 1.0), (QUARTIC, 0.8, 1.1), (_scaled_quartic(), 1.3, 0.7)]:
        tau = orbit_period(system, E, lam)
        fd = _fd_dE(system, E, lam)
        assert tau == pytest.approx(fd, rel=2e-6)


def test_sho_period_value():
    # harmonic well: angular frequency sqrt(2 eps / m) / lam, independent of E
    assert orbit_period(SHO, 1.0, 1.0) == pytest.approx(2 * math.pi / math.sqrt(2), rel=1e-12)
    assert orbit_period(SHO, 2.7, 1.0) == pytest.approx(2 * math.pi / math.sqrt(2), rel=1e-12)


def test_box_period_value():
    assert orbit_period(BOX, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_turning_points_power_law():
    qm, qp = turning_points(QUARTIC, E=1.0, lam=2.0)
    assert qp == pytest.approx(2.0, rel=1e-12)
    assert qm == pytest.approx(-2.0, rel=1e-12)


def test_generic_floor_cache_is_thread_safe():
    # the floor cache is shared by the CLI's pool threads: more threads than
    # cores, switching often, must see the turning points a lone caller sees
    lams = [1.0 + 0.05 * k for k in range(8)]
    expected = [turning_points(_scaled_quartic(), 0.7, lam) for lam in lams]
    system = _scaled_quartic()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda: [turning_points(system, 0.7, lam) for lam in lams])
                       for _ in range(12)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)


def test_energy_shell_container():
    shell = energy_shell(SHO, E=1.0, lam=1.0)
    assert shell.volume == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)
    assert shell.period == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)
    assert shell.q_plus == pytest.approx(1.0, rel=1e-10)
    box_shell = energy_shell(BOX, E=2.0, lam=1.0)
    assert box_shell.q_minus is None and box_shell.period == pytest.approx(1.0)


def test_soft_wall_limit_approaches_box():
    # a very steep even well looks like a box of width 2*lam
    steep = power_law(b=30)
    om = phase_volume(steep, E=1.0, lam=0.5)
    assert om == pytest.approx(2.0 * math.sqrt(2.0) * 1.0, rel=0.1)


_STEEP_B = (400, 800, 1600)


def _steep_wells_converge_to(box_volume) -> bool:
    # half the volume of a power-law well of width 2 lam has relative gap
    # ~ [ln(E / eps) + psi(1) - psi(3/2)] / b from the box volume: below 2/b,
    # and halving within 5% per doubling of b
    for E, lam in ((2.0, 1.0), (0.7, 2.5)):
        gaps = [shells._volume_quadrature(power_law(b), E, lam) / 2.0
                / box_volume(E, lam) - 1.0 for b in _STEEP_B]
        if not all(abs(g) < 2.0 / b for g, b in zip(gaps, _STEEP_B)):
            return False
        if not all(abs(g1 / g0 - 0.5) < 0.025 for g0, g1 in zip(gaps, gaps[1:])):
            return False
    return True


def test_box_volume_is_the_steep_power_law_limit():
    # checks the box constant independently of its own closed form
    assert _steep_wells_converge_to(lambda E, lam: _volume_route(BOX, E, lam))
    assert not _steep_wells_converge_to(lambda E, lam: 1.01 * _volume_route(BOX, E, lam))


# ---------------------------------------------------------------------------
# fixed-node orbit quadrature


@pytest.mark.parametrize("b", [2, 4, 6])
def test_orbit_quadrature_matches_power_law_closed_forms(b):
    system = power_law(b)
    for E in (0.1, 1.0, 10.0):
        for lam in (0.5, 1.0, 2.0):
            where = f"b={b} E={E} lam={lam}"
            volume = shells._volume_quadrature(system, E, lam)
            assert volume == pytest.approx(phase_volume(system, E, lam), rel=1e-12), where
            period = shells._period_quadrature(system, E, lam)
            assert period == pytest.approx(orbit_period(system, E, lam), rel=1e-12), where
            assert not _grad_lambda_misses(system, E, lam), where


def _ramp_well(delta):
    # q^2/2 plus a unit-slope ramp switched on over a width delta around
    # q = 1/2: convex, so unimodal, and nearly kinked for small delta
    return generic_1d(
        lambda q, lam: 0.5 * (q / lam) ** 2 + 0.5 * (math.hypot(q - 0.5, delta) + q - 0.5),
        dV_dlam=lambda q, lam: -q * q / lam**3,
    )


def _volume_oracle(system, E, lam, corner):
    # adaptive quadrature in q with the ramp's corner as a breakpoint
    qm, qp = turning_points(system, E, lam)
    width = quad(lambda q: math.sqrt(2.0 * max(E - system.potential_energy(q, lam), 0.0)),
                 qm, qp, points=[corner], limit=500, epsabs=0.0, epsrel=1e-13)[0]
    return 2.0 * width


def test_orbit_quadrature_bisects_a_feature_the_fixed_rule_misses(monkeypatch):
    well = _ramp_well(0.02)
    with monkeypatch.context() as patch:
        patch.setattr(shells, "_BISECT_DEPTH", 0)
        with pytest.raises(NumericalError):
            phase_volume(well, 2.0, 1.0)
    assert phase_volume(well, 2.0, 1.0) == pytest.approx(
        _volume_oracle(well, 2.0, 1.0, 0.5), rel=1e-12)


def test_orbit_quadrature_raises_past_the_bisection_depth():
    with pytest.raises(NumericalError, match="did not converge"):
        phase_volume(_ramp_well(1e-7), 2.0, 1.0)


# ---------------------------------------------------------------------------
# orbit states by inverting the orbit time


_EPS = np.finfo(float).eps


def _fractions(seed, n=300):
    # uniform fractions plus some within 1e-9 of 0, 1/2 and 1, and the ends themselves
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.0, 1e-9, (4, 10)) * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    return np.concatenate([rng.uniform(0.0, 1.0, n), near[0], 0.5 + near[1], 0.5 + near[2],
                           1.0 + near[3], [0.0, 0.25, 0.5, 0.75, 1.0]])


def _exact_q(b, E, lam, t):
    # V = (q/lam)^b, m = 1: A cos(wt) with w = sqrt(2)/lam for b = 2, and
    # A cn(2 E^(1/4) t / lam | 1/2) for b = 4
    from scipy.special import ellipj

    A = lam * E ** (1.0 / b)
    if b == 2:
        return A * np.cos(math.sqrt(2.0) / lam * t)
    return A * ellipj(2.0 * E**0.25 / lam * t, 0.5)[1]


@pytest.mark.parametrize("b", [2, 4])
def test_orbit_states_match_the_exact_orbits(b):
    system = power_law(b)
    for E in (0.3, 1.3, 7.0):
        for lam in (0.7, 1.0, 1.3):
            f = _fractions(b)
            q, p = shells.orbit_states(system, E, lam, f)
            q_exact = _exact_q(b, E, lam, f * orbit_period(system, E, lam))
            width = 2.0 * lam * E ** (1.0 / b)
            assert np.max(np.abs(q - q_exact)) <= 2e-12 * width, f"E={E} lam={lam}"
            H = 0.5 * p * p + (q / lam) ** b
            assert np.max(np.abs(H - E)) <= 4.0 * _EPS * E, f"E={E} lam={lam}"
            assert np.all(p[f < 0.5] <= 0.0) and np.all(p[f > 0.5] >= 0.0)


def _ramp_force(q, lam, delta=0.02):
    return q / lam**2 + 0.5 * ((q - 0.5) / math.hypot(q - 0.5, delta) + 1.0)


def test_orbit_states_across_quadrature_panels():
    # the ramp well makes the quadrature bisect into panels; the states must
    # follow an orbit integrated tightly from q+ with the exact force
    from scipy.integrate import solve_ivp

    well, E, lam = _ramp_well(0.02), 2.0, 1.0
    panels = []
    qm, qp = turning_points(well, E, lam)
    shells._orbit_quadrature(well, E, lam, qm, qp, lambda q, absp: 1.0 / absp, panels=panels)
    assert len(panels) > 1
    f = _fractions(7)
    q, p = shells.orbit_states(well, E, lam, f)
    order = np.argsort(f)
    tau = orbit_period(well, E, lam)
    ref = solve_ivp(lambda t, y: [y[1], -_ramp_force(y[0], lam)], (0.0, tau), [qp, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-14, t_eval=f[order] * tau)
    # the reference itself misses by about 1e-12 of the width
    assert np.max(np.abs(q[order] - ref.y[0])) <= 1e-11 * (qp - qm)
    H = np.array([well.energy(z, lam) for z in zip(q, p)])
    assert np.max(np.abs(H - E)) <= 4.0 * _EPS * E


@pytest.mark.parametrize("system", [QUARTIC, _SOFT_QUARTIC], ids=["power_law4", "generic"])
def test_orbit_states_do_not_depend_on_their_companions(system):
    f = _fractions(3)
    q, p = shells.orbit_states(system, 1.3, 1.2, f)
    for k in range(0, len(f), 7):
        q1, p1 = shells.orbit_states(system, 1.3, 1.2, [f[k]])
        assert q1[0] == q[k] and p1[0] == p[k], f"f={f[k]!r}"
    q_rev, p_rev = shells.orbit_states(system, 1.3, 1.2, f[::-1])
    assert np.array_equal(q_rev[::-1], q) and np.array_equal(p_rev[::-1], p)


@pytest.mark.parametrize("system", [QUARTIC, _SOFT_QUARTIC], ids=["power_law4", "generic"])
def test_orbit_states_mirror_under_time_reversal(system):
    # q(tau - t) = q(t) and p(tau - t) = -p(t), exactly for every f in [1/2, 1],
    # whose 1 - f is exact
    f = np.concatenate([np.random.default_rng(4).uniform(0.5, 1.0, 300),
                        [0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0]])
    q, p = shells.orbit_states(system, 2.0, 0.8, f)
    q_back, p_back = shells.orbit_states(system, 2.0, 0.8, 1.0 - f)
    assert np.array_equal(q_back, q) and np.array_equal(p_back, -p)


@pytest.mark.parametrize("system", [QUARTIC, _SOFT_QUARTIC, _ramp_well(0.02)],
                         ids=["power_law4", "generic", "asymmetric"])
def test_orbit_states_edges(system):
    # on the asymmetric well q- + (q+ - q-) rounds away from q+ at E = 1
    qm, qp = turning_points(system, 1.0, 1.0)
    q, p = shells.orbit_states(system, 1.0, 1.0, [0.0, 1.0, 0.5])
    assert list(q) == [qp, qp, qm] and list(p) == [0.0, 0.0, 0.0]
    q, p = shells.orbit_states(system, 1.0, 1.0, [])
    assert q.shape == p.shape == (0,)
    for bad in ([-0.1], [1.0 + 1e-15], [float("nan")], [0.3, float("inf")], [-float("inf")]):
        with pytest.raises(DomainError, match="orbit fractions"):
            shells.orbit_states(system, 1.0, 1.0, bad)


def test_orbit_states_raise_when_the_inversion_fails(monkeypatch):
    # a half period three times too long puts targets past the tabulated orbit
    real = shells._orbit_quadrature
    monkeypatch.setattr(shells, "_orbit_quadrature",
                        lambda *args, **kwargs: 3.0 * real(*args, **kwargs))
    with pytest.raises(NumericalError, match="did not converge"):
        shells.orbit_states(QUARTIC, 1.0, 1.0, [0.2])
