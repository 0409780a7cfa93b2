"""Generator construction and verification tests.

Closed-form values here were checked against an independent orbit-average
oracle before being frozen into assertions.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import cdrive.shells as shells
from cdrive.errors import DomainError
from cdrive.generators import (
    AnalyticGenerator,
    NumericShellGenerator,
    _shell_sample_points,
    _shell_source,
    analytic_generator_for,
    box_generator,
    build_xi_numeric,
    parametric_map_check,
    power_law_generator,
    verify_generator,
)
from cdrive.shells import microcanonical_average, turning_points
from cdrive.systems import box, generic_1d, power_law

BOX = box()
SHO = power_law(2)
QUARTIC = power_law(4)


# ---------------------------------------------------------------------------
# analytic forms


def test_xi_box_shell_average_vanishes():
    gen = box_generator()
    avg = microcanonical_average(BOX, lambda z: gen.evaluate(z, 1.0), 2.0, 1.0)
    assert abs(avg) < 1e-12


def test_xi_power_law_large_b_approaches_box():
    v = power_law_generator(1000).evaluate((0.5, 2.0), 1.0)
    assert abs(v - box_generator().evaluate((0.5, 2.0), 1.0)) < 2.5e-3


def test_xi_power_law_rejects_bad_exponent():
    for b in (0, -2, 3, 5):
        with pytest.raises(DomainError):
            power_law_generator(b)


def test_power_law_rejects_a_non_integral_exponent():
    # int(b) once made power_law(4.5) the quartic, while power_law_generator(4.5) raised
    for b in (4.5, 2.000001, math.inf, math.nan):
        for factory in (power_law, power_law_generator):
            with pytest.raises(DomainError, match="^power_law exponent must be a positive even"):
                factory(b)
    assert type(power_law(4.0).b) is int and power_law(4.0) == QUARTIC
    assert power_law_generator(4.0).name == "power_law_dilation_b4"


def test_analytic_generator_for_dispatch():
    assert analytic_generator_for(BOX).name == "box_dilation"
    assert analytic_generator_for(QUARTIC).evaluate((1.0, 1.0), 1.0) == pytest.approx(
        2.0 / 3.0
    )
    # the dilation at the system's own mu, every kind and stiffness
    q, p, lam = 0.3, -1.7, 1.4
    for system in (BOX, SHO, QUARTIC, power_law(6, epsilon=2.0, mass=3.0)):
        gen = analytic_generator_for(system)
        assert gen.evaluate((q, p), lam) == system.mu * q * p / lam
        assert gen.evaluate_grad_z((q, p), lam) == (system.mu * p / lam, system.mu * q / lam)
    with pytest.raises(DomainError):
        analytic_generator_for(generic_1d(lambda q, lam: (q / lam) ** 2))


def test_box_exactness_identity_random_points():
    # {qp/L, 2|p|L} = 2|p| = d/dL (2|p|L), checked from the supplied gradients
    rng = np.random.default_rng(17)
    gen = box_generator()
    for _ in range(1000):
        lam = rng.uniform(0.5, 3.0)
        q = rng.uniform(0.0, lam)
        p = rng.uniform(-4.0, 4.0)
        if abs(p) < 1e-3:
            continue
        gq, gp = gen.evaluate_grad_z((q, p), lam)
        # invariant omega = 2|p|L: d/dq = 0, d/dp = 2L sign(p)
        bracket = gq * (2.0 * lam * math.copysign(1.0, p)) - gp * 0.0
        assert abs(bracket - 2.0 * abs(p)) < 1e-10
        assert abs(2.0 * abs(p) * lam / lam - 2.0 * abs(p)) < 1e-10


# ---------------------------------------------------------------------------
# numeric tables


def test_table_matches_harmonic_oracle():
    table = build_xi_numeric(SHO, 1.0, 1.0, n_samples=256)
    ref = 0.5 * table.qs * table.ps / 1.0
    assert np.max(np.abs(table.xis - ref)) < 1e-6
    assert table.closure_residual < 1e-8


def test_table_matches_quartic_oracle():
    table = build_xi_numeric(QUARTIC, 1.0, 1.0, n_samples=256)
    ref = (2.0 / 3.0) * table.qs * table.ps / 1.0
    assert np.max(np.abs(table.xis - ref)) < 1e-6
    assert table.closure_residual < 1e-8


def test_table_gauge_average_zero():
    for system in (SHO, QUARTIC):
        table = build_xi_numeric(system, 2.0, 1.5, n_samples=128)
        scale = np.max(np.abs(table.xis))
        assert abs(table.time_average()) < 1e-8 * scale


def test_table_on_generic_system():
    vee = generic_1d(
        lambda q, lam: (q / lam) ** 2,
        dV_dq=lambda q, lam: 2 * q / lam**2,
        dV_dlam=lambda q, lam: -2 * q**2 / lam**3,
    )
    table = build_xi_numeric(vee, 1.0, 1.0, n_samples=128)
    ref = 0.5 * table.qs * table.ps
    assert np.max(np.abs(table.xis - ref)) < 1e-6


def test_table_rejects_bad_inputs():
    with pytest.raises(DomainError):
        build_xi_numeric(SHO, 1.0, 1.0, n_samples=62)
    with pytest.raises(DomainError):
        build_xi_numeric(SHO, 1.0, 1.0, n_samples=65)
    with pytest.raises(DomainError):
        build_xi_numeric(BOX, 1.0, 1.0)


# ---------------------------------------------------------------------------
# verify_generator


def test_box_generator_residuals():
    report = verify_generator(BOX, box_generator(), 1.0, [0.5, 2.0, 8.0])
    assert report.bracket_residual < 1e-8
    assert report.average_residual < 1e-8


def test_power_law_family_residuals():
    for b in (2, 4, 6):
        system = power_law(b)
        report = verify_generator(
            system, power_law_generator(b), 1.0, [0.5, 1.0, 2.0], n_points=100
        )
        assert report.bracket_residual < 1e-8, f"b={b}"
        assert report.average_residual < 1e-8, f"b={b}"


def test_corrupted_coefficient_is_detected():
    def value(z, lam):
        q, p = z
        return 0.4 * q * p / lam

    def grad(z, lam):
        q, p = z
        return 0.4 * p / lam, 0.4 * q / lam

    bad = AnalyticGenerator(value, grad, name="corrupted")
    report = verify_generator(SHO, bad, 1.0, [1.0])
    assert report.bracket_residual > 1e-2


def test_energy_function_shift_moves_only_the_average():
    base = power_law_generator(2)

    def value(z, lam):
        return base.evaluate(z, lam) + 0.3 * SHO.energy(z, lam) ** 2

    def grad(z, lam):
        gq, gp = base.evaluate_grad_z(z, lam)
        hq, hp = SHO.grad_z(z, lam)
        fprime = 0.6 * SHO.energy(z, lam)
        return gq + fprime * hq, gp + fprime * hp

    shifted = AnalyticGenerator(value, grad, name="shifted")
    clean = verify_generator(SHO, base, 1.0, [1.0])
    dirty = verify_generator(SHO, shifted, 1.0, [1.0])
    assert dirty.bracket_residual < 1e-8
    assert abs(dirty.bracket_residual - clean.bracket_residual) < 1e-8
    assert clean.average_residual < 1e-8
    assert dirty.average_residual > 1e-3


def test_verify_rejects_tables():
    # a table is sampled along one orbit and has no phase-space gradient
    table = build_xi_numeric(SHO, 1.0, 1.0)
    with pytest.raises(DomainError, match="evaluate_grad_z"):
        verify_generator(SHO, table, 1.0, [1.0])


def test_verify_requires_enough_points():
    with pytest.raises(DomainError):
        verify_generator(BOX, box_generator(), 1.0, [1.0], n_points=50)


def _shifted(base, extra):
    """base generator with extra(z) added to its value; gradient unchanged."""
    return AnalyticGenerator(lambda z, lam: base.evaluate(z, lam) + extra(z), base.grad_fn,
                             name="shifted")


@pytest.mark.parametrize("system", [BOX, QUARTIC], ids=["box", "power_law4"])
def test_verify_average_catches_a_constant_gauge_error(system):
    # the orbit average is the mean over the uniform-time samples, so a
    # constant c reads back as |c| over the largest sampled |xi + c|
    c = 0.25
    gen = _shifted(analytic_generator_for(system), lambda z: c)
    for E in (0.5, 2.0):
        report = verify_generator(system, gen, 1.0, [E])
        pts = _shell_sample_points(system, E, 1.0, 128)
        xi_max = max(abs(gen.evaluate(z, 1.0)) for z in pts)
        assert report.average_residual == pytest.approx(c / xi_max, abs=1e-12), f"E={E}"


@pytest.mark.parametrize("b", [2, 4, 6])
def test_verify_sample_mean_matches_the_orbit_average(b):
    # midpoint rule in orbit time on a smooth periodic xi(t) against the
    # integrated orbit average; the sample points invert the orbit time to
    # rounding, and the average is adaptive quad to 1e-12, so a varying term
    # like q^2 agrees to 1e-11
    system = power_law(b)
    base = power_law_generator(b)
    for extra, rel in ((lambda z: 0.25, 1e-12), (lambda z: z[0] ** 2, 1e-11)):
        gen = _shifted(base, extra)
        for E in (0.5, 1.0, 2.0):
            report = verify_generator(system, gen, 1.0, [E])
            pts = _shell_sample_points(system, E, 1.0, 128)
            mean = report.average_residual * max(abs(gen.evaluate(z, 1.0)) for z in pts)
            avg = microcanonical_average(system, lambda z: gen.evaluate(z, 1.0), E, 1.0)
            assert mean == pytest.approx(avg, rel=rel), f"b={b} E={E}"


# ---------------------------------------------------------------------------
# parametric map


def test_map_check_box():
    report = parametric_map_check(BOX, box_generator(), 2.0, 1.0, 1e-3)
    assert report.residual < 5e-6
    assert 4.0 * 0.8 < report.ratio < 4.0 * 1.2


def test_map_check_zero_displacement():
    report = parametric_map_check(BOX, box_generator(), 2.0, 1.0, 0.0)
    assert report.residual == 0.0


def test_map_check_harmonic():
    report = parametric_map_check(SHO, power_law_generator(2), 1.0, 1.0, 1e-3)
    assert report.residual < 5e-6
    assert 4.0 * 0.8 < report.ratio < 4.0 * 1.2


def test_box_map_is_the_scaling_rectangle():
    # z -> z + dL {z, xi} sends (q, p) to (q(1+nu), p(1-nu)) with nu = dL/L
    gen = box_generator()
    lam, dlam = 1.0, 1e-3
    nu = dlam / lam
    for q, p in [(0.2, 2.0), (0.9, -2.0), (0.5, 2.0)]:
        gq, gp = gen.evaluate_grad_z((q, p), lam)
        q2, p2 = q + dlam * gp, p - dlam * gq
        assert q2 == pytest.approx(q * (1 + nu), rel=1e-14)
        assert p2 == pytest.approx(p * (1 - nu), rel=1e-14)


def test_map_check_needs_gradients():
    table = build_xi_numeric(SHO, 1.0, 1.0, n_samples=64)
    with pytest.raises(DomainError):
        parametric_map_check(SHO, table, 1.0, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# pointwise driving generator


def _power_law_probe_points(system, seed, n_random=32):
    """Random phase points, turning points at p = 0, and points 1e-3 inside
    each turning point on both momentum branches."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n_random:
        q, p = rng.uniform(-0.9, 0.9), rng.uniform(-1.2, 1.2)
        if system.energy((q, p), 1.0) > 0.05:
            pts.append((q, p))
    for E in (0.5, 2.0):
        qm, qp = turning_points(system, E, 1.0)
        for q_turn, q_in in ((qm, qm + 1e-3), (qp, qp - 1e-3)):
            pts.append((q_turn, 0.0))
            absp = math.sqrt(2.0 * (E - system.potential_energy(q_in, 1.0)))
            pts += [(q_in, absp), (q_in, -absp)]
    return pts


def _generic_quartic():
    # power_law(4) driven through the generic path: searched floor, bracketed
    # turning points, unimodality check
    return generic_1d(
        lambda q, lam: (q / lam) ** 4,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )


def test_generic_quartic_generator_matches_power_law():
    # grad xi takes its normal part as a central difference of xi with step
    # 1e-4 |z|, so xi agreeing to about 1e-12 bounds the gradient's agreement
    # near 1e-8 (seen: xi 9e-13, grad xi 2.3e-9)
    gen, ref = NumericShellGenerator(_generic_quartic()), NumericShellGenerator(QUARTIC)
    for q, p in _power_law_probe_points(QUARTIC, seed=29, n_random=12):
        for lam in (1.0, 1.3):
            assert abs(gen.evaluate((q, p), lam) - ref.evaluate((q, p), lam)) < 1e-9
            diff = np.subtract(gen.evaluate_grad_z((q, p), lam),
                               ref.evaluate_grad_z((q, p), lam))
            assert np.max(np.abs(diff)) < 1e-8, f"lam={lam} at ({q}, {p})"


def test_generic_floor_search_runs_once_per_lambda(monkeypatch):
    real = scipy.optimize.minimize_scalar
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", counted)
    gen = NumericShellGenerator(_generic_quartic())
    for lam in (1.0, 1.3, 1.0):
        for q, p in ((0.3, 0.8), (-0.5, 0.2), (0.1, -1.1)):
            gen.evaluate((q, p), lam)
            gen.evaluate_grad_z((q, p), lam)
    assert len(calls) == 2


def test_numeric_generator_tracks_analytic_values():
    for b in (2, 4, 6):
        system = power_law(b)
        gen, analytic = NumericShellGenerator(system), power_law_generator(b)
        for q, p in _power_law_probe_points(system, seed=9 + b):
            ref = analytic.evaluate((q, p), 1.0)
            assert abs(gen.evaluate((q, p), 1.0) - ref) < 1e-9, f"b={b} at ({q}, {p})"


def test_numeric_generator_at_turning_point_to_the_last_bit():
    # q+ - q rounds to 0 here, so the orbit angle must come from the momentum
    lam = 1.3
    for b in (4, 6):
        system = power_law(b)
        gen = NumericShellGenerator(system)
        analytic = analytic_generator_for(system)
        for q in turning_points(system, 1.0, lam):
            for p in (1.5e-8, -1.5e-8):
                ref = analytic.evaluate((q, p), lam)
                assert abs(gen.evaluate((q, p), lam) - ref) < 1e-9, f"b={b} at ({q}, {p})"


def _quartic_error_on_the_shell_scale(system):
    """Worst |xi - xi_b=4| of NumericShellGenerator(system) over the orbit,
    at the turning points and 1e-10 of the width inside them, in units of
    the shell's source scale (the bound on its half-orbit integral)."""
    gen, analytic = NumericShellGenerator(system), power_law_generator(4)
    worst = 0.0
    for lam in (1.0, 1.3, 2.0):
        for E in (0.3, 1.0, 3.0):
            qm, qp = turning_points(system, E, lam)
            scale = _shell_source(system, E, lam)[3]
            pts = [(qm, 1.5e-8), (qp, -1.5e-8), (qm, 0.0), (qp, 0.0)]
            for f in (1e-10, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9):
                for q in (qm + f * (qp - qm), qp - f * (qp - qm)):
                    absp = math.sqrt(2.0 * (E - system.potential_energy(q, lam)))
                    pts += [(q, absp), (q, -absp)]
            for q, p in pts:
                ref = analytic.evaluate((q, p), lam)
                worst = max(worst, abs(gen.evaluate((q, p), lam) - ref) / scale)
    return worst


def test_numeric_generator_error_on_the_shell_scale():
    # fixed-node sums keep the quad-level accuracy: within 2e-12 of the
    # shell's source scale everywhere on the orbit
    assert _quartic_error_on_the_shell_scale(QUARTIC) < 2e-12


def test_numeric_generator_quadrature_source_on_the_quartic():
    # the same quartic as a generic well takes its half period and
    # <dH0/dlam> from the orbit quadrature, with finite-difference
    # derivatives; it read 1.6e-11 of the source scale when written
    quartic = generic_1d(lambda q, lam: (q / lam) ** 4)
    assert _quartic_error_on_the_shell_scale(quartic) < 5e-11


@pytest.mark.parametrize("system, quadratures, moments", [
    (SHO, 2, 0), (QUARTIC, 2, 0), (power_law(6), 2, 0),
    (generic_1d(lambda q, lam: (q / lam) ** 4), 5, 3),
])
def test_numeric_gradient_orbit_quadrature_count(monkeypatch, system, quadratures, moments):
    # a gradient is one shell source and two evaluations, each a source and
    # one partial orbit; the scale law gives a power-law source with no
    # quadrature, a generic source is one _orbit_moments pair
    import cdrive.generators as generators

    calls = {"quadrature": 0, "moments": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (shells, generators):
        counting(module, "_orbit_quadrature", "quadrature")
    counting(shells, "_orbit_moments", "moments")
    gen = NumericShellGenerator(system)
    qm, qp = turning_points(system, 1.0, 1.3)
    q = qm + 0.3 * (qp - qm)
    p = -math.sqrt(2.0 * (1.0 - system.potential_energy(q, 1.3)))
    gen.evaluate_grad_z((q, p), 1.3)
    assert calls == {"quadrature": quadratures, "moments": moments}


@pytest.mark.parametrize("b", [2, 4, 6])
def test_power_law_shell_source_is_the_scale_law(b):
    system = power_law(b)
    for lam in (1.0, 1.3, 2.0):
        for E in (0.3, 1.0, 3.0):
            assert _shell_source(system, E, lam)[2] == shells.shell_average_grad_lambda(
                system, E, lam)


def test_numeric_generator_gradients():
    for b in (2, 4, 6):
        system = power_law(b)
        gen = NumericShellGenerator(system)
        mu = b / (b + 2.0)
        for q, p in _power_law_probe_points(system, seed=19 + b):
            gq, gp = gen.evaluate_grad_z((q, p), 1.0)
            scale = max(abs(mu * p), abs(mu * q), 1e-3)
            assert abs(gq - mu * p) < 1e-6 * scale, f"b={b} dq at ({q}, {p})"
            assert abs(gp - mu * q) < 1e-6 * scale, f"b={b} dp at ({q}, {p})"


def test_numeric_generator_matches_orbit_table_on_generic_well():
    # no closed form here: the ODE-built table is the independent oracle
    well = generic_1d(
        lambda q, lam: (q / lam) ** 4 + 0.3 * q * q,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4 + 0.6 * q,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )
    table = build_xi_numeric(well, 1.0, 1.1, n_samples=128)
    gen = NumericShellGenerator(well)
    for q, p, xi in zip(table.qs, table.ps, table.xis):
        assert abs(gen.evaluate((q, p), 1.1) - xi) < 1e-9, f"at ({q}, {p})"


def test_numeric_generator_rejects_box():
    with pytest.raises(DomainError):
        NumericShellGenerator(BOX)


def _quartic_plus_quadratic():
    return generic_1d(
        lambda q, lam: (q / lam) ** 4 + 0.3 * q * q,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4 + 0.6 * q,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )


def test_numeric_generator_runs_without_quad(monkeypatch):
    # the smooth-well orbit integrals are fixed-node sums: quad is never called
    def refuse(*args, **kwargs):
        raise AssertionError("quad called on the smooth-well orbit path")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for system in (QUARTIC, _quartic_plus_quadratic()):
        gen = NumericShellGenerator(system)
        for q, p in ((0.3, 0.8), (-0.5, 0.2), (0.1, -1.1)):
            assert all(map(math.isfinite, gen.evaluate_grad_z((q, p), 1.2)))


def _sunken_quartic(depth):
    # q^4 / lam^4 - depth: the floor sits at -depth, below zero for depth > 0
    return generic_1d(
        lambda q, lam: (q / lam) ** 4 - depth,
        dV_dq=lambda q, lam: 4 * q**3 / lam**4,
        dV_dlam=lambda q, lam: -4 * q**4 / lam**5,
    )


def test_well_with_floor_below_zero_matches_the_raised_well():
    # V = q^4 - 1 at energy E is V = q^4 at E + 1: every shell quantity built
    # from the kinetic energy E - V must agree
    low, high = _sunken_quartic(1.0), _sunken_quartic(0.0)
    gen_low, gen_high = NumericShellGenerator(low), NumericShellGenerator(high)
    for q, p in ((0.3, 0.5), (-0.7, 0.1), (0.9, -0.4), (0.0, 1e-3)):
        for lam in (1.0, 1.3):
            assert low.energy((q, p), lam) < 0.0
            assert gen_low.evaluate((q, p), lam) == pytest.approx(
                gen_high.evaluate((q, p), lam), abs=1e-12)
            if q == 0.0:
                # a shell 5e-7 above a floor at -1 keeps 9 digits of E - V,
                # too few for the central difference across it
                continue
            diff = np.subtract(gen_low.evaluate_grad_z((q, p), lam),
                               gen_high.evaluate_grad_z((q, p), lam))
            assert np.max(np.abs(diff)) < 1e-8, f"lam={lam} at ({q}, {p})"
    for E in (-0.5, 0.5):
        assert shells.shell_average_grad_lambda(low, E, 1.2) == pytest.approx(
            shells.shell_average_grad_lambda(high, E + 1.0, 1.2), rel=1e-12)
        table_low = build_xi_numeric(low, E, 1.2, n_samples=128)
        table_high = build_xi_numeric(high, E + 1.0, 1.2, n_samples=128)
        assert np.max(np.abs(table_low.xis - table_high.xis)) < 1e-10
