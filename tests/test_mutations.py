"""Mutation register: each row is a site in the program, a small
perturbation of what it returns and the check that must catch it.

Every row runs in-process: the perturbation is installed with monkeypatch
and the check is the test function itself, called on each of its cases, or
once if it takes none.  A row holds when the check passes on every case
unperturbed and fails on every case perturbed.  Rows name private functions
and properties, so a refactor that moves a site updates its row.
"""

from __future__ import annotations

import functools

import pytest

import cdrive.classical as classical
import cdrive.schedules as schedules
import test_classical
import test_schedules
from cdrive.systems import SystemModel


def _scaled_table(table):
    # the clock at every table edge, as the driven box's wall hits read it
    def scaled(schedule):
        edges, taus = table(schedule)
        return edges, taus * (1.0 + 1e-9)
    return scaled


def _scaled_span(span):
    def scaled(schedule, starts, ends):
        return span(schedule, starts, ends) * (1.0 + 1e-9)
    return scaled


def _scaled_mu(mu):
    return property(lambda system: mu.fget(system) * 1.01)


# row id -> (module or class, site, perturbation of the site, check, cases or
# None for a check that takes no case)
_ROWS = {
    "engine-clock-table": (classical, "_clock_table", _scaled_table,
                           test_classical.test_cd_box_hits_match_the_clock_oracle,
                           [case.values[0] for case in test_classical._HIT_SCHEDULES]),
    "public-clock-span": (schedules, "_clock_span", _scaled_span,
                          test_schedules.test_clock_matches_adaptive_quadrature,
                          test_schedules._CLOCK_SCHEDULES),
    # the analytic generators read mu from the system, so no second copy hides the change
    "system-mu": (SystemModel, "mu", _scaled_mu, test_classical.test_cd_power_law_drift, None),
}


def _calls(check, cases):
    return [check] if cases is None else [functools.partial(check, case) for case in cases]


@pytest.mark.parametrize("row", _ROWS)
def test_check_passes_unperturbed(row):
    _, _, _, check, cases = _ROWS[row]
    for call in _calls(check, cases):
        call()


@pytest.mark.parametrize("row", _ROWS)
def test_check_fails_on_every_case_under_its_perturbation(row, monkeypatch):
    module, site, perturb, check, cases = _ROWS[row]
    monkeypatch.setattr(module, site, perturb(getattr(module, site)))
    for call in _calls(check, cases):
        with pytest.raises(AssertionError):
            call()
