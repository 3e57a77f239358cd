"""One test per acceptance criterion.

Each test prints its own PASS or FAIL line with the measured time so the
verbose run reads as a checklist; the assertion carries the detail text.
"""

import pytest

from enrlat import acceptance
from enrlat.acceptance import SUITES, criterion_numbers, format_result, load_fixtures, run_criterion
from enrlat.errors import NotFound


FIXTURES = load_fixtures()


def _check(number):
    result = run_criterion(number, FIXTURES)
    print(format_result(result))
    assert result.ok, result.detail
    return result


def test_criterion_01_rank_two_tables():
    _check(1)


def test_criterion_02_full_label_sweeps():
    _check(2)


def test_criterion_03_parity_on_norm_two_mod_four():
    _check(3)


def test_criterion_04_isometries_preserve_parity():
    _check(4)


def test_criterion_05_complements_twice_even():
    _check(5)


def test_criterion_06_milgram_matches_signature():
    _check(6)


def test_criterion_07_enumeration_oracles():
    _check(7)


def test_criterion_08_existence_on_realized_forms():
    _check(8)


def test_criterion_09_odd_prime_descent():
    _check(9)


def test_criterion_10_transfer_round_trip():
    _check(10)


def test_criterion_11_ray_orders_and_reports():
    _check(11)


def test_criterion_12_character_bounds():
    _check(12)


def test_suites_cover_all_criteria_once():
    seen = []
    for numbers in SUITES.values():
        seen.extend(numbers)
    assert sorted(seen) == list(criterion_numbers())


def test_domain_error_reports_fail(monkeypatch):
    def raises(fixtures):
        raise NotFound("nothing here")

    monkeypatch.setitem(acceptance._CRITERIA, 3, ("raises NotFound", raises, 1.0))
    result = run_criterion(3, FIXTURES)
    assert result.ok is False
    assert result.detail == "NotFound: nothing here"
