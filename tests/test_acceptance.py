"""The acceptance gate: one pass/fail line per numbered criterion.

Run with -s (or read the failure message) to see each line:

    criterion {number}: {PASS|FAIL} - {name}: {detail}
"""

from __future__ import annotations

import pytest

from dss_alloc import ConfigurationError, acceptance


def _check(number: int) -> None:
    (result,) = acceptance.run_all([number])
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number}: {status} - {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_1_closed_forms_match_the_general_formula():
    _check(1)


def test_criterion_2_memoryless_service_always_favors_minimal_spreading():
    _check(2)


def test_criterion_3_threshold_anchors_take_their_reference_values():
    _check(3)


def test_criterion_4_reference_curve_extrema_are_exact():
    _check(4)


def test_criterion_5_certificates_are_sound_against_exhaustive_search():
    _check(5)


def test_criterion_6_small_file_argmax_bracket_holds():
    _check(6)


def test_criterion_7_simulation_panel_agrees_with_the_analysis():
    _check(7)


def test_criterion_8_rate_bounds_sandwich_every_conditional_rate():
    _check(8)


def test_criterion_9_outputs_are_byte_stable():
    _check(9)


@pytest.mark.parametrize("only", [[], [True], [3.0]], ids=str)
def test_run_all_rejects_an_empty_or_non_integer_selection(only):
    # an empty selection would pass having run nothing, and True is not criterion 1
    with pytest.raises(ConfigurationError):
        acceptance.run_all(only)
