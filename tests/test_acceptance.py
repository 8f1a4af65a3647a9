"""Acceptance gate: every criterion runs as one test and prints its verdict.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion, or `mcrsp verify` for the same suite outside pytest.
"""
from dataclasses import replace

import pytest

from mcrsp import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA,
    ids=[f"{c.number:02d}-{c.name}" for c in acceptance.CRITERIA])
def test_criterion(criterion):
    result = acceptance.run_criterion(criterion)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.number:2d} {result.name}: {result.detail}")
    assert result.passed, (
        f"criterion {result.number} ({result.name}) failed: {result.detail}")


def test_criteria_are_numbered_in_order():
    assert [c.number for c in acceptance.CRITERIA] == list(range(1, 12))


def test_ccc_check_catches_a_missing_controller_bit(monkeypatch):
    enumerate_branches = acceptance.enumerate_branches

    def one_bit_short(*args, **kwargs):
        report = enumerate_branches(*args, **kwargs)
        return replace(report, controllers=report.controllers[:, :-1])

    monkeypatch.setattr(acceptance, "enumerate_branches", one_bit_short)
    passed, detail = acceptance.CRITERIA[5].func()
    assert not passed
    assert detail.startswith("mismatched message bits at [(0, 1),")


def test_printed_sums_add_left_to_right():
    """Criteria 3 and 4 print deviations of sums, so they add left to right
    on every Python; from 3.12 sum() compensates and gives 1 + 2**-52 here."""
    values = [1.0, 2.0 ** -53, 2.0 ** -53]
    assert acceptance._running_sum(values) == 1.0
    assert acceptance._running_sum(iter(values)) == 1.0
    assert acceptance._running_sum([]) == 0.0
