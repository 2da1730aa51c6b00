"""Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (visible with -s or on failure)."""

import pytest

from excalg import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda f: f.__name__
)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(result.line())
    assert result.passed, result.line()


def test_e8_full_jacobi():
    from excalg import magicsquare as ms
    from excalg.liealg import jacobi_check

    entry = ms.built_square_entry("o", "o")
    assert entry.checked == 248 ** 3
    report = jacobi_check(entry.algebra, "full")
    print(f"[{'PASS' if report.passed else 'FAIL'}] e8 exhaustive Jacobi "
          f"({report.checked} triples)")
    assert report.passed and report.checked == 248 ** 3
