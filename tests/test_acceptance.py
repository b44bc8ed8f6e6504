"""Acceptance gate: every shipped criterion runs here at its default bound.

Each test prints the one-line PASS/FAIL summary for its criterion, so
`pytest -sv tests/test_acceptance.py` reads as a checklist.
"""

import json
from pathlib import Path

import pytest

from lschains.acceptance import CRITERIA, DEFAULT_BOUNDS, run_all, run_criterion
from lschains.errors import InputError

CRITERION_NAMES = list(CRITERIA)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "accept_reference.json"


def test_every_criterion_is_covered_here():
    # parametrization below must track the shipped list exactly
    assert CRITERION_NAMES == [
        "oracle-equivalence",
        "ls-chain-sanity",
        "so-to-sp",
        "spin-to-sp",
        "g2-self",
        "f4-self",
        "chain-transport",
        "frobenius-scaling",
        "saturation-bc",
        "renorm-validate",
    ]


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(name):
    result = run_criterion(name, bound=DEFAULT_BOUNDS[name])
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == json.loads(REFERENCE.read_text())["full"][name]


def test_run_all_validates_configuration():
    with pytest.raises(InputError):
        run_all({"no-such-criterion": 1})
    with pytest.raises(InputError):
        run_criterion("oracle-equivalence", bound=-1)
    with pytest.raises(InputError):
        run_criterion("not-a-criterion")


def test_zero_bounds_are_vacuous_but_run():
    results = run_all({name: 0 for name in CRITERION_NAMES})
    assert [r.name for r in results] == CRITERION_NAMES
    assert all(r.passed for r in results)
