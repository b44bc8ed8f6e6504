"""Fixtures shared by the tests of forked workers."""

import os

import pytest

from lschains import invariants


@pytest.fixture
def four_cpus(monkeypatch):
    # a cpu count of 4 lets workers=2 or 3 fork on any runner
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("LSCHAINS_MAX_WORKERS", raising=False)


@pytest.fixture
def forking(four_cpus, monkeypatch):
    # and a share load of 1 forks even the smallest sweep
    monkeypatch.setattr(invariants, "_SHARE_LOAD", 1)
