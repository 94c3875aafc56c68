"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from lscat.linalg_core import eig_normal


def _counting(monkeypatch, name: str) -> list:
    """The positional arguments of each call of np.linalg.<name> made from here on."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of each np.linalg.eigh call made from here on.

    It first solves an unrelated matrix, so eig_normal does not keep a
    matrix of an earlier test and a count does not depend on test order.
    """
    eig_normal(np.diag([1j, -1j]))
    return _counting(monkeypatch, "eigh")


@pytest.fixture
def det_calls(monkeypatch):
    """The arguments of each np.linalg.det call made from here on."""
    return _counting(monkeypatch, "det")
