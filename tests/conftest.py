"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from lscat.linalg_core import eig_normal


@pytest.fixture
def eigh_calls(monkeypatch):
    """One entry per np.linalg.eigh call made from here on.

    It first solves an unrelated matrix, so eig_normal does not keep a
    matrix of an earlier test and a count does not depend on test order.
    """
    eig_normal(np.diag([1j, -1j]))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
