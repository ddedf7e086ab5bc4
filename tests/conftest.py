import os

import pytest
import scipy.linalg as sla

import perilame


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src first on sys.path, ahead of
    # PYTHONPATH; the header shows which package tree the run tests
    return f"perilame imported from {os.path.dirname(perilame.__file__)}"


@pytest.fixture
def svdvals_calls(monkeypatch):
    """Count the singular value decompositions the solvers run (shapes, in call order)."""
    return count_svdvals(monkeypatch)


def count_svdvals(monkeypatch):
    """The shapes of the singular value decompositions run from now on, in call order."""
    calls, svdvals = [], sla.svdvals

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(sla, "svdvals", counted)
    return calls
