"""Both Robin solvers against their own output frozen in tests/fixtures/solutions.json.

The fixture and the problem it solves are described in
tests/fixtures/generate_solutions.py.
"""

import json

import numpy as np
import pytest

from fixtures.generate_solutions import NODES, PATH, solutions


@pytest.mark.parametrize("N", NODES)
def test_solvers_reproduce_their_frozen_solutions(N):
    # the linear solve is the fine LU at N = 128 and two-grid GMRES at 256;
    # Newton takes the two-grid at both
    with open(PATH, encoding="utf-8") as fh:
        frozen = json.load(fh)[str(N)]
    reps = solutions(N)
    assert reps["linear"].diagnostics["fine_factorizations"] == (N == 128)
    for solver, rep in reps.items():
        mu, c = np.array(frozen[solver]["mu"]), np.array(frozen[solver]["c"])
        assert np.max(np.abs(rep.mu.values - mu)) <= 1e-13 * np.max(np.abs(mu)), solver
        assert np.max(np.abs(rep.c - c)) <= 1e-13 * np.max(np.abs(c)), solver
