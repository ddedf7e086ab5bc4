"""Named mutants of the package, each with the check that must catch it.

A mutant is one monkeypatch of perilame.  Its check passes on the package as
it is and fails, by an AssertionError, with the mutant in place.
"""

import dataclasses

import numpy as np
import pytest

import perilame.operators as operators
from test_operators import products_agree_with_matrices


def drop_the_kress_rule_from_v(monkeypatch):
    """V's factored form is built without its Kress log rule (the identity unit is V's)."""
    factored = operators._Factored

    def mutant(*args):
        form = factored(*args)
        if np.array_equal(form.unit, np.eye(2)):
            form = dataclasses.replace(form, multiplier=np.zeros_like(form.multiplier))
        return form

    monkeypatch.setattr(operators, "_Factored", mutant)


def adjoint_by_injection(monkeypatch):
    """P^T (w mu) taken by injection, (N/Nc) (w mu)[::N/Nc], from the modes of w mu."""

    def mutant(F, Nc):
        N = 2 * (F.shape[-1] - 1)
        return (N / Nc) * np.fft.irfft(F, n=N)[..., ::N // Nc]

    monkeypatch.setattr(operators, "_coarse_values", mutant)


# name: (mutant, check); the agreement of V's and W*'s products with their
# matrices on the benchmark's circle at N = 512, where both are factored
MUTANTS = {
    "kress-rule-dropped-from-v": (drop_the_kress_rule_from_v,
                                  lambda: products_agree_with_matrices("circle")),
    "adjoint-by-injection": (adjoint_by_injection,
                             lambda: products_agree_with_matrices("circle")),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_check_catches_its_mutant(monkeypatch, name):
    mutate, check = MUTANTS[name]
    check()
    with monkeypatch.context() as patched:
        mutate(patched)
        with pytest.raises(AssertionError):
            check()
