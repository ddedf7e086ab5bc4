"""Named mutants of the package, each with the checks that must catch it.

A mutant is one monkeypatch of perilame.  Each of its checks passes on the
package as it is and fails, by an AssertionError, with the mutant in place.
"""

import copy

import numpy as np
import pytest

import perilame.robin as robin
import perilame.operators as operators
from perilame.cell import CircleShape, discretize_curve
from perilame.lattice import plan_lattice_sum
from perilame.operators import assemble_single_layer, assemble_wstar
from perilame.verify import run_property_suite
from test_nonlinear import ENV1, UNIT, coarse_jacobian_is_galerkin
from test_operators import (
    matrices_are_the_eager_formula,
    products_agree_with_matrices,
    prolonged_products_agree_with_products,
)
from test_robin import two_grid_solve_agrees_with_the_lu


def drop_the_kress_rule_from_v(monkeypatch):
    """V is assembled with a zero Kress log rule column (the identity unit is V's)."""
    one_form = operators.DenseBoundaryOperator

    def mutant(kernel, curve, column, scale, unit):
        if np.array_equal(unit, np.eye(2)):
            column = np.zeros_like(column)
        return one_form(kernel, curve, column, scale, unit)

    monkeypatch.setattr(operators, "DenseBoundaryOperator", mutant)


def adjoint_by_injection(monkeypatch):
    """P^T (w mu) taken by injection, (N/Nc) (w mu)[::N/Nc], from the modes of w mu."""

    def mutant(F, Nc):
        N = 2 * (F.shape[-1] - 1)
        return (N / Nc) * np.fft.irfft(F, n=N)[..., ::N // Nc]

    monkeypatch.setattr(operators, "_coarse_values", mutant)


def c_columns_by_injection(monkeypatch):
    """The coarse Jacobian's c columns take -dG at every (N/Nc)-th node, not R(-dG)."""

    def mutant(self, K):
        m = 2 * self.Nc
        Jc = np.empty((m + 2, m + 2), order="F")
        Jc[:m, :m] = self.base
        Jc[:m, :m] += self._restrict_rows(np.einsum("nij,njm->nim", K, self.VP))
        Jc[:m, m:] = K[::self.N // self.Nc].reshape(m, 2)
        Jc[m:] = self.mean_rows
        return robin._screened_lu(Jc)

    monkeypatch.setattr(robin._TwoGrid, "factor", mutant)


def set_up_without_weights(monkeypatch):
    """The two-grid set-up's M = P_A^T diag(w) P taken without the weights, as P_A^T P."""
    prolonged = operators._prolonged_products

    def mutant(op, Nc, rows=None):
        unweighted = copy.copy(op)
        (w, sp), multipliers = op._fft_factors
        unweighted.__dict__["_fft_factors"] = (np.stack([np.ones_like(w), sp]), multipliers)
        return prolonged(unweighted, Nc, rows)

    monkeypatch.setattr(operators, "_prolonged_products", mutant)


def linear_solve_stops_at_gmres_tol(monkeypatch):
    """The linear solve's GMRES stops at GMRES_TOL |b|_2, Newton's relative stop."""
    monkeypatch.setattr(robin, "GMRES_FLOOR", robin.GMRES_TOL)


def property_passes(name):
    """Asserts that the registry property passes at seed 0."""
    (report,) = run_property_suite([name], seed=0)
    assert report.passed, (report.name, report.max_error)


def coarse_jacobian_at_128():
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    plan = plan_lattice_sum(UNIT, ENV1, 1e-11)
    coarse_jacobian_is_galerkin(curve, assemble_single_layer(curve, ENV1, UNIT, plan),
                                assemble_wstar(curve, ENV1, UNIT, plan))


# name: (mutant, checks).  The benchmark's circle at N = 512 has V and W*
# applied by FFT (4 Nc <= N): the FFT products against the matrices, and
# the matrices against the eager formula.  nonlinear-manufactured runs
# Newton there; the Galerkin check is test_coarse_jacobian_is_galerkin[128].
# The set-up's products are pinned to _products on the P x I columns on
# circle-tol-1e-13 (V's and W*'s Nc 128, the two-grid's 64), and the linear
# solve's stop by the ellipse at N = 512, where GMRES takes 10 iterations
MUTANTS = {
    "kress-rule-dropped-from-v": (drop_the_kress_rule_from_v,
                                  (lambda: matrices_are_the_eager_formula("circle"),
                                   lambda: property_passes("nonlinear-manufactured"))),
    "adjoint-by-injection": (adjoint_by_injection,
                             (lambda: products_agree_with_matrices("circle"),)),
    "c-columns-by-injection": (c_columns_by_injection, (coarse_jacobian_at_128,)),
    "set-up-without-weights": (set_up_without_weights,
                               (lambda: prolonged_products_agree_with_products(
                                   "circle-tol-1e-13"),)),
    "linear-solve-stops-at-gmres-tol": (linear_solve_stops_at_gmres_tol,
                                        (lambda: two_grid_solve_agrees_with_the_lu("ellipse"),)),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_check_catches_its_mutant(monkeypatch, name):
    mutate, checks = MUTANTS[name]
    for check in checks:
        check()
    with monkeypatch.context() as patched:
        mutate(patched)
        for check in checks:
            with pytest.raises(AssertionError):
                check()
