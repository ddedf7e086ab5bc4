"""Nonlinear Robin traction problems via Newton iteration.

The residual of the augmented system in (mu, c) is robin's collocated
equation F at the nodes with the traction law as G (robin._equation), plus
the componentwise zero-mean constraint on mu.  Newton iterates the one
vector (mu, c); its residual and Jacobian product read mu, V mu + c, W* mu
and the integral of mu from one helper (robin._nodal_products), which
applies V and W* together by operators._products: from their stored form
(the coarse smooth kernel and the FFT node rules) where 4 Nc <= N, and by
their matrices' GEMV otherwise; at 4 Nc <= N no dense matrix is formed.

The Jacobian is the linear Robin matrix with the nodal blocks -dG in place of
a^{-1} b (robin.augmented_matrix).  Every Newton step, the first included,
solves J v = F by robin's two-grid GMRES (_TwoGrid.solve, which the linear
solve takes too, with K = a^{-1} b): GMRES on the matrix-free J (one
product of V and W* and the nodal -dG blocks per iteration),
right-preconditioned by a two-grid solve: the equation is second kind,
1/2 I plus a part whose smooth modes a coarse Galerkin Jacobian at
Nc = min(N, _COARSE_START) nodes carries.  At N <= _COARSE_START the
coarse grid is the fine one, the preconditioner is J^{-1} and GMRES takes
one iteration.  Per step that is an LU of size 2 Nc + 2 and at most 12
GMRES iterations on the curves measured (circles r = 0.25 and 0.45, an
ellipse), the same count at N = 128, 256 and 512, to GMRES_TOL of the
step's residual or GMRES_FLOOR of the first.  A step falls back to an LU
of the fine (2N + 2)-square J only when the coarse Jacobian fails the rank
screen below or GMRES misses GMRES_CAP iterations.

A numerically singular Jacobian (e.g. G independent of u with B = 0, leaving
c unconstrained) is refused by robin's one rule for dense systems (robin
module docstring).  A coarse Jacobian its screen cannot certify sends its
step to the fine LU, and only a fine J the screen cannot certify gets a
singular value decomposition, so a singular iterate is decided on the fine
J.  J is screened as assembled, not equilibrated: scaling its c columns to
unit size would hide the weak coupling G = h + eps u the rule must catch.
The coarse Jacobian's 1-norm condition estimate is the solve's
condition_estimate: it does not grow with N (1883 for a saturating law at
N = 64 to 512, where the fine J's grows as N^2) and still sees weak
coupling (8e7 for G = h + 1e-8 u).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError
from .operators import _COARSE_START
from .robin import (
    GMRES_FLOOR,
    GMRES_TOL,
    _equation,
    _full_rank_lu,
    _nodal_products,
    _operators,
    _solution_rep,
    _TwoGrid,
    augmented_matrix,
    timed,
)


@dataclass
class TractionModel:
    """Traction law G(x_i, u) evaluated on all nodes at once.

    fn(U) maps nodal values U of shape (N, 2) to G of shape (N, 2); jac(U)
    returns the nodal Jacobian blocks dG/du, shape (N, 2, 2).
    """

    fn: Callable
    jac: Callable


def affine_model(M, h, curve):
    """G(x_i, u) = M(x_i) u + h(x_i); M constant 2x2 or nodal (N, 2, 2)."""
    Mn = np.broadcast_to(np.asarray(M, dtype=float), (curve.N, 2, 2))
    hn = np.broadcast_to(np.asarray(h, dtype=float), (curve.N, 2))
    return TractionModel(
        fn=lambda U: np.einsum("nij,nj->ni", Mn, U) + hn,
        jac=lambda U: Mn,
    )


def saturating_model(h, kappa, curve):
    """G(x_i, u) = h(x_i) + kappa * u / (1 + |u|^2); bounded for all u."""
    hn = np.broadcast_to(np.asarray(h, dtype=float), (curve.N, 2))

    def fn(U):
        return hn + kappa * U / (1.0 + np.sum(U * U, axis=1))[:, None]

    def jac(U):
        s = (1.0 + np.sum(U * U, axis=1))[:, None, None]
        return kappa * (s * np.eye(2) - 2.0 * U[:, :, None] * U[:, None, :]) / (s * s)

    return TractionModel(fn=fn, jac=jac)


def solve_nonlinear_robin(
    model,
    B,
    curve,
    env,
    cell,
    plan,
    method="newton",
    max_iter=30,
    tol=1e-11,
    operators=None,
):
    """Newton-iterate the augmented residual to a SolutionRep with iteration trace.

    The iteration starts from mu = 0, c = 0.  method must be 'newton', the
    one iteration there is.  Each step starts in full and is halved (at most
    5 times) while the residual sup-norm would increase.  The iteration
    stops when the update's sup-norm is below tol * max(1, |mu|_inf,
    |c|_inf), so a large solution is not held to an absolute size its
    rounding cannot meet.
    Raises DegenerateProblemError on a rank-deficient Jacobian and
    ConvergenceError when max_iter steps do not meet tol.
    Each step costs a coarse LU of size 2 min(N, _COARSE_START) + 2 and a few
    GMRES iterations of one product of V and W* each; it falls back to a
    fine LU when the coarse Jacobian fails the rank screen or GMRES misses
    GMRES_CAP (module docstring).  diagnostics["krylov_iterations"] lists
    the GMRES iterations per step, 0 for a step the fine LU solved or whose
    residual was at the rounding floor already; ["condition_estimate"] is
    the coarse Jacobian's 1-norm estimate at the last step, certified or
    not; ["fine_factorizations"] counts the fallback's fine LUs and
    ["rank_checks"] those the screen left to the singular values.
    diagnostics["timings"] holds the seconds of the iteration and, when V
    and W* are not given, of their assembly; diagnostics["lattice_nodes_v"]
    and ["lattice_nodes_wstar"] are as in robin.solve_robin.
    """
    if method != "newton":
        raise ValueError(f"method must be 'newton', got {method!r}")
    N = curve.N
    B = np.asarray(B, dtype=float)
    timings = {}
    V, W = _operators(curve, env, cell, plan, operators, timings)

    def residual(x):
        """The residual at x = (node-major mu, c): F at the nodes, then the zero-mean rows."""
        mu, u, wmu, mean = _nodal_products((V, W), curve, x)
        F, U = _equation(mu, u, wmu, model.fn, B, curve, env, cell)
        return np.concatenate([F.reshape(-1), mean]), U

    # what the rank screen saw, reported in diagnostics
    screen = {"condition_estimate": np.nan, "rank_checks": 0, "fine_factorizations": 0}

    def fine_factors(K):
        """LU factors of the fine Jacobian; its singular values decide when the screen fails."""
        screen["fine_factorizations"] += 1
        factors, _, certified = _full_rank_lu(
            augmented_matrix(K, V, W, curve), "Newton Jacobian",
            "nothing constrains the additive constant; refusing to invent a solution",
        )
        screen["rank_checks"] += not certified
        return factors

    x = np.zeros(2 * N + 2)

    with timed(timings, "iteration"):
        res, U = residual(x)
        res_norm = np.max(np.abs(res))
        trace = [res_norm]
        krylov = []
        grid = _TwoGrid(V, W, curve, min(N, _COARSE_START))
        atol = GMRES_FLOOR * np.linalg.norm(res)

        def solve_step(U, res):
            """The Newton step J^{-1} res at U and its GMRES iterations."""
            K = -model.jac(U)
            step, iterations, screen["condition_estimate"] = grid.solve(
                K, res, max(GMRES_TOL * np.linalg.norm(res), atol))
            if step is None:
                step = sla.lu_solve(fine_factors(K), res)
            return step, iterations

        converged = False
        update_norm = np.inf
        for _ in range(max_iter):
            step, iterations = solve_step(U, res)
            krylov.append(iterations)
            lam = 1.0
            for _ in range(6):
                x_try = x - lam * step
                res_try, U_try = residual(x_try)
                if np.max(np.abs(res_try)) <= res_norm or lam <= 1.0 / 32.0:
                    break
                lam *= 0.5
            update_norm = lam * np.max(np.abs(step))
            x, res, U = x_try, res_try, U_try
            res_norm = np.max(np.abs(res))
            trace.append(res_norm)
            if update_norm < tol * max(1.0, np.max(np.abs(x))):
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"no convergence in {max_iter} Newton iterations "
            f"(last update {update_norm:.3e}, residual {res_norm:.3e}); "
            "existence is not guaranteed for this traction law",
            trace=trace,
        )

    diagnostics = {"iterations": len(trace) - 1, "residual_on_node": float(res_norm),
                   "trace": trace, "krylov_iterations": krylov, **screen}
    return _solution_rep(x, B, curve, (V.lattice_nodes, W.lattice_nodes), np.max(np.abs(U)),
                         diagnostics, timings)
