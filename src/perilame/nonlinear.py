"""Nonlinear Robin traction problems via Newton iteration.

The residual of the augmented system in (mu, c) is robin's collocated
equation F at the nodes with the traction law as G (robin._equation), plus
the componentwise zero-mean constraint on mu.  Newton iterates the one
vector (mu, c); its residual reads mu, V mu + c, W* mu and the integral of
mu from one helper (robin._nodal_products), which applies V and W* together
by operators._products: from their stored form (the coarse smooth kernel
and the FFT node rules) where 4 Nc <= N, and by their matrices' GEMV
otherwise; at 4 Nc <= N no dense matrix is formed.

The Jacobian is the linear Robin system's with the nodal blocks -dG in place
of a^{-1} b (robin.augmented_matrix).  Every step solves J v = F through
robin's one augmented solve, _AugmentedSolver, by two-grid GMRES at every N
with the fine LU as its fallback; the robin module docstring describes the
two-grid, its rank screen and its condition estimate.  A numerically
singular Jacobian (e.g. G independent of u with B = 0, leaving c
unconstrained) is refused by robin's one rule for dense systems.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .robin import (
    GMRES_FLOOR,
    GMRES_TOL,
    _AugmentedSolver,
    _equation,
    _nodal_products,
    _operators,
    _solution_rep,
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
    Each step is one solve of robin._AugmentedSolver (robin's module
    docstring), a coarse LU of size 2 min(N, _COARSE_START) + 2 and a few
    GMRES iterations of one product of V and W* each, or the fine LU it
    falls back to.  diagnostics holds its
    counts: ["krylov_iterations"] lists the GMRES iterations per step, 0 for
    a step the fine LU solved or whose residual was at the rounding floor
    already; ["condition_estimate"] is the coarse Jacobian's 1-norm estimate
    at the last step, certified or not; ["fine_factorizations"] counts the
    fallback's fine LUs and ["rank_checks"] those the screen left to the
    singular values.
    diagnostics["timings"] holds the seconds of each stage, summed over the
    steps and none nested in another: "assembly" when V and W* are not
    given; "residual", every evaluation of F and of the law's Jacobian, and
    the SolutionRep; and the solver's stages.  diagnostics["lattice_nodes_v"]
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
        with timed(timings, "residual"):
            mu, u, wmu, mean = _nodal_products((V, W), curve, x)
            F, U = _equation(mu, u, wmu, model.fn, B, curve, env, cell)
            return np.concatenate([F.reshape(-1), mean]), U

    x = np.zeros(2 * N + 2)
    res, U = residual(x)
    res_norm = np.max(np.abs(res))
    trace = [res_norm]
    solver = _AugmentedSolver(
        (V, W), curve, True, "Newton Jacobian",
        "nothing constrains the additive constant; refusing to invent a solution", timings)
    atol = GMRES_FLOOR * np.linalg.norm(res)
    converged = False
    update_norm = np.inf
    for _ in range(max_iter):
        with timed(timings, "residual"):
            K = -model.jac(U)
        step = solver.solve(K, res, max(GMRES_TOL * np.linalg.norm(res), atol))
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
                   "trace": trace, **solver.report}
    with timed(timings, "residual"):
        return _solution_rep(x, B, curve, (V.lattice_nodes, W.lattice_nodes),
                             np.max(np.abs(U)), diagnostics, timings)
