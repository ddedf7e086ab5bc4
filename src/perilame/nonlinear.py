"""Nonlinear Robin traction problems via Picard / Newton iteration.

The residual of the augmented system in (mu, c) is

    F(mu, c) = (1/2) mu + W* mu - G(., V mu + c + B q^{-1} x) + T(omega, B q^{-1}) nu
    plus the componentwise zero-mean constraint on mu.

The Jacobian is the linear Robin matrix with the nodal blocks -dG in place of
a^{-1} b (robin.augmented_matrix).  Newton rewrites it every step, in
buffers allocated once per solve; Picard freezes it at the first iterate,
mu = 0 and c = 0, and factors it once.  A Jacobian J of size
n = 2N + 2 whose smallest singular value is at most RANK_TOL * max(largest, 1)
(e.g. G independent of u with B = 0, leaving c unconstrained) is reported,
never regularized.  The LU that every step needs screens for this: with
LAPACK gecon's estimate of ||J^{-1}||_1, the norm-equivalence bounds

    smin >= 1 / (sqrt(n) ||J^{-1}||_1),    smax <= sqrt(||J||_1 ||J||_inf)

(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 15)
show most Jacobians to be of full rank at the price of the LU.  Only when
they cannot does the singular value decomposition run and decide.  gecon's
estimate is a lower bound on ||J^{-1}||_1; on the Robin Jacobians measured
(N = 64 to 512, saturating and weakly coupled laws) it is the exact norm to
four digits, and a saturating law at N = 512 to 1024 clears the screen by a
factor of 6e5 or more.  J is screened as assembled, not
equilibrated: scaling its c columns to unit size would hide the weak
coupling G = h + eps u that the criterion is defined to catch.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DegenerateProblemError
from .operators import BoundaryVectorField, assemble_single_layer, assemble_wstar
from .robin import (
    SolutionRep,
    _lattice_nodes,
    _lu_condition,
    _reported_tail_ratio,
    _write_augmented,
    boundary_integral,
    drift_traction,
    timed,
)

# a Jacobian whose smallest singular value is at most RANK_TOL * max(largest, 1)
# is reported as rank deficient
RANK_TOL = 1e-12


def _full_rank_certified(n, cond, norm_1, norm_inf):
    """True when the norm bounds show smin(J) > RANK_TOL * max(smax(J), 1).

    J is n-square with norms ||J||_1 and ||J||_inf; cond is its 1-norm
    condition estimate (robin._lu_condition), so ||J^{-1}||_1 ~ cond /
    ||J||_1; smin >= 1 / (sqrt(n) ||J^{-1}||_1) and smax <= sqrt(||J||_1
    ||J||_inf).  False leaves the decision to the singular values.
    """
    smin_low = norm_1 / (cond * np.sqrt(n))
    smax_high = np.sqrt(norm_1 * norm_inf)
    return bool(smin_low > RANK_TOL * max(smax_high, 1.0))


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
    """Iterate the augmented residual to a SolutionRep with iteration trace.

    The iteration starts from mu = 0, c = 0.  method: 'picard' freezes the
    Jacobian at that iterate, 'newton' rebuilds it each step.  Each step
    starts in full and is halved (at most 5 times) while the residual
    sup-norm would increase.  The iteration stops when the update's sup-norm
    is below tol * max(1, |mu|_inf, |c|_inf), so a large solution is not held
    to an absolute size its rounding cannot meet.
    Raises DegenerateProblemError on a rank-deficient Jacobian and
    ConvergenceError when max_iter steps do not meet tol.  Each factored
    Jacobian is screened for rank by its LU and gecon estimate (module
    docstring); diagnostics["condition_estimate"] is that 1-norm estimate
    for the last Jacobian factored and diagnostics["rank_checks"] the number
    of Jacobians the screen left to the singular values.  diagnostics["timings"]
    holds the seconds of the iteration and, when V and W* are not given, of
    their assembly; diagnostics["lattice_nodes_v"] and
    ["lattice_nodes_wstar"] are as in robin.solve_robin.
    """
    if method not in ("newton", "picard"):
        raise ValueError(f"method must be 'newton' or 'picard', got {method!r}")
    N = curve.N
    B = np.asarray(B, dtype=float)
    timings = {}
    if operators is None:
        with timed(timings, "assembly"):
            V = assemble_single_layer(curve, env, cell, plan)
            W = assemble_wstar(curve, env, cell, plan)
    else:
        V, W = operators

    drift = drift_traction(B, curve, env, cell).reshape(-1)
    bx = curve.nodes @ (B @ cell.q_inv).T

    def residual(mu_flat, c):
        U = (V.matrix @ mu_flat).reshape(N, 2) + c[None, :] + bx
        res_top = 0.5 * mu_flat + W.matrix @ mu_flat - model.fn(U).reshape(-1) + drift
        mean = np.array([
            curve.weights @ mu_flat[0::2], curve.weights @ mu_flat[1::2]
        ])
        return np.concatenate([res_top, mean]), U

    # what the rank screen saw, reported in diagnostics
    screen = {"condition_estimate": np.nan, "rank_checks": 0}
    # the Jacobian's buffers, allocated once per solve: J, its LU (Fortran
    # order, factored in place) and one work array for diag(-dG) V, then |J|
    J = np.empty((2 * N + 2, 2 * N + 2))
    lu = np.empty(J.shape, order="F")
    absJ = np.empty(J.shape)
    product = absJ.reshape(-1)[: 4 * N * N].reshape(N, 2, 2 * N)

    def factor_checked(U):
        _write_augmented(J, -model.jac(U), V, W, curve, product)
        # ||J||_1 and ||J||_inf from one |J|, as np.linalg.norm sums them
        np.abs(J, out=absJ)
        norm_1, norm_inf = np.max(np.sum(absJ, axis=0)), np.max(np.sum(absJ, axis=1))
        lu[...] = J
        factors, cond = _lu_condition(lu, norm_1)
        screen["condition_estimate"] = cond
        if _full_rank_certified(J.shape[0], cond, norm_1, norm_inf):
            return factors
        screen["rank_checks"] += 1
        s = sla.svdvals(J)
        smin = s[-1]
        if smin <= RANK_TOL * max(s[0], 1.0):
            raise DegenerateProblemError(
                "nonlinear system is rank deficient: nothing constrains the "
                "additive constant (smallest singular value "
                f"{smin:.3e}); refusing to invent a solution",
                smallest_singular_value=float(smin),
            )
        return factors

    mu_flat = np.zeros(2 * N)
    c = np.zeros(2)

    with timed(timings, "iteration"):
        res, U = residual(mu_flat, c)
        res_norm = np.max(np.abs(res))
        trace = [res_norm]
        frozen = factor_checked(U) if method == "picard" else None

        converged = False
        update_norm = np.inf
        for _ in range(max_iter):
            factors = frozen if method == "picard" else factor_checked(U)
            step = sla.lu_solve(factors, res)
            lam = 1.0
            for _ in range(6):
                mu_try = mu_flat - lam * step[:-2]
                c_try = c - lam * step[-2:]
                res_try, U_try = residual(mu_try, c_try)
                if np.max(np.abs(res_try)) <= res_norm or lam <= 1.0 / 32.0:
                    break
                lam *= 0.5
            update_norm = lam * np.max(np.abs(step))
            mu_flat, c, res, U = mu_try, c_try, res_try, U_try
            res_norm = np.max(np.abs(res))
            trace.append(res_norm)
            if update_norm < tol * max(1.0, np.max(np.abs(mu_flat)), np.max(np.abs(c))):
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"no convergence in {max_iter} {method} iterations "
            f"(last update {update_norm:.3e}, residual {res_norm:.3e}); "
            "existence is not guaranteed for this traction law",
            trace=trace,
        )

    mu = BoundaryVectorField(mu_flat.reshape(-1, 2), curve)
    diagnostics = {
        "iterations": len(trace) - 1,
        "residual_on_node": float(res_norm),
        "zero_mean_violation": float(np.max(np.abs(boundary_integral(mu)))),
        "trace": trace,
        "method": method,
        "density_tail_ratio": _reported_tail_ratio(mu, np.max(np.abs(U))),
        **screen,
        **_lattice_nodes(V, W),
        "timings": timings,
    }
    return SolutionRep(mu=mu, c=c, B=B, diagnostics=diagnostics)
