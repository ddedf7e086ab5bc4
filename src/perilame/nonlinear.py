"""Nonlinear Robin traction problems via Picard / Newton iteration.

The residual of the augmented system in (mu, c) is

    F(mu, c) = (1/2) mu + W* mu - G(., V mu + c + B q^{-1} x) + T(omega, B q^{-1}) nu
    plus the componentwise zero-mean constraint on mu.

The Jacobian is the linear Robin matrix with the nodal blocks -dG in place of
a^{-1} b (robin.augmented_matrix).  Newton rebuilds it every step; Picard
freezes it at the initial iterate and refactors once.  A Jacobian
whose smallest singular value vanishes (e.g. G independent of u with B = 0,
leaving c unconstrained) is reported, never regularized.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DegenerateProblemError
from .operators import BoundaryVectorField, assemble_single_layer, assemble_wstar
from .robin import (
    SolutionRep,
    _reported_tail_ratio,
    augmented_matrix,
    boundary_integral,
    drift_traction,
    timed,
)

# a Jacobian whose smallest singular value is at most RANK_TOL * max(largest, 1)
# is reported as rank deficient
RANK_TOL = 1e-12


@dataclass
class TractionModel:
    """Traction law G(x_i, u) evaluated on all nodes at once.

    fn(U) maps nodal values U of shape (N, 2) to G of shape (N, 2); the
    optional jac(U) returns the nodal Jacobian blocks dG/du, shape (N, 2, 2).
    """

    fn: Callable
    jac: Optional[Callable] = None


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


def tabulated_model(fn, jac=None):
    """User-supplied law fn(U) -> (N, 2) on nodal values U (N, 2), jac(U) -> (N, 2, 2)."""
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
    initial=None,
    operators=None,
):
    """Iterate the augmented residual to a SolutionRep with iteration trace.

    method: 'picard' freezes the Jacobian at the initial iterate, 'newton'
    rebuilds it each step.  Each step starts in full and is halved (at most 5
    times) while the residual sup-norm would increase.  The iteration stops
    when the update's sup-norm is below tol * max(1, |mu|_inf, |c|_inf), so a
    large solution is not held to an absolute size its rounding cannot meet.
    Raises DegenerateProblemError on a rank-deficient Jacobian and
    ConvergenceError when max_iter steps do not meet tol.  diagnostics["timings"]
    holds the seconds of the iteration and, when V and W* are not given, of
    their assembly.
    """
    if model.jac is None:
        raise ValueError("iteration needs a model Jacobian (affine/saturating/tabulated with jac)")
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

    def factor_checked(U):
        J = augmented_matrix(-model.jac(U), V, W, curve)
        s = sla.svdvals(J)
        smin = s[-1]
        if smin <= RANK_TOL * max(s[0], 1.0):
            raise DegenerateProblemError(
                "nonlinear system is rank deficient: nothing constrains the "
                "additive constant (smallest singular value "
                f"{smin:.3e}); refusing to invent a solution",
                smallest_singular_value=float(smin),
            )
        return sla.lu_factor(J)

    if initial is None:
        mu_flat = np.zeros(2 * N)
        c = np.zeros(2)
    else:
        mu_flat = initial.mu.values.reshape(-1).copy()
        c = initial.c.copy()

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
        "zero_mean_violation": float(np.max(np.abs(boundary_integral(mu, curve)))),
        "trace": trace,
        "method": method,
        "density_tail_ratio": _reported_tail_ratio(mu, np.max(np.abs(U))),
        "timings": timings,
    }
    return SolutionRep(mu=mu, c=c, B=B, diagnostics=diagnostics)
