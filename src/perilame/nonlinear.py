"""Nonlinear Robin traction problems via Newton iteration.

The residual of the augmented system in (mu, c) is robin's collocated
equation F at the nodes with the traction law as G (robin._equation), plus
the componentwise zero-mean constraint on mu.  Newton iterates the one
vector (mu, c); its residual and Jacobian product read mu, V mu + c, W* mu
and the integral of mu from one helper, which applies V and W* together by
operators._products: from their stored form (the coarse smooth kernel
and the FFT node rules) where 4 Nc <= N, and by their matrices' GEMV
otherwise; at 4 Nc <= N no dense matrix is formed.

The Jacobian is the linear Robin matrix with the nodal blocks -dG in place of
a^{-1} b (robin.augmented_matrix).  Every Newton step, the first included,
solves J v = F by GMRES on the matrix-free J (one product of V and W* and
the nodal -dG blocks per iteration), right-preconditioned by a two-grid
solve (_TwoGrid): the equation is second kind, 1/2 I plus a part whose
smooth modes a coarse Galerkin Jacobian at Nc = min(N, _COARSE_START)
nodes carries.  At N <= _COARSE_START the coarse grid is the
fine one, the preconditioner is J^{-1} and GMRES takes one iteration.  Per
step that is an LU of size 2 Nc + 2 and at most 12 GMRES iterations on the
curves measured (circles r = 0.25 and 0.45, an ellipse), the same count at
N = 128, 256 and 512.  A step falls back to an LU of the fine (2N + 2)-square J
only when the coarse Jacobian fails the rank screen below or GMRES misses
GMRES_CAP iterations.

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
from .operators import _COARSE_START, _interpolation_matrix, _products
from .robin import (
    _equation,
    _full_rank_lu,
    _operators,
    _screened_lu,
    _solution_rep,
    augmented_matrix,
    timed,
)

# GMRES on a Newton step J v = F stops when its residual is at most
# GMRES_TOL |F|_2, or GMRES_FLOOR |F_0|_2 with F_0 the residual at the start,
# a level the rounding of F itself reaches; a step that needs more than
# GMRES_CAP iterations is solved by the fine LU
GMRES_TOL = 1e-12
GMRES_FLOOR = 1e-15
GMRES_CAP = 30


def _gmres(apply, precondition, b, atol):
    """Right-preconditioned GMRES for A x = b from x = 0 (Saad & Schultz 1986).

    apply(x) = A x and precondition(r) ~ A^{-1} r.  Returns (x, iterations)
    once the residual |b - A x|_2 of the Arnoldi recurrence is at most atol,
    and (None, GMRES_CAP) when GMRES_CAP iterations do not get there.
    """
    beta = np.linalg.norm(b)
    if beta <= atol:
        return np.zeros_like(b), 0
    Q = np.empty((GMRES_CAP + 1, b.size))
    Z = np.empty((GMRES_CAP, b.size))
    H = np.zeros((GMRES_CAP + 1, GMRES_CAP))
    e1 = np.zeros(GMRES_CAP + 1)
    e1[0] = beta
    Q[0] = b / beta
    for k in range(GMRES_CAP):
        Z[k] = precondition(Q[k])
        w = apply(Z[k])
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = Q[: k + 1] @ w
            w -= h @ Q[: k + 1]
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(w)
        Hk, ek = H[: k + 2, : k + 1], e1[: k + 2]
        y = np.linalg.lstsq(Hk, ek, rcond=None)[0]
        if np.linalg.norm(ek - Hk @ y) <= atol:
            return y @ Z[: k + 1], k + 1
        if H[k + 1, k] == 0.0:
            break
        Q[k + 1] = w / H[k + 1, k]
    return None, GMRES_CAP


class _TwoGrid:
    """Two-grid preconditioner of the Newton Jacobian J at Nc coarse nodes.

    P = operators._interpolation_matrix(Nc, N) interpolates coarse nodal
    values to the N nodes and R = (Nc / N) P^T restricts them, each acting
    on both components; the two c entries pass through.  The coarse Jacobian
    is R J P: the Galerkin one, 1/2 R P + R W* P + R diag(-dG) V P with the
    c columns R(-dG) and the zero-mean rows w P.  V P and R W* P are formed
    once per solve, the rest per step: operators._products applies V and W*
    to the 2 Nc columns of P on both components, and R restricts W* P; no
    (2N)-square matrix is read where 4 Nc <= N.  One GMRES
    iteration costs one such product on a field, the nodal -dG blocks, and
    R, P and the LU solve of size 2 Nc + 2.  On a residual r the preconditioner
    returns the coarse solution prolonged by P plus 2 (r - P R r): on the
    modes the coarse grid does not carry, J is close to 1/2 I (Atkinson, The
    Numerical Solution of Integral Equations of the Second Kind, ch. 6).
    At Nc = N, P and R are the identity and R J P is J.
    """

    def __init__(self, V, W, curve, Nc):
        N = curve.N
        self.P = _interpolation_matrix(Nc, N)
        self.R = (Nc / N) * self.P.T
        self.N, self.Nc = N, Nc
        # the 2 Nc columns of P on both components, (N, 2, 2 Nc): column
        # 2c + k is P[:, c] in component k
        columns = np.zeros((N, 2, Nc, 2))
        columns[:, 0, :, 0] = columns[:, 1, :, 1] = self.P
        self.VP, WP = _products((V, W), columns.reshape(N, 2, 2 * Nc))
        self.base = self._restrict_rows(WP) + 0.5 * np.kron(self.R @ self.P, np.eye(2))
        wP = curve.weights @ self.P
        self.mean_rows = np.zeros((2, 2 * Nc + 2))
        self.mean_rows[0, 0: 2 * Nc: 2] = wP
        self.mean_rows[1, 1: 2 * Nc: 2] = wP

    def _restrict_rows(self, X):
        """R on the node-major rows of X, (2N, m) or (N, 2, m), as (2 Nc, m)."""
        return (self.R @ X.reshape(self.N, -1)).reshape(2 * self.Nc, -1)

    def factor(self, K):
        """_screened_lu of R J P for the nodal blocks K = -dG."""
        m = 2 * self.Nc
        Jc = np.empty((m + 2, m + 2), order="F")
        Jc[:m, :m] = self.base
        Jc[:m, :m] += self._restrict_rows(np.einsum("nij,njm->nim", K, self.VP))
        Jc[:m, m:] = self._restrict_rows(K)
        Jc[m:] = self.mean_rows
        return _screened_lu(Jc)

    def precondition(self, factors, r):
        """The two-grid approximation to J^{-1} r, given the factors of R J P."""
        r_mu = r[:-2].reshape(self.N, 2)
        Rr = self.R @ r_mu
        y = sla.lu_solve(factors, np.concatenate([Rr.reshape(-1), r[-2:]]))
        z_mu = self.P @ y[:-2].reshape(self.Nc, 2) + 2.0 * (r_mu - self.P @ Rr)
        return np.concatenate([z_mu.reshape(-1), y[-2:]])


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

    def products(x):
        """mu, V mu + c and W* mu at the nodes, (N, 2) each, and the integral of mu."""
        mu = x[:-2].reshape(N, 2)
        vmu, wmu = _products((V, W), mu)
        return mu, vmu + x[-2:], wmu, curve.weights @ mu

    def residual(x):
        """The residual at x = (node-major mu, c): F at the nodes, then the zero-mean rows."""
        mu, u, wmu, mean = products(x)
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

    def jacobian_product(K, x):
        mu, u, wmu, mean = products(x)
        top = 0.5 * mu + wmu + np.einsum("nij,nj->ni", K, u)
        return np.concatenate([top.reshape(-1), mean])

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
            coarse, screen["condition_estimate"], certified = grid.factor(K)
            if certified:
                step, iterations = _gmres(
                    lambda x: jacobian_product(K, x),
                    lambda r: grid.precondition(coarse, r),
                    res, max(GMRES_TOL * np.linalg.norm(res), atol),
                )
                if step is not None:
                    return step, iterations
            return sla.lu_solve(fine_factors(K), res), 0

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
