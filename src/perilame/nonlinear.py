"""Nonlinear Robin traction problems via Newton iteration.

The residual of the augmented system in (mu, c) is

    F(mu, c) = (1/2) mu + W* mu - G(., V mu + c + B q^{-1} x) + T(omega, B q^{-1}) nu
    plus the componentwise zero-mean constraint on mu.

The Jacobian is the linear Robin matrix with the nodal blocks -dG in place of
a^{-1} b (robin.augmented_matrix).  Every Newton step, the first included,
solves J v = F by GMRES on the matrix-free J (two matrix-vector products
with V and W* and the nodal -dG blocks per iteration), right-preconditioned
by a two-grid solve (_TwoGrid): the equation is second kind, 1/2 I plus a
part whose smooth modes a coarse Galerkin Jacobian at Nc = min(N,
_COARSE_START) nodes carries.  At N <= _COARSE_START the coarse grid is the
fine one, the preconditioner is J^{-1} and GMRES takes one iteration.  Per
step that is an LU of size 2 Nc + 2 and at most 12 GMRES iterations on the
curves measured (circles r = 0.25 and 0.45, an ellipse), the same count at
N = 128, 256 and 512.  A step falls back to an LU of the fine (2N + 2)-square J
only when the coarse Jacobian fails the rank screen below or GMRES misses
GMRES_CAP iterations.

A Jacobian J of size n = 2N + 2 whose smallest singular value is at most
RANK_TOL * max(largest, 1) (e.g. G independent of u with B = 0, leaving c
unconstrained) is reported, never regularized.  Every LU screens for this
(_screened_lu): with LAPACK gecon's estimate of ||J^{-1}||_1, the
norm-equivalence bounds

    smin >= 1 / (sqrt(n) ||J^{-1}||_1),    smax <= sqrt(||J||_1 ||J||_inf)

(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 15)
show most Jacobians to be of full rank at the price of the LU.  A coarse
Jacobian that fails them sends its step to the fine LU, and only when a
fine J's bounds fail too does its singular value decomposition run and
decide, so a singular iterate is decided on the fine J.  gecon's estimate
is a lower bound on ||J^{-1}||_1; on the Robin Jacobians measured (N = 64
to 512, saturating and weakly coupled laws) it is the exact norm to four
digits.  J is screened as assembled, not equilibrated: scaling its c
columns to unit size would hide the weak coupling G = h + eps u that the
criterion is defined to catch.  The coarse Jacobian's 1-norm condition
estimate is the solve's condition_estimate: it does not grow with N (1883
for a saturating law at N = 64 to 512, where the fine J's grows as N^2) and
still sees weak coupling (8e7 for G = h + 1e-8 u).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DegenerateProblemError
from .operators import (
    _COARSE_START,
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    trig_resample,
)
from .robin import (
    SolutionRep,
    _lattice_nodes,
    _lu_condition,
    _reported_tail_ratio,
    augmented_matrix,
    boundary_integral,
    drift_traction,
    timed,
)

# a Jacobian whose smallest singular value is at most RANK_TOL * max(largest, 1)
# is reported as rank deficient
RANK_TOL = 1e-12
# GMRES on a Newton step J v = F stops when its residual is at most
# GMRES_TOL |F|_2, or GMRES_FLOOR |F_0|_2 with F_0 the residual at the start,
# a level the rounding of F itself reaches; a step that needs more than
# GMRES_CAP iterations is solved by the fine LU
GMRES_TOL = 1e-12
GMRES_FLOOR = 1e-15
GMRES_CAP = 30


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


def _screened_lu(J):
    """LU factors of the square J, its 1-norm condition estimate, and the screen.

    The screen is _full_rank_certified on J's norms and the estimate.  A
    Fortran-ordered J is overwritten by its factors (robin._lu_condition).
    """
    norm_1, norm_inf = np.linalg.norm(J, 1), np.linalg.norm(J, np.inf)
    factors, cond = _lu_condition(J, norm_1)
    return factors, cond, _full_rank_certified(J.shape[0], cond, norm_1, norm_inf)


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

    P = trig_resample(I, N) interpolates coarse nodal values to the N nodes
    and R = (Nc / N) P^T restricts them, each acting on both components;
    the two c entries pass through.  The coarse Jacobian is R J P: the
    Galerkin one, 1/2 R P + R W* P + R diag(-dG) V P with the c columns
    R(-dG) and the zero-mean rows w P.  V P and R W* P are formed once per
    solve, the rest per step.  On a residual r the preconditioner returns
    the coarse solution prolonged by P plus 2 (r - P R r): on the modes the
    coarse grid does not carry, J is close to 1/2 I (Atkinson, The
    Numerical Solution of Integral Equations of the Second Kind, ch. 6).
    At Nc = N, P and R are the identity and R J P is J.
    """

    def __init__(self, V, W, curve, Nc):
        N = curve.N
        self.P = trig_resample(np.eye(Nc), N)
        self.R = (Nc / N) * self.P.T
        self.N, self.Nc = N, Nc
        # P on both components of the node-major columns
        P2 = np.kron(self.P, np.eye(2))
        AP = W.matrix @ P2
        RWP = self._restrict_rows(AP)
        # V P takes the buffer of W P, which is no longer needed
        self.VP = np.matmul(V.matrix, P2, out=AP).reshape(N, 2, 2 * Nc)
        self.base = RWP + 0.5 * np.kron(self.R @ self.P, np.eye(2))
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
    GMRES iterations of two matrix-vector products each; it falls back to a
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
    screen = {"condition_estimate": np.nan, "rank_checks": 0, "fine_factorizations": 0}

    def fine_factors(K):
        """LU factors of the fine Jacobian; its singular values decide when the screen fails."""
        screen["fine_factorizations"] += 1
        J = augmented_matrix(K, V, W, curve)
        factors, _, certified = _screened_lu(J)
        if certified:
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

    def jacobian_product(K, x):
        mu = x[: 2 * N]
        U = (V.matrix @ mu).reshape(N, 2) + x[2 * N:]
        top = 0.5 * mu + W.matrix @ mu + np.einsum("nij,nj->ni", K, U).reshape(-1)
        return np.concatenate([top, [curve.weights @ mu[0::2], curve.weights @ mu[1::2]]])

    mu_flat = np.zeros(2 * N)
    c = np.zeros(2)

    with timed(timings, "iteration"):
        res, U = residual(mu_flat, c)
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
            f"no convergence in {max_iter} Newton iterations "
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
        "krylov_iterations": krylov,
        "density_tail_ratio": _reported_tail_ratio(mu, np.max(np.abs(U))),
        **screen,
        **_lattice_nodes(V, W),
        "timings": timings,
    }
    return SolutionRep(mu=mu, c=c, B=B, diagnostics=diagnostics)
