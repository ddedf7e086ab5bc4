"""Linear Robin traction solver: validation, augmented system, field evaluation.

The collocated integral equation, at the nodes or at any boundary points, is

    F = (1/2) mu + W* mu + T(omega, B q^{-1}) nu - G(V mu + c + B q^{-1} x) = 0,

with G(U) = a^{-1}(g - b U) for Robin data, closed by the componentwise
zero-mean constraint on mu.  _equation writes F once: the linear system's
right-hand side is -F at mu = 0, c = 0, the off-node residual is F at the
midpoints and the Newton residual of nonlinear is F at the nodes with the
traction law as G.  The (2N + 2)-square system determines the zero-mean
density and the additive constant c, and the displacement is reconstructed
as u(x) = v[mu](x) + c + B q^{-1} x.

The system is 1/2 I plus a compact part, and both Robin solvers solve it
through one object, _AugmentedSolver(ops, curve, two_grid, name, cause,
timings): solve_robin with K = a^{-1} b, once, and every Newton step of
nonlinear with K = -dG, the first included.  Where two_grid is set, it
forms the two-grid set-up once ("two_grid_setup"): at
Nc = min(N, _COARSE_START), P = operators._interpolation_matrix(Nc, N)
interpolates coarse nodal values to the N nodes and R = (Nc / N) P^T
restricts them, each on both components, the two c entries passing
through; V P and R W* P come from V's and W*'s coarse factors
(operators._prolonged_products), so no (2N)-square matrix is formed where
V and W* act by FFT (4 Nc <= N, operators' DenseBoundaryOperator.by_fft),
and the mean rows are w P.  Each solve then ("two_grid_solve") factors and
screens the Galerkin coarse J, R J P = 1/2 R P + R W* P + R diag(K) V P with
the c columns R K and the zero-mean rows w P, and runs GMRES on the
matrix-free J (_augmented_product: one product of V and W* and the nodal
blocks K), right-preconditioned by the coarse solution prolonged by P plus
2 (r - P R r): on the modes the coarse grid does not carry, J is close to
1/2 I (Atkinson, The Numerical Solution of Integral Equations of the Second
Kind, ch. 6).  One iteration costs one _augmented_product, R, P and the LU
solve of size 2 Nc + 2; at Nc = N, P and R are the identity, the
preconditioner is J^{-1} and GMRES takes one iteration.  Where two_grid is
not set, and when the coarse screen or GMRES_CAP leaves a solve to it, the
dense (2N + 2)-square J is built ("system", a DiscreteSystem), factored
with the rank rule below, naming J by name and cause when it refuses it
("lu"), and back-solved ("back_solve").  Each stage adds its seconds to
timings, the caller's diagnostics["timings"], in which no stage is nested
in another.  Its report holds the counts both solvers return in
diagnostics: condition_estimate (below); krylov_iterations, the GMRES
iterations per solve, 0 for one the fine LU solved; fine_factorizations,
the fine LUs; and rank_checks, those the screen left to the singular
values.

A Newton step takes the two-grid at every N and stops at GMRES_TOL of its
residual or GMRES_FLOOR of the first: at most 12 iterations on the curves
measured (circles r = 0.25 and 0.45, an ellipse), the same count at
N = 128, 256 and 512.  The linear solve takes it where V and W* act by FFT
and stops at GMRES_FLOOR of the right-hand side, the level its LU's
residual reaches: on the benchmark's circle at N = 256 to 1024, 10 to 12
iterations, with mu within 4.4e-15 of the LU's.  Elsewhere (every
N <= 128; holes close to their images, whose kernels need the N nodes) it
takes the fine LU.

diagnostics["residual_off_node"] is the collocation residual at the N
midpoints t_i + pi/N, with no reassembly at 2N and no N x N matrix:
operators.apply_at_midpoints applies V and W* there to the density (the
half-shifted Kress log and Hilbert rules by FFT at the N nodes, the smooth
free-space part as scalar target-source arrays, the lattice part as a
product against the density, as is the field v[mu] of eval_solution).  The
smooth kernel is summed over diagnostics["residual_nodes"] sources: the
larger of V's and W*'s lattice_nodes, the coarse Nc their assembly accepted
for that kernel, or N.  eval_solution is the one evaluator that classifies
its targets, once (cell.locate_targets): that classification refuses points
on a node image or inside a hole image and flags those near the boundary
(NearBoundaryWarning); the layer potentials of operators evaluate wherever
they are asked.

One rule refuses a numerically singular dense system, in the linear and
auxiliary solves and for the Newton Jacobians of nonlinear: an n-square J
whose smallest singular value is at most RANK_TOL * max(largest, 1).  Every
LU screens for it (_screened_lu) with gecon's estimate of ||J^{-1}||_1 and
the bounds

    smin >= 1 / (sqrt(n) ||J^{-1}||_1),    smax <= sqrt(||J||_1 ||J||_inf)

(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 15);
J's singular values decide only when the screen fails (_full_rank_lu), so
a coarse R J P the screen cannot certify sends its solve to the fine LU,
and a singular system is decided on the fine J.  J is screened as
assembled, not equilibrated: scaling its c columns to unit size would hide
the weak coupling G = h + eps u the rule must catch.  The estimate is a
lower bound on ||J^{-1}||_1, and the exact norm to four digits on the Robin
systems measured (N = 64 to 512).  A solve's condition_estimate is the
coarse R J P's where the two-grid ran, certified or not, else the fine
LU's: the coarse one does not grow with N (2037 on the benchmark's
saturating law at N = 64 to 512, where the fine J's grows as N^2) and still
sees weak coupling (8e7 for G = h + 1e-8 u).
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .cell import NEAR_SPACINGS, locate_targets
from .errors import AdmissibilityError, DegenerateProblemError, DomainError, NearBoundaryWarning
from .kernels import traction
from .operators import (
    _COARSE_START,
    BoundaryMatrixField,
    BoundaryVectorField,
    _interpolation_matrix,
    _midpoints,
    _products,
    _prolonged_products,
    apply_at_midpoints,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    trig_resample,
)

# smallest over largest singular value (or 1) at which a system is singular
RANK_TOL = 1e-12
# admissibility thresholds, relative to the largest nodal matrix norm
# (squared where a determinant is compared)
DET_TOL = 1e-12
SEMIDEF_TOL = 1e-10
# a density at most this fraction of the data scale is rounding noise of the
# solve (constant Robin data, solved by mu = 0, leaves max|mu| at 2.5e-15 to
# 5.4e-15 of the data at N = 64 to 512), and its Fourier tail says nothing
# about resolution
_ROUNDING_FLOOR = 1e-12
# two-grid GMRES on J x = b stops when its residual is at most the caller's
# atol: a Newton step takes GMRES_TOL |F|_2, or GMRES_FLOOR |F_0|_2 with F_0
# the residual at the start, a level the rounding of F itself reaches; the
# linear solve takes GMRES_FLOOR |b|_2, as its LU would leave.  A solve that
# needs more than GMRES_CAP iterations is left to the fine LU
GMRES_TOL = 1e-12
GMRES_FLOOR = 1e-15
GMRES_CAP = 30


@dataclass
class RobinData:
    """Nodal Robin coefficients a, b, datum g and the drift matrix B."""

    a: BoundaryMatrixField
    b: BoundaryMatrixField
    g: BoundaryVectorField
    B: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        if self.B.shape != (2, 2):
            raise ValueError("drift matrix B must be 2x2")

    @property
    def curve(self):
        return self.a.curve


def _constant_field(kind, value, curve):
    """A field of class kind with the same value at every node of the curve."""
    return kind(np.broadcast_to(np.asarray(value, dtype=float), (curve.N,) + kind.TRAILING).copy(),
                curve)


def constant_matrix_field(M, curve):
    return _constant_field(BoundaryMatrixField, M, curve)


def constant_vector_field(v, curve):
    return _constant_field(BoundaryVectorField, v, curve)


@dataclass
class SolutionRep:
    """Zero-mean density, additive constant, prescribed drift and diagnostics."""

    mu: BoundaryVectorField
    c: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class DiscreteSystem:
    """Dense augmented system; rows/columns are node-major with c appended.

    Rows 0..2N-1: collocation at nodes (node-major components); rows
    2N..2N+1: zero-mean constraint; cols 0..2N-1: mu unknowns; cols
    2N..2N+1: c.
    """

    matrix: np.ndarray
    rhs: np.ndarray


def _ainv_b(a, b):
    """a^{-1} and a^{-1} b of nodal (N, 2, 2) Robin coefficients, each (N, 2, 2)."""
    ainv = np.linalg.inv(a)
    return ainv, np.einsum("nij,njk->nik", ainv, b)


def validate_robin_data(data, curve=None):
    """Check the three admissibility conditions on (a, b) node by node.

    Returns a diagnostics dict; raises AdmissibilityError naming the first
    failed condition.  DET_TOL and SEMIDEF_TOL are relative to the max matrix
    norm over the nodes ('scale'), squared where the compared quantity is a
    determinant.
    """
    curve = curve if curve is not None else data.curve
    a = data.a.values
    b = data.b.values
    if data.a.curve is not curve or data.b.curve is not curve or data.g.curve is not curve:
        raise AdmissibilityError("sampling", "fields sampled on different curves")

    scale_a = max(np.max(np.linalg.norm(a, axis=(1, 2))), 1e-300)
    scale_b = max(np.max(np.linalg.norm(b, axis=(1, 2))), 1e-300)

    det_a = np.linalg.det(a)
    worst_det = int(np.argmin(np.abs(det_a)))
    if np.min(np.abs(det_a)) <= DET_TOL * scale_a**2:
        raise AdmissibilityError(
            "invertibility-of-a",
            f"det a vanishes at node {worst_det}: {det_a[worst_det]:.3e}",
        )

    _, ainv_b = _ainv_b(a, b)
    sym = 0.5 * (ainv_b + np.swapaxes(ainv_b, 1, 2))
    eigs = np.linalg.eigvalsh(sym)
    max_eig = float(np.max(eigs))
    worst_node = int(np.argmax(np.max(eigs, axis=1)))
    scale_ab = max(np.max(np.linalg.norm(ainv_b, axis=(1, 2))), 1e-300)
    if max_eig > SEMIDEF_TOL * scale_ab:
        raise AdmissibilityError(
            "negativity-of-ainv-b",
            f"symmetric part of a^-1 b not negative semidefinite at node "
            f"{worst_node}: max eigenvalue {max_eig:.3e}",
        )

    integral = np.einsum("n,nij->ij", curve.weights, ainv_b)
    det_integral = float(np.linalg.det(integral))
    scale_int = max(np.linalg.norm(integral), 1e-300)
    cond_integral = float(np.linalg.cond(integral)) if det_integral != 0.0 else np.inf
    if abs(det_integral) <= DET_TOL * scale_int**2:
        raise AdmissibilityError(
            "invertibility-of-integral",
            f"det of the boundary integral of a^-1 b is {det_integral:.3e}",
        )

    det_b = np.linalg.det(b)
    best_b = int(np.argmax(np.abs(det_b)))
    if np.max(np.abs(det_b)) <= DET_TOL * scale_b**2:
        raise AdmissibilityError(
            "pointwise-invertibility-of-b",
            f"det b vanishes at every node (best |det| = {np.abs(det_b[best_b]):.3e})",
        )

    return {
        "min_abs_det_a": float(np.min(np.abs(det_a))),
        "max_eig_sym_ainv_b": max_eig,
        "det_integral_ainv_b": det_integral,
        "cond_integral_ainv_b": cond_integral,
        "max_abs_det_b": float(np.max(np.abs(det_b))),
    }


def _robin_law(ainv, ainv_b, g):
    """The Robin law U -> a^{-1}(g - b U) at some boundary points, from a^{-1}, a^{-1} b and g."""
    ainv_g = np.einsum("nij,nj->ni", ainv, g)
    return lambda U: ainv_g - np.einsum("nij,nj->ni", ainv_b, U)


def _equation(mu, u, wmu, law, B, points, env, cell):
    """The collocated equation F at boundary points (nodes or midpoints), and U.

    F = (1/2) mu + W* mu + T(omega, B q^{-1}) nu - G(U), shape (P, 2), with
    U = u + B q^{-1} x: u is V mu + c at the points, wmu is W* mu there and
    law is G at the points, as U -> G(U).
    """
    Bq = B @ cell.q_inv
    U = u + points.nodes @ Bq.T
    return 0.5 * mu + wmu + traction(Bq, points.normals, env.omega) - law(U), U


def robin_rhs(data, env, cell):
    """Collocated right-hand side of the integral equation: -F at mu = 0, c = 0."""
    law = _robin_law(*_ainv_b(data.a.values, data.b.values), data.g.values)
    return -_equation(0.0, 0.0, 0.0, law, data.B, data.curve, env, cell)[0]


def augmented_matrix(K, V, W, curve):
    """Augmented (2N+2)-square matrix [[1/2 I + W* + diag(K) V, K], [zero-mean rows, 0]].

    K holds nodal 2x2 blocks, shape (N, 2, 2): a^{-1} b for the linear Robin
    system, -dG for the Newton Jacobian.  Rows and columns are node-major
    with the two c columns and the two constraint rows appended.
    """
    N = curve.N
    matrix = np.empty((2 * N + 2, 2 * N + 2))
    top = matrix[: 2 * N, : 2 * N]
    top[...] = W.matrix
    top[np.diag_indices(2 * N)] += 0.5
    top += np.einsum("nij,njm->nim", K, V.matrix.reshape(N, 2, 2 * N)).reshape(2 * N, 2 * N)
    matrix[: 2 * N, 2 * N:] = K.reshape(2 * N, 2)
    matrix[2 * N:] = 0.0
    matrix[2 * N, 0: 2 * N: 2] = curve.weights
    matrix[2 * N + 1, 1: 2 * N: 2] = curve.weights
    return matrix


def assemble_robin_system(data, curve, env, cell, plan, operators):
    """Augmented (2N+2)-square system of the collocated equation; operators is (V, W*)."""
    V, W = operators
    matrix = augmented_matrix(_ainv_b(data.a.values, data.b.values)[1], V, W, curve)
    rhs = np.concatenate([robin_rhs(data, env, cell).reshape(-1), np.zeros(2)])
    return DiscreteSystem(matrix=matrix, rhs=rhs)


def _lu_condition(matrix, norm_1):
    """LU factors and 1-norm condition estimate of a square matrix.

    norm_1 is ||A||_1.  LAPACK getrf, then gecon's estimate
    ||A||_1 * est(||A^{-1}||_1); the estimate is infinite, with no warning,
    when a pivot is exactly zero.  The factors are those of sla.lu_factor.
    A Fortran-ordered matrix is overwritten by its factors; any other is
    factored in a copy.
    """
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (matrix,))
    lu, piv, info = getrf(np.asarray_chkfinite(matrix), overwrite_a=True)
    rcond = gecon(lu, norm_1, norm="1")[0] if info == 0 else 0.0
    return (lu, piv), (np.inf if rcond == 0.0 else 1.0 / float(rcond))


def _full_rank_certified(n, cond, norm_1, norm_inf):
    """True when the norm bounds show smin(J) > RANK_TOL * max(smax(J), 1).

    J is n-square with norms ||J||_1 and ||J||_inf; cond is its 1-norm
    condition estimate (_lu_condition), so ||J^{-1}||_1 ~ cond / ||J||_1;
    smin >= 1 / (sqrt(n) ||J^{-1}||_1) and smax <= sqrt(||J||_1 ||J||_inf).
    False leaves the decision to the singular values.
    """
    smin_low = norm_1 / (cond * np.sqrt(n))
    smax_high = np.sqrt(norm_1 * norm_inf)
    return bool(smin_low > RANK_TOL * max(smax_high, 1.0))


def _screened_lu(J):
    """LU factors of the square J, its 1-norm condition estimate, and the screen.

    The screen is _full_rank_certified on J's norms, both taken from one
    pass over |J|, and the estimate.  A Fortran-ordered J is overwritten by
    its factors (_lu_condition).
    """
    A = np.abs(J)
    norm_1, norm_inf = A.sum(0).max(), A.sum(1).max()
    del A  # freed before the LU copies a C-ordered J: the two would add to peak memory
    factors, cond = _lu_condition(J, norm_1)
    return factors, cond, _full_rank_certified(J.shape[0], cond, norm_1, norm_inf)


def _full_rank_lu(J, name, cause):
    """_screened_lu of the C-ordered square J, whose singular values decide when it fails.

    J is factored in a copy, so they are those of J as given.  Raises
    DegenerateProblemError, naming J and the cause, when the smallest is at
    most RANK_TOL * max(largest, 1).  Returns _screened_lu's result, whose
    False screen says that the singular values ran.
    """
    factors, cond, certified = _screened_lu(J)
    if not certified:
        s = sla.svdvals(J)
        if s[-1] <= RANK_TOL * max(s[0], 1.0):
            raise DegenerateProblemError(
                f"{name} numerically singular (smallest singular value {s[-1]:.3e}, "
                f"largest {s[0]:.3e}); {cause}",
                smallest_singular_value=float(s[-1]),
            )
    return factors, cond, certified


def _nodal_products(ops, curve, x):
    """mu, V mu + c and W* mu at the nodes, (N, 2) each, and the integral of mu.

    x is (node-major mu, c) and ops is (V, W*), applied together by
    operators._products.
    """
    mu = x[:-2].reshape(curve.N, 2)
    vmu, wmu = _products(ops, mu)
    return mu, vmu + x[-2:], wmu, curve.weights @ mu


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


def _augmented_product(ops, curve, K, x):
    """J x for the augmented J with nodal blocks K, x = (node-major mu, c); ops is (V, W*).

    J is augmented_matrix(K, V, W*, curve), applied matrix-free: one
    product of V and W* (_nodal_products) and the nodal blocks.
    """
    mu, u, wmu, mean = _nodal_products(ops, curve, x)
    top = 0.5 * mu + wmu + np.einsum("nij,nj->ni", K, u)
    return np.concatenate([top.reshape(-1), mean])


@contextmanager
def timed(timings, stage):
    """Add the wall time of the block to timings[stage], in seconds."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


class _AugmentedSolver:
    """The one solve of the augmented J x = b for both Robin solvers (module docstring).

    ops is (V, W*) on the curve.  Where two_grid is set, P, R, V P, R W* P
    (in base, with 1/2 R P) and the mean rows w P are formed here, once.
    """

    def __init__(self, ops, curve, two_grid, name, cause, timings):
        self.ops, self.curve, self.two_grid = ops, curve, two_grid
        self.name, self.cause, self.timings = name, cause, timings
        self.report = {"condition_estimate": np.nan, "krylov_iterations": [],
                       "fine_factorizations": 0, "rank_checks": 0}
        if two_grid:
            with timed(timings, "two_grid_setup"):
                self.N = N = curve.N
                self.Nc = Nc = min(N, _COARSE_START)
                self.P = _interpolation_matrix(Nc, N)
                self.R = (Nc / N) * self.P.T
                self.VP = _prolonged_products(ops[0], Nc)
                self.base = _prolonged_products(ops[1], Nc, self.R).reshape(2 * Nc, 2 * Nc) \
                    + 0.5 * np.kron(self.R @ self.P, np.eye(2))
                wP = curve.weights @ self.P
                self.mean_rows = np.zeros((2, 2 * Nc + 2))
                self.mean_rows[0, 0: 2 * Nc: 2] = wP
                self.mean_rows[1, 1: 2 * Nc: 2] = wP

    def _restrict_rows(self, X):
        """R on the node-major rows of X, (2N, m) or (N, 2, m), as (2 Nc, m)."""
        return (self.R @ X.reshape(self.N, -1)).reshape(2 * self.Nc, -1)

    def factor(self, K):
        """_screened_lu of the coarse R J P for the nodal blocks K."""
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

    def solve(self, K, b, atol):
        """J^{-1} b for the nodal blocks K; GMRES, where it runs, stops at residual atol."""
        x, iterations = None, 0
        if self.two_grid:
            with timed(self.timings, "two_grid_solve"):
                factors, self.report["condition_estimate"], certified = self.factor(K)
                if certified:
                    x, iterations = _gmres(
                        lambda v: _augmented_product(self.ops, self.curve, K, v),
                        lambda r: self.precondition(factors, r), b, atol)
        self.report["krylov_iterations"].append(0 if x is None else iterations)
        if x is not None:
            return x
        with timed(self.timings, "system"):
            system = DiscreteSystem(augmented_matrix(K, *self.ops, self.curve), b)
        with timed(self.timings, "lu"):
            factors, estimate, certified = _full_rank_lu(system.matrix, self.name, self.cause)
        self.report["fine_factorizations"] += 1
        self.report["rank_checks"] += not certified
        if not self.two_grid:
            self.report["condition_estimate"] = estimate
        with timed(self.timings, "back_solve"):
            return sla.lu_solve(factors, system.rhs)


def density_tail_ratio(mu):
    """Size of the top quarter of mu's Fourier modes over the size of mu.

    The modes with |m| > 3N/8 carry the ratio; a resolved density has a
    small one.  A zero density gives 0, and a density at rounding level a
    ratio of rounding noise (the solvers report 0 for it, _solution_rep).
    """
    N = mu.curve.N
    F = np.fft.fft(mu.values, axis=0)
    m = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    total = np.linalg.norm(F)
    return float(np.linalg.norm(F[m > 3 * N / 8]) / total) if total else 0.0


def solve_robin(data, curve, env, cell, plan, operators=None):
    """Solve the linear Robin problem; returns the (mu, c, B) representation.

    The augmented system, K = a^{-1} b, is solved once by _AugmentedSolver
    (module docstring): by two-grid GMRES to GMRES_FLOOR of the right-hand
    side where V and W* both act by FFT, else by the dense system's LU with
    partial pivoting.  diagnostics holds its counts (condition_estimate,
    krylov_iterations, fine_factorizations, rank_checks), as
    nonlinear.solve_nonlinear_robin does, and residual_on_node from one
    more product of J (_augmented_product).  A numerically singular system
    (module docstring) raises DegenerateProblemError, a SolveError, since
    the solvability conditions are then violated beyond numerical tolerance.
    diagnostics["timings"] holds the seconds of each stage, none nested in
    another: "validate"; "assembly" when V and W* are not given; "rhs", K
    and the right-hand side from one a^{-1}; the solver's stages;
    "residual", residual_on_node and the SolutionRep; "off_node_residual".
    diagnostics["lattice_nodes_v"] and ["lattice_nodes_wstar"] are the node
    counts at which V's and W*'s smooth kernels, free-space split plus
    lattice part, were evaluated (DenseBoundaryOperator.lattice_nodes),
    assembled or given; diagnostics["residual_nodes"], the larger of the
    two, is the source count of the off-node residual's smooth kernel.
    """
    timings = {}
    with timed(timings, "validate"):
        diagnostics = validate_robin_data(data, curve)
    V, W = _operators(curve, env, cell, plan, operators, timings)
    lattice_nodes = (V.lattice_nodes, W.lattice_nodes)
    diagnostics["residual_nodes"] = max(lattice_nodes)
    with timed(timings, "rhs"):
        ainv, K = _ainv_b(data.a.values, data.b.values)
        F0 = _equation(0.0, 0.0, 0.0, _robin_law(ainv, K, data.g.values), data.B, curve, env,
                       cell)[0]
        rhs = np.concatenate([-F0.reshape(-1), np.zeros(2)])
    solver = _AugmentedSolver(
        (V, W), curve, V.by_fft and W.by_fft, "discrete system",
        "the admissibility conditions on (a, b) are likely violated beyond tolerance", timings)
    sol = solver.solve(K, rhs, GMRES_FLOOR * np.linalg.norm(rhs))
    diagnostics.update(solver.report)
    # freed here, the two-grid set-up's memory is reused by the residuals and
    # the field evaluation that follow; held to the return, it left them on
    # fresh pages: 1.2e3 more page faults per solve and evaluation at N = 512
    del solver
    with timed(timings, "residual"):
        residual = _augmented_product((V, W), curve, K, sol) - rhs
        diagnostics["residual_on_node"] = float(np.max(np.abs(residual[:-2])))
        rep = _solution_rep(sol, data.B, curve, lattice_nodes,
                            max(np.max(np.abs(sol[-2:])), np.max(np.abs(rhs))),
                            diagnostics, timings)
    with timed(timings, "off_node_residual"):
        diagnostics["residual_off_node"] = _off_node_residual(
            data, curve, env, cell, plan, rep.mu, rep.c, diagnostics["residual_nodes"]
        )
    return rep


def _operators(curve, env, cell, plan, operators, timings):
    """(V, W*): operators when given, else both assembled and timed as timings["assembly"]."""
    if operators is None:
        with timed(timings, "assembly"):
            operators = (assemble_single_layer(curve, env, cell, plan),
                         assemble_wstar(curve, env, cell, plan))
    return operators


def _solution_rep(x, B, curve, lattice_nodes, scale, diagnostics, timings):
    """The SolutionRep of x = (node-major mu, c) and the diagnostics both solvers report.

    Adds to diagnostics mu's zero_mean_violation, V's and W*'s lattice_nodes
    (the pair lattice_nodes), the stage timings and mu's density_tail_ratio,
    0.0 when max|mu| <= _ROUNDING_FLOOR * scale: scale is the size of the
    data the solver holds, and a density at rounding level of it is zero as
    far as resolution goes.
    """
    mu = BoundaryVectorField(x[:-2].reshape(-1, 2), curve)
    diagnostics["zero_mean_violation"] = float(np.max(np.abs(boundary_integral(mu))))
    rounding = np.max(np.abs(mu.values)) <= _ROUNDING_FLOOR * scale
    diagnostics["density_tail_ratio"] = 0.0 if rounding else density_tail_ratio(mu)
    diagnostics["lattice_nodes_v"], diagnostics["lattice_nodes_wstar"] = lattice_nodes
    diagnostics["timings"] = timings
    return SolutionRep(mu=mu, c=x[-2:], B=B, diagnostics=diagnostics)


def _off_node_residual(data, curve, env, cell, plan, mu, c, nodes):
    """Collocation residual at the N midpoints t_i + pi/N.

    The midpoint geometry is built once (operators._midpoints).  V mu and
    W* mu there come from operators.apply_at_midpoints, with no N x N
    matrix, their smooth kernel summed over `nodes` sources: the larger
    lattice_nodes of V and W*, the grid their assembly's tail check
    accepted for that kernel, or N.  The Robin data and the density at the
    midpoints are the odd entries of their exact trig resampling to 2N, and
    the residual is the collocated equation (_equation) at the midpoints.
    """
    mid = _midpoints(curve)
    a, b, g, mu_mid = (trig_resample(f.values, 2 * curve.N)[1::2]
                       for f in (data.a, data.b, data.g, mu))
    vmu, wmu = apply_at_midpoints(mu, mid, env, cell, plan, nodes)
    res = _equation(mu_mid, vmu + c, wmu, _robin_law(*_ainv_b(a, b), g), data.B, mid,
                    env, cell)[0]
    return float(np.max(np.abs(res)))


def eval_solution(rep, x, env, cell, plan, warn=True):
    """Displacement u(x) = v[mu](x) + c + B q^{-1} x on the perforated domain.

    The points are classified once by cell.locate_targets.  Raises
    DomainError for a point on a boundary node image, within the distance at
    which the lattice kernels raise (checked first: the hole test is
    ambiguous on the node polygon), and for a point inside a hole image;
    warns (NearBoundaryWarning) when warn is set and a point is near the
    boundary.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    loc = locate_targets(pts, rep.mu.curve, cell)
    if np.any(loc.on_node):
        raise DomainError(f"point {pts[np.argmax(loc.on_node)]} lies on a boundary node image")
    if np.any(loc.inside):
        raise DomainError(f"point {pts[np.argmax(loc.inside)]} lies inside a hole image")
    if warn and np.any(loc.near):
        warnings.warn(
            f"evaluation point within {NEAR_SPACINGS:g} node spacings of the boundary",
            NearBoundaryWarning,
            stacklevel=2,
        )
    out = _displacement(rep, pts, env, cell, plan)
    return out[0] if single else out


def _displacement(rep, pts, env, cell, plan):
    """v[mu] + c + B q^{-1} x at (P, 2) points classified by the caller."""
    v = eval_single_layer(pts, rep.mu, env, cell, plan)
    return v + rep.c[None, :] + pts @ (rep.B @ cell.q_inv).T


def solve_neumann_aux(psi, wstar):
    """Solve (1/2 I + W*) mu = psi on psi's curve, with W* given; the operator is invertible."""
    factors, _, _ = _full_rank_lu(
        0.5 * np.eye(2 * psi.curve.N) + wstar.matrix, "auxiliary operator",
        "this indicates an assembly defect, not admissible data",
    )
    sol = sla.lu_solve(factors, psi.values.reshape(-1))
    return BoundaryVectorField(sol.reshape(-1, 2), psi.curve)
