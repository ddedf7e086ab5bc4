"""Linear Robin traction solver: validation, augmented system, field evaluation.

The collocated integral equation at the nodes is

    (1/2) mu(x_i) + W* mu(x_i) + a^{-1}(x_i) b(x_i) (V mu(x_i) + c)
        = a^{-1} g(x_i) - T(omega, B q^{-1}) nu(x_i) - a^{-1} b B q^{-1} x_i,

closed by the componentwise zero-mean constraint on mu.  The square system of
size (2N + 2) determines the zero-mean density together with the additive
constant c, and the displacement is reconstructed as
u(x) = v[mu](x) + c + B q^{-1} x.

diagnostics["residual_off_node"] is the collocation residual at the N
midpoints t_i + pi/N, with no reassembly at 2N and no N x N matrix:
operators.apply_at_midpoints applies V and W* there to the density (the
half-shifted Kress log and Hilbert rules by FFT, the smooth free-space part
as scalar target-node arrays, the lattice part as a product against the
density, as is the field v[mu] of eval_solution).  eval_solution is the
one evaluator that classifies its targets, once (cell.locate_targets):
that classification refuses points on a node image or inside a hole image
and flags those near the boundary (NearBoundaryWarning); the layer
potentials of operators evaluate wherever they are asked.
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .cell import NEAR_SPACINGS, locate_targets
from .errors import AdmissibilityError, DomainError, NearBoundaryWarning, SolveError
from .kernels import traction
from .operators import (
    BoundaryMatrixField,
    BoundaryVectorField,
    _midpoints,
    apply_at_midpoints,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    trig_resample,
)

COND_LIMIT = 1e13
# admissibility thresholds, relative to the largest nodal matrix norm
# (squared where a determinant is compared)
DET_TOL = 1e-12
SEMIDEF_TOL = 1e-10
# a density at most this fraction of the data scale is rounding noise of the
# solve (constant Robin data, solved by mu = 0, leaves max|mu| at 2.5e-15 to
# 5.4e-15 of the data at N = 64 to 512), and its Fourier tail says nothing
# about resolution
_ROUNDING_FLOOR = 1e-12


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


def drift_traction(B, curve, env, cell):
    """Nodal traction T(omega, B q^{-1}) nu of the prescribed drift, shape (N, 2)."""
    Bq = np.asarray(B, dtype=float) @ cell.q_inv
    return traction(Bq, curve.normals, env.omega)


def robin_rhs(data, env, cell):
    """Collocated right-hand side of the integral equation."""
    return _collocated_rhs(*_ainv_b(data.a.values, data.b.values), data.g.values, data.B,
                           data.curve, env, cell)


def _collocated_rhs(ainv, ainv_b, g, B, points, env, cell):
    """Right-hand side of the integral equation at boundary points (nodes and normals).

    ainv, ainv_b and g are the Robin data at the points, B the drift.
    """
    rhs = np.einsum("nij,nj->ni", ainv, g)
    rhs -= drift_traction(B, points, env, cell)
    rhs -= np.einsum("nij,nj->ni", ainv_b, points.nodes @ (B @ cell.q_inv).T)
    return rhs


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


def _lu_checked(matrix, name, cause):
    """LU factors and condition estimate (_lu_condition) of a square matrix.

    Raises SolveError when the estimate is infinite or above COND_LIMIT.
    """
    factors, cond = _lu_condition(matrix, np.linalg.norm(matrix, 1))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SolveError(f"{name} numerically singular (condition estimate {cond:.3e}); {cause}")
    return factors, cond


@contextmanager
def timed(timings, stage):
    """Record the wall time of the block as timings[stage], in seconds."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = time.perf_counter() - t0


def density_tail_ratio(mu):
    """Size of the top quarter of mu's Fourier modes over the size of mu.

    The modes with |m| > 3N/8 carry the ratio; a resolved density has a
    small one.  A zero density gives 0, and a density at rounding level a
    ratio of rounding noise (the solvers report it through
    _reported_tail_ratio).
    """
    N = mu.curve.N
    F = np.fft.fft(mu.values, axis=0)
    m = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    total = np.linalg.norm(F)
    return float(np.linalg.norm(F[m > 3 * N / 8]) / total) if total else 0.0


def _reported_tail_ratio(mu, scale):
    """density_tail_ratio(mu), or 0.0 when max|mu| <= _ROUNDING_FLOOR * scale.

    scale is the size of the data the solver holds; a density at rounding
    level of it is zero as far as resolution goes.
    """
    if np.max(np.abs(mu.values)) <= _ROUNDING_FLOOR * scale:
        return 0.0
    return density_tail_ratio(mu)


def solve_robin(data, curve, env, cell, plan, operators=None):
    """Solve the linear Robin problem; returns the (mu, c, B) representation.

    Dense LU with partial pivoting; a 1-norm condition estimate above 1e13
    raises SolveError since the solvability conditions are then violated
    beyond numerical tolerance.  diagnostics["timings"] holds the seconds of
    each stage, none nested in another; "assembly" is recorded when V and W*
    are not given.  diagnostics["lattice_nodes_v"] and ["lattice_nodes_wstar"] are
    the node counts at which V's and W*'s smooth kernels, free-space split
    plus lattice part, were evaluated (DenseBoundaryOperator.lattice_nodes),
    assembled or given.
    """
    timings = {}
    with timed(timings, "validate"):
        diagnostics = validate_robin_data(data, curve)
    if operators is None:
        with timed(timings, "assembly"):
            operators = (assemble_single_layer(curve, env, cell, plan),
                         assemble_wstar(curve, env, cell, plan))
    with timed(timings, "system"):
        system = assemble_robin_system(data, curve, env, cell, plan, operators=operators)
        diagnostics.update(_lattice_nodes(*operators))
        operators = None  # V and W* are not needed past the system
    with timed(timings, "lu"):
        factors, diagnostics["condition_estimate"] = _lu_checked(
            system.matrix, "discrete system",
            "the admissibility conditions on (a, b) are likely violated beyond tolerance",
        )
    with timed(timings, "back_solve"):
        sol = sla.lu_solve(factors, system.rhs)
    mu_vals = sol[:-2].reshape(-1, 2)
    c = sol[-2:]
    mu = BoundaryVectorField(mu_vals, curve)

    residual = system.matrix @ sol - system.rhs
    diagnostics["residual_on_node"] = float(np.max(np.abs(residual[:-2])))
    diagnostics["zero_mean_violation"] = float(
        np.max(np.abs(boundary_integral(mu)))
    )
    with timed(timings, "off_node_residual"):
        diagnostics["residual_off_node"] = _off_node_residual(
            data, curve, env, cell, plan, mu, c
        )
    diagnostics["density_tail_ratio"] = _reported_tail_ratio(
        mu, max(np.max(np.abs(c)), np.max(np.abs(system.rhs)))
    )
    diagnostics["timings"] = timings
    rep = SolutionRep(mu=mu, c=c, B=data.B, diagnostics=diagnostics)
    return rep


def _lattice_nodes(V, W):
    """Diagnostics entries of the node counts of V's and W*'s smooth kernels."""
    return {"lattice_nodes_v": V.lattice_nodes, "lattice_nodes_wstar": W.lattice_nodes}


def _off_node_residual(data, curve, env, cell, plan, mu, c):
    """Collocation residual at the N midpoints t_i + pi/N.

    The midpoint geometry is built once (operators._midpoints).  V mu and
    W* mu there come from operators.apply_at_midpoints, with no N x N
    matrix; the Robin data and the density at the midpoints are the odd
    entries of their exact trig resampling to 2N, and the right-hand side is
    evaluated at the midpoints alone.
    """
    mid = _midpoints(curve)
    a, b, g, mu_mid = (trig_resample(f.values, 2 * curve.N)[1::2]
                       for f in (data.a, data.b, data.g, mu))
    vmu, wmu = apply_at_midpoints(mu, mid, env, cell, plan)
    ainv, ainv_b = _ainv_b(a, b)
    lhs = 0.5 * mu_mid + wmu
    lhs += np.einsum("nij,nj->ni", ainv_b, vmu + c[None, :])
    res = lhs - _collocated_rhs(ainv, ainv_b, g, data.B, mid, env, cell)
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
    v = eval_single_layer(pts, rep.mu, env, cell, plan)
    Bq = rep.B @ cell.q_inv
    out = v + rep.c[None, :] + pts @ Bq.T
    return out[0] if single else out


def solve_neumann_aux(psi, wstar):
    """Solve (1/2 I + W*) mu = psi on psi's curve, with W* given; the operator is invertible."""
    A = 0.5 * np.eye(2 * psi.curve.N) + wstar.matrix
    factors, _ = _lu_checked(
        A, "auxiliary operator", "this indicates an assembly defect, not admissible data"
    )
    sol = sla.lu_solve(factors, psi.values.reshape(-1))
    return BoundaryVectorField(sol.reshape(-1, 2), psi.curve)
