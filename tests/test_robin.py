import time

import numpy as np
import pytest
import scipy.linalg as sla

import perilame.lattice as lattice
import perilame.operators as operators
import perilame.robin as robin
from perilame.cell import CircleShape, EllipseShape, build_cell, discretize_curve, locate_targets
from perilame.errors import AdmissibilityError, DomainError, SingularArgumentError, SolveError
from perilame.kernels import LameEnv, traction_map
from perilame.lattice import plan_lattice_sum
from perilame.nonlinear import saturating_model, solve_nonlinear_robin
from perilame.operators import (
    BoundaryMatrixField,
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    trig_resample,
)
from perilame.robin import (
    RobinData,
    assemble_robin_system,
    augmented_matrix,
    constant_matrix_field,
    constant_vector_field,
    eval_solution,
    robin_rhs,
    solve_neumann_aux,
    solve_robin,
    validate_robin_data,
)
from perilame.verify import _sources_field, standard_curve

UNIT = build_cell([1.0, 1.0])
ENV1 = LameEnv(2, 1.0)


@pytest.fixture(scope="module")
def plan1():
    return plan_lattice_sum(UNIT, ENV1, 1e-11)


@pytest.fixture(scope="module")
def circle64():
    return discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)


def _data(curve, a, b, g, B=None):
    return RobinData(
        a=constant_matrix_field(a, curve),
        b=constant_matrix_field(b, curve),
        g=constant_vector_field(g, curve) if np.asarray(g).ndim == 1
        else BoundaryVectorField(g, curve),
        B=np.zeros((2, 2)) if B is None else B,
    )


def test_validation_accepts_dissipative_data(circle64):
    diag = validate_robin_data(_data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0]))
    assert diag["max_eig_sym_ainv_b"] == pytest.approx(-1.0)
    assert diag["det_integral_ainv_b"] == pytest.approx(
        (2 * np.pi * 0.25) ** 2, rel=1e-12
    )


def test_validation_rejects_singular_a(circle64):
    with pytest.raises(AdmissibilityError) as info:
        validate_robin_data(_data(circle64, np.zeros((2, 2)), -np.eye(2), [0.0, 0.0]))
    assert info.value.condition == "invertibility-of-a"


def test_validation_rejects_positive_b(circle64):
    with pytest.raises(AdmissibilityError) as info:
        validate_robin_data(_data(circle64, np.eye(2), np.eye(2), [0.0, 0.0]))
    assert info.value.condition == "negativity-of-ainv-b"


def test_validation_rejects_zero_b(circle64):
    with pytest.raises(AdmissibilityError) as info:
        validate_robin_data(_data(circle64, np.eye(2), np.zeros((2, 2)), [0.0, 0.0]))
    assert info.value.condition in (
        "invertibility-of-integral",
        "pointwise-invertibility-of-b",
    )


def test_validation_rejects_rank_one_b(circle64):
    # b = -nu nu^T: det b = 0 at every node, while the integral of a^-1 b is
    # -pi r I, invertible; only the pointwise condition on b rejects it
    nu = circle64.normals
    data = RobinData(
        a=constant_matrix_field(np.eye(2), circle64),
        b=BoundaryMatrixField(-nu[:, :, None] * nu[:, None, :], circle64),
        g=constant_vector_field([0.0, 0.0], circle64),
        B=np.zeros((2, 2)),
    )
    with pytest.raises(AdmissibilityError) as info:
        validate_robin_data(data)
    assert info.value.condition == "pointwise-invertibility-of-b"


def test_validation_reports_integral_conditioning(circle64):
    # the integral determinant and its condition number are reported, not
    # thresholded away; near-degenerate data is the intended study regime
    diag = validate_robin_data(_data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0]))
    assert diag["cond_integral_ainv_b"] == pytest.approx(1.0)


def test_system_size_and_zero_rhs(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0])
    ops = (assemble_single_layer(circle64, ENV1, UNIT, plan1),
           assemble_wstar(circle64, ENV1, UNIT, plan1))
    system = assemble_robin_system(data, circle64, ENV1, UNIT, plan1, operators=ops)
    assert system.matrix.shape == (130, 130)
    assert np.max(np.abs(system.rhs)) == 0.0


def test_augmented_matrix_matches_node_loop(circle64, plan1):
    N = circle64.N
    V = assemble_single_layer(circle64, ENV1, UNIT, plan1)
    W = assemble_wstar(circle64, ENV1, UNIT, plan1)
    t = circle64.params
    K = np.stack([
        [np.cos(t) - 2.0, 0.3 * np.sin(2 * t)],
        [0.1 + 0.2 * np.sin(t), -1.5 + 0.5 * np.cos(3 * t)],
    ]).transpose(2, 0, 1)
    # reference: block-diagonal K applied to V by a dense matmul, blocks set node by node
    KV = np.zeros((2 * N, 2 * N))
    ref = np.zeros((2 * N + 2, 2 * N + 2))
    for i in range(N):
        KV[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = K[i]
        ref[2 * i: 2 * i + 2, 2 * N:] = K[i]
    ref[: 2 * N, : 2 * N] = 0.5 * np.eye(2 * N) + W.matrix + KV @ V.matrix
    ref[2 * N, 0: 2 * N: 2] = circle64.weights
    ref[2 * N + 1, 1: 2 * N: 2] = circle64.weights
    err = np.max(np.abs(augmented_matrix(K, V, W, circle64) - ref))
    assert err <= 1e-14 * np.max(np.abs(ref))


def test_lu_condition_matches_lu_factor_and_gecon():
    A = np.random.default_rng(3).standard_normal((40, 40))
    (lu, piv), cond = robin._lu_condition(A, np.linalg.norm(A, 1))
    ref_lu, ref_piv = sla.lu_factor(A)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
    exact = np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1)
    assert exact / 3.0 <= cond <= exact * (1.0 + 1e-10)
    # an exactly zero pivot gives an infinite estimate and no warning
    A[:, 7] = 0.0
    assert robin._lu_condition(A, np.linalg.norm(A, 1))[1] == np.inf


def test_rhs_two_path(circle64):
    # independent elementwise evaluation of the right-hand side formula
    B = np.array([[0.2, -0.1], [0.05, 0.3]])
    t = circle64.params
    gvals = np.column_stack([np.cos(t), 0.5 * np.sin(2 * t)])
    avals = np.tile(np.array([[2.0, 0.3], [-0.1, 1.5]]), (64, 1, 1))
    bvals = np.tile(-np.eye(2) * 0.7, (64, 1, 1))
    data = RobinData(
        a=BoundaryMatrixField(avals, circle64),
        b=BoundaryMatrixField(bvals, circle64),
        g=BoundaryVectorField(gvals, circle64),
        B=B,
    )
    got = robin_rhs(data, ENV1, UNIT)
    Bq = B @ UNIT.q_inv
    TB = traction_map(ENV1.omega, Bq)
    for i in range(0, 64, 7):
        ai = np.linalg.inv(avals[i])
        expect = ai @ gvals[i] - TB @ circle64.normals[i] \
            - ai @ bvals[i] @ (Bq @ circle64.nodes[i])
        assert np.max(np.abs(got[i] - expect)) < 1e-14


def test_constant_solution(circle64, plan1):
    cstar = np.array([0.3, -0.7])
    data = _data(circle64, np.eye(2), -np.eye(2), -cstar)
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    assert np.max(np.abs(rep.mu.values)) < 1e-10
    assert np.max(np.abs(rep.c - cstar)) < 1e-10
    x = np.array([0.1, 0.9])
    assert np.max(np.abs(eval_solution(rep, x, ENV1, UNIT, plan1) - cstar)) < 1e-10


def test_linear_field_solution(circle64, plan1):
    B = np.diag([0.2, -0.1])
    Bq = B @ UNIT.q_inv
    gvals = circle64.normals @ traction_map(ENV1.omega, Bq).T - circle64.nodes @ Bq.T
    data = _data(circle64, np.eye(2), -np.eye(2), gvals, B=B)
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    assert np.max(np.abs(rep.mu.values)) < 1e-10
    assert np.max(np.abs(rep.c)) < 1e-10
    pts = np.array([[0.1, 0.1], [0.9, 0.2], [0.5, 0.95]])
    u = eval_solution(rep, pts, ENV1, UNIT, plan1, warn=False)
    assert np.max(np.abs(u - pts @ Bq.T)) < 1e-9


def test_homogeneous_problem(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0])
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    assert np.max(np.abs(rep.mu.values)) + np.max(np.abs(rep.c)) < 1e-10


@pytest.fixture(scope="module")
def plan12():
    return plan_lattice_sum(UNIT, ENV1, 1e-12)


def test_manufactured_solution_and_convergence(plan12):
    u_fn, trac_fn = _sources_field(
        ENV1, UNIT, plan12, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0)
    )
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            pts.append(p)
    pts = np.asarray(pts)
    u_ref = u_fn(pts)
    errors = {}
    for N in (64, 128, 256):
        curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
        g = BoundaryVectorField(
            trac_fn(curve.nodes, curve.normals) - u_fn(curve.nodes), curve
        )
        data = RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=g,
            B=np.zeros((2, 2)),
        )
        rep = solve_robin(data, curve, ENV1, UNIT, plan12)
        errors[N] = np.max(np.abs(eval_solution(rep, pts, ENV1, UNIT, plan12, warn=False) - u_ref))
    assert errors[128] < 1e-8
    assert errors[64] / max(errors[256], 1e-16) >= 100.0


def test_quasi_periodicity(circle64, plan1):
    B = np.array([[0.3, 0.1], [-0.2, 0.25]])
    Bq = B @ UNIT.q_inv
    gvals = circle64.normals @ traction_map(ENV1.omega, Bq).T - circle64.nodes @ Bq.T
    data = _data(circle64, np.eye(2), -np.eye(2), gvals, B=B)
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    pts = np.array([[0.07, 0.12], [0.88, 0.9], [0.5, 0.03]])
    base = eval_solution(rep, pts, ENV1, UNIT, plan1, warn=False)
    for j, e in enumerate(np.eye(2)):
        shifted = eval_solution(rep, pts + e, ENV1, UNIT, plan1, warn=False)
        assert np.max(np.abs(shifted - base - B[:, j][None, :])) < 1e-10


def test_solution_diagnostics(circle64, plan1):
    t = circle64.params
    gvals = np.column_stack([0.3 + np.cos(2 * t), np.sin(t) - 0.2])
    data = _data(circle64, np.eye(2), -np.eye(2), gvals)
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    d = rep.diagnostics
    assert d["zero_mean_violation"] < 1e-10 * (1 + np.max(np.abs(rep.mu.values)))
    assert d["residual_off_node"] < max(10 * d["residual_on_node"], 1e-12)
    assert d["condition_estimate"] < 1e6


def test_scaling_covariance(circle64, plan1):
    t = circle64.params
    gvals = np.column_stack([0.3 + np.cos(2 * t), np.sin(t) - 0.2])
    lam = 7.3
    rep1 = solve_robin(
        _data(circle64, np.eye(2), -np.eye(2), gvals), circle64, ENV1, UNIT, plan1
    )
    rep2 = solve_robin(
        _data(circle64, lam * np.eye(2), -lam * np.eye(2), lam * gvals),
        circle64, ENV1, UNIT, plan1,
    )
    assert np.max(np.abs(rep1.mu.values - rep2.mu.values)) < 1e-11
    assert np.max(np.abs(rep1.c - rep2.c)) < 1e-11


def test_node_shift_uniqueness(plan1):
    # solving on a rotated node labeling gives the same density and constant
    N = 64
    shift = 4
    t0 = 2 * np.pi * shift / N
    base = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    from perilame.cell import TrigShape

    rotated = discretize_curve(
        TrigShape(
            np.array([[0.5, 0.25 * np.cos(t0)], [0.5, 0.25 * np.sin(t0)]]),
            np.array([[0.0, -0.25 * np.sin(t0)], [0.0, 0.25 * np.cos(t0)]]),
            interior=(0.5, 0.5),
        ),
        N, UNIT,
    )
    assert np.allclose(rotated.nodes, np.roll(base.nodes, -shift, axis=0), atol=1e-13)

    def solve_on(curve):
        t = curve.params
        gvals = np.column_stack(
            [np.cos(t + (t0 if curve is rotated else 0.0)),
             np.sin(t + (t0 if curve is rotated else 0.0))]
        )
        # same geometric datum g(x) expressed in each parametrization
        data = _data(curve, np.eye(2), -np.eye(2), gvals)
        return solve_robin(data, curve, ENV1, UNIT, plan1)

    rep_a = solve_on(base)
    rep_b = solve_on(rotated)
    assert np.max(np.abs(rep_a.c - rep_b.c)) < 1e-11
    assert np.max(np.abs(np.roll(rep_a.mu.values, -shift, axis=0) - rep_b.mu.values)) < 1e-11


def test_solve_neumann_aux_properties(circle64, plan1):
    W = assemble_wstar(circle64, ENV1, UNIT, plan1)
    zero = BoundaryVectorField(np.zeros((64, 2)), circle64)
    assert np.max(np.abs(solve_neumann_aux(zero, W).values)) == 0.0
    rng = np.random.default_rng(31)
    t = circle64.params
    from perilame.cell import hole_area

    factor = 1.0 - hole_area(circle64) / UNIT.volume
    for _ in range(3):
        vals = np.zeros((64, 2))
        for m in range(4):
            vals += np.outer(np.cos(m * t), rng.normal(size=2))
            vals += np.outer(np.sin(m * t), rng.normal(size=2))
        psi = BoundaryVectorField(vals, circle64)
        mu = solve_neumann_aux(psi, W)
        res = 0.5 * mu.values + W.apply(mu).values - vals
        assert np.max(np.abs(res)) < 1e-11
        assert np.max(np.abs(
            boundary_integral(psi) - factor * boundary_integral(mu)
        )) < 1e-8


@pytest.fixture(scope="module")
def circle_ops(circle64, plan1):
    """circle_ops(N) -> (curve, (V, W*)) of the r = 0.25 circle, assembled once per N."""
    cache = {}

    def get(N):
        if N not in cache:
            curve = circle64 if N == 64 else discretize_curve(
                CircleShape([0.5, 0.5], 0.25), N, UNIT)
            cache[N] = (curve, (assemble_single_layer(curve, ENV1, UNIT, plan1),
                                assemble_wstar(curve, ENV1, UNIT, plan1)))
        return cache[N]

    return get


# smallest singular values of the linear system at a = I, b = -eps I: the
# Newton Jacobian of G = h + eps u is the same matrix
LINEAR_SWEEP_SMIN = {
    (64, 1e-13): 1.8987e-13, (64, 1e-14): 1.8991e-14,
    (256, 1e-13): 1.9401e-13, (256, 1e-14): 1.9394e-14,
}


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-14])
def test_linear_weak_coupling_sweep(circle_ops, plan1, svdvals_calls, N, eps):
    # a = I, b = -eps I leaves c constrained only through eps; the linear
    # solve takes the rank rule of the Newton Jacobians, so eps = 1e-12 solves
    # (smallest singular value 1.9e-12) and eps = 1e-13 is refused although
    # its condition estimate is 8.2e12; the screen certifies none of these
    # systems, so one svdvals decides each
    curve, ops = circle_ops(N)
    t = curve.params
    g = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])
    data = _data(curve, np.eye(2), -eps * np.eye(2), g)
    if eps < 1e-12:
        with pytest.raises(SolveError, match="discrete system numerically singular") as info:
            solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
        assert info.value.smallest_singular_value == pytest.approx(
            LINEAR_SWEEP_SMIN[N, eps], rel=0.01)
    else:
        rep = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
        assert np.max(np.abs(eps * rep.c - [-0.3, 0.1])) < 1e-9
    assert svdvals_calls == [(2 * N + 2, 2 * N + 2)]


@pytest.mark.parametrize("eps", [1e-12, 1e-13])
def test_two_grid_weak_coupling_falls_back_to_the_rank_rule(circle_ops, plan1, svdvals_calls,
                                                            eps):
    # at N = 512 V and W* act by FFT and the solve starts as two-grid GMRES;
    # the coarse screen cannot certify these systems, so each goes to the
    # fine LU and one svdvals decides it, as at N = 64 and 256: eps = 1e-12
    # solves, bit for bit as the direct LU, and eps = 1e-13 is refused
    N = 512
    curve, ops = circle_ops(N)
    t = curve.params
    g = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])
    data = _data(curve, np.eye(2), -eps * np.eye(2), g)
    assert all(op.by_fft for op in ops)
    if eps < 1e-12:
        with pytest.raises(SolveError, match="discrete system numerically singular") as info:
            solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
        assert info.value.smallest_singular_value == pytest.approx(1.9473e-13, rel=0.01)
    else:
        rep = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
        d = rep.diagnostics
        assert d["fine_factorizations"] == 1 and d["krylov_iterations"] == [0]
        assert list(d["timings"]) == ["validate", "rhs", "two_grid_setup", "two_grid_solve",
                                      "system", "lu", "back_solve", "residual",
                                      "off_node_residual"]
        assert np.max(np.abs(eps * rep.c - [-0.3, 0.1])) < 1e-9
        x = _direct(data, curve, plan1, ops)[0]
        assert np.array_equal(rep.mu.values.reshape(-1), x[:-2]) and np.array_equal(rep.c, x[-2:])
    assert svdvals_calls == [(2 * N + 2, 2 * N + 2)]


def _direct(data, curve, plan, ops):
    """x = (node-major mu, c) by a direct LU of the augmented system, and its on-node residual."""
    system = assemble_robin_system(data, curve, ENV1, UNIT, plan, operators=ops)
    x = sla.lu_solve(sla.lu_factor(system.matrix), system.rhs)
    return x, float(np.max(np.abs((system.matrix @ x - system.rhs)[:-2])))


TWO_GRID_SHAPES = {"circle": CircleShape([0.5, 0.5], 0.25),
                   "ellipse": EllipseShape([0.5, 0.5], (0.2, 0.4), rotation=0.3)}


def two_grid_solve_agrees_with_the_lu(shape):
    """Asserts that solve_robin at N = 512 on one TWO_GRID_SHAPES curve is the LU's solution.

    With the benchmark's plan (tol 1e-10) V and W* act by FFT: the solve
    runs two-grid GMRES, forms neither dense matrix, and its mu and c agree
    with a direct LU of the augmented system to 1e-12 relative; its on-node
    residual is at most 10 times the LU's, a rounding level that a stop at
    GMRES_TOL does not reach.
    """
    plan = plan_lattice_sum(UNIT, ENV1, 1e-10)
    curve = discretize_curve(TWO_GRID_SHAPES[shape], 512, UNIT)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan), assemble_wstar(curve, ENV1, UNIT, plan))
    data = _varied_data(curve)
    rep = solve_robin(data, curve, ENV1, UNIT, plan, operators=ops)
    d = rep.diagnostics
    for op in ops:
        assert op.by_fft and "matrix" not in vars(op)
    assert d["fine_factorizations"] == 0 and 1 <= d["krylov_iterations"][0] <= robin.GMRES_CAP
    x, lu_residual = _direct(data, curve, plan, ops)
    mu = x[:-2].reshape(-1, 2)
    assert np.max(np.abs(rep.mu.values - mu)) <= 1e-12 * np.max(np.abs(mu))
    assert np.max(np.abs(rep.c - x[-2:])) <= 1e-12 * np.max(np.abs(x[-2:]))
    assert d["residual_on_node"] <= 10.0 * lu_residual


@pytest.mark.parametrize("shape", list(TWO_GRID_SHAPES))
def test_two_grid_solve_agrees_with_the_lu(shape):
    two_grid_solve_agrees_with_the_lu(shape)


@pytest.mark.parametrize("radius, N", [(0.25, 64), (0.25, 128), (0.45, 256)])
def test_lu_solve_where_an_operator_is_dense(plan1, radius, N):
    # where an operator has 4 Nc > N (every N <= 128; the circle r = 0.45,
    # whose kernels need the N nodes) the solve is the LU of the augmented
    # system, bit for bit, and reports one fine LU and no Krylov iteration
    curve = discretize_curve(CircleShape([0.5, 0.5], radius), N, UNIT)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan1),
           assemble_wstar(curve, ENV1, UNIT, plan1))
    data = _varied_data(curve)
    rep = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
    x = _direct(data, curve, plan1, ops)[0]
    assert not all(op.by_fft for op in ops)
    assert np.array_equal(rep.mu.values.reshape(-1), x[:-2]) and np.array_equal(rep.c, x[-2:])
    assert rep.diagnostics["krylov_iterations"] == [0]
    assert rep.diagnostics["fine_factorizations"] == 1


@pytest.mark.parametrize("kind", ["circle", "ellipse", "perturbed"])
def test_auxiliary_operator_certified_without_svd(plan1, svdvals_calls, kind):
    # 1/2 I + W* is well conditioned (estimates 14 to 17 here): the screen
    # certifies it, by a factor above 3e9, and no singular value decomposition runs
    curve = standard_curve(kind, UNIT, 128)
    W = assemble_wstar(curve, ENV1, UNIT, plan1)
    psi = BoundaryVectorField(np.column_stack([np.cos(curve.params), np.sin(2 * curve.params)]),
                              curve)
    mu = solve_neumann_aux(psi, W)
    assert np.max(np.abs(0.5 * mu.values + W.apply(mu).values - psi.values)) < 1e-12
    assert svdvals_calls == []


def test_representation_roundtrip_cases(circle64, plan1):
    # a periodic homogeneous field v[mu0] + c0 is recovered from its boundary
    # data: mu from the traction (1/2 I + W*) mu0, c from the boundary values
    V = assemble_single_layer(circle64, ENV1, UNIT, plan1)
    W = assemble_wstar(circle64, ENV1, UNIT, plan1)

    def recover(traction, u_bdry):
        mu = solve_neumann_aux(BoundaryVectorField(traction, circle64), W)
        return mu, np.mean(u_bdry - V.apply(mu).values, axis=0)

    # constant field: mu = 0, c = c0
    c0 = np.array([0.8, -0.1])
    mu_rec, c_rec = recover(np.zeros((64, 2)), np.tile(c0, (64, 1)))
    assert np.max(np.abs(mu_rec.values)) < 1e-11
    assert np.max(np.abs(c_rec - c0)) < 1e-11

    # synthesized single layer plus constant, reconstructed off the boundary
    rng = np.random.default_rng(32)
    t = circle64.params
    vals = np.zeros((64, 2))
    for m in range(1, 4):
        vals += np.outer(np.cos(m * t), rng.normal(size=2))
        vals += np.outer(np.sin(m * t), rng.normal(size=2))
    mu0 = BoundaryVectorField(vals, circle64)
    mu_rec, c_rec = recover(0.5 * vals + W.apply(mu0).values, V.apply(mu0).values + c0[None, :])
    assert np.max(np.abs(mu_rec.values - vals)) < 1e-9
    assert np.max(np.abs(c_rec - c0)) < 1e-9
    pts = np.array([[0.1, 0.1], [0.9, 0.4]])
    rec = eval_single_layer(pts, mu_rec, ENV1, UNIT, plan1) + c_rec[None, :]
    exact = eval_single_layer(pts, mu0, ENV1, UNIT, plan1) + c0[None, :]
    assert np.max(np.abs(rec - exact)) < 1e-9


def test_eval_solution_rejects_hole_interior(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.1, 0.0])
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    with pytest.raises(DomainError):
        eval_solution(rep, np.array([0.5, 0.5]), ENV1, UNIT, plan1)
    with pytest.raises(DomainError):
        eval_solution(rep, np.array([1.5, -0.5]), ENV1, UNIT, plan1)


@pytest.mark.filterwarnings("error")
def test_eval_solution_rejects_non_finite_points(circle64, plan1):
    # with warnings as errors: a non-finite target is refused by ValueError
    # before any arithmetic, not by a RuntimeWarning of its reduction to the cell
    data = _data(circle64, np.eye(2), -np.eye(2), [0.1, 0.0])
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            eval_solution(rep, np.array([bad, 0.1]), ENV1, UNIT, plan1, warn=False)
        with pytest.raises(ValueError, match="infs or NaNs"):
            locate_targets(np.array([[0.1, -bad]]), circle64, UNIT)


def test_eval_solution_rejects_boundary_node_images(circle64, plan1):
    # the winding number is ambiguous at a polygon vertex; the node-image
    # test comes first, so every node and node image is refused as such
    data = _data(circle64, np.eye(2), -np.eye(2), [0.1, 0.0])
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    for shift in ([0.0, 0.0], [1.0, -2.0]):
        pts = circle64.nodes + shift
        assert np.all(locate_targets(pts, circle64, UNIT).on_node)
        for p in pts:
            with pytest.raises(DomainError, match="boundary node image"):
                eval_solution(rep, p, ENV1, UNIT, plan1, warn=False)


@pytest.mark.parametrize("edges", [(1.0, 1.0), (2.0, 3.0)])
def test_eval_solution_refuses_points_within_singular_distance(edges):
    # half the singular distance off a node image the lattice kernels would
    # raise SingularArgumentError; eval_solution refuses the point first
    cell = build_cell(edges)
    q = np.array(edges)
    plan = plan_lattice_sum(cell, ENV1, 1e-10)
    curve = discretize_curve(CircleShape(q / 2, 0.25 * cell.min_edge), 64, cell)
    rep = solve_robin(_data(curve, np.eye(2), -np.eye(2), [0.1, 0.0]), curve, ENV1, cell, plan)
    off = curve.nodes + 0.5e-12 * cell.min_edge * curve.normals
    with pytest.raises(SingularArgumentError):
        eval_single_layer(off[0], rep.mu, ENV1, cell, plan)
    for shift in ([0.0, 0.0], [1.0, -2.0]):
        pts = off + q * shift
        for p in pts[::8]:
            with pytest.raises(DomainError, match="boundary node image"):
                eval_solution(rep, p, ENV1, cell, plan, warn=False)
        with pytest.raises(DomainError, match="boundary node image"):
            eval_solution(rep, np.vstack([q / 4, pts[3]]), ENV1, cell, plan, warn=False)
        with pytest.raises(DomainError, match="inside a hole image"):
            eval_solution(rep, q / 2 + q * shift, ENV1, cell, plan, warn=False)


def _off_node_residual_2n(data, curve, env, cell, plan, mu, c):
    """Midpoint residual read off V and W* reassembled at 2N (the first method)."""
    N2 = 2 * curve.N
    curve2 = curve.resample(N2)
    a, b, g, mu2 = (trig_resample(f.values, N2) for f in (data.a, data.b, data.g, mu))
    fine = RobinData(BoundaryMatrixField(a, curve2), BoundaryMatrixField(b, curve2),
                     BoundaryVectorField(g, curve2), data.B)
    mu_fine = BoundaryVectorField(mu2, curve2)
    V2 = assemble_single_layer(curve2, env, cell, plan)
    W2 = assemble_wstar(curve2, env, cell, plan)
    ainv_b = np.einsum("nij,njk->nik", np.linalg.inv(fine.a.values), fine.b.values)
    lhs = 0.5 * mu_fine.values + W2.apply(mu_fine).values
    vmu = V2.apply(mu_fine).values + c[None, :]
    lhs += np.einsum("nij,nj->ni", ainv_b, vmu)
    res = lhs - robin_rhs(fine, env, cell)
    return float(np.max(np.abs(res[1::2])))


def _varied_data(curve):
    """a = I, a non-constant negative b, a multi-mode g and a drift B != 0."""
    t = curve.params
    g = np.column_stack([
        0.3 + np.cos(2 * t) + 0.2 * np.sin(5 * t),
        np.sin(t) - 0.2 + 0.1 * np.cos(7 * t),
    ])
    b = -(1.0 + 0.3 * np.cos(t))[:, None, None] * np.eye(2) \
        + (0.2 * np.sin(2 * t))[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return RobinData(
        a=constant_matrix_field(np.eye(2), curve),
        b=BoundaryMatrixField(b, curve),
        g=BoundaryVectorField(g, curve),
        B=np.array([[0.1, 0.03], [-0.02, -0.05]]),
    )


ELLIPSE4 = EllipseShape([0.5, 0.5], (0.3, 0.15), rotation=0.4)


@pytest.mark.parametrize("shape, omega, Ns", [
    (CircleShape([0.5, 0.5], 0.25), 1.0, (16, 32, 64)),
    (ELLIPSE4, 4.0, (16, 24, 32, 48, 64, 96)),
    (EllipseShape([0.5, 0.5], (0.45, 0.2)), 0.5, (16, 32, 64, 128)),
], ids=["circle", "ellipse-omega4", "wide-ellipse-omega05"])
def test_off_node_residual_matches_2n_reference(shape, omega, Ns):
    env = LameEnv(2, omega)
    plan = plan_lattice_sum(UNIT, env, 1e-11)
    for N in Ns:
        curve = discretize_curve(shape, N, UNIT)
        data = _varied_data(curve)
        rep = solve_robin(data, curve, env, UNIT, plan)
        new = rep.diagnostics["residual_off_node"]
        ref = _off_node_residual_2n(data, curve, env, UNIT, plan, rep.mu, rep.c)
        if ref > 1e-12:
            assert 0.8 <= new / ref <= 1.25, (N, new, ref)
        else:
            assert new < 1e-12, (N, new, ref)


def test_solve_robin_assembles_at_n_and_counts_residual_pairs(monkeypatch, plan1):
    N = 32
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    data = _varied_data(curve)
    sizes, passes = [], []

    def recording(assemble):
        def wrapper(curve, *args):
            sizes.append(curve.N)
            return assemble(curve, *args)
        return wrapper

    product = lattice.lattice_product

    def counting(x, y, rho, env, cell, plan, periodic, values=True, grads=False):
        passes.append((np.shape(x), np.shape(y), rho is None, periodic, values, grads))
        return product(x, y, rho, env, cell, plan, periodic, values, grads)

    monkeypatch.setattr(robin, "assemble_single_layer", recording(assemble_single_layer))
    monkeypatch.setattr(robin, "assemble_wstar", recording(assemble_wstar))
    monkeypatch.setattr(lattice, "lattice_product", counting)
    monkeypatch.setattr(operators, "lattice_product", counting)
    solve_robin(data, curve, ENV1, UNIT, plan1)
    assert sizes == [N, N]
    # each assembly takes the N x N regular-part blocks, values for V and
    # gradients for W*; the residual takes one product of the regular part,
    # values and gradients, from the N midpoints to the N nodes
    nodes = ((N, 2), (N, 2))
    residual = [nodes + (False, False, True, True)]
    assert passes == [nodes + (True, False, True, False), nodes + (True, False, False, True)] \
        + residual

    ops = (assemble_single_layer(curve, ENV1, UNIT, plan1),
           assemble_wstar(curve, ENV1, UNIT, plan1))
    sizes.clear()
    passes.clear()
    solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
    assert sizes == []
    assert passes == residual

    # at N = 256 V's and W*'s smooth kernels take 64 and 128 coarse nodes,
    # and the residual's product runs from the N midpoints to the larger Nc
    N = 256
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan1),
           assemble_wstar(curve, ENV1, UNIT, plan1))
    passes.clear()
    d = solve_robin(_varied_data(curve), curve, ENV1, UNIT, plan1, operators=ops).diagnostics
    assert (d["lattice_nodes_v"], d["lattice_nodes_wstar"], d["residual_nodes"]) == (64, 128, 128)
    assert passes == [((N, 2), (128, 2), False, False, True, True)]


def test_coarse_lattice_part_keeps_the_off_node_residual(monkeypatch, plan1):
    # the circle at N = 256, solved with V and W* whose lattice parts are
    # interpolated from 64 and 128 nodes, and with their N^2 evaluation: the
    # off-node residual, which evaluates the lattice part at the midpoints by
    # its own product, agrees to 1e-15 of the density's size
    N = 256
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    data = _varied_data(curve)
    coarse = solve_robin(data, curve, ENV1, UNIT, plan1).diagnostics
    monkeypatch.setattr(operators, "_COARSE_START", N)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan1),
           assemble_wstar(curve, ENV1, UNIT, plan1))
    rep = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
    d = rep.diagnostics
    assert (coarse["lattice_nodes_v"], coarse["lattice_nodes_wstar"]) == (64, 128)
    # given operators report their own node counts
    assert (d["lattice_nodes_v"], d["lattice_nodes_wstar"]) == (N, N)
    scale = np.max(np.abs(rep.mu.values))
    assert abs(coarse["residual_off_node"] - d["residual_off_node"]) <= 1e-15 * scale


def test_off_node_residual_sees_an_underresolved_assembly(monkeypatch, plan1):
    # the circle r = 0.45 comes close to its images, so its smooth kernels
    # need the N nodes; with the tail check forced to pass, V and W* are
    # interpolated from 64 nodes, the residual sums over those 64 sources,
    # and the error in t shows at the exact midpoints
    N = 256
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.45), N, UNIT)
    data = _varied_data(curve)
    resolved = solve_robin(data, curve, ENV1, UNIT, plan1).diagnostics
    assert resolved["residual_nodes"] == N and resolved["residual_off_node"] < 1e-12
    monkeypatch.setattr(operators, "_tail_share", lambda blocks: 0.0)
    d = solve_robin(data, curve, ENV1, UNIT, plan1).diagnostics
    assert d["residual_nodes"] == 64
    assert d["residual_off_node"] > 1e-6


def test_residual_forms_no_rule_matrix(monkeypatch, plan1):
    # assembly builds no dense N x N rule; reading V's and W*'s matrices
    # builds each once, and with V and W* given, the solve reads the kept
    # matrices and the off-node residual applies the shifted rules by FFT.
    # At N = 256 both smooth kernels are coarse (Nc < N)
    N = 256
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    data = _varied_data(curve)
    calls, circulant = [], operators.sla.circulant

    def counting(column):
        calls.append(len(column))
        return circulant(column)

    monkeypatch.setattr(operators.sla, "circulant", counting)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan1),
           assemble_wstar(curve, ENV1, UNIT, plan1))
    assert calls == []
    for _ in range(2):
        assert [op.matrix.shape for op in ops] == [(2 * N, 2 * N)] * 2
    assert calls == [N, N]
    calls.clear()
    solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops)
    assert calls == []


def test_density_tail_ratio_tracks_resolution():
    # under-resolved to resolved on the omega = 4 ellipse: the indicator and
    # the off-node residual fall together, by orders of magnitude
    env = LameEnv(2, 4.0)
    plan = plan_lattice_sum(UNIT, env, 1e-11)
    tails, residuals = [], []
    for N in (16, 32, 64, 128):
        curve = discretize_curve(ELLIPSE4, N, UNIT)
        d = solve_robin(_varied_data(curve), curve, env, UNIT, plan).diagnostics
        tails.append(d["density_tail_ratio"])
        residuals.append(d["residual_off_node"])
    # each doubling of N cuts both by at least a factor 100
    assert all(b < 1e-2 * a for a, b in zip(tails, tails[1:]))
    assert all(b < 1e-2 * a for a, b in zip(residuals, residuals[1:]))
    assert tails[0] > 1e-2 and tails[-1] < 1e-11


def test_density_tail_ratio_zero_for_rounding_level_density(circle64, plan1):
    # constant g with a = I, b = -I is solved by mu = 0, c = -g: the computed
    # density is rounding noise and must not read as under-resolved
    rep = solve_robin(_data(circle64, np.eye(2), -np.eye(2), [-0.3, 0.7]), circle64,
                      ENV1, UNIT, plan1)
    assert np.max(np.abs(rep.mu.values)) < 1e-13
    assert rep.diagnostics["density_tail_ratio"] == 0.0


def test_stage_timings_do_not_nest(circle64, plan1):
    # with V and W* assembled by the solver, each stage is counted once: the
    # stages together take no longer than the call, for the linear solve by
    # the LU at N = 64 and by two-grid GMRES at N = 512, whose stages are
    # its own, and for Newton, whose stages add up over its steps, at both
    for curve in (circle64, discretize_curve(CircleShape([0.5, 0.5], 0.25), 512, UNIT)):
        t = curve.params
        h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.2 + 0.1 * np.sin(2 * t)])
        solves = (
            lambda: solve_nonlinear_robin(saturating_model(h, -0.8, curve), np.diag([0.1, -0.05]),
                                          curve, ENV1, UNIT, plan1),
            lambda: solve_robin(_data(curve, np.eye(2), -np.eye(2), [0.1, 0.0]), curve, ENV1,
                                UNIT, plan1),
        )
        for solve in solves:
            t0 = time.perf_counter()
            timings = solve().diagnostics["timings"]
            wall = time.perf_counter() - t0
            assert sum(timings.values()) <= wall
    assert list(timings) == ["validate", "assembly", "rhs", "two_grid_setup", "two_grid_solve",
                             "residual", "off_node_residual"]


def test_stage_timings(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.1, 0.0])
    timings = solve_robin(data, circle64, ENV1, UNIT, plan1).diagnostics["timings"]
    assert list(timings) == ["validate", "assembly", "rhs", "system", "lu", "back_solve",
                             "residual", "off_node_residual"]
    assert all(sec >= 0.0 for sec in timings.values())
    # given operators are not assembled, so no assembly stage is recorded
    operators = (assemble_single_layer(circle64, ENV1, UNIT, plan1),
                 assemble_wstar(circle64, ENV1, UNIT, plan1))
    timings = solve_robin(data, circle64, ENV1, UNIT, plan1,
                          operators=operators).diagnostics["timings"]
    assert list(timings) == ["validate", "rhs", "system", "lu", "back_solve", "residual",
                             "off_node_residual"]
