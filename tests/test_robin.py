import numpy as np
import pytest

from perilame.cell import CircleShape, build_cell, discretize_curve
from perilame.errors import AdmissibilityError, DomainError
from perilame.kernels import LameEnv, traction_map
from perilame.lattice import periodic_green, periodic_green_grad, plan_lattice_sum
from perilame.operators import (
    BoundaryMatrixField,
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
)
from perilame.robin import (
    RobinData,
    assemble_robin_system,
    augmented_matrix,
    constant_matrix_field,
    constant_vector_field,
    eval_solution,
    representation_roundtrip,
    robin_rhs,
    solve_neumann_aux,
    solve_robin,
    validate_robin_data,
)

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


def test_validation_reports_integral_conditioning(circle64):
    # the integral determinant and its condition number are reported, not
    # thresholded away; near-degenerate data is the intended study regime
    diag = validate_robin_data(_data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0]))
    assert diag["cond_integral_ainv_b"] == pytest.approx(1.0)


def test_system_size_and_zero_rhs(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.0, 0.0])
    system = assemble_robin_system(data, circle64, ENV1, UNIT, plan1)
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


def _sources_field(env, cell, plan, x0, x1, dvec):
    x0, x1, dvec = map(np.asarray, (x0, x1, dvec))

    def u_fn(pts):
        pts = np.atleast_2d(pts)
        out = np.einsum("pjk,k->pj", periodic_green(pts - x0, env, cell, plan), dvec)
        return out - np.einsum(
            "pjk,k->pj", periodic_green(pts - x1, env, cell, plan), dvec
        )

    def trac_fn(pts, normals):
        pts = np.atleast_2d(pts)
        Du = np.einsum(
            "pjkm,k->pjm", periodic_green_grad(pts - x0, env, cell, plan), dvec
        )
        Du -= np.einsum(
            "pjkm,k->pjm", periodic_green_grad(pts - x1, env, cell, plan), dvec
        )
        return np.einsum("pjm,pm->pj", traction_map(env.omega, Du), normals)

    return u_fn, trac_fn


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
    assert np.max(np.abs(solve_neumann_aux(zero, circle64, ENV1, UNIT, plan1, wstar=W).values)) == 0.0
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
        mu = solve_neumann_aux(psi, circle64, ENV1, UNIT, plan1, wstar=W)
        res = 0.5 * mu.values + W.apply(mu).values - vals
        assert np.max(np.abs(res)) < 1e-11
        assert np.max(np.abs(
            boundary_integral(psi) - factor * boundary_integral(mu)
        )) < 1e-8


def test_representation_roundtrip_cases(circle64, plan1):
    V = assemble_single_layer(circle64, ENV1, UNIT, plan1)
    W = assemble_wstar(circle64, ENV1, UNIT, plan1)

    # constant field: mu = 0, c = c0
    c0 = np.array([0.8, -0.1])
    mu_rec, c_rec, _ = representation_roundtrip(
        lambda pts: np.tile(c0, (np.atleast_2d(pts).shape[0], 1)),
        lambda pts, normals: np.zeros((np.atleast_2d(pts).shape[0], 2)),
        circle64, ENV1, UNIT, plan1,
    )
    assert np.max(np.abs(mu_rec.values)) < 1e-11
    assert np.max(np.abs(c_rec - c0)) < 1e-11

    # synthesized single layer plus constant
    rng = np.random.default_rng(32)
    t = circle64.params
    vals = np.zeros((64, 2))
    for m in range(1, 4):
        vals += np.outer(np.cos(m * t), rng.normal(size=2))
        vals += np.outer(np.sin(m * t), rng.normal(size=2))
    mu0 = BoundaryVectorField(vals, circle64)
    v_bdry = V.apply(mu0).values

    def u_fn(pts):
        pts = np.atleast_2d(pts)
        if pts.shape == circle64.nodes.shape and np.allclose(pts, circle64.nodes):
            return v_bdry + c0[None, :]
        from perilame.operators import eval_single_layer

        return eval_single_layer(pts, mu0, ENV1, UNIT, plan1, warn=False) + c0[None, :]

    mu_rec, c_rec, report = representation_roundtrip(
        u_fn,
        lambda pts, normals: 0.5 * vals + W.apply(mu0).values,
        circle64, ENV1, UNIT, plan1,
        test_points=np.array([[0.1, 0.1], [0.9, 0.4]]),
    )
    assert np.max(np.abs(mu_rec.values - vals)) < 1e-9
    assert np.max(np.abs(c_rec - c0)) < 1e-9
    assert report["reconstruction_error"] < 1e-9


def test_eval_solution_rejects_hole_interior(circle64, plan1):
    data = _data(circle64, np.eye(2), -np.eye(2), [0.1, 0.0])
    rep = solve_robin(data, circle64, ENV1, UNIT, plan1)
    with pytest.raises(DomainError):
        eval_solution(rep, np.array([0.5, 0.5]), ENV1, UNIT, plan1)
    with pytest.raises(DomainError):
        eval_solution(rep, np.array([1.5, -0.5]), ENV1, UNIT, plan1)
