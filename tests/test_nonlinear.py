import numpy as np
import pytest
import scipy.linalg as sla

import perilame.robin as robin
from perilame.cell import CircleShape, EllipseShape, build_cell, discretize_curve
from perilame.errors import ConvergenceError, DegenerateProblemError
from perilame.kernels import LameEnv, traction
from perilame.lattice import plan_lattice_sum
from perilame.nonlinear import (
    TractionModel,
    affine_model,
    saturating_model,
    solve_nonlinear_robin,
)
from perilame.operators import (
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    trig_resample,
)
from perilame.robin import (
    RANK_TOL,
    RobinData,
    _full_rank_certified,
    _lu_condition,
    augmented_matrix,
    constant_matrix_field,
    eval_solution,
    solve_robin,
)
from perilame.verify import _sources_field

UNIT = build_cell([1.0, 1.0])
ENV1 = LameEnv(2, 1.0)


@pytest.fixture(scope="module")
def plan1():
    return plan_lattice_sum(UNIT, ENV1, 1e-11)


@pytest.fixture(scope="module")
def circle64():
    return discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)


@pytest.fixture(scope="module")
def ops64(circle64, plan1):
    V = assemble_single_layer(circle64, ENV1, UNIT, plan1)
    W = assemble_wstar(circle64, ENV1, UNIT, plan1)
    return V, W


@pytest.fixture(scope="module")
def circle_ops(circle64, ops64, plan1):
    """circle_ops(N) -> (curve, (V, W*)) of the r = 0.25 circle, assembled once per N."""
    cache = {64: (circle64, ops64)}

    def get(N):
        if N not in cache:
            curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
            cache[N] = (curve, (assemble_single_layer(curve, ENV1, UNIT, plan1),
                                assemble_wstar(curve, ENV1, UNIT, plan1)))
        return cache[N]

    return get


def test_apply_model_values(circle64):
    N = circle64.N
    zero = affine_model(np.zeros((2, 2)), np.zeros(2), circle64)
    U = np.tile([5.0, -2.0], (N, 1))
    assert zero.fn(U).shape == (N, 2) and zero.jac(U).shape == (N, 2, 2)
    assert np.max(np.abs(zero.fn(U))) == 0.0
    assert np.max(np.abs(zero.jac(U))) == 0.0

    neg = affine_model(-np.eye(2), np.zeros(2), circle64)
    assert np.allclose(neg.fn(np.tile([1.0, 2.0], (N, 1))), [-1.0, -2.0])

    sat = saturating_model(np.zeros(2), 1.0, circle64)
    U = np.tile([1.0, 0.0], (N, 1))
    assert np.allclose(sat.fn(U), [0.5, 0.0])
    assert sat.jac(U).shape == (N, 2, 2)


def test_saturating_jacobian_matches_central_differences(circle64):
    t = circle64.params
    h = np.column_stack([0.3 + 0.1 * np.cos(t), -0.2 * np.sin(t)])
    model = saturating_model(h, -0.8, circle64)
    U = np.column_stack([0.7 * np.cos(3 * t), 0.4 + 0.5 * np.sin(t)])
    step = 1e-6
    fd = np.empty((circle64.N, 2, 2))
    for k, e in enumerate(step * np.eye(2)):
        fd[:, :, k] = (model.fn(U + e) - model.fn(U - e)) / (2 * step)
    assert np.max(np.abs(model.jac(U) - fd)) < 1e-9


# "newton" is the one method solve_nonlinear_robin accepts
@pytest.mark.parametrize("method", ["newton"])
@pytest.mark.parametrize("eps", [1e-15, 1e-13])
def test_rank_criterion_pinned(circle64, plan1, ops64, method, eps):
    # G = h + eps u with B = 0 leaves c constrained only through eps: at these
    # eps the smallest singular value is at most 1e-12 times the largest
    t = circle64.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])
    model = affine_model(eps * np.eye(2), h, circle64)
    with pytest.raises(DegenerateProblemError):
        solve_nonlinear_robin(
            model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
            method=method, operators=ops64,
        )


@pytest.mark.parametrize("method", ["newton"])
def test_weak_coupling_converges_with_relative_stop(circle64, plan1, ops64, method):
    # G = h + 1e-11 u with B = 0 is solvable, with |c| ~ 3e10; the update
    # stalls near 1e-6 by rounding, far above an absolute 1e-11 but well below
    # tol * |c|
    eps = 1e-11
    t = circle64.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])
    rep = solve_nonlinear_robin(
        affine_model(eps * np.eye(2), h, circle64), np.zeros((2, 2)), circle64,
        ENV1, UNIT, plan1, method=method, operators=ops64,
    )
    assert rep.diagnostics["iterations"] < 30
    assert rep.diagnostics["residual_on_node"] < 1e-10
    # zero net traction: integral of h + eps (V mu + c) vanishes
    mean_h = boundary_integral(BoundaryVectorField(h, circle64))
    length = np.sum(circle64.weights)
    assert np.max(np.abs(eps * rep.c + mean_h / length)) < 1e-9


def test_affine_reduces_to_linear_robin(circle64, plan1, ops64):
    t = circle64.params
    gvals = np.column_stack([0.2 + 0.1 * np.cos(t), -0.3 + 0.2 * np.sin(2 * t)])
    b = -np.eye(2)
    B = np.diag([0.1, -0.05])
    data = RobinData(
        a=constant_matrix_field(np.eye(2), circle64),
        b=constant_matrix_field(b, circle64),
        g=BoundaryVectorField(gvals, circle64),
        B=B,
    )
    rep_lin = solve_robin(data, circle64, ENV1, UNIT, plan1, operators=ops64)
    rep_nl = solve_nonlinear_robin(
        affine_model(-b, gvals, circle64), B, circle64, ENV1, UNIT, plan1, operators=ops64
    )
    assert np.max(np.abs(rep_lin.mu.values - rep_nl.mu.values)) < 1e-9
    assert np.max(np.abs(rep_lin.c - rep_nl.c)) < 1e-9


def test_manufactured_nonlinear_solution():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-12)
    N = 128
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    cstar = np.array([0.2, -0.4])
    B = np.diag([0.15, -0.1])
    u_fn, trac_fn = _sources_field(
        ENV1, UNIT, plan, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0), cstar, B
    )
    tstar = trac_fn(curve.nodes, curve.normals)
    ustar = u_fn(curve.nodes)
    lam = -np.eye(2)
    model = TractionModel(
        lambda U: tstar + (U - ustar) @ lam.T, lambda U: np.broadcast_to(lam, (N, 2, 2))
    )
    rep = solve_nonlinear_robin(model, B, curve, ENV1, UNIT, plan, max_iter=30, tol=1e-12)
    assert rep.diagnostics["iterations"] <= 30
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            pts.append(p)
    pts = np.asarray(pts)
    u_num = eval_solution(rep, pts, ENV1, UNIT, plan, warn=False)
    assert np.max(np.abs(u_num - u_fn(pts))) < 1e-7


def test_saturating_model_converges(circle64, plan1, ops64):
    model = saturating_model(np.array([0.3, -0.2]), -0.8, circle64)
    rep = solve_nonlinear_robin(
        model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
        method="newton", operators=ops64,
    )
    assert rep.diagnostics["residual_on_node"] < 1e-10
    assert rep.diagnostics["zero_mean_violation"] < 1e-10
    # consistency of the converged solution with the residual definition
    V, W = ops64
    U = V.apply(rep.mu).values + rep.c[None, :]
    G = model.fn(U)
    res = 0.5 * rep.mu.values + W.apply(rep.mu).values - G
    assert np.max(np.abs(res)) < 1e-10


@pytest.mark.parametrize("method", ["Picard", "bogus", "picard"])
def test_unknown_method_rejected(circle64, plan1, ops64, method):
    model = saturating_model(np.array([0.3, -0.2]), -0.8, circle64)
    with pytest.raises(ValueError, match="must be 'newton'"):
        solve_nonlinear_robin(model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
                              method=method, operators=ops64)


def test_degeneracy_reported(circle64, plan1, ops64):
    model = TractionModel(lambda U: np.zeros_like(U), lambda U: np.zeros(U.shape + (2,)))
    with pytest.raises(DegenerateProblemError) as info:
        solve_nonlinear_robin(
            model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1, operators=ops64
        )
    assert info.value.smallest_singular_value < 1e-14


def test_nonconvergence_reported(circle64, plan1, ops64):
    # an expanding law with a misleading Jacobian cannot meet the tolerance
    model = TractionModel(
        lambda U: 5.0 * np.tanh(U) + np.array([1.0, 0.0]),
        lambda U: np.broadcast_to(-np.eye(2), U.shape + (2,)),
    )
    with pytest.raises(ConvergenceError) as info:
        solve_nonlinear_robin(
            model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
            max_iter=5, operators=ops64,
        )
    assert len(info.value.trace) >= 1


def test_zero_mean_constraint_enforced(circle64, plan1, ops64):
    t = circle64.params
    h = np.column_stack([0.4 + 0.1 * np.sin(2 * t), 0.2 * np.cos(t)])
    model = affine_model(-np.eye(2), h, circle64)
    rep = solve_nonlinear_robin(
        model, np.diag([0.1, 0.2]), circle64, ENV1, UNIT, plan1, operators=ops64
    )
    assert np.max(np.abs(boundary_integral(rep.mu))) < 1e-10


def test_iteration_timing_and_tail_ratio(circle64, plan1, ops64):
    t = circle64.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.2 + 0.1 * np.sin(2 * t)])
    model = saturating_model(h, -0.8, circle64)
    d = solve_nonlinear_robin(
        model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
        method="newton", operators=ops64,
    ).diagnostics
    assert list(d["timings"]) == ["residual", "two_grid_setup", "two_grid_solve"]
    assert all(sec >= 0.0 for sec in d["timings"].values())
    # a smooth law on the resolved circle leaves almost nothing in the top modes
    assert 0.0 <= d["density_tail_ratio"] < 1e-10


def test_lattice_nodes_reported(circle64, plan1, ops64):
    # assembled at N = 128, W*'s lattice part needs all 128 nodes at tol
    # 1e-11 and V's 64; given operators report their own node counts
    model = lambda curve: saturating_model(np.array([0.3, -0.2]), -0.8, curve)
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    d = solve_nonlinear_robin(model(curve), np.diag([0.1, -0.05]), curve, ENV1, UNIT,
                              plan1).diagnostics
    assert (d["lattice_nodes_v"], d["lattice_nodes_wstar"]) == (64, 128)
    d = solve_nonlinear_robin(model(circle64), np.diag([0.1, -0.05]), circle64, ENV1, UNIT,
                              plan1, operators=ops64).diagnostics
    assert (d["lattice_nodes_v"], d["lattice_nodes_wstar"]) == (64, 64)


def test_tail_ratio_zero_for_constant_solution(circle64, plan1, ops64):
    # constant h: the solution is a constant displacement, mu = 0 up to
    # rounding, which must not read as an under-resolved density
    model = saturating_model(np.array([0.3, -0.2]), -0.8, circle64)
    rep = solve_nonlinear_robin(
        model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
        method="newton", operators=ops64,
    )
    assert np.max(np.abs(rep.mu.values)) < 1e-13
    assert rep.diagnostics["density_tail_ratio"] == 0.0


@pytest.mark.parametrize("N", [64, 256])
def test_saturating_newton_needs_no_svd(circle_ops, plan1, svdvals_calls, N):
    # the gecon screen certifies every Jacobian of a saturating law with a
    # wide margin, so Newton costs its LUs
    curve, ops = circle_ops(N)
    t = curve.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.2 + 0.1 * np.sin(2 * t)])
    d = solve_nonlinear_robin(
        saturating_model(h, -0.8, curve), np.diag([0.1, -0.05]), curve, ENV1, UNIT,
        plan1, method="newton", operators=ops,
    ).diagnostics
    assert d["iterations"] >= 3
    assert svdvals_calls == [] and d["rank_checks"] == 0
    assert 1.0 < d["condition_estimate"] < 1e8


# smallest singular values of the eps sweep, as recorded when the rank check
# was one svdvals per Jacobian
SWEEP_SMIN = {
    (64, 1e-15): 1.8876e-15, (64, 1e-13): 1.8985e-13,
    (256, 1e-15): 1.9365e-15, (256, 1e-13): 1.9402e-13,
}


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("method", ["newton"])
@pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-11])
def test_weak_coupling_sweep(circle_ops, plan1, svdvals_calls, N, method, eps):
    # G = h + eps u with B = 0: c is constrained only through eps
    curve, ops = circle_ops(N)
    t = curve.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])

    def solve():
        return solve_nonlinear_robin(
            affine_model(eps * np.eye(2), h, curve), np.zeros((2, 2)), curve, ENV1,
            UNIT, plan1, method=method, operators=ops,
        )

    if eps < 1e-12:
        with pytest.raises(DegenerateProblemError) as info:
            solve()
        assert info.value.smallest_singular_value == pytest.approx(
            SWEEP_SMIN[N, eps], rel=0.01
        )
        assert len(svdvals_calls) == 1
        return
    rep = solve()
    mean_h = boundary_integral(BoundaryVectorField(h, curve))
    assert np.max(np.abs(eps * rep.c + mean_h / np.sum(curve.weights))) < 1e-9
    assert rep.diagnostics["rank_checks"] == len(svdvals_calls)
    # smin / max(smax, 1) is 1.9e-11 at both N; the screen's lower bound is
    # 1.035e-12 at N = 64, just clear of RANK_TOL, and 4.6e-13 at N = 256,
    # where the singular values decide
    if N == 64:
        assert svdvals_calls == []
    else:
        assert len(svdvals_calls) >= 1


@pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6, -0.8])
def test_screen_certifies_only_full_rank(circle64, ops64, eps):
    # whatever the screen certifies, the singular value criterion accepts,
    # and it certifies a saturating-law Jacobian (eps = -0.8) outright
    K = np.broadcast_to(-eps * np.eye(2), (circle64.N, 2, 2))
    J = augmented_matrix(K, *ops64, circle64)
    norms = np.linalg.norm(J, 1), np.linalg.norm(J, np.inf)
    _, cond = _lu_condition(J, norms[0])
    s = sla.svdvals(J)
    full_rank = s[-1] > RANK_TOL * max(s[0], 1.0)
    assert full_rank or not _full_rank_certified(J.shape[0], cond, *norms)
    if abs(eps) >= 1e-9:
        assert _full_rank_certified(J.shape[0], cond, *norms)


def test_degeneracy_reported_without_warning(circle64, plan1, ops64):
    # G == 0 with B = 0 leaves the c columns of J exactly zero: the LU, which
    # runs before the SVD, meets an exactly zero pivot and must stay silent
    test_degeneracy_reported(circle64, plan1, ops64)


TWO_GRID_CURVES = {
    "circle-0.25": CircleShape([0.5, 0.5], 0.25),
    "ellipse": EllipseShape([0.5, 0.5], (0.2, 0.4), 0.3),
    "circle-0.45": CircleShape([0.5, 0.5], 0.45),
}
# the most GMRES iterations a Newton step takes on the saturating law below,
# the same at N = 128, 256 and 512; at N = 64 the preconditioner is J^{-1}
# and a step takes one (circle r = 0.45 is left out at 512, where its
# assembly alone takes 0.7 s)
KRYLOV_BOUND = {"circle-0.25": 1, "ellipse": 5, "circle-0.45": 12}


@pytest.fixture(scope="module")
def curve_ops(plan1):
    """curve_ops(name, N) -> (curve, (V, W*)), assembled once per curve and N."""
    cache = {}

    def get(name, N):
        if (name, N) not in cache:
            curve = discretize_curve(TWO_GRID_CURVES[name], N, UNIT)
            cache[name, N] = (curve, (assemble_single_layer(curve, ENV1, UNIT, plan1),
                                      assemble_wstar(curve, ENV1, UNIT, plan1)))
        return cache[name, N]

    return get


def _law_h(curve):
    t = curve.params
    return np.column_stack([0.3 + 0.2 * np.cos(t), -0.2 + 0.1 * np.sin(2 * t)])


def _saturating_law(curve, kappa):
    return saturating_model(_law_h(curve), kappa, curve)


def _direct_newton(model, B, curve, ops, steps=10):
    """(mu, c) after full Newton steps, each solved with the assembled Jacobian."""
    V, W = ops
    N = curve.N
    drift = traction(B @ UNIT.q_inv, curve.normals, ENV1.omega).reshape(-1)
    bx = curve.nodes @ (B @ UNIT.q_inv).T
    x = np.zeros(2 * N + 2)
    for _ in range(steps):
        mu = x[:-2]
        U = (V.matrix @ mu).reshape(N, 2) + x[-2:] + bx
        F = np.concatenate([0.5 * mu + W.matrix @ mu - model.fn(U).reshape(-1) + drift,
                            [curve.weights @ mu[0::2], curve.weights @ mu[1::2]]])
        x = x - sla.solve(augmented_matrix(-model.jac(U), V, W, curve), F)
    return x[:-2].reshape(N, 2), x[-2:]


@pytest.mark.parametrize("N, name", [(N, name) for N in (64, 128, 256, 512)
                                     for name in TWO_GRID_CURVES
                                     if (N, name) != (512, "circle-0.45")])
def test_two_grid_newton_steps(curve_ops, plan1, name, N):
    # every Newton step, the first included, solves by GMRES with the
    # two-grid preconditioner: no fine LU, a per-step iteration count that
    # does not grow with N, and the solution of Newton with the fine LU
    curve, ops = curve_ops(name, N)
    model, B = _saturating_law(curve, -0.8), np.diag([0.1, -0.05])
    rep = solve_nonlinear_robin(model, B, curve, ENV1, UNIT, plan1, operators=ops)
    d = rep.diagnostics
    krylov = d["krylov_iterations"]
    assert len(krylov) == d["iterations"]
    assert 0 < max(krylov) <= KRYLOV_BOUND[name]
    assert d["fine_factorizations"] == 0 and d["rank_checks"] == 0
    if N <= 256:
        mu, c = _direct_newton(model, B, curve, ops)
        assert np.max(np.abs(rep.mu.values - mu)) <= 1e-12 * np.max(np.abs(mu))
        assert np.max(np.abs(rep.c - c)) <= 1e-12 * np.max(np.abs(c))


def test_newton_forms_no_dense_matrix():
    # the newton-n512 benchmark's law at its first seed's geometry (a
    # saturating law whose solution is a two-source field with c and a
    # drift) on the circle r = 0.25 at N = 512, plan tol 1e-10: V and W*
    # apply by FFT (4 Nc <= N), and Newton never forms their dense matrices
    plan = plan_lattice_sum(UNIT, ENV1, 1e-10)
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 512, UNIT)
    ops = (assemble_single_layer(curve, ENV1, UNIT, plan), assemble_wstar(curve, ENV1, UNIT, plan))
    B, kappa = np.diag([0.1, -0.05]), -0.8
    u_fn, trac_fn = _sources_field(ENV1, UNIT, plan, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0),
                                   cstar=np.array([0.2, -0.4]), B=B)
    ustar = u_fn(curve.nodes)
    h = trac_fn(curve.nodes, curve.normals) \
        - kappa * ustar / (1.0 + np.sum(ustar * ustar, axis=1))[:, None]
    d = solve_nonlinear_robin(saturating_model(h, kappa, curve), B, curve, ENV1, UNIT, plan,
                              operators=ops).diagnostics
    assert d["fine_factorizations"] == 0
    for op in ops:
        assert 4 * op.lattice_nodes <= curve.N
        assert "matrix" not in vars(op)


def test_fine_lu_steps_counted(circle_ops, plan1):
    # at N <= 64 the coarse grid is the fine one, so the preconditioner is
    # J^{-1}: one GMRES iteration per step and no fine LU
    curve, ops = circle_ops(64)
    d = solve_nonlinear_robin(_saturating_law(curve, -0.8), np.diag([0.1, -0.05]), curve,
                              ENV1, UNIT, plan1, operators=ops).diagnostics
    assert d["iterations"] >= 3 and set(d["krylov_iterations"]) <= {0, 1}
    assert d["fine_factorizations"] == 0 and d["rank_checks"] == 0


def test_gmres_cap_falls_back_to_the_fine_lu(curve_ops, plan1, monkeypatch):
    # a step whose GMRES misses GMRES_CAP is solved by the fine LU: one fine
    # LU and a Krylov count of 0 for each such step, and the same solution
    curve, ops = curve_ops("ellipse", 128)
    model, B = _saturating_law(curve, -0.8), np.diag([0.1, -0.05])
    ref = solve_nonlinear_robin(model, B, curve, ENV1, UNIT, plan1, operators=ops)
    krylov, cap = ref.diagnostics["krylov_iterations"], 4
    assert max(krylov) > cap
    monkeypatch.setattr(robin, "GMRES_CAP", cap)
    rep = solve_nonlinear_robin(model, B, curve, ENV1, UNIT, plan1, operators=ops)
    d = rep.diagnostics
    assert d["krylov_iterations"] == [0 if k > cap else k for k in krylov]
    assert d["fine_factorizations"] == sum(k > cap for k in krylov)
    mu, c = ref.mu.values, ref.c
    assert np.max(np.abs(rep.mu.values - mu)) <= 1e-12 * np.max(np.abs(mu))
    assert np.max(np.abs(rep.c - c)) <= 1e-12 * np.max(np.abs(c))


@pytest.mark.parametrize("kappa, error", [(0.5, DegenerateProblemError),
                                          (-0.5, ConvergenceError)])
def test_two_grid_newton_failures(curve_ops, plan1, kappa, error):
    # a singular iterate fails the coarse screen and is decided on the fine
    # Jacobian; a law Newton cannot solve still runs out of iterations
    curve, ops = curve_ops("circle-0.25", 128)
    with pytest.raises(error):
        solve_nonlinear_robin(_saturating_law(curve, kappa), np.diag([0.1, -0.05]), curve,
                              ENV1, UNIT, plan1, operators=ops)


def coarse_jacobian_is_galerkin(curve, V, W):
    """Asserts that the matrix the two-grid screen factors on the curve is R J P.

    R and P act on both components and the c entries pass through, also
    for nodal blocks K whose factor 1 + 0.5 cos 40t the coarse grid cannot
    carry.
    """
    N = curve.N
    seen, lu_condition = [], robin._lu_condition

    def copied(matrix, norm_1):
        seen.append(np.array(matrix))
        return lu_condition(matrix, norm_1)

    t = curve.params
    U = np.column_stack([0.3 * np.cos(t), 0.2 * np.sin(2 * t)])
    K = -(1.0 + 0.5 * np.cos(40 * t))[:, None, None] * _saturating_law(curve, -0.8).jac(U)
    Nc = robin._COARSE_START
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(robin, "_lu_condition", copied)
        robin._AugmentedSolver((V, W), curve, True, "Newton Jacobian", "", {}).factor(K)
    P = trig_resample(np.eye(Nc), N)
    P2 = sla.block_diag(np.kron(P, np.eye(2)), np.eye(2))
    R2 = sla.block_diag(np.kron((Nc / N) * P.T, np.eye(2)), np.eye(2))
    expected = R2 @ augmented_matrix(K, V, W, curve) @ P2
    assert len(seen) == 1
    assert np.max(np.abs(seen[0] - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("N", [128, 256])
def test_coarse_jacobian_is_galerkin(circle_ops, N):
    # the coarse Jacobian against R J P formed densely, on the circle r = 0.25
    curve, (V, W) = circle_ops(N)
    coarse_jacobian_is_galerkin(curve, V, W)


def test_condition_estimate_same_at_every_n(circle_ops, plan1):
    # the estimate is the coarse Jacobian's: it does not grow with N, repeats
    # bit for bit, and still sees the weak coupling G = h + 1e-8 u
    def estimate(N, law, B):
        curve, ops = circle_ops(N)
        return solve_nonlinear_robin(law(curve), B, curve, ENV1, UNIT, plan1,
                                     operators=ops).diagnostics["condition_estimate"]

    def saturating(N):
        return estimate(N, lambda curve: _saturating_law(curve, -0.8), np.diag([0.1, -0.05]))

    repeated = {saturating(128) for _ in range(10)}
    assert len(repeated) == 1
    values = [saturating(64), *repeated, saturating(256)]
    assert max(values) - min(values) <= 1e-12 * min(values)
    for N in (64, 256):
        weak = estimate(N, lambda curve: affine_model(1e-8 * np.eye(2), _law_h(curve), curve),
                        np.zeros((2, 2)))
        assert weak > 1e7


def test_both_solvers_report_one_set_of_counts(circle_ops, plan1):
    # the linear solve is the fine LU at N = 64 and two-grid GMRES at
    # N = 512, Newton two-grid GMRES at both: each solver reports the same
    # keys on either path, and both report the augmented solve's counts
    counts = {"condition_estimate", "krylov_iterations", "fine_factorizations", "rank_checks"}
    B = np.diag([0.1, -0.05])
    keys = {"linear": [], "newton": []}
    for N in (64, 512):
        curve, ops = circle_ops(N)
        data = RobinData(a=constant_matrix_field(np.eye(2), curve),
                         b=constant_matrix_field(-np.eye(2), curve),
                         g=BoundaryVectorField(_law_h(curve), curve), B=B)
        linear = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops).diagnostics
        newton = solve_nonlinear_robin(_saturating_law(curve, -0.8), B, curve, ENV1, UNIT, plan1,
                                       operators=ops).diagnostics
        assert linear["fine_factorizations"] == (N == 64) and newton["fine_factorizations"] == 0
        assert len(linear["krylov_iterations"]) == 1
        assert len(newton["krylov_iterations"]) == newton["iterations"]
        keys["linear"].append(set(linear))
        keys["newton"].append(set(newton))
    for solver, (at_64, at_512) in keys.items():
        assert at_64 == at_512 and counts <= at_64, solver


def test_both_solvers_time_the_same_stages(circle_ops, curve_ops, plan1, monkeypatch):
    # at N = 512 both solvers solve by two-grid GMRES and name its work and
    # their residuals alike; a Newton step left to the fine LU (GMRES_CAP
    # patched below the ellipse's counts, as in
    # test_gmres_cap_falls_back_to_the_fine_lu) adds the fine LU's stages
    curve, ops = circle_ops(512)
    B = np.diag([0.1, -0.05])
    data = RobinData(a=constant_matrix_field(np.eye(2), curve),
                     b=constant_matrix_field(-np.eye(2), curve),
                     g=BoundaryVectorField(_law_h(curve), curve), B=B)
    stages = {"two_grid_setup", "two_grid_solve", "residual"}
    linear = solve_robin(data, curve, ENV1, UNIT, plan1, operators=ops).diagnostics
    newton = solve_nonlinear_robin(_saturating_law(curve, -0.8), B, curve, ENV1, UNIT, plan1,
                                   operators=ops).diagnostics
    assert stages <= set(linear["timings"]) and set(newton["timings"]) == stages
    curve, ops = curve_ops("ellipse", 128)
    monkeypatch.setattr(robin, "GMRES_CAP", 4)
    d = solve_nonlinear_robin(_saturating_law(curve, -0.8), B, curve, ENV1, UNIT, plan1,
                              operators=ops).diagnostics
    assert d["fine_factorizations"] >= 1
    assert set(d["timings"]) == stages | {"system", "lu", "back_solve"}
