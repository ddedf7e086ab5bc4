import numpy as np
import pytest
import scipy.linalg as sla

import perilame.nonlinear as nonlinear
from perilame.cell import CircleShape, build_cell, discretize_curve
from perilame.errors import ConvergenceError, DegenerateProblemError
from perilame.kernels import LameEnv
from perilame.lattice import plan_lattice_sum
from perilame.nonlinear import (
    RANK_TOL,
    TractionModel,
    _full_rank_certified,
    affine_model,
    saturating_model,
    solve_nonlinear_robin,
)
from perilame.operators import (
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
)
from perilame.robin import (
    RobinData,
    SolutionRep,
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


@pytest.mark.parametrize("method", ["newton", "picard"])
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


@pytest.mark.parametrize("method", ["newton", "picard"])
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
    model = affine_model(-b, gvals, circle64)
    for method in ("newton", "picard"):
        rep_nl = solve_nonlinear_robin(
            model, B, circle64, ENV1, UNIT, plan1, method=method, operators=ops64
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
    reps = {}
    for method in ("picard", "newton"):
        reps[method] = solve_nonlinear_robin(
            model, B, curve, ENV1, UNIT, plan, method=method, max_iter=30, tol=1e-12
        )
        assert reps[method].diagnostics["iterations"] <= 30
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            pts.append(p)
    pts = np.asarray(pts)
    for method, rep in reps.items():
        u_num = eval_solution(rep, pts, ENV1, UNIT, plan, warn=False)
        assert np.max(np.abs(u_num - u_fn(pts))) < 1e-7, method
    # picard and newton land on the same pair
    assert np.max(
        np.abs(reps["picard"].mu.values - reps["newton"].mu.values)
    ) < 1e-11
    assert np.max(np.abs(reps["picard"].c - reps["newton"].c)) < 1e-11


def test_two_starts_agree_for_monotone_model(circle64, plan1, ops64):
    # strictly monotone law (constant Jacobian -I): the converged pair is
    # independent of the initial guess
    t = circle64.params
    h = np.column_stack([0.3 + 0.2 * np.cos(t), -0.1 + 0.3 * np.sin(t)])
    model = affine_model(-np.eye(2), h, circle64)
    rep_cold = solve_nonlinear_robin(
        model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1, operators=ops64
    )
    warm = SolutionRep(
        mu=BoundaryVectorField(
            np.column_stack([0.5 * np.cos(2 * t), -0.3 * np.sin(t)]), circle64
        ),
        c=np.array([2.0, -1.0]),
        B=np.zeros((2, 2)),
    )
    rep_warm = solve_nonlinear_robin(
        model, np.zeros((2, 2)), circle64, ENV1, UNIT, plan1,
        operators=ops64, initial=warm,
    )
    assert np.max(np.abs(rep_cold.mu.values - rep_warm.mu.values)) < 1e-8
    assert np.max(np.abs(rep_cold.c - rep_warm.c)) < 1e-8


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


@pytest.mark.parametrize("method", ["Picard", "bogus"])
def test_unknown_method_rejected(circle64, plan1, ops64, method):
    model = saturating_model(np.array([0.3, -0.2]), -0.8, circle64)
    with pytest.raises(ValueError, match="'newton' or 'picard'"):
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
            method="picard", max_iter=5, operators=ops64,
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
    assert list(d["timings"]) == ["iteration"] and d["timings"]["iteration"] >= 0.0
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


@pytest.fixture
def svdvals_calls(monkeypatch):
    """Count the singular value decompositions the solver runs."""
    calls, svdvals = [], sla.svdvals

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(nonlinear.sla, "svdvals", counted)
    return calls


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
@pytest.mark.parametrize("method", ["newton", "picard"])
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


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_degeneracy_reported_without_warning(circle64, plan1, ops64):
    # G == 0 with B = 0 leaves the c columns of J exactly zero: the LU, which
    # runs before the SVD, meets an exactly zero pivot and must stay silent
    test_degeneracy_reported(circle64, plan1, ops64)
