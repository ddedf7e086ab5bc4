"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines with the measured errors against their pinned tolerances.
"""

import time

import numpy as np
import pytest

from perilame.cell import (
    CircleShape,
    EllipseShape,
    build_cell,
    discretize_curve,
    hole_area,
    nearest_image,
)
from perilame.errors import AdmissibilityError, DegenerateProblemError
from perilame.kernels import LameEnv, traction_map
from perilame.lattice import (
    pde_residual,
    periodic_green,
    periodic_green_grad,
    plan_lattice_sum,
    regular_part,
)
from perilame.nonlinear import affine_model, solve_nonlinear_robin, tabulated_model
from perilame.operators import (
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    eval_traction_offboundary,
)
from perilame.robin import (
    RobinData,
    constant_matrix_field,
    constant_vector_field,
    eval_solution,
    representation_roundtrip,
    solve_neumann_aux,
    solve_robin,
    validate_robin_data,
)
from perilame.verify import oracle_filtered_fourier

CELLS = ((1.0, 1.0), (2.0, 3.0))
OMEGAS = (0.5, 1.0, 4.0)
UNIT = build_cell((1.0, 1.0))
ENV1 = LameEnv(2, 1.0)


def _report(criterion, err, tol, extra=""):
    status = "PASS" if err <= tol else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"criterion {criterion}: {status} (max error {err:.3e} <= {tol:.1e}){tail}")
    assert err <= tol, f"criterion {criterion}: {err:.3e} > {tol:.1e}"


def _off_lattice_points(cell, count, rng, min_frac=0.15):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-1.0, 2.0, size=2) * np.asarray(cell.q_diag)
        if np.linalg.norm(nearest_image(p, cell)) >= min_frac * cell.min_edge:
            pts.append(p)
    return np.asarray(pts)


@pytest.fixture(scope="module")
def plan_unit():
    return plan_lattice_sum(UNIT, ENV1, 1e-11)


@pytest.fixture(scope="module")
def plan_unit_tight():
    return plan_lattice_sum(UNIT, ENV1, 1e-12)


def test_criterion_01_green_certification():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_oracle = 0.0
    worst_sym = 0.0
    worst_per = 0.0
    for edges in CELLS:
        cell = build_cell(edges)
        for omega in OMEGAS:
            env = LameEnv(2, omega)
            plan = plan_lattice_sum(cell, env, 1e-10)
            pts = _off_lattice_points(cell, 20, rng)
            G = periodic_green(pts, env, cell, plan)
            for p, g in zip(pts, G):
                worst_oracle = max(
                    worst_oracle,
                    float(np.max(np.abs(g - oracle_filtered_fourier(p, env, cell)))),
                )
            worst_sym = max(
                worst_sym,
                float(np.max(np.abs(G - periodic_green(-pts, env, cell, plan)))),
            )
            for j, e in enumerate(np.eye(2)):
                shifted = periodic_green(
                    pts + e * np.asarray(edges), env, cell, plan
                )
                worst_per = max(worst_per, float(np.max(np.abs(G - shifted))))
    elapsed = time.time() - t0
    err = max(worst_oracle, worst_sym, worst_per)
    extra = f"oracle {worst_oracle:.1e}, evenness {worst_sym:.1e}, " \
            f"periodicity {worst_per:.1e}, runtime {elapsed:.1f}s"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(1, err, 1e-9, extra)


def test_criterion_02_pde_residual():
    rng = np.random.default_rng(102)
    worst = 0.0
    decay_ok = True
    for edges in CELLS:
        cell = build_cell(edges)
        for omega in OMEGAS:
            env = LameEnv(2, omega)
            plan = plan_lattice_sum(cell, env, 1e-13)
            pts = _off_lattice_points(cell, 10, rng, min_frac=0.25)
            res = [pde_residual(p, int(rng.integers(0, 2)), env, cell, plan, h=1e-3)
                   for p in pts]
            worst = max(worst, max(res))
            # decay measured at the largest-residual point with stencils wide
            # enough that every level sits above the rounding floor
            probe = pts[int(np.argmax(res))]
            levels = [
                pde_residual(probe, 0, env, cell, plan, h=h)
                for h in (1.6e-2, 8e-3, 4e-3)
            ]
            if not (levels[0] > 8 * levels[1] and levels[1] > 8 * levels[2]):
                decay_ok = False
    err = worst if decay_ok else np.inf
    _report(2, err, 1e-6, "fourth-order decay observed" if decay_ok else "no decay")


def test_criterion_03_remainder_limit():
    worst = 0.0
    for edges in CELLS:
        cell = build_cell(edges)
        for omega in OMEGAS:
            env = LameEnv(2, omega)
            plan = plan_lattice_sum(cell, env, 1e-13)
            r0 = regular_part(np.zeros(2), env, cell, plan)
            for theta in (0.0, 1.1, 2.3):
                u = np.array([np.cos(theta), np.sin(theta)])
                v1, v2 = [
                    regular_part(h * u, env, cell, plan) for h in (5e-3, 2.5e-3)
                ]
                extrap = (4.0 * v2 - v1) / 3.0
                worst = max(worst, float(np.max(np.abs(extrap - r0))))
    _report(3, worst, 1e-8)


def test_criterion_04_integral_identity(plan_unit):
    rng = np.random.default_rng(104)
    worst = 0.0
    for shape in (
        CircleShape([0.5, 0.5], 0.25),
        EllipseShape([0.5, 0.5], (0.3, 0.2), rotation=0.4),
    ):
        curve = discretize_curve(shape, 128, UNIT)
        W = assemble_wstar(curve, ENV1, UNIT, plan_unit)
        factor = 0.5 - hole_area(curve) / UNIT.volume
        t = curve.params
        for _ in range(10):
            vals = np.zeros((128, 2))
            for m in range(4):
                vals += np.outer(np.cos(m * t), rng.normal(size=2))
                vals += np.outer(np.sin(m * t), rng.normal(size=2))
            mu = BoundaryVectorField(vals, curve)
            diff = boundary_integral(W.apply(mu)) - factor * boundary_integral(mu)
            worst = max(worst, float(np.max(np.abs(diff))))
    _report(4, worst, 1e-8)


def test_criterion_05_jump_relation(plan_unit):
    N = 256
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.2), N, UNIT)
    W = assemble_wstar(curve, ENV1, UNIT, plan_unit)
    t = curve.params
    mu_vals = np.column_stack([0.5 + 0.3 * np.cos(t), 0.4 * np.sin(t)])
    mu = BoundaryVectorField(mu_vals, curve)
    target = -0.5 * mu_vals + W.apply(mu).values
    h = np.max(curve.weights)
    vals = [
        eval_traction_offboundary(
            curve.nodes - f * h * curve.normals, curve.normals,
            mu, ENV1, UNIT, plan_unit, upsample=4, warn=False,
        )
        for f in (1.0, 2.0, 4.0)
    ]
    extrap = (8.0 * vals[0] - 6.0 * vals[1] + vals[2]) / 3.0
    err = float(np.max(np.abs(extrap - target)))
    _report(5, err, 1e-6, f"N={N}, distances (h,2h,4h), h={h:.2e}")


def test_criterion_06_aux_operator(plan_unit):
    rng = np.random.default_rng(106)
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    W = assemble_wstar(curve, ENV1, UNIT, plan_unit)
    factor = 1.0 - hole_area(curve) / UNIT.volume
    t = curve.params
    worst_rt = 0.0
    worst_mean = 0.0
    for _ in range(5):
        vals = np.zeros((128, 2))
        for m in range(4):
            vals += np.outer(np.cos(m * t), rng.normal(size=2))
            vals += np.outer(np.sin(m * t), rng.normal(size=2))
        psi = BoundaryVectorField(vals, curve)
        mu = solve_neumann_aux(psi, curve, ENV1, UNIT, plan_unit, wstar=W)
        res = 0.5 * mu.values + W.apply(mu).values - vals
        worst_rt = max(worst_rt, float(np.max(np.abs(res))))
        diff = boundary_integral(psi) - factor * boundary_integral(mu)
        worst_mean = max(worst_mean, float(np.max(np.abs(diff))))
    status = "PASS" if worst_rt <= 1e-11 and worst_mean <= 1e-8 else "FAIL"
    print(
        f"criterion 6: {status} (roundtrip {worst_rt:.3e} <= 1e-11, "
        f"mean identity {worst_mean:.3e} <= 1e-8)"
    )
    assert worst_rt <= 1e-11 and worst_mean <= 1e-8


def _sources_field(env, cell, plan, x0, x1, dvec, cstar=None, B=None):
    x0, x1, dvec = map(np.asarray, (x0, x1, dvec))
    cstar = np.zeros(2) if cstar is None else np.asarray(cstar)
    B = np.zeros((2, 2)) if B is None else np.asarray(B)
    Bq = B @ cell.q_inv

    def u_fn(pts):
        pts = np.atleast_2d(pts)
        out = np.einsum("pjk,k->pj", periodic_green(pts - x0, env, cell, plan), dvec)
        out -= np.einsum("pjk,k->pj", periodic_green(pts - x1, env, cell, plan), dvec)
        return out + cstar[None, :] + pts @ Bq.T

    def trac_fn(pts, normals):
        pts = np.atleast_2d(pts)
        Du = np.einsum("pjkm,k->pjm", periodic_green_grad(pts - x0, env, cell, plan), dvec)
        Du -= np.einsum("pjkm,k->pjm", periodic_green_grad(pts - x1, env, cell, plan), dvec)
        Du += Bq[None, :, :]
        return np.einsum("pjm,pm->pj", traction_map(env.omega, Du), normals)

    return u_fn, trac_fn


def test_criterion_07_linear_robin(plan_unit, plan_unit_tight):
    # (a) constant and linear-field exact solutions
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    cstar = np.array([0.3, -0.7])
    rep = solve_robin(
        RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=constant_vector_field(-cstar, curve),
            B=np.zeros((2, 2)),
        ),
        curve, ENV1, UNIT, plan_unit,
    )
    err_a = max(
        float(np.max(np.abs(rep.mu.values))), float(np.max(np.abs(rep.c - cstar)))
    )
    B = np.diag([0.2, -0.1])
    Bq = B @ UNIT.q_inv
    gvals = curve.normals @ traction_map(ENV1.omega, Bq).T - curve.nodes @ Bq.T
    rep_lin = solve_robin(
        RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=BoundaryVectorField(gvals, curve),
            B=B,
        ),
        curve, ENV1, UNIT, plan_unit,
    )
    pts = np.array([[0.1, 0.1], [0.9, 0.2], [0.5, 0.95]])
    u = eval_solution(rep_lin, pts, ENV1, UNIT, plan_unit, warn=False)
    err_a = max(err_a, float(np.max(np.abs(u - pts @ Bq.T))))

    # (b) homogeneous problem
    rep_h = solve_robin(
        RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=constant_vector_field((0.0, 0.0), curve),
            B=np.zeros((2, 2)),
        ),
        curve, ENV1, UNIT, plan_unit,
    )
    err_b = float(np.max(np.abs(rep_h.mu.values))) + float(np.max(np.abs(rep_h.c)))

    # (c) manufactured two-source solution with convergence ratio
    u_fn, trac_fn = _sources_field(
        ENV1, UNIT, plan_unit_tight, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0)
    )
    rng = np.random.default_rng(107)
    tpts = []
    while len(tpts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            tpts.append(p)
    tpts = np.asarray(tpts)
    u_ref = u_fn(tpts)
    errs = {}
    for N in (64, 128, 256):
        curve_n = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
        g = BoundaryVectorField(
            trac_fn(curve_n.nodes, curve_n.normals) - u_fn(curve_n.nodes), curve_n
        )
        rep_m = solve_robin(
            RobinData(
                a=constant_matrix_field(np.eye(2), curve_n),
                b=constant_matrix_field(-np.eye(2), curve_n),
                g=g,
                B=np.zeros((2, 2)),
            ),
            curve_n, ENV1, UNIT, plan_unit_tight,
        )
        u_num = eval_solution(rep_m, tpts, ENV1, UNIT, plan_unit_tight, warn=False)
        errs[N] = float(np.max(np.abs(u_num - u_ref)))
    ratio = errs[64] / max(errs[256], 1e-16)
    err_c = errs[128] if ratio >= 100.0 else np.inf

    # (d) quasi-periodicity of the reconstructed field
    base = eval_solution(rep_lin, pts, ENV1, UNIT, plan_unit, warn=False)
    err_d = 0.0
    for j, e in enumerate(np.eye(2)):
        shifted = eval_solution(rep_lin, pts + e, ENV1, UNIT, plan_unit, warn=False)
        err_d = max(err_d, float(np.max(np.abs(shifted - base - B[:, j][None, :]))))

    ok = err_a <= 1e-9 and err_b <= 1e-10 and err_c <= 1e-8 and err_d <= 1e-10
    print(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(exact {err_a:.3e} <= 1e-9, homogeneous {err_b:.3e} <= 1e-10, "
        f"manufactured@128 {err_c:.3e} <= 1e-8 with ratio {ratio:.1e} >= 1e2, "
        f"quasi-periodicity {err_d:.3e} <= 1e-10)"
    )
    assert ok


def test_criterion_08_representation(plan_unit):
    rng = np.random.default_rng(108)
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    V = assemble_single_layer(curve, ENV1, UNIT, plan_unit)
    W = assemble_wstar(curve, ENV1, UNIT, plan_unit)
    t = curve.params
    vals = np.zeros((128, 2))
    for m in range(1, 4):
        vals += np.outer(np.cos(m * t), rng.normal(size=2))
        vals += np.outer(np.sin(m * t), rng.normal(size=2))
    mu0 = BoundaryVectorField(vals, curve)
    c0 = rng.normal(size=2)
    v_bdry = V.apply(mu0).values

    def u_fn(pts):
        pts = np.atleast_2d(pts)
        if pts.shape == curve.nodes.shape and np.allclose(pts, curve.nodes):
            return v_bdry + c0[None, :]
        return eval_single_layer(pts, mu0, ENV1, UNIT, plan_unit, warn=False) + c0

    mu_rec, c_rec, _ = representation_roundtrip(
        u_fn,
        lambda pts, normals: 0.5 * vals + W.apply(mu0).values,
        curve, ENV1, UNIT, plan_unit,
    )
    err = max(
        float(np.max(np.abs(mu_rec.values - vals))), float(np.max(np.abs(c_rec - c0)))
    )
    _report(8, err, 1e-9)


def test_criterion_09_nonlinear(plan_unit, plan_unit_tight):
    # affine-model equivalence
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    t = curve.params
    gvals = np.column_stack([0.2 + 0.1 * np.cos(t), -0.3 + 0.2 * np.sin(2 * t)])
    B0 = np.diag([0.1, -0.05])
    rep_lin = solve_robin(
        RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=BoundaryVectorField(gvals, curve),
            B=B0,
        ),
        curve, ENV1, UNIT, plan_unit,
    )
    rep_nl = solve_nonlinear_robin(
        affine_model(np.eye(2), gvals, curve), B0, curve, ENV1, UNIT, plan_unit,
        method="newton",
    )
    err_eq = max(
        float(np.max(np.abs(rep_lin.mu.values - rep_nl.mu.values))),
        float(np.max(np.abs(rep_lin.c - rep_nl.c))),
    )

    # manufactured nonlinear solution via Picard
    N = 128
    curve_m = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    cstar = np.array([0.2, -0.4])
    B = np.diag([0.15, -0.1])
    u_fn, trac_fn = _sources_field(
        ENV1, UNIT, plan_unit_tight, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0),
        cstar=cstar, B=B,
    )
    tstar = trac_fn(curve_m.nodes, curve_m.normals)
    ustar = u_fn(curve_m.nodes)
    lam = -np.eye(2)
    model = tabulated_model(
        lambda U: tstar + (U - ustar) @ lam.T, lambda U: np.broadcast_to(lam, (N, 2, 2))
    )
    rep_m = solve_nonlinear_robin(
        model, B, curve_m, ENV1, UNIT, plan_unit_tight,
        method="picard", max_iter=30, tol=1e-12,
    )
    rng = np.random.default_rng(109)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            pts.append(p)
    pts = np.asarray(pts)
    u_num = eval_solution(rep_m, pts, ENV1, UNIT, plan_unit_tight, warn=False)
    err_man = float(np.max(np.abs(u_num - u_fn(pts))))
    iters = rep_m.diagnostics["iterations"]

    # the unconstrained-constant degeneracy must be reported, never solved
    degenerate_detected = False
    try:
        solve_nonlinear_robin(
            tabulated_model(lambda U: np.zeros_like(U), lambda U: np.zeros(U.shape + (2,))),
            np.zeros((2, 2)), curve, ENV1, UNIT, plan_unit,
        )
    except DegenerateProblemError:
        degenerate_detected = True

    ok = err_eq <= 1e-9 and err_man <= 1e-7 and iters <= 30 and degenerate_detected
    print(
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"(affine equivalence {err_eq:.3e} <= 1e-9, manufactured {err_man:.3e} "
        f"<= 1e-7 in {iters} Picard iterations, degeneracy detected: "
        f"{degenerate_detected})"
    )
    assert ok


def test_criterion_10_data_validation():
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)

    def data_with(a, b):
        return RobinData(
            a=constant_matrix_field(a, curve),
            b=constant_matrix_field(b, curve),
            g=constant_vector_field((0.0, 0.0), curve),
            B=np.zeros((2, 2)),
        )

    rejected = {}
    fixtures = [
        ("invertibility-of-a", np.zeros((2, 2)), -np.eye(2)),
        ("negativity-of-ainv-b", np.eye(2), np.eye(2)),
        ("pointwise-invertibility-of-b", np.eye(2), np.zeros((2, 2))),
    ]
    for expected, a, b in fixtures:
        try:
            validate_robin_data(data_with(a, b), curve)
            rejected[expected] = False
        except AdmissibilityError as exc:
            rejected[expected] = exc.condition in (
                expected, "invertibility-of-integral"
            )
    validate_robin_data(data_with(np.eye(2), -np.eye(2)), curve)  # control
    ok = all(rejected.values())
    print(
        f"criterion 10: {'PASS' if ok else 'FAIL'} "
        f"(each admissibility condition independently rejected: {rejected})"
    )
    assert ok
