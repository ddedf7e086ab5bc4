import json
import os

import numpy as np
import pytest

from perilame import lattice, operators
from perilame.cell import (
    CircleShape,
    EllipseShape,
    build_cell,
    discretize_curve,
    locate_targets,
    nearest_image,
)
from perilame.errors import PlanError, SingularArgumentError
from perilame.kernels import LameEnv, kelvin, kelvin_grad
from perilame.lattice import (
    periodic_green,
    periodic_green_grad,
    plan_lattice_sum,
    regular_part,
    regular_part_grad,
)
from perilame.operators import _midpoints
from perilame.special import exp1
from perilame.verify import lame_apply_fd, pde_residual, scalar_periodic_green

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "oracle_green.json")

UNIT = build_cell([1.0, 1.0])
ENV1 = LameEnv(2, 1.0)


@pytest.fixture(scope="module")
def plan1():
    return plan_lattice_sum(UNIT, ENV1, 1e-11)


def test_plan_records_bounds(plan1):
    assert plan1.real_bound < 0.5e-11
    assert plan1.fourier_bound < 0.5e-11
    assert plan1.real_cutoff >= 2 and plan1.fourier_cutoff >= 1


def _oracle_configs():
    with open(FIXTURES, "r", encoding="utf-8") as fh:
        return json.load(fh)["configs"]


def _full_set_fourier(x, plan, cell, env, want_grad):
    """Reciprocal sum over both z of each +-z pair the plan keeps, one einsum per call.

    Summed in long double: over the ~1800 terms of a plan a double einsum
    rounds by up to 1.5e-15 of the kernel's size, more than the tolerance.
    """
    ld = np.longdouble
    z = np.concatenate([plan.zvecs, -plan.zvecs]).astype(ld)
    k = 2.0 * np.pi * z / np.asarray(cell.q_diag, dtype=ld)
    k2 = np.sum(k * k, axis=1)
    u = k2 / (4.0 * ld(plan.eta) ** 2)
    khat = k / np.sqrt(k2)[:, None]
    base = -np.eye(2, dtype=ld) + env.beta * khat[:, :, None] * khat[:, None, :]
    coeffs = ((1.0 + u) * np.exp(-u) / (k2 * cell.volume))[:, None, None] * base
    phase = x.astype(ld) @ k.T
    if want_grad:
        return np.einsum("pf,fjk,fm->pjkm", -np.sin(phase), coeffs, k).astype(float)
    return np.einsum("pf,fjk->pjk", np.cos(phase), coeffs).astype(float)


def _real_sum(x, shifts, eta, beta, want_grad):
    """Real-space image terms at x (P, 2) summed per point, from the evaluator's pieces.

    Per shift, the blocks of the live images are added at the live mask.
    """
    out = [np.zeros((len(x), 2, 2)), np.zeros((len(x), 2, 2, 2)) if want_grad else None]
    for shift in shifts:
        e = x - shift
        live = eta**2 * lattice._dot(e, e) < lattice._LIVE_T
        parts = lattice._blocks(e[live], *lattice._real_coeffs(e[live], eta, beta, want_grad))
        for s, part in zip(out, parts):
            if s is not None:
                s[live] += part
    return out


@pytest.mark.parametrize("edges,omega", [([1.0, 1.0], 1.0), ([2.0, 3.0], 0.5)])
def test_paired_fourier_sum_matches_full_set(edges, omega):
    # both sums share the real-space part; the paired reciprocal sum of the
    # phase GEMM may differ by rounding from the full +-z set, measured
    # against the periodic Green's matrix (or its gradient) at the same points
    cell = build_cell(edges)
    env = LameEnv(2, omega)
    plan = plan_lattice_sum(cell, env, 1e-10)
    rng = np.random.default_rng(15)
    x = rng.uniform(-0.45, 0.45, size=(400, 2)) * np.array(edges)
    x = x[np.linalg.norm(x, axis=1) > 0.05 * cell.min_edge]
    nonzero = np.any(plan.shifts != 0.0, axis=1)
    for want_grad, full_fn, regular_fn in (
        (False, periodic_green, regular_part),
        (True, periodic_green_grad, regular_part_grad),
    ):
        i = int(want_grad)
        fourier = _full_set_fourier(x, plan, cell, env, want_grad)
        got = full_fn(x, env, cell, plan)
        scale = np.max(np.abs(got))
        ref = _real_sum(x, plan.shifts, plan.eta, env.beta, want_grad)[i] + fourier
        assert np.max(np.abs(got - ref)) <= 1e-15 * scale
        ref = (
            lattice._blocks(x, *lattice._center_coeffs(x, plan.eta, env, want_grad))[i]
            + _real_sum(x, plan.shifts[nonzero], plan.eta, env.beta, want_grad)[i]
            + fourier
        )
        assert np.max(np.abs(regular_fn(x, env, cell, plan) - ref)) <= 1e-15 * scale


def _loop_real_sum(points, shifts, eta, beta):
    """Per-shift loop over images with the tensor-product form of each term."""
    val = np.zeros((points.shape[0], 2, 2))
    grad = np.zeros((points.shape[0], 2, 2, 2))
    eye = np.eye(2)
    for shift in shifts:
        d = points - shift
        r2 = np.sum(d * d, axis=1)
        T = eta**2 * r2
        live = T < 45.0
        d, r2, T = d[live], r2[live], T[live]
        expT, e1 = np.exp(-T), exp1(T)
        dj, dk = d[:, :, None], d[:, None, :]
        hess = (-e1 / (8 * np.pi))[:, None, None] * eye \
            + (expT / r2 / (4 * np.pi))[:, None, None] * dj * dk
        val[live] += ((expT - e1) / (4 * np.pi))[:, None, None] * eye - beta * hess
        wm = (expT * (1 - T) / r2 / (2 * np.pi))[:, None] * d
        dm, djm, dkm = d[:, None, None, :], d[:, :, None, None], d[:, None, :, None]
        a = (expT / r2 / (4 * np.pi))[:, None, None, None]
        b = (expT * (T + 1) / r2**2 / (2 * np.pi))[:, None, None, None]
        hess_m = a * (eye[:, :, None] * dm + eye[:, None, :] * dkm + eye[None, :, :] * djm) \
            - b * djm * dkm * dm
        grad[live] += wm[:, None, None, :] * eye[:, :, None] - beta * hess_m
    return val, grad


def test_real_sum_matches_per_shift_loop(plan1):
    # the unit cell's split has one live image; the (1, 4) cell at tol 1e-12
    # falls back to a smaller eta with several
    cell = build_cell([1.0, 4.0])
    for cell, plan in ((UNIT, plan1), (cell, plan_lattice_sum(cell, ENV1, 1e-12))):
        rng = np.random.default_rng(17)
        x = rng.uniform(-0.5, 0.5, size=(3000, 2)) * np.asarray(cell.q_diag)
        ref_val, ref_grad = _loop_real_sum(x, plan.shifts, plan.eta, ENV1.beta)
        val, _ = _real_sum(x, plan.shifts, plan.eta, ENV1.beta, want_grad=False)
        _, grad = _real_sum(x, plan.shifts, plan.eta, ENV1.beta, want_grad=True)
        assert np.max(np.abs(val - ref_val)) <= 1e-15 * np.max(np.abs(ref_val))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-15 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("edges,omega", [([1.0, 1.0], 1.0), ([2.0, 3.0], 0.5)])
def test_joint_pass_matches_separate_calls(edges, omega):
    # values and gradients from one pass of the evaluator are the separate
    # calls' bit for bit, over several blocks, arguments several cells out
    # and arguments within 1e-3 of 0
    cell = build_cell(edges)
    env = LameEnv(2, omega)
    plan = plan_lattice_sum(cell, env, 1e-10)
    rng = np.random.default_rng(18)
    q = np.array(edges)
    x = rng.uniform(-0.5, 0.5, size=(5000, 2)) * q
    x[:1000] += rng.integers(-3, 4, size=(1000, 2)) * q
    x[1000:1500] = rng.uniform(-1e-3, 1e-3, size=(500, 2))
    zero = np.zeros((1, 2))
    val, grad = lattice.lattice_product(x, zero, None, env, cell, plan, periodic=True,
                                        values=True, grads=True)
    assert np.array_equal(val[:, 0], periodic_green(x, env, cell, plan))
    assert np.array_equal(grad[:, 0], periodic_green_grad(x, env, cell, plan))
    val, grad = lattice.lattice_product(x, zero, None, env, cell, plan, periodic=False,
                                        values=True, grads=True)
    assert np.array_equal(val[:, 0], regular_part(x, env, cell, plan))
    assert np.array_equal(grad[:, 0], regular_part_grad(x, env, cell, plan))


def test_kernels_keep_leading_shape(plan1):
    rng = np.random.default_rng(19)
    x = rng.uniform(0.05, 0.95, size=(3, 4, 2))
    flat = x.reshape(-1, 2)
    for kernel, tail in ((periodic_green, (2, 2)), (periodic_green_grad, (2, 2, 2)),
                         (regular_part, (2, 2)), (regular_part_grad, (2, 2, 2))):
        out = kernel(x, ENV1, UNIT, plan1)
        assert out.shape == (3, 4) + tail
        assert np.array_equal(out.reshape((-1,) + tail), kernel(flat, ENV1, UNIT, plan1))
        # one point takes another BLAS path for its phase, so only to rounding
        one = kernel(x[1, 2], ENV1, UNIT, plan1)
        assert one.shape == tail
        assert np.max(np.abs(one - out[1, 2])) <= 1e-14 * np.max(np.abs(out))


def test_plan_agrees_with_tighter_plan():
    rng = np.random.default_rng(16)
    for config in _oracle_configs():
        edges = np.asarray(config["cell"])
        cell = build_cell(edges)
        env = LameEnv(2, config["omega"])
        plan, tight = (plan_lattice_sum(cell, env, tol) for tol in (1e-10, 1e-13))
        x = rng.uniform(-0.45, 0.45, size=(200, 2)) * edges
        x = x[np.linalg.norm(x, axis=1) > 0.05 * cell.min_edge]
        for fn in (periodic_green, periodic_green_grad, regular_part, regular_part_grad):
            assert np.max(np.abs(fn(x, env, cell, plan) - fn(x, env, cell, tight))) < 1e-12


def test_plan_rejects_unattainable_tolerance():
    with pytest.raises(PlanError, match="tolerance unattainable"):
        plan_lattice_sum(UNIT, ENV1, 1e-20)
    with pytest.raises(PlanError, match="tolerance unattainable"):
        plan_lattice_sum(UNIT, ENV1, 1e-3)


def test_plan_for_other_omega_raises_plan_error(plan1):
    env_half = LameEnv(2, 0.5)
    x = np.array([[0.2, 0.3]])
    for fn in (periodic_green, periodic_green_grad, regular_part, regular_part_grad):
        with pytest.raises(PlanError):
            fn(x, env_half, UNIT, plan1)


def test_green_matches_frozen_oracle():
    with open(FIXTURES, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    worst = 0.0
    for config in data["configs"]:
        cell = build_cell(config["cell"])
        env = LameEnv(2, config["omega"])
        plan = plan_lattice_sum(cell, env, 1e-11)
        for point, value in zip(config["points"], config["values"]):
            got = periodic_green(np.array(point), env, cell, plan)
            worst = max(worst, float(np.max(np.abs(got - np.array(value)))))
    assert worst < 1e-10  # realized accuracy beats the requested plan tolerance


def test_green_even_and_periodic(plan1):
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < 50:
        p = rng.uniform(-1, 2, size=2)
        if np.linalg.norm(nearest_image(p, UNIT)) > 0.1:
            pts.append(p)
    pts = np.array(pts)
    G = periodic_green(pts, ENV1, UNIT, plan1)
    assert np.max(np.abs(G - periodic_green(-pts, ENV1, UNIT, plan1))) < 1e-11
    for j, e in enumerate(np.eye(2)):
        shifted = periodic_green(pts + e, ENV1, UNIT, plan1)
        assert np.max(np.abs(G - shifted)) < 1e-11
    assert np.max(np.abs(G - np.swapaxes(G, -1, -2))) < 1e-12


def test_green_rejects_lattice_points(plan1):
    with pytest.raises(SingularArgumentError):
        periodic_green(np.array([2.0, -1.0]), ENV1, UNIT, plan1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_green_rejects_non_finite_points(plan1, bad):
    with pytest.raises(ValueError, match="infs or NaNs"):
        periodic_green(np.array([bad, 0.1]), ENV1, UNIT, plan1)


def test_decomposition_into_kelvin_plus_remainder():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-13)
    # the last two lie outside the cell box around the origin: the remainder
    # is not periodic, so they are not reduced
    for p in ([0.5, 0.5], [0.1, 0.05], [0.35, -0.2], [1.9, 1.85], [-0.95, 1.7]):
        x = np.array(p)
        lhs = kelvin(x, ENV1) + regular_part(x, ENV1, UNIT, plan)
        rhs = periodic_green(x, ENV1, UNIT, plan)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        lhs = kelvin_grad(x, ENV1) + regular_part_grad(x, ENV1, UNIT, plan)
        assert np.max(np.abs(lhs - periodic_green_grad(x, ENV1, UNIT, plan))) < 1e-11


def test_remainder_finite_at_zero_richardson():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-13)
    r0 = regular_part(np.zeros(2), ENV1, UNIT, plan)
    assert np.all(np.isfinite(r0))
    for theta in (0.0, 1.1, 2.3):
        u = np.array([np.cos(theta), np.sin(theta)])
        v1, v2 = [regular_part(h * u, ENV1, UNIT, plan) for h in (5e-3, 2.5e-3)]
        extrap = (4.0 * v2 - v1) / 3.0  # even function: h^2 elimination
        assert np.max(np.abs(extrap - r0)) < 1e-8


def test_remainder_even(plan1):
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2)
        a = regular_part(x, ENV1, UNIT, plan1)
        b = regular_part(-x, ENV1, UNIT, plan1)
        assert np.max(np.abs(a - b)) < 1e-14


def test_gradient_matches_finite_differences():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-12)
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(0.15, 0.85, size=2)
        g = periodic_green_grad(x, ENV1, UNIT, plan)
        fd = np.zeros((2, 2, 2))
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            fd[:, :, m] = (
                periodic_green(x + e, ENV1, UNIT, plan)
                - periodic_green(x - e, ENV1, UNIT, plan)
            ) / (2 * h)
        assert np.max(np.abs(g - fd)) < 1e-7


def test_gradient_odd_and_decomposed(plan1):
    x = np.array([0.1, 0.05])
    g = periodic_green_grad(x, ENV1, UNIT, plan1)
    assert np.max(np.abs(g + periodic_green_grad(-x, ENV1, UNIT, plan1))) < 1e-12
    split = kelvin_grad(x, ENV1) + regular_part_grad(x, ENV1, UNIT, plan1)
    assert np.max(np.abs(g - split)) < 1e-11


def test_remainder_gradient_vanishes_at_origin(plan1):
    g0 = regular_part_grad(np.zeros(2), ENV1, UNIT, plan1)
    assert np.max(np.abs(g0)) < 1e-15


@pytest.mark.parametrize("x", [(1.0, 0.0), (2.0, 1.0), (1.0, 1e-13)])
def test_remainder_rejects_nonzero_lattice_points(plan1, x):
    # an image of the remainder is singular there, as periodic_green is
    with pytest.raises(SingularArgumentError):
        periodic_green(np.array(x), ENV1, UNIT, plan1)
    for kernel in (regular_part, regular_part_grad):
        with pytest.raises(SingularArgumentError):
            kernel(np.array(x), ENV1, UNIT, plan1)


def test_center_gradient_coefficient_matches_mpmath():
    # f2' = (1 - e^-T - T e^-T)/T^2, the center terms' gradient coefficient,
    # to 1e-15 relative across its series switch and at T = 0
    import mpmath

    mpmath.mp.dps = 50
    T = np.concatenate([[0.0], np.geomspace(1e-12, 50.0, 400), np.linspace(0.9, 1.1, 41)])
    got = lattice._f2p(T, np.exp(-T))
    for t, value in zip(T, got):
        t = mpmath.mpf(float(t))
        ref = 0.5 if t == 0 else float((1 - mpmath.exp(-t) * (1 + t)) / t**2)
        assert abs(value - ref) <= 1e-15 * ref, float(t)


def test_pde_residual_examples():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-13)
    res = pde_residual(np.array([0.37, 0.61]), 0, ENV1, UNIT, plan, h=1e-3)
    assert res < 1e-6
    levels = [
        pde_residual(np.array([0.37, 0.61]), 0, ENV1, UNIT, plan, h=h)
        for h in (8e-3, 4e-3, 2e-3)
    ]
    assert levels[0] > 6 * levels[1] and levels[1] > 4 * levels[2]


def test_pde_residual_nonunit_cell_background():
    cell = build_cell([2.0, 3.0])
    plan = plan_lattice_sum(cell, ENV1, 1e-13)
    x = np.array([0.77, 1.3])
    assert pde_residual(x, 1, ENV1, cell, plan, h=1e-3) < 1e-6
    # the raw operator value approaches the uniform background -e_j/6
    lam = lame_apply_fd(
        lambda pts: periodic_green(pts, ENV1, cell, plan)[..., :, 1], x, 1.0, 1e-3
    )
    assert abs(np.linalg.norm(lam) - 1.0 / 6.0) < 1e-6


def test_pde_residual_requires_distance():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-10)
    with pytest.raises(SingularArgumentError):
        pde_residual(np.array([0.01, 0.0]), 0, ENV1, UNIT, plan)


def test_omega_limit_matches_scalar_harmonic():
    env = LameEnv(2, 1e-8)
    rng = np.random.default_rng(14)
    for edges in ([1.0, 1.0], [2.0, 3.0]):
        cell = build_cell(edges)
        plan = plan_lattice_sum(cell, env, 1e-10)
        pts = []
        while len(pts) < 20:
            p = rng.uniform(0, 1, size=2) * np.array(edges)
            if np.linalg.norm(nearest_image(p, cell)) > 0.15 * cell.min_edge:
                pts.append(p)
        pts = np.array(pts)
        G = periodic_green(pts, env, cell, plan)
        s = scalar_periodic_green(pts, cell)
        assert np.max(np.abs(G[:, 0, 0] - s)) < 1e-6
        assert np.max(np.abs(G[:, 1, 1] - s)) < 1e-6
        assert np.max(np.abs(G[:, 0, 1])) < 1e-7


def _product_setup(edges, omega, tol=1e-10):
    """Plan, curve, density times weights, and far, near-band and midpoint targets."""
    cell = build_cell(edges)
    env = LameEnv(2, omega)
    plan = plan_lattice_sum(cell, env, tol)
    q = np.array(edges)
    curve = discretize_curve(EllipseShape(q / 2, (0.3 * q[0], 0.2 * q[1]), 0.3), 128, cell)
    t = curve.params
    rho = np.column_stack([np.cos(t) + 0.3 * np.sin(3 * t), 0.5 - np.sin(2 * t)])
    rho *= curve.weights[:, None]
    h = np.max(curve.weights)
    far = np.random.default_rng(22).uniform(-1.0, 2.0, size=(300, 2)) * q
    loc = locate_targets(far, curve, cell)
    far = far[(loc.distance > 10 * h) & ~loc.inside]
    mid = _midpoints(curve)
    near = mid.nodes + 0.25 * h * mid.normals
    return cell, env, plan, curve, rho, {"far": far, "near": near, "mid": mid.nodes}


@pytest.mark.parametrize(
    "edges,omega,tol",
    [([1.0, 1.0], 1.0, 1e-10), ([2.0, 3.0], 0.5, 1e-10), ([1.0, 4.0], 1.0, 1e-12)],
    ids=["edges0-1.0", "edges1-0.5", "edges2-1.0-fallback"],
)
def test_product_matches_pair_contraction(edges, omega, tol):
    # products against the blocks path: lattice_product's target-source blocks
    # (per-entry GEMMs and _blocks) contracted with the density, against the
    # product's structure factors and _grid_contract; far, near-band (0.25 h)
    # and midpoint targets, against all nodes and against one (the few-sources
    # branch). The (1, 4) cell at tol 1e-12 takes the fallback split, with three images
    cell, env, plan, curve, rho, targets = _product_setup(edges, omega, tol)
    if edges == [1.0, 4.0]:
        assert len(plan.shifts) == 3
    for periodic, names in ((True, ("far", "near")), (False, ("far", "mid"))):
        for name in names:
            for y, dens in ((curve.nodes, rho), (curve.nodes[:1], rho[:1])):
                x = targets[name]
                val, grad = lattice.lattice_product(x, y, dens, env, cell, plan, periodic,
                                                    values=True, grads=True)
                blocks = lattice.lattice_product(x, y, None, env, cell, plan, periodic,
                                                 values=True, grads=True)
                ref_val = np.einsum("pbjk,bk->pj", blocks[0], dens)
                ref_grad = np.einsum("pbjkm,bk->pjm", blocks[1], dens)
                assert np.max(np.abs(val - ref_val)) <= 1e-13, (name, len(y))
                assert np.max(np.abs(grad - ref_grad)) <= 1e-13, (name, len(y))
                # values and gradients alone are the joint call's
                alone = lattice.lattice_product(x, y, dens, env, cell, plan, periodic)
                assert np.array_equal(alone[0], val) and alone[1] is None
                alone = lattice.lattice_product(x, y, dens, env, cell, plan, periodic,
                                                values=False, grads=True)
                assert alone[0] is None and np.array_equal(alone[1], grad)


def test_product_of_zero_density_is_zero():
    cell, env, plan, curve, rho, targets = _product_setup([1.0, 1.0], 1.0)
    zero = np.zeros_like(rho)
    for periodic, name in ((True, "near"), (False, "mid")):
        val, grad = lattice.lattice_product(targets[name], curve.nodes, zero, env, cell, plan,
                                            periodic, values=True, grads=True)
        assert not np.any(val) and not np.any(grad)


def test_product_raises_on_lattice_difference(plan1):
    y = np.array([[0.3, 0.4], [0.6, 0.2]])
    with pytest.raises(SingularArgumentError):
        lattice.lattice_product(np.array([[1.3, -0.6]]), y, np.ones((2, 2)), ENV1, UNIT, plan1,
                                periodic=True)


def _blocked_results(plan):
    """Every blocked target-source loop's results, each a named array."""
    rng = np.random.default_rng(30)
    circle = CircleShape([0.5, 0.5], 0.25)
    curve64, curve128, curve256 = (discretize_curve(circle, N, UNIT) for N in (64, 128, 256))
    # 22 = 3 * 7 + 1 targets and 64 sources: at 3 rows per block the last holds one
    x, y = rng.uniform(0.0, 1.0, (22, 2)), curve64.nodes
    rho = rng.normal(size=(64, 2))
    out = {"locate": np.array(locate_targets(x, curve64, UNIT))}
    for periodic in (True, False):
        for dens in (None, rho):
            val, grad = lattice.lattice_product(x, y, dens, ENV1, UNIT, plan, periodic,
                                                values=True, grads=True)
            out[f"product-{periodic}-{dens is None}"] = np.concatenate([val.ravel(), grad.ravel()])
    t = curve256.params
    mu = operators.BoundaryVectorField(
        np.column_stack([np.cos(t) + 0.3 * np.sin(3 * t), 0.5 - np.sin(2 * t)]), curve256)
    out["midpoints"] = np.concatenate(
        operators.apply_at_midpoints(mu, _midpoints(curve256), ENV1, UNIT, plan, 64))
    # some points take coarse groups, the others the periodic kernel over
    # the N nodes, for values and for gradients
    pts = rng.uniform(0.0, 1.0, (40, 2))
    pts = pts[~locate_targets(pts, curve256, UNIT).inside]
    for grads in (False, True):
        _, groups, rest = operators._source_groups(pts, curve256, ENV1, UNIT, plan.tol, grads)
        assert groups and len(rest)
    out["single-layer"] = operators.eval_single_layer(pts, mu, ENV1, UNIT, plan)
    out["traction"] = operators.eval_traction_offboundary(pts, [0.6, 0.8], mu, ENV1, UNIT, plan)
    for assemble in (operators.assemble_single_layer, operators.assemble_wstar):
        op = assemble(curve128, ENV1, UNIT, plan)
        assert op.lattice_nodes == 64
        out[assemble.__name__] = op.matrix
    return out


def test_results_do_not_depend_on_the_blocks(monkeypatch):
    # every target-source loop takes its row blocks from cell._batches, which
    # reads cell._PAIRS when called: at 3 rows per block of 64 sources, and
    # at 3 rows per block of phases, the results are those of the default
    # blocks, locate_targets exactly and the sums to rounding.  The GEMMs
    # over 2F = 1792 phases round with the row count of their block: the
    # regular part's gradient blocks move by up to 7.4e-15 of their size
    plan = plan_lattice_sum(UNIT, ENV1, 1e-10)
    ref = _blocked_results(plan)
    for budget in (3 * 64, 3 * len(plan.zvecs)):
        monkeypatch.setattr("perilame.cell._PAIRS", budget)
        got = _blocked_results(plan)
        assert np.array_equal(got.pop("locate"), ref["locate"])
        for name, value in got.items():
            err = np.max(np.abs(value - ref[name]))
            assert err <= 1e-14 * np.max(np.abs(ref[name])), (budget, name, err)


def _term_sizes(z, plan, cell, env):
    """Largest value and gradient entry of the reciprocal term of each z (L, 2)."""
    k = 2.0 * np.pi * z / np.asarray(cell.q_diag)
    k2 = np.sum(k * k, axis=1)
    u = k2 / (4.0 * plan.eta**2)
    khat = k / np.sqrt(k2)[:, None]
    C = (-np.eye(2) + env.beta * khat[:, :, None] * khat[:, None, :]) \
        * ((1.0 + u) * np.exp(-u) / (k2 * cell.volume))[:, None, None]
    grad = C[:, :, :, None] * k[:, None, None, :]
    return np.max(np.abs(C), axis=(1, 2)), np.max(np.abs(grad), axis=(1, 2, 3))


@pytest.mark.parametrize("edges", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-11, 1e-13])
def test_product_split_never_less_accurate(edges, tol):
    # the one split, which products, pointwise kernels and assembly share:
    # both tail bounds under tol/20, and the pruned image box and reciprocal
    # set drop nothing their bounds do not cover
    cell = build_cell(edges)
    q = np.asarray(cell.q_diag)
    for omega in (0.5, 1.0):
        env = LameEnv(2, omega)
        plan = plan_lattice_sum(cell, env, tol)
        assert plan.real_bound < tol / 20 and plan.fourier_bound < tol / 20
        assert plan.matches(env, cell) and plan.tol == tol
        # the pruned box keeps every image a reduced argument can bring live
        r = np.arange(-plan.real_cutoff, plan.real_cutoff + 1)
        box = np.array([(a, b) for a in r for b in r], dtype=float) * q
        x = np.random.default_rng(23).uniform(-0.5, 0.5, size=(2000, 2)) * q
        live = plan.eta**2 * np.sum((x[:, None, :] - box[None]) ** 2, axis=-1) < 45.0
        kept = np.any(np.all(box[:, None, :] == plan.shifts[None], axis=-1), axis=1)
        assert not np.any(live[:, ~kept])
        # one z of each +-z pair, all in the disc |k| <= 2 pi F / max_edge
        F = plan.fourier_cutoff
        paired = np.concatenate([plan.zvecs, -plan.zvecs])
        assert len(np.unique(paired, axis=0)) == len(paired)
        k = 2.0 * np.pi * paired / q
        radius = 2.0 * np.pi * F / cell.max_edge
        assert np.all(np.sqrt(np.sum(k * k, axis=1)) <= radius * (1 + 1e-12))
        # every term dropped within twice the cutoff box, term by term, sums
        # under the Fourier bound, for values and for gradients
        r = np.arange(-2 * F, 2 * F + 1)
        z = np.array([(a, b) for a in r for b in r if (a, b) != (0, 0)])
        dropped = z[~np.isin(z @ [1, 4 * F + 1], paired @ [1, 4 * F + 1])]
        assert len(dropped) == len(z) - len(paired)
        for sizes in _term_sizes(dropped, plan, cell, env):
            assert np.sum(sizes) <= plan.fourier_bound


@pytest.mark.parametrize("edges", [(1.0, 1.0), (2.0, 3.0), (1.0, 4.0), (4.0, 1.0), (1.0, 10.0)])
def test_plan_covers_elongated_cells(edges):
    # a cell whose Fourier cutoff at the smallest one-image eta would pass the
    # ceiling plans at the largest eta whose cutoff fits it, with more images
    cell = build_cell(edges)
    one_image = 2.0 * np.sqrt(45.0) / cell.min_edge
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14):
        plan = plan_lattice_sum(cell, ENV1, tol)
        assert plan.real_bound < tol / 20 and plan.fourier_bound < tol / 20
        assert plan.fourier_cutoff <= lattice.FOURIER_CUTOFF_CEILING
        if plan.eta < one_image:
            assert plan.fourier_cutoff == lattice.FOURIER_CUTOFF_CEILING
            assert len(plan.shifts) > 1
