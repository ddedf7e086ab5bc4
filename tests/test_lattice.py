import json
import os

import numpy as np
import pytest

from perilame.cell import build_cell, nearest_image
from perilame.errors import PlanError, SingularArgumentError
from perilame.kernels import LameEnv, kelvin, kelvin_grad
from perilame.lattice import (
    pde_residual,
    periodic_green,
    periodic_green_grad,
    plan_lattice_sum,
    regular_part,
    regular_part_grad,
    scalar_periodic_green,
)

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


def test_plan_monotone_cost():
    loose = plan_lattice_sum(UNIT, ENV1, 1e-6)
    tight = plan_lattice_sum(UNIT, ENV1, 1e-12)
    cost = lambda p: (2 * p.real_cutoff + 1) ** 2 + (2 * p.fourier_cutoff + 1) ** 2
    assert cost(loose) <= cost(tight)


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


def test_decomposition_into_kelvin_plus_remainder():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-13)
    for p in ([0.5, 0.5], [0.1, 0.05], [0.35, -0.2]):
        x = np.array(p)
        lhs = kelvin(x, ENV1) + regular_part(x, ENV1, UNIT, plan)
        rhs = periodic_green(x, ENV1, UNIT, plan)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


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
    from perilame.lattice import lame_apply_fd

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
