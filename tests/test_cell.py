import numpy as np
import pytest
from scipy.special import ellipe

from perilame.cell import (
    CircleShape,
    EllipseShape,
    TrigShape,
    arclength,
    build_cell,
    discretize_curve,
    cell_coords,
    hole_area,
    min_image_distance,
    nearest_image,
    point_in_hole,
)
from perilame.errors import CellError, CurveError
from perilame.operators import near_boundary

UNIT = build_cell([1.0, 1.0])


def test_build_cell_volume():
    assert build_cell([1.0, 1.0]).volume == 1.0
    assert build_cell([2.0, 3.0]).volume == 6.0


def test_build_cell_rejects_nonpositive_edge():
    with pytest.raises(CellError, match=r"q_diag\[1\]"):
        build_cell([1.0, 0.0])


def test_nearest_image_examples():
    assert np.allclose(nearest_image([0.0, 0.0], UNIT), [0.0, 0.0])
    assert np.allclose(nearest_image([2.0, -3.0], UNIT), [0.0, 0.0])
    assert np.allclose(nearest_image([0.75, 0.1], UNIT), [-0.25, 0.1])


def test_nearest_image_shift_invariance():
    rng = np.random.default_rng(0)
    cell = build_cell([2.0, 3.0])
    curve = discretize_curve(CircleShape([1.0, 1.5], 0.4), 32, cell)
    for node in curve.nodes[::4]:
        for _ in range(10):
            z = rng.integers(-3, 4, size=2)
            shifted = node + z * np.array(cell.q_diag)
            assert np.allclose(
                nearest_image(shifted, cell), nearest_image(node, cell), atol=1e-12
            )


def test_circle_discretization_geometry():
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    assert np.allclose(curve.nodes[0], [0.75, 0.5])
    assert np.allclose(curve.normals[0], [1.0, 0.0])
    assert np.allclose(curve.speeds, 0.25)


def test_containment_rejected():
    with pytest.raises(CurveError, match="leaves the cell"):
        discretize_curve(CircleShape([0.5, 0.5], 0.6), 64, UNIT)


def test_node_count_requirements():
    with pytest.raises(CurveError):
        discretize_curve(CircleShape([0.5, 0.5], 0.25), 63, UNIT)
    with pytest.raises(CurveError):
        discretize_curve(CircleShape([0.5, 0.5], 0.25), 4, UNIT)


def test_ellipse_arclength_against_elliptic_integral():
    a, b = 0.3, 0.2
    curve = discretize_curve(EllipseShape([0.5, 0.5], (a, b)), 256, UNIT)
    ref = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert abs(arclength(curve) - ref) < 1e-12


def test_hole_area_closed_forms():
    circle = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    assert abs(hole_area(circle) - np.pi / 16) < 1e-13
    ellipse = discretize_curve(EllipseShape([0.5, 0.5], (0.3, 0.2)), 64, UNIT)
    assert abs(hole_area(ellipse) - 0.06 * np.pi) < 1e-13


def _perturbed_circle(scale=1.0):
    cos_c = np.array([[0.5, 0.22 * scale, 0.03 * scale, 0.02 * scale],
                      [0.5, 0.0, 0.0, 0.0]])
    sin_c = np.array([[0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.22 * scale, 0.0, -0.02 * scale]])
    return TrigShape(cos_c, sin_c, interior=(0.5, 0.5))


def test_trig_curve_area_matches_refined_quadrature():
    shape = _perturbed_circle()
    coarse = discretize_curve(shape, 64, UNIT)
    fine = discretize_curve(shape, 1024, UNIT)
    assert abs(hole_area(coarse) - hole_area(fine)) < 1e-12


@pytest.mark.parametrize("quantity", [hole_area, arclength])
def test_spectral_convergence_of_boundary_quadrature(quantity):
    shape = _perturbed_circle()
    ref = quantity(discretize_curve(shape, 2048, UNIT))
    errors = []
    for N in (16, 32, 64):
        errors.append(abs(quantity(discretize_curve(shape, N, UNIT)) - ref))
    # at least a factor 10 per doubling until rounding
    for e0, e1 in zip(errors, errors[1:]):
        assert e1 < e0 / 10 or e1 < 1e-13


def test_normals_orthogonal_to_tangents():
    curve = discretize_curve(_perturbed_circle(), 128, UNIT)
    dots = np.einsum("nk,nk->n", curve.normals, curve.d1)
    assert np.max(np.abs(dots)) < 1e-13 * np.max(curve.speeds)


def test_normals_point_outward():
    curve = discretize_curve(_perturbed_circle(), 128, UNIT)
    rel = curve.nodes - curve.center_hint[None, :]
    assert np.all(np.sum(rel * curve.normals, axis=1) > 0)


def test_clockwise_orientation_rejected():
    cos_c = np.array([[0.5, 0.25], [0.5, 0.0]])
    sin_c = np.array([[0.0, 0.0], [0.0, -0.25]])  # reversed traversal
    with pytest.raises(CurveError, match="counterclockwise"):
        discretize_curve(TrigShape(cos_c, sin_c), 64, UNIT)


def test_point_in_hole():
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    assert point_in_hole([0.5, 0.5], curve, UNIT)
    assert point_in_hole([1.5, 2.5], curve, UNIT)  # image of the center
    assert not point_in_hole([0.1, 0.1], curve, UNIT)


def _winding_inside(p, curve, cell):
    v = curve.nodes - cell_coords(p, cell)[None, :]
    ang = np.arctan2(v[:, 1], v[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return abs(np.sum(dang)) > np.pi


def _loop_image_distance(p, curve, cell):
    p = nearest_image(p - curve.nodes[0], cell) + curve.nodes[0]
    best = np.inf
    for z1 in (-1, 0, 1):
        for z2 in (-1, 0, 1):
            d = curve.nodes + np.array([z1, z2]) * np.array(cell.q_diag) - p
            best = min(best, float(np.min(np.hypot(d[:, 0], d[:, 1]))))
    return best


def test_vectorized_masks_match_point_loop():
    # the 40x40 cell-centred output grid and rings 0.25 h to 10 h outside the hole
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    h = np.max(curve.weights)
    side = (np.arange(40) + 0.5) / 40
    grid = np.column_stack([a.ravel() for a in np.meshgrid(side, side, indexing="ij")])
    theta = 2.0 * np.pi * (np.arange(257) + 0.3) / 257
    rings = np.concatenate([
        0.5 + (0.25 + d * h) * np.column_stack([np.cos(theta), np.sin(theta)])
        for d in (0.25, 1.0, 3.0, 10.0)
    ])
    pts = np.concatenate([grid, rings, rings + [1.0, -2.0]])
    inside = point_in_hole(pts, curve, UNIT)
    dist = min_image_distance(pts, curve, UNIT)
    assert inside.shape == dist.shape == (len(pts),)
    assert np.array_equal(inside, [_winding_inside(p, curve, UNIT) for p in pts])
    assert np.array_equal(dist, [_loop_image_distance(p, curve, UNIT) for p in pts])
    assert 0 < np.count_nonzero(inside) < len(grid)
    warn = near_boundary(pts, curve, UNIT)
    assert np.array_equal(warn, [_loop_image_distance(p, curve, UNIT) < 3.0 * h for p in pts])
    assert 0 < np.count_nonzero(warn[~inside])
    assert np.isscalar(min_image_distance(pts[0], curve, UNIT))


def _nine_shift_distance(x, curve, cell):
    """Distance over the nine images of the node set around x reduced to the first node."""
    x = nearest_image(x - curve.nodes[0], cell) + curve.nodes[0]
    best = np.full(x.shape[0], np.inf)
    q1, q2 = cell.q_diag
    for z1 in (-1, 0, 1):
        for z2 in (-1, 0, 1):
            d = curve.nodes[None, :, :] + np.array([z1 * q1, z2 * q2]) - x[:, None, :]
            best = np.minimum(best, np.min(np.hypot(d[..., 0], d[..., 1]), axis=1))
    return best


@pytest.mark.parametrize("edges", [(1.0, 1.0), (2.0, 3.0)])
def test_min_image_distance_matches_nine_shifts(edges):
    cell = build_cell(edges)
    q = np.array(edges)
    curve = discretize_curve(EllipseShape(q / 2, (0.3 * q[0], 0.2 * q[1]), 0.3), 96, cell)
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 2.0, size=(4000, 2)) * q
    ref = _nine_shift_distance(pts, curve, cell)
    assert np.max(np.abs(min_image_distance(pts, curve, cell) - ref)) <= 1e-15
    h = np.max(curve.weights)
    warn = near_boundary(pts, curve, cell)
    assert np.array_equal(warn, ref < 3.0 * h)
    assert 0 < np.count_nonzero(warn) < len(pts)


def test_resample_is_exact():
    shape = _perturbed_circle()
    coarse = discretize_curve(shape, 32, UNIT)
    fine = coarse.resample(128)
    assert np.allclose(fine.nodes[::4], coarse.nodes, atol=1e-14)
