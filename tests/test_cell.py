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
    locate_targets,
    nearest_image,
)
from perilame.errors import CellError, CurveError

UNIT = build_cell([1.0, 1.0])


def test_build_cell_volume():
    assert build_cell([1.0, 1.0]).volume == 1.0
    assert build_cell([2.0, 3.0]).volume == 6.0


def test_build_cell_rejects_nonpositive_edge():
    with pytest.raises(CellError, match=r"q_diag\[1\]"):
        build_cell([1.0, 0.0])


@pytest.mark.parametrize("edges", [[1.0], [1.0, 1.0, 1.0]])
def test_build_cell_rejects_edge_count(edges):
    with pytest.raises(CellError, match="two edges"):
        build_cell(edges)


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


def test_circle_and_ellipse_are_degree_one_trig_shapes():
    ellipse = EllipseShape([0.5, 0.4], (0.3, 0.2), rotation=0.3)
    assert isinstance(ellipse, TrigShape)
    assert isinstance(CircleShape([0.5, 0.4], 0.2), TrigShape)
    t = np.linspace(0.0, 2.0 * np.pi, 7)
    c, s = np.cos(0.3), np.sin(0.3)
    expect = np.column_stack([0.5 + 0.3 * c * np.cos(t) - 0.2 * s * np.sin(t),
                              0.4 + 0.3 * s * np.cos(t) + 0.2 * c * np.sin(t)])
    assert np.max(np.abs(discretize_curve(ellipse, 64, UNIT).eval(t) - expect)) < 1e-15


def test_trig_shape_pads_its_coefficients():
    shape = TrigShape([[0.5, 0.2], [0.5, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.2, 0.01]])
    assert shape.cos_coeffs.shape == shape.sin_coeffs.shape == (2, 3)
    assert np.array_equal(shape.cos_coeffs[:, 2], [0.0, 0.0])
    assert np.array_equal(shape.interior, [0.5, 0.5])


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
    # the center, an image of it, and a point between the holes
    loc = locate_targets([[0.5, 0.5], [1.5, 2.5], [0.1, 0.1]], curve, UNIT)
    assert loc.inside.tolist() == [True, True, False]
    assert not np.any(loc.on_node | loc.near)


def _winding_inside(p, curve, cell):
    """Hole membership of one point by the angle sum of the node polygon."""
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
    # the 40x40 cell-centred output grid, rings 0.25 h inside to 10 h outside
    # the hole and their images, against the angle sum and the image loop
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)
    h = np.max(curve.weights)
    side = (np.arange(40) + 0.5) / 40
    grid = np.column_stack([a.ravel() for a in np.meshgrid(side, side, indexing="ij")])
    theta = 2.0 * np.pi * (np.arange(257) + 0.3) / 257
    rings = np.concatenate([
        0.5 + (0.25 + d * h) * np.column_stack([np.cos(theta), np.sin(theta)])
        for d in (-0.25, 0.25, 1.0, 3.0, 10.0)
    ])
    pts = np.concatenate([grid, rings, rings + [1.0, -2.0]])
    loc = locate_targets(pts, curve, UNIT)
    assert all(a.shape == (len(pts),) for a in loc)
    ref = np.array([_loop_image_distance(p, curve, UNIT) for p in pts])
    assert np.array_equal(loc.inside, [_winding_inside(p, curve, UNIT) for p in pts])
    assert np.max(np.abs(loc.distance - ref)) <= 1e-15
    assert 0 < np.count_nonzero(loc.inside) < len(grid)
    assert np.array_equal(loc.near, ref < 3.0 * h)
    assert 0 < np.count_nonzero(loc.near & ~loc.inside)
    assert not np.any(loc.on_node)


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
    loc = locate_targets(pts, curve, cell)
    assert np.max(np.abs(loc.distance - ref)) <= 1e-15
    assert np.array_equal(loc.inside, [_winding_inside(p, curve, cell) for p in pts])
    assert 0 < np.count_nonzero(loc.inside) < len(pts)
    h = np.max(curve.weights)
    assert np.array_equal(loc.near, ref < 3.0 * h)
    assert 0 < np.count_nonzero(loc.near) < len(pts)
    assert not np.any(loc.on_node)
    # every node and node image is on the boundary, whatever the ambiguous
    # hole test says there; so is a point half the singular distance off one,
    # and a point twice that distance off is not
    nodes = np.concatenate([curve.nodes + q * z for z in ([0, 0], [1, -2], [-1, 1])])
    normals = np.tile(curve.normals, (3, 1))
    for frac, on_node in ((0.0, True), (0.5, True), (2.0, False)):
        off = nodes + frac * 1e-12 * cell.min_edge * normals
        assert np.all(locate_targets(off, curve, cell).on_node == on_node)


def test_resample_is_exact():
    shape = _perturbed_circle()
    coarse = discretize_curve(shape, 32, UNIT)
    fine = coarse.resample(128)
    assert np.allclose(fine.nodes[::4], coarse.nodes, atol=1e-14)
