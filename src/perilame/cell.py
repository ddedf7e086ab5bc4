"""Periodicity cell and hole boundary geometry.

The hole boundary is an analytic closed curve given by truncated trigonometric
series for each coordinate, sampled at uniform parameter nodes t_i = 2*pi*i/N
with even N.  All derived quantities (speeds, normals, curvature data) come
from exact differentiation of the series, so resampling at a different N is
exact rather than interpolatory.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import CellError, CurveError

CONTAINMENT_MARGIN = 0.01  # fraction of the smallest cell edge
# a point within this fraction of the smallest edge of a node image is on the
# boundary: the periodic kernels are singular there and raise
_SINGULAR_FRACTION = 1e-12
# off-boundary evaluation closer to the boundary than this many node spacings
# is flagged: the plain trapezoid rule loses accuracy there
NEAR_SPACINGS = 3.0
# target-node pairs per block of locate_targets
_PAIRS = 1 << 15


@dataclass(frozen=True)
class PeriodicityCell:
    """Rectangular periodicity cell with positive diagonal edge lengths."""

    q_diag: tuple
    volume: float

    @property
    def q_inv(self):
        return np.diag([1.0 / q for q in self.q_diag])

    @property
    def min_edge(self):
        return min(self.q_diag)

    @property
    def max_edge(self):
        return max(self.q_diag)


def build_cell(q_diag):
    """Build a PeriodicityCell from two edge lengths, rejecting non-positive entries."""
    q_diag = tuple(float(q) for q in q_diag)
    if len(q_diag) != 2:
        raise CellError(f"a plane cell has two edges, got {len(q_diag)}")
    for idx, q in enumerate(q_diag):
        if not q > 0.0:
            raise CellError(f"non-positive edge: q_diag[{idx}] = {q}")
    volume = float(np.prod(q_diag))
    return PeriodicityCell(q_diag=q_diag, volume=volume)


def nearest_image(x, cell):
    """Reduce x modulo the lattice so each component lies in [-q_ll/2, q_ll/2)."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(cell.q_diag)
    return x - q * np.floor(x / q + 0.5)


def cell_coords(x, cell):
    """Representative of x in the fundamental box [0, q_11) x ... x [0, q_nn)."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(cell.q_diag)
    return x - q * np.floor(x / q)


class TrigShape:
    """Curve given directly by truncated trigonometric series per coordinate.

    cos_coeffs[k, m] multiplies cos(m t) in coordinate k, sin_coeffs[k, m]
    multiplies sin(m t); sin_coeffs[:, 0] is ignored.  Both are stored padded
    to one width.  The interior point defaults to the constant terms.
    """

    def __init__(self, cos_coeffs, sin_coeffs, interior=None):
        cos_c = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        sin_c = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
        if cos_c.shape[0] != 2 or sin_c.shape[0] != 2:
            raise CurveError("trig shape needs one coefficient row per coordinate")
        m = max(cos_c.shape[1], sin_c.shape[1])
        self.cos_coeffs = np.pad(cos_c, ((0, 0), (0, m - cos_c.shape[1])))
        self.sin_coeffs = np.pad(sin_c, ((0, 0), (0, m - sin_c.shape[1])))
        self.interior = np.array(cos_c[:, 0] if interior is None else interior, dtype=float)


class CircleShape(TrigShape):
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        (cx, cy), r = self.center, self.radius
        super().__init__([[cx, r], [cy, 0.0]], [[0.0, 0.0], [0.0, r]], interior=self.center)


class EllipseShape(TrigShape):
    def __init__(self, center, semi_axes, rotation=0.0):
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = (float(semi_axes[0]), float(semi_axes[1]))
        self.rotation = float(rotation)
        (cx, cy), (a, b) = self.center, self.semi_axes
        ct, st = np.cos(self.rotation), np.sin(self.rotation)
        # x(t) = center + R_theta (a cos t, b sin t)
        super().__init__([[cx, a * ct], [cy, a * st]], [[0.0, -b * st], [0.0, b * ct]],
                         interior=self.center)


def _eval_series(cos_c, sin_c, t, derivative=0):
    """Evaluate the trig series (or a parameter derivative) at parameters t."""
    t = np.asarray(t, dtype=float)
    modes = np.arange(cos_c.shape[1])
    mt = np.outer(t, modes)
    cos_mt, sin_mt = np.cos(mt), np.sin(mt)
    k = derivative % 4
    fac = modes.astype(float) ** derivative
    if k == 0:
        basis_c, basis_s = cos_mt, sin_mt
    elif k == 1:
        basis_c, basis_s = -sin_mt, cos_mt
    elif k == 2:
        basis_c, basis_s = -cos_mt, -sin_mt
    else:
        basis_c, basis_s = sin_mt, -cos_mt
    return (basis_c * fac) @ cos_c.T + (basis_s * fac) @ sin_c.T


@dataclass(frozen=True)
class BoundaryCurve:
    """Discretized hole boundary: nodes, speeds and outward unit normals."""

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    N: int
    nodes: np.ndarray      # (N, 2)
    speeds: np.ndarray     # (N,)
    normals: np.ndarray    # (N, 2)
    center_hint: np.ndarray
    params: np.ndarray = field(repr=False, default=None)
    d1: np.ndarray = field(repr=False, default=None)  # x'(t_i)
    d2: np.ndarray = field(repr=False, default=None)  # x''(t_i)

    @property
    def dt(self):
        return 2.0 * np.pi / self.N

    @property
    def weights(self):
        """Trapezoid quadrature weights for arclength integrals."""
        return self.dt * self.speeds

    def eval(self, t, derivative=0):
        return _eval_series(self.cos_coeffs, self.sin_coeffs, t, derivative)

    def resample(self, N):
        """Exact re-discretization of the same curve at a different node count."""
        shape = TrigShape(self.cos_coeffs, self.sin_coeffs, interior=self.center_hint)
        return _discretize_trig(shape, N)


def _discretize_trig(shape, N):
    cos_c, sin_c = shape.cos_coeffs, shape.sin_coeffs
    t = 2.0 * np.pi * np.arange(N) / N
    nodes = _eval_series(cos_c, sin_c, t)
    d1 = _eval_series(cos_c, sin_c, t, derivative=1)
    d2 = _eval_series(cos_c, sin_c, t, derivative=2)
    speeds = np.hypot(d1[:, 0], d1[:, 1])
    if np.min(speeds) <= 1e-12 * max(np.max(speeds), 1.0):
        raise CurveError("vanishing parametrization speed")
    normals = np.column_stack((d1[:, 1], -d1[:, 0])) / speeds[:, None]
    return BoundaryCurve(
        cos_coeffs=cos_c, sin_coeffs=sin_c, N=N, nodes=nodes, speeds=speeds,
        normals=normals, center_hint=shape.interior,
        params=t, d1=d1, d2=d2,
    )


def discretize_curve(shape, N, cell):
    """Discretize a closed analytic curve inside the cell at N uniform nodes.

    Requires even N >= 8, counterclockwise orientation, strictly positive
    speed, and containment in the open cell with a 1% margin.
    """
    if N % 2 != 0 or N < 8:
        raise CurveError(f"node count must be even and >= 8, got {N}")
    curve = _discretize_trig(shape, N)

    # orientation: positive signed area <=> counterclockwise <=> outward normals
    if hole_area(curve) <= 0.0:
        raise CurveError("curve must be parametrized counterclockwise")

    margin = CONTAINMENT_MARGIN * cell.min_edge
    fine = curve.resample(max(4 * N, 256))
    for axis, q in enumerate(cell.q_diag):
        lo = np.min(fine.nodes[:, axis])
        hi = np.max(fine.nodes[:, axis])
        if lo < margin or hi > q - margin:
            raise CurveError(
                f"curve leaves the cell interior along axis {axis}: "
                f"range [{lo:.6g}, {hi:.6g}] vs required [{margin:.6g}, {q - margin:.6g}]"
            )

    # proxy simplicity check: no two nodes coincide
    diff = curve.nodes[:, None, :] - curve.nodes[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    if np.min(dist) <= 1e-12 * cell.min_edge:
        raise CurveError("coincident nodes: curve is not simple at this resolution")

    # outwardness against the interior hint (meaningful for starlike shapes)
    rel = curve.nodes - curve.center_hint[None, :]
    if np.any(np.sum(rel * curve.normals, axis=1) <= 0.0):
        raise CurveError("normals do not point away from the interior hint")
    return curve


def hole_area(curve):
    """Area enclosed by the curve, via the divergence theorem (spectral); positive for CCW."""
    x, d1 = curve.nodes, curve.d1
    return float(0.5 * curve.dt * np.sum(x[:, 0] * d1[:, 1] - x[:, 1] * d1[:, 0]))


def arclength(curve):
    """Total boundary length by the periodic trapezoid rule."""
    return float(np.sum(curve.weights))


TargetLocation = namedtuple("TargetLocation", "inside distance on_node near")


def locate_targets(x, curve, cell):
    """Classify points x (P, 2) against the hole images, in one pass over point-node pairs.

    Returns a TargetLocation of (P,) arrays: inside a hole image, the
    distance to the nearest node image, on a node image (within the singular
    distance) and near the boundary (within NEAR_SPACINGS node spacings).
    Per block of points, the components of node - cell_coords(x) give the
    winding number of the node polygon about the representative by a signed
    crossing count (Sunday's nonzero rule; ambiguous only on the polygon
    itself, whose nodes on_node covers); reduced as nearest_image reduces,
    they give the distance to each node's nearest image.  A non-finite
    point raises ValueError before any arithmetic.
    """
    p = cell_coords(np.asarray_chkfinite(x, dtype=float).reshape(-1, 2), cell)
    inside, dist = np.empty(len(p), dtype=bool), np.empty(len(p))
    step = max(1, _PAIRS // curve.N)
    for lo in range(0, len(p), step):
        blk = slice(lo, lo + step)
        dx = curve.nodes[:, 0] - p[blk, :1]
        dy = curve.nodes[:, 1] - p[blk, 1:]
        # edges i -> i + 1 crossing the line through p count +1 upward with p
        # left of them, -1 downward with p right of them (cross: isLeft of p)
        below = dy <= 0.0
        rows, i = np.nonzero(below != np.roll(below, -1, axis=1))
        j = (i + 1) % curve.N
        cross = dx[rows, i] * dy[rows, j] - dy[rows, i] * dx[rows, j]
        sign = np.where(below[rows, i], 1.0, -1.0)
        inside[blk] = np.bincount(rows, sign * (sign * cross > 0.0), len(dx)) != 0.0
        for d, q in ((dx, cell.q_diag[0]), (dy, cell.q_diag[1])):
            d -= q * np.floor(d / q + 0.5)
        dist[blk] = np.min(np.hypot(dx, dy), axis=1)
    return TargetLocation(inside, dist, dist <= _SINGULAR_FRACTION * cell.min_edge,
                          dist < NEAR_SPACINGS * np.max(curve.weights))
