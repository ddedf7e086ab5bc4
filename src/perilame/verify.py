"""Independent oracles and the property-report suite.

The filtered-Fourier oracle evaluates the defining lattice series of the
periodic Green's matrix directly: every term is damped by exp(-sigma |k|^2),
summed brutally to a negligible damped tail, and the filter is removed by
Richardson extrapolation over sigma, sigma/2, sigma/4.  The damped sum equals
the true value minus a term linear in sigma plus exponentially small
screened-image corrections, so the extrapolation is certified by comparing
the two first-stage extrapolants.

run_property_suite drives every load-bearing invariant of the package over
the standard configuration matrix and emits OracleReport rows; the registry
of properties is fixed and its completeness is itself under test.  A
report's fingerprint is made from the values its check ran with: the cells,
omegas and plan tolerance and, for a check on a boundary, the curves and N.
"""

import time
from dataclasses import dataclass

import numpy as np

from .cell import (
    _PAIRS,
    CircleShape,
    EllipseShape,
    TrigShape,
    _batches,
    build_cell,
    discretize_curve,
    hole_area,
    locate_targets,
    nearest_image,
)
from .errors import (
    AdmissibilityError,
    DegenerateProblemError,
    OracleError,
    SingularArgumentError,
)
from .kernels import LameEnv, kelvin, traction
from .lattice import (
    _lattice_points,
    periodic_green,
    periodic_green_grad,
    plan_lattice_sum,
    regular_part,
)
from .operators import (
    BoundaryVectorField,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    eval_traction_offboundary,
)
from .nonlinear import TractionModel, affine_model, saturating_model, solve_nonlinear_robin
from .robin import (
    RobinData,
    constant_matrix_field,
    constant_vector_field,
    eval_solution,
    solve_neumann_aux,
    solve_robin,
    validate_robin_data,
)
from .special import exp1

ORACLE_DISTANCE_FACTOR = 112.0  # sigma0 = d^2 / factor keeps screened images < 1e-12
# the filtered sums stop where the damped tail bound falls below this
_FILTER_TAIL = 1e-13
# largest lattice cut m of the filtered sums: at about 150 bytes a lattice
# point, the (2m+1)^2 lattice's arrays then stay within about 0.6 GB
_FILTER_MAX_CUT = 1000
# image box and Fourier box of scalar_periodic_green
_SCALAR_REAL_CUTOFF = 6
_SCALAR_FOURIER_CUTOFF = 24

CELLS = ((1.0, 1.0), (2.0, 3.0))
OMEGAS = (0.5, 1.0, 4.0)


def _nonzero_lattice(m):
    """The integer points z != 0 of [-m, m]^2."""
    z = _lattice_points(m)
    return z[np.any(z != 0.0, axis=1)]


def _filter_cut(sigma, cell):
    """The lattice cut m of the filtered sums at the smallest width sigma.

    m is the smallest multiple of 8 at which the damped tail bound falls
    below _FILTER_TAIL; the bound decreases in m, so doubling and then
    bisection find it.
    """
    kmin_unit = 2.0 * np.pi / cell.max_edge

    def below(j):
        m = 8 * j
        kmin = kmin_unit * m
        u = sigma * kmin * kmin
        return np.exp(-u) * 16 * m / (kmin * kmin * cell.volume) < _FILTER_TAIL

    lo, hi = 0, 1
    while not below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return 8 * hi


def _filtered_sums(xr, beta, cell, sigma0, m):
    """Gaussian-filtered brute-force values of the defining Fourier series, (3, P, 2, 2).

    xr holds P points and sigma0 their P filter widths; the three levels are
    at sigma0, sigma0/2 and sigma0/4.  One lattice, cut at m (_filter_cut of
    the smallest width), serves them all.  The damping at sigma0/4 is taken
    once and squared for the other two.  Points go in blocks of about
    64 cell._PAIRS point-lattice pairs (_batches).
    """
    q = np.asarray(cell.q_diag)
    k = 2.0 * np.pi * _nonzero_lattice(m) / q[None, :]
    k2 = np.sum(k * k, axis=1)
    # coeff[:, 2i + j] = (-delta_ij + beta khat_i khat_j) / (k2 |Q|) with
    # khat = k / |k|, one column at a time: k, k2 and coeff are the only
    # arrays over the whole lattice that outlive this block
    root, scale = np.sqrt(k2), k2 * cell.volume
    coeff = np.empty((len(k2), 4))
    for i in range(2):
        bi = beta * (k[:, i] / root)
        for j in range(2):
            coeff[:, 2 * i + j] = (bi * (k[:, j] / root) - float(i == j)) / scale
    del root, scale, bi
    out = np.empty((3, len(xr), 4))
    for blk in _batches(len(xr), len(k2), 64 * _PAIRS):
        phase = np.cos(xr[blk] @ k.T)
        damp = np.exp(-(sigma0[blk, None] / 4.0) * k2)
        for level in (2, 1, 0):
            out[level, blk] = (damp * phase) @ coeff
            damp *= damp
    return out.reshape(3, len(xr), 2, 2)


def _filtered_oracle(x, beta, cell, sigma0, certify):
    """The filtered series at x (2,) or (P, 2), Richardson-extrapolated in sigma and certified.

    The values at sigma0, sigma0/2 and sigma0/4 give two first-stage
    extrapolants; their spread is the certificate, and the worst spread over
    the points decides.  A width that needs a lattice cut above
    _FILTER_MAX_CUT raises OracleError before any lattice array is built.
    """
    x = np.asarray(x, dtype=float)
    xr = np.atleast_2d(nearest_image(x, cell))
    d = np.sqrt(np.sum(xr * xr, axis=1))
    if np.any(d <= 1e-6 * cell.min_edge):
        raise OracleError("oracle point lies on the lattice")
    s0 = d * d / ORACLE_DISTANCE_FACTOR if sigma0 is None else np.full(len(xr), float(sigma0))
    m = _filter_cut(np.min(s0) / 4.0, cell)
    if m > _FILTER_MAX_CUT:
        raise OracleError(
            f"oracle point at distance {np.min(d):.3e} from the lattice needs a "
            f"lattice cut m = {m} (filter width {np.min(s0):.3e}), above {_FILTER_MAX_CUT}"
        )
    f0, f1, f2 = _filtered_sums(xr, beta, cell, s0, m)
    g1 = 2.0 * f1 - f0
    g2 = 2.0 * f2 - f1
    spread = np.max(np.abs(g2 - g1))
    if spread > 10.0 * certify:
        raise OracleError(
            f"extrapolation levels disagree by {spread:.3e} (> 10 x {certify:.1e})"
        )
    out = (4.0 * g2 - g1) / 3.0
    return out[0] if x.ndim == 1 else out


def oracle_filtered_fourier(x, env, cell, sigma0=None, certify=1e-10):
    """Ground-truth periodic Green's matrix at off-lattice points x, (2,) or (P, 2).

    Returns (2, 2) or (P, 2, 2).  sigma0 defaults to d^2/112 with d a
    point's distance to the nearest lattice point.  Raises OracleError when
    the extrapolation levels disagree beyond 10x the certification target at
    any point, naming the worst spread.
    """
    return _filtered_oracle(x, env.beta, cell, sigma0, certify)


def scalar_periodic_green(x, cell):
    """Zero-mean periodic harmonic Green's function (Laplacian = comb - 1/|Q|).

    Classical Gaussian-screen split at eta = sqrt(pi) / min_edge, kept
    independent of the Lame machinery so it can serve as the omega -> 0
    oracle.
    """
    eta = np.sqrt(np.pi) / cell.min_edge
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xr = np.atleast_2d(nearest_image(x, cell))
    if np.any(np.sqrt(np.sum(xr * xr, axis=-1)) <= 1e-12 * cell.min_edge):
        raise SingularArgumentError("argument lies on the lattice q Z^n")
    q = np.asarray(cell.q_diag)
    shifts = _lattice_points(_SCALAR_REAL_CUTOFF) * q[None, :]
    d = xr[:, None, :] - shifts[None, :, :]
    T = eta**2 * np.sum(d * d, axis=-1)
    out = -np.sum(exp1(T), axis=1) / (4.0 * np.pi)
    z = _nonzero_lattice(_SCALAR_FOURIER_CUTOFF)
    k = 2.0 * np.pi * z / q[None, :]
    k2 = np.sum(k * k, axis=1)
    u = k2 / (4.0 * eta**2)
    coef = -np.exp(-u) / (k2 * cell.volume)
    out += np.cos(xr @ k.T) @ coef
    out += 1.0 / (4.0 * eta**2 * cell.volume)
    return out[0] if single else out


def pde_residual(x, j, env, cell, plan, h=1e-3):
    """Norm of L[omega] Gamma^{q,j}(x) + e_j/|Q| by fourth-order differences.

    Requires x at least 0.05 * min(q) away from the lattice so the widest
    stencil stays well separated from the singularities.
    """
    x = np.asarray(x, dtype=float)
    xr = nearest_image(x, cell)
    if np.sqrt(np.sum(xr * xr)) < 0.05 * cell.min_edge:
        raise SingularArgumentError("stencil base point too close to the lattice")
    lam = lame_apply_fd(
        lambda pts: periodic_green(pts, env, cell, plan)[..., :, j], x, env.omega, h
    )
    e = np.zeros(2)
    e[j] = 1.0
    return float(np.linalg.norm(lam + e / cell.volume))


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFS = np.array([-2, -1, 0, 1, 2])


def lame_apply_fd(field, x, omega, h):
    """Fourth-order finite-difference L[omega] of a vector field  R^2 -> R^2.

    field(points) must accept an (..., 2) array of points and return (..., 2)
    values.  Uses the 5x5 tensor stencil once per call.
    """
    x = np.asarray(x, dtype=float)
    o1, o2 = np.meshgrid(_OFFS, _OFFS, indexing="ij")
    pts = x[None, None, :] + h * np.stack([o1, o2], axis=-1)
    vals = field(pts.reshape(-1, 2)).reshape(5, 5, 2)
    c = 2  # center index
    u_xx = np.tensordot(_D2, vals[:, c, :], axes=(0, 0)) / h**2
    u_yy = np.tensordot(_D2, vals[c, :, :], axes=(0, 0)) / h**2
    u_xy = np.einsum("i,j,ijd->d", _D1, _D1, vals) / h**2
    lap = u_xx + u_yy
    div_grad = np.array([u_xx[0] + u_xy[1], u_xy[0] + u_yy[1]])
    return lap + omega * div_grad


@dataclass
class OracleReport:
    """Outcome of one verified property across one configuration."""

    name: str
    anchor: str
    max_error: float
    tolerance: float
    passed: bool
    fingerprint: str
    runtime_s: float  # wall time of the check, in seconds


def _fingerprint(cells, omegas, tol, curves, sizes):
    """key=values parts joined by ';', a key left out when it has no value."""
    parts = (("cell", ["x".join(f"{q:g}" for q in c.q_diag) for c in cells]),
             ("omega", [f"{w:g}" for w in omegas]),
             ("curve", curves),
             ("N", [str(n) for n in sizes]),
             ("plan_tol", [] if tol is None else [f"{tol:g}"]))
    return ";".join(f"{key}={','.join(vals)}" for key, vals in parts if vals)


def _standard_shape(kind, cell):
    s = cell.min_edge
    center = (0.5 * cell.q_diag[0], 0.5 * cell.q_diag[1])
    if kind == "circle":
        return CircleShape(center, 0.25 * s)
    if kind == "ellipse":
        return EllipseShape(center, (0.3 * s, 0.2 * s), rotation=0.5)
    if kind == "perturbed":
        base = 0.22 * s
        cos_c = np.zeros((2, 4))
        sin_c = np.zeros((2, 4))
        cos_c[0, 0], cos_c[1, 0] = center
        cos_c[0, 1] = base
        sin_c[1, 1] = base
        # third-harmonic radial ripple keeps the curve analytic and starlike
        cos_c[0, 2] = 0.03 * s
        cos_c[0, 3] = 0.02 * s
        sin_c[1, 3] = -0.02 * s
        return TrigShape(cos_c, sin_c, interior=center)
    raise ValueError(f"unknown curve kind {kind!r}")


def standard_curve(kind, cell, N):
    """The test-matrix hole shapes, scaled into the given cell."""
    return discretize_curve(_standard_shape(kind, cell), N, cell)


def _setup(omega=None, tol=None, curves=(), N=None):
    """A check's unit cell, LameEnv, plan and curves, and the fingerprint naming them.

    curves holds standard_curve kinds and (name, shape) pairs for shapes the
    check builds itself, each discretized at N.  A check that builds its
    curves itself, at several sizes, passes the sizes as the tuple N and gets
    no curve.  Without omega there is no LameEnv, and without tol no plan.
    """
    cell = build_cell((1.0, 1.0))
    env = None if omega is None else LameEnv(2, omega)
    plan = None if tol is None else plan_lattice_sum(cell, env, tol)
    shapes = [(c, _standard_shape(c, cell)) if isinstance(c, str) else c for c in curves]
    several = isinstance(N, tuple)
    built = [] if several else [discretize_curve(sh, N, cell) for _, sh in shapes]
    fp = _fingerprint([cell], () if env is None else (omega,), tol,
                      [name for name, _ in shapes], N if several else (N,) if shapes else ())
    return cell, env, plan, built, fp


def _kernel_check(tol, error, omegas=OMEGAS):
    """The largest error(cell, env, plan) over CELLS x omegas, cell-major, and the fingerprint."""
    cells = [build_cell(edges) for edges in CELLS]
    worst = 0.0
    for cell in cells:
        for omega in omegas:
            env = LameEnv(2, omega)
            worst = max(worst, error(cell, env, plan_lattice_sum(cell, env, tol)))
    return worst, _fingerprint(cells, omegas, tol, (), ())


def _off_lattice_points(cell, count, rng, min_frac=0.15):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-1.0, 2.0, size=2) * np.asarray(cell.q_diag)
        if np.linalg.norm(nearest_image(p, cell)) >= min_frac * cell.min_edge:
            pts.append(p)
    return np.asarray(pts)


def _robin_data(curve, g, B=None, a=np.eye(2), b=-np.eye(2)):
    """Robin data with constant g; a = I, b = -I is the admissible reference.

    a and b are 2x2 matrices or nodal (N, 2, 2) arrays.
    """
    return RobinData(
        a=constant_matrix_field(a, curve),
        b=constant_matrix_field(b, curve),
        g=constant_vector_field(g, curve),
        B=np.zeros((2, 2)) if B is None else B,
    )


def _far_points(rng):
    """20 points of the unit cell farther than 0.37 from the hole centre (0.5, 0.5)."""
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, size=2)
        if np.linalg.norm(p - [0.5, 0.5]) > 0.37:
            pts.append(p)
    return np.asarray(pts)


def _trig_density(curve, rng):
    """A density of the modes 0 to 3, the amplitudes of mode m drawn with scale 1/(1 + m)."""
    t = curve.params
    vals = np.zeros((curve.N, 2))
    for m in range(4):
        vals += np.outer(np.cos(m * t), rng.normal(size=2) / (1 + m))
        if m:
            vals += np.outer(np.sin(m * t), rng.normal(size=2) / (1 + m))
    return BoundaryVectorField(vals, curve)


# ----------------------------------------------------------------------------
# property checks; each returns (max_error, fingerprint), and REGISTRY pins
# each property's tolerance


def _check_green_oracle(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 20, rng)
        return float(np.max(np.abs(periodic_green(pts, env, cell, plan)
                                   - oracle_filtered_fourier(pts, env, cell))))

    return _kernel_check(1e-10, error)


def _check_green_evenness(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 50, rng)
        diff = periodic_green(pts, env, cell, plan) - periodic_green(-pts, env, cell, plan)
        return float(np.max(np.abs(diff)))

    return _kernel_check(1e-10, error)


def _check_green_periodicity(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 50, rng)
        base = periodic_green(pts, env, cell, plan)
        return max(float(np.max(np.abs(periodic_green(pts + e * np.asarray(cell.q_diag),
                                                      env, cell, plan) - base)))
                   for e in np.eye(2))

    return _kernel_check(1e-10, error)


def _check_green_symmetry(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        G = periodic_green(_off_lattice_points(cell, 50, rng), env, cell, plan)
        return float(np.max(np.abs(G - np.swapaxes(G, -1, -2))))

    return _kernel_check(1e-10, error)


def _check_green_decomposition(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 20, rng, min_frac=0.1)
        ref = periodic_green(pts, env, cell, plan)
        split = np.stack([kelvin(p, env) for p in pts]) + regular_part(
            pts, env, cell, plan
        )
        return float(np.max(np.abs(ref - split)))

    return _kernel_check(1e-13, error)


def _check_remainder_limit(seed):
    """R^q extends to 0: Richardson limit along three directions agrees."""

    def error(cell, env, plan):
        r0 = regular_part(np.zeros(2), env, cell, plan)
        worst = 0.0
        for theta in (0.0, 1.1, 2.3):
            u = np.array([np.cos(theta), np.sin(theta)])
            vals = [regular_part(h * u, env, cell, plan) for h in (1e-2, 5e-3, 2.5e-3)]
            # the remainder is even in x, so the limit is second order in h
            extrap = (4.0 * vals[2] - vals[1]) / 3.0
            worst = max(worst, float(np.max(np.abs(extrap - r0))))
        return worst

    return _kernel_check(1e-13, error)


def _check_pde_residual(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 10, rng, min_frac=0.25)
        res = [pde_residual(p, 0, env, cell, plan) for p in pts]
        worst = max(res + [pde_residual(p, j, env, cell, plan)
                           for j, p in zip((0, 1, 0, 1), pts)])
        # decay probed at the largest-residual point, stencils wide enough
        # that every level stays above the rounding floor
        probe = pts[int(np.argmax(res))]
        levels = [pde_residual(probe, 0, env, cell, plan, h=h) for h in (1.6e-2, 8e-3, 4e-3)]
        return worst if levels[0] > 8 * levels[1] and levels[1] > 8 * levels[2] else np.inf

    return _kernel_check(1e-13, error)


def _check_scalar_limit(seed):
    rng = np.random.default_rng(seed)

    def error(cell, env, plan):
        pts = _off_lattice_points(cell, 20, rng)
        G = periodic_green(pts, env, cell, plan)
        s = scalar_periodic_green(pts, cell)
        return float(np.max(np.abs(G[:, [0, 1], [0, 1]] - s[:, None])))

    return _kernel_check(1e-10, error, omegas=(1e-8,))


def _check_green_gradient(seed):
    rng = np.random.default_rng(seed)
    h = 1e-5

    def error(cell, env, plan):
        worst = 0.0
        for p in _off_lattice_points(cell, 10, rng, min_frac=0.2):
            g = periodic_green_grad(p, env, cell, plan)
            fd = np.zeros((2, 2, 2))
            for m, e in enumerate(h * np.eye(2)):
                fd[:, :, m] = (
                    periodic_green(p + e, env, cell, plan)
                    - periodic_green(p - e, env, cell, plan)
                ) / (2 * h)
            worst = max(worst, float(np.max(np.abs(g - fd))))
        return worst

    return _kernel_check(1e-12, error)


def _check_integral_identity(seed):
    rng = np.random.default_rng(seed)
    cell, env, plan, curves, fp = _setup(1.0, 1e-11, ["circle", "ellipse"], 128)
    worst = 0.0
    for curve in curves:
        W = assemble_wstar(curve, env, cell, plan)
        factor = 0.5 - hole_area(curve) / cell.volume
        for _ in range(10):
            mu = _trig_density(curve, rng)
            lhs = boundary_integral(W.apply(mu))
            rhs = factor * boundary_integral(mu)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, fp


def _check_jump_relation(seed):
    cell, env, plan, (curve,), fp = _setup(
        1.0, 1e-11, [("circle r=0.2", CircleShape((0.5, 0.5), 0.2))], 256
    )
    W = assemble_wstar(curve, env, cell, plan)
    t = curve.params
    mu_vals = np.column_stack([0.5 + 0.3 * np.cos(t), 0.4 * np.sin(t)])
    mu = BoundaryVectorField(mu_vals, curve)
    target = -0.5 * mu_vals + W.apply(mu).values
    h = np.max(curve.weights)
    fine = mu.resample(4 * curve.N)
    vals = []
    for mfac in (1.0, 2.0, 4.0):
        pts = curve.nodes - mfac * h * curve.normals
        vals.append(eval_traction_offboundary(pts, curve.normals, fine, env, cell, plan))
    extrap = (8.0 * vals[0] - 6.0 * vals[1] + vals[2]) / 3.0
    return float(np.max(np.abs(extrap - target))), fp


def _check_single_layer_periodicity(seed):
    rng = np.random.default_rng(seed)
    cell, env, plan, (curve,), fp = _setup(0.5, 1e-11, ["ellipse"], 128)
    mu = _trig_density(curve, rng)
    pts = []
    while len(pts) < 10:
        p = rng.uniform(0, 1, size=2)
        if locate_targets(p, curve, cell).distance[0] > 0.1:
            pts.append(p)
    pts = np.asarray(pts)
    base = eval_single_layer(pts, mu, env, cell, plan)
    worst = 0.0
    for e in np.eye(2):
        shifted = eval_single_layer(pts + e * np.asarray(cell.q_diag), mu, env, cell, plan)
        worst = max(worst, float(np.max(np.abs(shifted - base))))
    return worst, fp


def _check_single_layer_lame(seed):
    """L[omega] v = -(1/|Q|) int mu away from the boundary (relative error)."""
    rng = np.random.default_rng(seed)
    cell, env, plan, (curve,), fp = _setup(1.0, 1e-13, ["circle"], 128)
    mu = _trig_density(curve, rng)
    mu.values[:, 0] += 1.0  # ensure a nonzero mean load
    total = boundary_integral(mu)
    target = -total / cell.volume
    scale = float(np.max(np.abs(target)))
    worst = 0.0
    for p in ([0.08, 0.1], [0.9, 0.85], [0.1, 0.9]):
        lam = lame_apply_fd(
            lambda pts: eval_single_layer(pts, mu, env, cell, plan),
            np.asarray(p),
            env.omega,
            1e-3,
        )
        worst = max(worst, float(np.max(np.abs(lam - target))) / scale)
    return worst, fp


def _check_aux_roundtrip(seed):
    rng = np.random.default_rng(seed)
    cell, env, plan, (curve,), fp = _setup(4.0, 1e-11, ["perturbed"], 128)
    W = assemble_wstar(curve, env, cell, plan)
    worst = 0.0
    for _ in range(5):
        psi = _trig_density(curve, rng)
        mu = solve_neumann_aux(psi, W)
        res = 0.5 * mu.values + W.apply(mu).values - psi.values
        worst = max(worst, float(np.max(np.abs(res))))
    return worst, fp


def _check_aux_mean_identity(seed):
    rng = np.random.default_rng(seed)
    cell, env, plan, (curve,), fp = _setup(0.5, 1e-11, ["circle"], 128)
    W = assemble_wstar(curve, env, cell, plan)
    factor = 1.0 - hole_area(curve) / cell.volume
    worst = 0.0
    for _ in range(5):
        psi = _trig_density(curve, rng)
        mu = solve_neumann_aux(psi, W)
        lhs = boundary_integral(psi)
        rhs = factor * boundary_integral(mu)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, fp


def _check_representation(seed):
    rng = np.random.default_rng(seed)
    cell, env, plan, (curve,), fp = _setup(1.0, 1e-11, ["circle"], 128)
    V = assemble_single_layer(curve, env, cell, plan)
    W = assemble_wstar(curve, env, cell, plan)
    mu0 = _trig_density(curve, rng)
    mean = boundary_integral(mu0) / np.sum(curve.weights)
    mu0.values -= mean[None, :]  # zero-mean representative
    c0 = rng.normal(size=2)
    # the density from the traction data, the constant from the boundary values
    psi = BoundaryVectorField(0.5 * mu0.values + W.apply(mu0).values, curve)
    mu_rec = solve_neumann_aux(psi, W)
    u_bdry = V.apply(mu0).values + c0[None, :]
    c_rec = np.mean(u_bdry - V.apply(mu_rec).values, axis=0)
    err = max(
        float(np.max(np.abs(mu_rec.values - mu0.values))),
        float(np.max(np.abs(c_rec - c0))),
    )
    return err, fp


def _sources_field(env, cell, plan, x0, x1, dvec, cstar=None, B=None):
    """Difference-of-sources field with optional constant and drift parts."""
    x0 = np.asarray(x0)
    x1 = np.asarray(x1)
    dvec = np.asarray(dvec)
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
        Du = np.einsum(
            "pjkm,k->pjm", periodic_green_grad(pts - x0, env, cell, plan), dvec
        )
        Du -= np.einsum(
            "pjkm,k->pjm", periodic_green_grad(pts - x1, env, cell, plan), dvec
        )
        Du += Bq[None, :, :]
        return traction(Du, normals, env.omega)

    return u_fn, trac_fn


def _manufactured_error(env, cell, plan, N, rng):
    curve = standard_curve("circle", cell, N)
    u_fn, trac_fn = _sources_field(
        env, cell, plan, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0)
    )
    g = trac_fn(curve.nodes, curve.normals) - u_fn(curve.nodes)
    rep = solve_robin(_robin_data(curve, g), curve, env, cell, plan)
    pts = _far_points(rng)
    u_num = eval_solution(rep, pts, env, cell, plan, warn=False)
    return float(np.max(np.abs(u_num - u_fn(pts))))


def _check_robin_exact(seed):
    cell, env, plan, (curve,), fp = _setup(1.0, 1e-11, ["circle"], 64)
    cstar = np.array([0.3, -0.7])
    rep = solve_robin(_robin_data(curve, -cstar), curve, env, cell, plan)
    err = max(
        float(np.max(np.abs(rep.mu.values))), float(np.max(np.abs(rep.c - cstar)))
    )
    B = np.diag([0.2, -0.1])
    Bq = B @ cell.q_inv
    gvals = traction(Bq, curve.normals, env.omega) - curve.nodes @ Bq.T
    rep2 = solve_robin(_robin_data(curve, gvals, B), curve, env, cell, plan)
    pts = np.array([[0.1, 0.1], [0.9, 0.2], [0.5, 0.95]])
    u = eval_solution(rep2, pts, env, cell, plan, warn=False)
    err = max(err, float(np.max(np.abs(u - pts @ Bq.T))))
    return err, fp


def _check_robin_homogeneous(seed):
    cell, env, plan, (curve,), fp = _setup(4.0, 1e-11, ["ellipse"], 64)
    rep = solve_robin(_robin_data(curve, (0.0, 0.0)), curve, env, cell, plan)
    return float(np.max(np.abs(rep.mu.values))) + float(np.max(np.abs(rep.c))), fp


def _check_robin_manufactured(seed):
    rng = np.random.default_rng(seed)
    sizes = (64, 128, 256)
    cell, env, plan, _, fp = _setup(1.0, 1e-12, ["circle"], sizes)
    errs = {N: _manufactured_error(env, cell, plan, N, rng) for N in sizes}
    ratio = errs[64] / max(errs[256], 1e-16)
    return (errs[128] if ratio >= 100.0 else np.inf), fp


def _check_quasi_periodicity(seed):
    cell, env, plan, (curve,), fp = _setup(0.5, 1e-11, ["circle"], 64)
    B = np.array([[0.3, 0.1], [-0.2, 0.25]])
    Bq = B @ cell.q_inv
    gvals = traction(Bq, curve.normals, env.omega) - curve.nodes @ Bq.T
    rep = solve_robin(_robin_data(curve, gvals, B), curve, env, cell, plan)
    pts = np.array([[0.07, 0.12], [0.88, 0.9], [0.5, 0.03]])
    base = eval_solution(rep, pts, env, cell, plan, warn=False)
    worst = 0.0
    for j, e in enumerate(np.eye(2)):
        shifted = eval_solution(
            rep, pts + e * np.asarray(cell.q_diag), env, cell, plan, warn=False
        )
        worst = max(worst, float(np.max(np.abs(shifted - base - B[:, j][None, :]))))
    return worst, fp


def _check_nonlinear_equivalence(seed):
    cell, env, plan, (curve,), fp = _setup(1.0, 1e-11, ["circle"], 64)
    t = curve.params
    gvals = np.column_stack([0.2 + 0.1 * np.cos(t), -0.3 + 0.2 * np.sin(2 * t)])
    B = np.diag([0.1, -0.05])
    rep_lin = solve_robin(_robin_data(curve, gvals, B), curve, env, cell, plan)
    model = affine_model(np.eye(2), gvals, curve)
    rep_nl = solve_nonlinear_robin(model, B, curve, env, cell, plan)
    err = max(
        float(np.max(np.abs(rep_lin.mu.values - rep_nl.mu.values))),
        float(np.max(np.abs(rep_lin.c - rep_nl.c))),
    )
    return err, fp


def _check_nonlinear_manufactured(seed):
    # Newton applies V and W* by their matrices at N = 128, by FFT at N = 512 (4 Nc <= N)
    sizes = (128, 512)
    cell, env, plan, _, fp = _setup(1.0, 1e-12, ["circle"], sizes)
    B, kappa = np.diag([0.15, -0.1]), -0.8
    u_fn, trac_fn = _sources_field(env, cell, plan, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0),
                                   cstar=np.array([0.2, -0.4]), B=B)
    pts, worst = _far_points(np.random.default_rng(seed)), 0.0
    for N in sizes:
        curve = standard_curve("circle", cell, N)
        ustar = u_fn(curve.nodes)
        # a law that is not affine, so a wrong Jacobian shows: G(u*) = t* at every node
        h = trac_fn(curve.nodes, curve.normals) \
            - kappa * ustar / (1.0 + np.sum(ustar * ustar, axis=1))[:, None]
        rep = solve_nonlinear_robin(saturating_model(h, kappa, curve), B, curve, env, cell, plan,
                                    tol=1e-12)
        u_num = eval_solution(rep, pts, env, cell, plan, warn=False)
        worst = max(worst, float(np.max(np.abs(u_num - u_fn(pts)))))
    return worst, fp


def _check_nonlinear_degeneracy(seed):
    cell, env, plan, (curve,), fp = _setup(1.0, 1e-11, ["circle"], 64)
    model = TractionModel(lambda U: np.zeros_like(U), lambda U: np.zeros(U.shape + (2,)))
    try:
        solve_nonlinear_robin(model, np.zeros((2, 2)), curve, env, cell, plan)
    except DegenerateProblemError:
        return 0.0, fp
    return np.inf, fp


def _check_data_validation(seed):
    _, _, _, (curve,), fp = _setup(curves=["circle"], N=64)
    failures = 0
    # each admissibility condition violated by a dedicated fixture; with b = 0
    # the integral check may fire before the pointwise one
    cases = [
        (np.zeros((2, 2)), -np.eye(2), ("invertibility-of-a",)),
        (np.eye(2), np.eye(2), ("negativity-of-ainv-b",)),
        (
            np.eye(2),
            np.zeros((2, 2)),
            ("invertibility-of-integral", "pointwise-invertibility-of-b"),
        ),
        # b = -nu nu^T is singular at every node, while the integral of a^-1 b,
        # -pi r I, is invertible: only the pointwise condition rejects it
        (
            np.eye(2),
            -curve.normals[:, :, None] * curve.normals[:, None, :],
            ("pointwise-invertibility-of-b",),
        ),
    ]
    for a, b, expect in cases:
        try:
            validate_robin_data(_robin_data(curve, (0.0, 0.0), a=a, b=b), curve)
        except AdmissibilityError as exc:
            failures += exc.condition in expect
    validate_robin_data(_robin_data(curve, (0.0, 0.0)), curve)
    return (0.0 if failures == len(cases) else np.inf), fp


REGISTRY = {
    "green-oracle-agreement": ("lattice series definition", 1e-9, _check_green_oracle),
    "green-evenness": ("matrix even in x", 1e-9, _check_green_evenness),
    "green-lattice-periodicity": ("translation invariance", 1e-9, _check_green_periodicity),
    "green-matrix-symmetry": ("entrywise symmetry", 1e-9, _check_green_symmetry),
    "green-kelvin-decomposition": ("smooth remainder split", 1e-12, _check_green_decomposition),
    "remainder-finite-at-zero": ("remainder limit at origin", 1e-8, _check_remainder_limit),
    "green-pde-residual": ("unit sources with uniform background", 1e-6, _check_pde_residual),
    "green-scalar-limit": ("harmonic limit of the diagonal", 1e-6, _check_scalar_limit),
    "green-gradient": ("analytic gradient vs differences", 1e-7, _check_green_gradient),
    "wstar-integral-identity": ("traction operator mean identity", 1e-8, _check_integral_identity),
    "traction-jump-relation": ("one-sided traction jump", 1e-6, _check_jump_relation),
    "single-layer-periodicity": (
        "potential is cell-periodic", 1e-10, _check_single_layer_periodicity
    ),
    "single-layer-load-balance": (
        "uniform body load of the potential", 1e-5, _check_single_layer_lame
    ),
    "aux-operator-roundtrip": ("second-kind solve residual", 1e-11, _check_aux_roundtrip),
    "aux-mean-identity": ("integrated second-kind identity", 1e-8, _check_aux_mean_identity),
    "representation-roundtrip": ("density-plus-constant recovery", 1e-9, _check_representation),
    "robin-exact-solutions": ("constant and linear exact fields", 1e-9, _check_robin_exact),
    "robin-homogeneous-uniqueness": (
        "zero data gives zero solution", 1e-10, _check_robin_homogeneous
    ),
    "robin-manufactured-convergence": (
        "two-source manufactured field", 1e-8, _check_robin_manufactured
    ),
    "robin-quasi-periodicity": (
        "prescribed drift across the cell", 1e-10, _check_quasi_periodicity
    ),
    "nonlinear-affine-equivalence": (
        "affine law matches linear solver", 1e-9, _check_nonlinear_equivalence
    ),
    "nonlinear-manufactured": (
        "constructed nonlinear solution", 1e-7, _check_nonlinear_manufactured
    ),
    "nonlinear-degeneracy-report": (
        "unconstrained constant detected", 0.5, _check_nonlinear_degeneracy
    ),
    "data-admissibility-rejections": (
        "solvability conditions enforced", 0.5, _check_data_validation
    ),
}


def run_property_suite(names=None, seed=0):
    """Run the registered property checks; failures are reported, not raised.

    Each report carries the wall time of its check.
    """
    reports = []
    selected = names if names is not None else list(REGISTRY)
    for name in selected:
        anchor, tol, runner = REGISTRY[name]
        t0 = time.perf_counter()
        try:
            err, fp = runner(seed)
        except Exception as exc:  # report, never throw: the report is the product
            err, fp = float("inf"), f"exception: {type(exc).__name__}: {exc}"
        reports.append(OracleReport(name, anchor, float(err), float(tol), bool(err <= tol), fp,
                                    float(time.perf_counter() - t0)))
    return reports

