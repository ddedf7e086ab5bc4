"""Periodic fundamental solution of the Lame operator by Ewald summation.

The lattice-periodic Green's matrix has Fourier coefficients

    C_z = (-delta_jk + beta khat_j khat_k) / (|k_z|^2 |Q|),   k_z = 2 pi q^{-1} z,

for z != 0, with beta = omega/(omega+1).  Writing it as
(delta_jk Lap - beta d_j d_k) H applied to the zero-mean periodic biharmonic
lattice function H reduces everything to one split.  With the screen
(1 + u) e^{-u}, u = |k|^2/(4 eta^2), the real-space images involve only

    w(r)        = (exp(-T) - E1(T)) / (4 pi)                      [Lap H per image]
    phi_jk(x)   = -delta_jk E1(T)/(8 pi) + x_j x_k exp(-T)/(4 pi r^2)   [Hess H]

with T = eta^2 r^2; both integrate to zero over the plane, so no constant
correction is needed and the reciprocal sum carries coefficients
(1+u) e^{-u} C_z.  Everything here is 2D.

Since C_{-z} = C_z, the reciprocal sum keeps one z of each +-z pair with
doubled coefficients: the value adds cos(k.x) @ (F, 4) table and the gradient
sin(k.x) @ (F, 8) table, both tables built once per plan.  The split eta is
chosen by a cost model calibrated on measured term costs: one live
real-space image (eta^2 r^2 < 45) costs IMAGE_TERM_COST paired Fourier terms.
"""

from dataclasses import dataclass, field

import numpy as np

from .cell import nearest_image
from .errors import PlanError, SingularArgumentError
from .special import EULER_GAMMA, exp1

REAL_CUTOFF_CEILING = 12
FOURIER_CUTOFF_CEILING = 96
_SINGULAR_FRACTION = 1e-12
# (point, image) pairs with eta^2 r^2 at or above this are skipped: their
# contribution is below 3e-20 through every prefactor
_LIVE_T = 45.0
# points per block in the real and reciprocal sums, bounding their scratch arrays
_BLOCK = 2048
# Time of one live real-space image term over one paired Fourier term.  The
# slopes of 16384-pair call times against the live-image count (R = 2, eta from
# 1 to 3 sqrt(pi)) and against the paired Fourier count (F = 2 to 10) give
# ratios of about 10 for values and 18 for gradients (medians of five runs; one
# BLAS thread, OpenBLAS 0.3.31, 2-CPU Intel Xeon); assembly and the off-node
# residual call both about equally often, so the mean is used.
IMAGE_TERM_COST = 15.0
# candidate split parameters, in units of sqrt(pi) / min_edge
ETA_SCALES = (0.8, 1.0, 1.25, 1.6, 2.0, 2.25, 2.5, 2.75, 3.0)


def _lattice_points(cutoff, exclude_origin):
    rng = np.arange(-cutoff, cutoff + 1)
    z1, z2 = np.meshgrid(rng, rng, indexing="ij")
    z = np.column_stack((z1.ravel(), z2.ravel())).astype(float)
    if exclude_origin:
        keep = np.any(z != 0.0, axis=1)
        z = z[keep]
    return z


@dataclass
class LatticeSumPlan:
    """Ewald truncation plan for one (cell, env, tol) combination.

    Records the a-priori tail bounds certifying the chosen cutoffs and holds
    the precomputed reciprocal-sum tables shared by all evaluations.
    """

    eta: float
    real_cutoff: int
    fourier_cutoff: int
    tol: float
    real_bound: float
    fourier_bound: float
    cell_edges: tuple
    omega: float
    # precomputed tables; the reciprocal ones hold one k of each +-k pair
    shifts: np.ndarray = field(repr=False, default=None)      # (Z, 2) real-space images q z
    kvecs: np.ndarray = field(repr=False, default=None)       # (F, 2) reciprocal vectors
    cos_table: np.ndarray = field(repr=False, default=None)   # (F, 4) 2 C_z, flat jk
    sin_table: np.ndarray = field(repr=False, default=None)   # (F, 8) -2 C_z k_m, flat jkm

    def matches(self, env, cell):
        return self.cell_edges == cell.q_diag and self.omega == env.omega


def _real_tail_bound(eta, q_min, first_shell):
    """Upper bound for the dropped real-space image terms, worst entry.

    Images on shell m >= 2 are at distance >= (m-1) q_min from any argument
    reduced to one cell box.  Per-image terms are bounded by
    exp(-T) (1 + 1/T) generously covering all prefactors, including the extra
    eta*r factor of the gradient terms.
    """
    total = 0.0
    for m in range(first_shell, first_shell + 60):
        rho = (m - 1) * q_min
        T = (eta * rho) ** 2
        if T <= 0.0:
            return np.inf
        term = 8 * m * np.exp(-T) * (1.0 + 1.0 / T) * (1.0 + eta * rho)
        total += term
        if term < total * 1e-16:
            break
    return total


def _fourier_tail_bound(eta, q_max, volume, first_shell):
    """Upper bound for the dropped reciprocal terms (value and gradient)."""
    total = 0.0
    for m in range(first_shell, first_shell + 4000):
        kmin = 2.0 * np.pi * m / q_max
        u = (kmin / (2.0 * eta)) ** 2
        term = 8 * m * 2.0 * (1.0 + u) * np.exp(-u) * (1.0 + kmin) / (kmin**2 * volume)
        total += term
        if term < total * 1e-16:
            break
    return total


def plan_cost(cell, eta, real_cutoff, fourier_cutoff):
    """Modeled cost per target of one lattice sum, in paired Fourier terms.

    The real-space part counts the images expected live at a random target,
    pi * 45 / (eta^2 |Q|) (the lattice points within eta r < sqrt(45)), capped
    by the (2R+1)^2 image box, each weighted by IMAGE_TERM_COST; the
    reciprocal part counts the terms actually summed, one per +-k pair.
    """
    live = min(np.pi * _LIVE_T / (eta**2 * cell.volume), (2 * real_cutoff + 1) ** 2)
    paired = ((2 * fourier_cutoff + 1) ** 2 - 1) // 2
    return IMAGE_TERM_COST * live + paired


def plan_lattice_sum(cell, env, tol):
    """Choose the Ewald split parameter and both cutoffs for a target accuracy.

    For each candidate eta (ETA_SCALES times sqrt(pi)/min_edge) the smallest
    real cutoff R >= 2 and Fourier cutoff F >= 1 whose tail bounds are below
    tol/2 are found; the candidate of least plan_cost wins.  Tolerances
    outside [1e-14, 1e-4] or bounds that cannot be met within the cutoff
    ceilings raise PlanError.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise PlanError(
            f"tolerance unattainable: tol={tol} outside the supported range [1e-14, 1e-4]"
        )
    best = None
    for eta_scale in ETA_SCALES:
        e = eta_scale * np.sqrt(np.pi) / cell.min_edge
        real_cut = None
        for m in range(2, REAL_CUTOFF_CEILING + 1):
            if _real_tail_bound(e, cell.min_edge, m + 1) < 0.5 * tol:
                real_cut = m
                break
        four_cut = None
        for m in range(1, FOURIER_CUTOFF_CEILING + 1):
            if _fourier_tail_bound(e, cell.max_edge, cell.volume, m + 1) < 0.5 * tol:
                four_cut = m
                break
        if real_cut is None or four_cut is None:
            continue
        cost = plan_cost(cell, e, real_cut, four_cut)
        if best is None or cost < best[0]:
            best = (cost, e, real_cut, four_cut)
    if best is None:
        raise PlanError(
            f"tolerance unattainable: no cutoffs within ceilings "
            f"({REAL_CUTOFF_CEILING}, {FOURIER_CUTOFF_CEILING}) reach tol={tol}"
        )
    _, e, real_cut, four_cut = best
    plan = LatticeSumPlan(
        eta=e,
        real_cutoff=real_cut,
        fourier_cutoff=four_cut,
        tol=tol,
        real_bound=_real_tail_bound(e, cell.min_edge, real_cut + 1),
        fourier_bound=_fourier_tail_bound(e, cell.max_edge, cell.volume, four_cut + 1),
        cell_edges=cell.q_diag,
        omega=env.omega,
    )
    _attach_tables(plan, cell, env)
    return plan


def _attach_tables(plan, cell, env):
    q = np.asarray(cell.q_diag)
    plan.shifts = _lattice_points(plan.real_cutoff, exclude_origin=False) * q[None, :]
    z = _lattice_points(plan.fourier_cutoff, exclude_origin=True)
    z = z[(z[:, 0] > 0) | ((z[:, 0] == 0) & (z[:, 1] > 0))]  # one of each +-z pair
    k = 2.0 * np.pi * z / q[None, :]
    k2 = np.sum(k * k, axis=1)
    u = k2 / (4.0 * plan.eta**2)
    screen = (1.0 + u) * np.exp(-u)
    khat = k / np.sqrt(k2)[:, None]
    eye = np.eye(2)
    base = -eye[None, :, :] + env.beta * khat[:, :, None] * khat[:, None, :]
    coeffs = 2.0 * screen[:, None, None] * base / (k2[:, None, None] * cell.volume)
    plan.kvecs = k
    plan.cos_table = coeffs.reshape(-1, 4)
    plan.sin_table = -(coeffs[:, :, :, None] * k[:, None, None, :]).reshape(-1, 8)


def _real_terms(d, eta, beta, want_grad=False):
    """Real-space contribution at displacements d (shape (L, 2)).

    Returns the 2x2 matrix block delta_jk w - beta * Hess-phi_jk and, when
    requested, its gradient indexed [L, j, k, m].
    """
    r2 = np.sum(d * d, axis=-1)
    T = eta**2 * r2
    expT = np.exp(-T)
    e1 = exp1(T)
    inv_r2 = 1.0 / r2
    # Hess-phi_jk = -delta_jk e1 / (8 pi) + a d_j d_k
    a = expT * inv_r2 / (4.0 * np.pi)
    dd = d[:, :, None] * d[:, None, :]
    val = (-beta * a)[:, None, None] * dd
    diag = (expT - e1) / (4.0 * np.pi) + beta * e1 / (8.0 * np.pi)
    val[:, 0, 0] += diag
    val[:, 1, 1] += diag
    if not want_grad:
        return val, None
    # d_m w = cw d_m and d_m Hess-phi_jk = a (delta_jk d_m + delta_jm d_k
    # + delta_km d_j) - b d_j d_k d_m
    cw = expT * (1.0 - T) * inv_r2 / (2.0 * np.pi)
    b = expT * (T + 1.0) * inv_r2 * inv_r2 / (2.0 * np.pi)
    grad = (beta * b)[:, None, None, None] * dd[:, :, :, None] * d[:, None, None, :]
    ad = (-beta * a)[:, None] * d
    diag_m = cw[:, None] * d + ad
    for j in range(2):
        grad[:, j, j, :] += diag_m
        grad[:, j, :, j] += ad
        grad[:, :, j, j] += ad
    return val, grad


def _real_sum(points, shifts, eta, beta, want_grad=False, skip=None):
    """Sum of real-space image terms over the given lattice shifts.

    Takes blocks of _BLOCK points against all shifts at once and keeps
    only the (point, image) pairs with eta^2 r^2 < 45; each point's live
    terms are contiguous and summed in shift order.  skip (P,) optionally
    names one shift per point to leave out, -1 for none.
    """
    P = points.shape[0]
    val = np.zeros((P, 2, 2))
    grad = np.zeros((P, 2, 2, 2)) if want_grad else None
    for lo in range(0, P, _BLOCK):
        d = points[lo:lo + _BLOCK, None, :] - shifts[None, :, :]
        live = eta**2 * np.sum(d * d, axis=-1) < _LIVE_T
        if skip is not None:
            held = np.flatnonzero(skip[lo:lo + _BLOCK] >= 0)
            live[held, skip[lo + held]] = False
        counts = np.count_nonzero(live, axis=1)
        if not np.any(counts):
            continue
        rows = lo + np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[counts > 0]
        v, g = _real_terms(d[live], eta, beta, want_grad)
        val[rows] = np.add.reduceat(v, starts, axis=0)
        if want_grad:
            grad[rows] = np.add.reduceat(g, starts, axis=0)
    return val, grad


def _fourier_sum(x, plan, want_grad=False):
    """Reciprocal sum at points x (P, 2): (P, 2, 2) values or (P, 2, 2, 2) gradients.

    Rows go in blocks of _BLOCK so the (rows, F) phase array stays small.
    """
    trig, table = (np.sin, plan.sin_table) if want_grad else (np.cos, plan.cos_table)
    out = np.empty((x.shape[0], table.shape[1]))
    for lo in range(0, x.shape[0], _BLOCK):
        phase = x[lo:lo + _BLOCK] @ plan.kvecs.T
        np.matmul(trig(phase, out=phase), table, out=out[lo:lo + _BLOCK])
    return out.reshape(-1, 2, 2, 2) if want_grad else out.reshape(-1, 2, 2)


def _check_plan(plan, env, cell):
    if not plan.matches(env, cell):
        raise PlanError("plan was built for a different cell or omega")


def _reduce(x, cell):
    x = np.asarray(x, dtype=float)
    xr = nearest_image(x, cell)
    r = np.sqrt(np.sum(xr * xr, axis=-1))
    if np.any(r <= _SINGULAR_FRACTION * cell.min_edge):
        raise SingularArgumentError("argument lies on the lattice q Z^n")
    return xr


def periodic_green(x, env, cell, plan):
    """Periodic Lame Green's matrix at x (any shape (..., 2)), to plan accuracy."""
    _check_plan(plan, env, cell)
    xr = _reduce(x, cell)
    single = xr.ndim == 1
    xr = np.atleast_2d(xr)
    out, _ = _real_sum(xr, plan.shifts, plan.eta, env.beta)
    out += _fourier_sum(xr, plan)
    return out[0] if single else out


def periodic_green_grad(x, env, cell, plan):
    """Gradient d_m Gamma^q_jk, indexed out[..., j, k, m]."""
    _check_plan(plan, env, cell)
    xr = _reduce(x, cell)
    single = xr.ndim == 1
    xr = np.atleast_2d(xr)
    _, out = _real_sum(xr, plan.shifts, plan.eta, env.beta, want_grad=True)
    out += _fourier_sum(xr, plan, want_grad=True)
    return out[0] if single else out


def _f1(T):
    """E1(T) + log T + gamma, analytic through T = 0."""
    T = np.asarray(T, dtype=float)
    out = np.empty_like(T)
    small = T < 1e-8
    if np.any(small):
        t = T[small]
        out[small] = t - t * t / 4.0
    if np.any(~small):
        t = T[~small]
        out[~small] = exp1(t) + np.log(t) + EULER_GAMMA
    return out


def _f2(T):
    """(exp(-T) - 1)/T, analytic through T = 0."""
    T = np.asarray(T, dtype=float)
    out = np.empty_like(T)
    small = np.abs(T) < 1e-8
    out[small] = -1.0 + T[small] / 2.0
    out[~small] = np.expm1(-T[~small]) / T[~small]
    return out


def _f3(T):
    """(1 - exp(-T))/T, analytic through T = 0."""
    return -_f2(T)


def _f2p(T):
    """Derivative of f2: (1 - exp(-T) - T exp(-T))/T^2, analytic through T = 0."""
    T = np.asarray(T, dtype=float)
    out = np.empty_like(T)
    small = np.abs(T) < 1e-6
    out[small] = 0.5 - T[small] / 3.0
    t = T[~small]
    out[~small] = (1.0 - np.exp(-t) - t * np.exp(-t)) / (t * t)
    return out


def _regular_center_terms(x, eta, env, want_grad=False):
    """Analytic extension of [z=0 real image] - Kelvin, finite at x = 0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = np.sum(x * x, axis=-1)
    T = eta**2 * r2
    expT = np.exp(-T)
    alpha, beta = env.alpha, env.beta
    log_eta = np.log(eta)
    eye = np.eye(2)
    diag = expT / (4.0 * np.pi) - alpha / (4.0 * np.pi) * (_f1(T) - EULER_GAMMA - 2.0 * log_eta)
    dyad = -(beta * eta**2 / (4.0 * np.pi)) * _f2(T)
    xj = x[..., :, None]
    xk = x[..., None, :]
    val = diag[..., None, None] * eye + dyad[..., None, None] * xj * xk
    if not want_grad:
        return val, None
    c1 = (-eta**2 / (2.0 * np.pi)) * expT - (alpha * eta**2 / (2.0 * np.pi)) * _f3(T)
    dm = x[..., None, None, :]
    grad = c1[..., None, None, None] * eye[:, :, None] * dm
    e_jm = eye[:, None, :]
    e_km = eye[None, :, :]
    djm = x[..., :, None, None]
    dkm = x[..., None, :, None]
    g2 = dyad[..., None, None, None] * (e_jm * dkm + e_km * djm)
    g3 = (-(beta * eta**4 / (2.0 * np.pi)) * _f2p(T))[..., None, None, None] * djm * dkm * dm
    return val, grad + g2 + g3


def _regular_lattice_sum(x, env, cell, plan, want_grad):
    """Every term of the lattice sum at x except the z = 0 real-space image.

    The image box is certified for reduced arguments, so both sums run at
    x_r = x - q n and skip the image x_r + q n = x, which the center terms
    carry.
    """
    xr = nearest_image(x, cell)
    n = np.rint((x - xr) / np.asarray(cell.q_diag)).astype(int)
    R = plan.real_cutoff
    # shifts are ordered (z1, z2) over [-R, R]^2; z = -n is the skipped image
    skip = np.where(np.all(np.abs(n) <= R, axis=1),
                    (R - n[:, 0]) * (2 * R + 1) + R - n[:, 1], -1)
    val, grad = _real_sum(xr, plan.shifts, plan.eta, env.beta, want_grad, skip)
    out = grad if want_grad else val
    out += _fourier_sum(xr, plan, want_grad)
    return out


def regular_part(x, env, cell, plan):
    """Smooth remainder: periodic Green minus the Kelvin matrix, finite at 0.

    The remainder is not periodic, so the argument is not reduced modulo the
    lattice; the function is valid for x bounded away from the nonzero
    lattice points.
    """
    _check_plan(plan, env, cell)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    val, _ = _regular_center_terms(xb, plan.eta, env)
    val += _regular_lattice_sum(xb, env, cell, plan, want_grad=False)
    return val[0] if single else val


def regular_part_grad(x, env, cell, plan):
    """Gradient of the smooth remainder, indexed out[..., j, k, m]; odd, zero at 0."""
    _check_plan(plan, env, cell)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    _, grad = _regular_center_terms(xb, plan.eta, env, want_grad=True)
    grad += _regular_lattice_sum(xb, env, cell, plan, want_grad=True)
    return grad[0] if single else grad


def scalar_periodic_green(x, cell, eta=None, real_cutoff=6, fourier_cutoff=24):
    """Zero-mean periodic harmonic Green's function (Laplacian = comb - 1/|Q|).

    Classical Gaussian-screen split, kept independent of the Lame machinery so
    it can serve as the omega -> 0 oracle.
    """
    if eta is None:
        eta = np.sqrt(np.pi) / cell.min_edge
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xr = np.atleast_2d(_reduce(x, cell))
    q = np.asarray(cell.q_diag)
    shifts = _lattice_points(real_cutoff, exclude_origin=False) * q[None, :]
    d = xr[:, None, :] - shifts[None, :, :]
    T = eta**2 * np.sum(d * d, axis=-1)
    out = -np.sum(exp1(T), axis=1) / (4.0 * np.pi)
    z = _lattice_points(fourier_cutoff, exclude_origin=True)
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
