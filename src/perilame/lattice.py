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

One private evaluator, _lattice_sum, serves every public kernel.  It holds
the module's one loop over points: per block of _BLOCK points it reduces the
arguments (or, for the regular part, finds the skipped z = 0 image), sums the
live real-space images, takes cos and sin of one phase matrix for the paired
reciprocal sum and adds the center terms of the regular part, for the values,
the gradients or both.  The verification-only helpers (the scalar oracle, the
PDE residual and the finite-difference Lame operator) live in verify.
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
# points per block of the evaluator's loop, bounding the scratch arrays of the
# real and reciprocal sums
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

    Pairs every point with every shift and keeps only the (point, image)
    pairs with eta^2 r^2 < 45; each point's live terms are contiguous and
    summed in shift order.  skip (P,) optionally names one shift per point
    to leave out, -1 for none.  Returns the (P, 2, 2) values and, when
    requested, the (P, 2, 2, 2) gradients.
    """
    P = points.shape[0]
    val = np.zeros((P, 2, 2))
    grad = np.zeros((P, 2, 2, 2)) if want_grad else None
    d = points[:, None, :] - shifts[None, :, :]
    live = eta**2 * np.sum(d * d, axis=-1) < _LIVE_T
    if skip is not None:
        held = np.flatnonzero(skip >= 0)
        live[held, skip[held]] = False
    counts = np.count_nonzero(live, axis=1)
    if not np.any(counts):
        return val, grad
    rows = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    v, g = _real_terms(d[live], eta, beta, want_grad)
    val[rows] = np.add.reduceat(v, starts, axis=0)
    if want_grad:
        grad[rows] = np.add.reduceat(g, starts, axis=0)
    return val, grad


def _fourier_sum(x, plan, values=True, grads=False):
    """Paired reciprocal sum at points x (P, 2).

    Returns the (P, 2, 2) values and the (P, 2, 2, 2) gradients, None where
    not requested; cos and sin are taken of one phase matrix.
    """
    phase = x @ plan.kvecs.T
    # the last of sin and cos overwrites the phases
    sin = np.sin(phase, out=None if values else phase) if grads else None
    grad = (sin @ plan.sin_table).reshape(-1, 2, 2, 2) if grads else None
    val = (np.cos(phase, out=phase) @ plan.cos_table).reshape(-1, 2, 2) if values else None
    return val, grad


def _check_plan(plan, env, cell):
    if not plan.matches(env, cell):
        raise PlanError("plan was built for a different cell or omega")


def _on_lattice(xr, cell):
    """Mask of reduced arguments xr (..., 2) within the singular distance of 0."""
    return np.sqrt(np.sum(xr * xr, axis=-1)) <= _SINGULAR_FRACTION * cell.min_edge


def _reduce(x, cell):
    xr = nearest_image(x, cell)
    if np.any(_on_lattice(xr, cell)):
        raise SingularArgumentError("argument lies on the lattice q Z^n")
    return xr


def singular_targets(x, sources, cell):
    """(P,) mask of the points x (P, 2) at which a periodic kernel is singular.

    A point is flagged when x - y, for some source y of sources (M, 2), lies
    on the lattice q Z^n to within the distance at which periodic_green
    raises.
    """
    d = x[:, None, :] - sources[None, :, :]
    return np.any(_on_lattice(nearest_image(d, cell), cell), axis=1)


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


def _regular_center_terms(x, eta, env, want_grad=False, f1=None):
    """Analytic extension of [z=0 real image] - Kelvin, finite at x = 0.

    f1 optionally holds _f1(eta^2 |x|^2), computed by the caller.
    """
    r2 = np.sum(x * x, axis=-1)
    T = eta**2 * r2
    if f1 is None:
        f1 = _f1(T)
    expT = np.exp(-T)
    alpha, beta = env.alpha, env.beta
    log_eta = np.log(eta)
    eye = np.eye(2)
    diag = expT / (4.0 * np.pi) - alpha / (4.0 * np.pi) * (f1 - EULER_GAMMA - 2.0 * log_eta)
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


def _lattice_sum(x, env, cell, plan, periodic, values=True, grads=False):
    """The Ewald split at points x (..., 2), one pass per block of _BLOCK points.

    periodic=True gives the periodic Green's matrix: the points are reduced
    modulo the lattice (a lattice point raises) and every image is summed.
    periodic=False gives the regular part: the image box is certified for
    reduced arguments, so the sums run at x_r = x - q n and skip the image
    x_r + q n = x, which the center terms carry.  Each block takes the
    real-space images, the paired reciprocal sum and, for the regular part,
    the center terms once, for the values, the gradients or both.  Returns
    (values (..., 2, 2), gradients (..., 2, 2, 2)), None where not requested.
    """
    _check_plan(plan, env, cell)
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    x = x.reshape(-1, 2)
    P = x.shape[0]
    val = np.empty((P, 2, 2)) if values else None
    grad = np.empty((P, 2, 2, 2)) if grads else None
    q = np.asarray(cell.q_diag)
    R = plan.real_cutoff
    if not periodic:
        # E1 of the center terms in one call: its series and continued
        # fractions cost a fixed number of array operations per call, which
        # would dominate per block
        f1 = _f1(plan.eta**2 * np.sum(x * x, axis=-1))
    for lo in range(0, P, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        if periodic:
            xr, skip = _reduce(x[blk], cell), None
        else:
            xr = nearest_image(x[blk], cell)
            n = np.rint((x[blk] - xr) / q).astype(int)
            # shifts are ordered (z1, z2) over [-R, R]^2; z = -n is the skipped image
            skip = np.where(np.all(np.abs(n) <= R, axis=1),
                            (R - n[:, 0]) * (2 * R + 1) + R - n[:, 1], -1)
        real_val, real_grad = _real_sum(xr, plan.shifts, plan.eta, env.beta, grads, skip)
        four_val, four_grad = _fourier_sum(xr, plan, values, grads)
        if values:
            val[blk] = real_val + four_val
        if grads:
            grad[blk] = real_grad + four_grad
        if not periodic:
            center_val, center_grad = _regular_center_terms(
                x[blk], plan.eta, env, grads, f1[blk]
            )
            if values:
                val[blk] += center_val
            if grads:
                grad[blk] += center_grad
    return (
        None if val is None else val.reshape(lead + (2, 2)),
        None if grad is None else grad.reshape(lead + (2, 2, 2)),
    )


def periodic_green(x, env, cell, plan):
    """Periodic Lame Green's matrix at x (any shape (..., 2)), to plan accuracy."""
    return _lattice_sum(x, env, cell, plan, periodic=True)[0]


def periodic_green_grad(x, env, cell, plan):
    """Gradient d_m Gamma^q_jk, indexed out[..., j, k, m]."""
    return _lattice_sum(x, env, cell, plan, periodic=True, values=False, grads=True)[1]


def regular_part(x, env, cell, plan):
    """Smooth remainder: periodic Green minus the Kelvin matrix, finite at 0.

    The remainder is not periodic, so the argument is not reduced modulo the
    lattice; the function is valid for x (any shape (..., 2)) bounded away
    from the nonzero lattice points.
    """
    return _lattice_sum(x, env, cell, plan, periodic=False)[0]


def regular_part_grad(x, env, cell, plan):
    """Gradient of the smooth remainder, indexed out[..., j, k, m]; odd, zero at 0."""
    return _lattice_sum(x, env, cell, plan, periodic=False, values=False, grads=True)[1]


def regular_part_and_grad(x, env, cell, plan):
    """(regular_part, regular_part_grad) at x from one pass over the lattice sums."""
    return _lattice_sum(x, env, cell, plan, periodic=False, values=True, grads=True)
