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
sin(k.x) @ (F, 8) table, both tables built once per plan.  The image box
keeps only the images a reduced argument can bring live (eta^2 r^2 < 45).

A plan holds two splits.  The assembly split, used by the pointwise kernels
that build matrices, is chosen by a cost model calibrated on measured term
costs: one live real-space image costs IMAGE_TERM_COST paired Fourier terms.
The product split (plan.product) serves lattice_product, the sum
sum_j K(x_i - y_j) rho_j of a kernel against one density.  There
e^{ik.(x-y)} = e^{ik.x} e^{-ik.y} turns the reciprocal part into structure
factors of rho, paid per target and per source, while a live image is still
paid per pair; so its eta is larger: the smallest at which the image box
holds the z = 0 image alone, with cutoffs whose tail bounds are held to the
assembly split's achieved ones.

One private evaluator, _lattice_sum, serves every pointwise kernel.  Per
block of _BLOCK points it reduces the arguments (or, for the regular part,
finds the image that is the argument itself), sums the live real-space
images, takes cos and sin of one phase matrix for the paired reciprocal sum
and adds the center terms of the regular part, for the values, the
gradients or both.  lattice_product shares its pieces: the reduction, the
live images, the scalar coefficients of the real-space and center terms
(contracted with rho pair by pair, never formed as 2x2 blocks) and the
tables.  The verification-only helpers (the scalar oracle, the PDE residual
and the finite-difference Lame operator) live in verify.
"""

from dataclasses import dataclass, field

import numpy as np

from .cell import _SINGULAR_FRACTION, nearest_image
from .errors import PlanError, SingularArgumentError
from .special import EULER_GAMMA, exp1

REAL_CUTOFF_CEILING = 12
FOURIER_CUTOFF_CEILING = 96
# (point, image) pairs with eta^2 r^2 at or above this are skipped: their
# contribution is below 3e-20 to a value and 4e-20 eta to a gradient entry
_LIVE_T = 45.0
# points per block of the evaluator's loop, bounding the scratch arrays of the
# real and reciprocal sums
_BLOCK = 2048
# target-source pairs per batch of a product's real-space and center terms
_PAIRS = 1 << 15
# phase-matrix entries per block of _phase_blocks
_PHASES = 1 << 15
# relative margin of the live radius when images are pruned from a box: it
# absorbs the rounding of the reduction to the cell box
_BOX_MARGIN = 1e-9
# Time of one live real-space image term over one paired Fourier term.  The
# slopes of 16384-pair call times against the live-image count (R = 2, eta from
# 1 to 3 sqrt(pi)) and against the paired Fourier count (F = 2 to 10) give
# ratios of about 10 for values and 18 for gradients (medians of five runs; one
# BLAS thread, OpenBLAS 0.3.31, 2-CPU Intel Xeon); assembly and the off-node
# residual call both about equally often, so the mean is used.
IMAGE_TERM_COST = 15.0
# candidate split parameters, in units of sqrt(pi) / min_edge
ETA_SCALES = (0.8, 1.0, 1.25, 1.6, 2.0, 2.25, 2.5, 2.75, 3.0)


def _dot(a, b):
    """a . b over the last axis of length 2, as a sum of two products."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


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
    # the split of lattice_product, a plan of its own (whose product is None)
    product: "LatticeSumPlan" = None

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


def _cutoffs(cell, etas, real_ok, fourier_ok):
    """(eta, R, F) for ascending etas: the smallest R >= 2 and F >= 1 within
    the ceilings whose tail bounds pass.  An eta without them is left out.

    Every Fourier tail term grows with eta, so each F search starts at the
    previous eta's F, and once no F passes none will for a larger eta.
    """
    F = 1
    for eta in etas:
        R = next((m for m in range(2, REAL_CUTOFF_CEILING + 1)
                  if real_ok(_real_tail_bound(eta, cell.min_edge, m + 1))), None)
        F = next((m for m in range(F, FOURIER_CUTOFF_CEILING + 1)
                  if fourier_ok(_fourier_tail_bound(eta, cell.max_edge, cell.volume, m + 1))),
                 None)
        if F is None:
            return
        if R is not None:
            yield eta, R, F


def _split(cell, env, tol, eta, real_cutoff, fourier_cutoff):
    """A LatticeSumPlan for one split: its achieved tail bounds and its tables."""
    plan = LatticeSumPlan(
        eta=eta,
        real_cutoff=real_cutoff,
        fourier_cutoff=fourier_cutoff,
        tol=tol,
        real_bound=_real_tail_bound(eta, cell.min_edge, real_cutoff + 1),
        fourier_bound=_fourier_tail_bound(eta, cell.max_edge, cell.volume, fourier_cutoff + 1),
        cell_edges=cell.q_diag,
        omega=env.omega,
    )
    _attach_tables(plan, cell, env)
    return plan


def plan_lattice_sum(cell, env, tol):
    """Choose the Ewald splits and their cutoffs for a target accuracy.

    The assembly split: for each candidate eta (ETA_SCALES times
    sqrt(pi)/min_edge) the smallest real cutoff R >= 2 and Fourier cutoff
    F >= 1 whose tail bounds are below tol/2 are found; the candidate of
    least plan_cost wins.  Tolerances outside [1e-14, 1e-4] or bounds that
    cannot be met within the cutoff ceilings raise PlanError.

    The product split (plan.product, used by lattice_product): its eta is
    the smallest at which no image but z = 0 is live for an argument reduced
    to the cell box, eta min_edge / 2 = sqrt(45), so a product pays one
    image per pair at most.  Its cutoffs are the smallest whose tail bounds
    are no larger than the assembly split's achieved ones, so a product is
    never less accurate than the matrix it replaces.  Where no Fourier cutoff
    within the ceiling reaches them the product split is the assembly
    split, so this adds no PlanError.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise PlanError(
            f"tolerance unattainable: tol={tol} outside the supported range [1e-14, 1e-4]"
        )
    etas = [s * np.sqrt(np.pi) / cell.min_edge for s in ETA_SCALES]
    below = lambda bound: bound < 0.5 * tol
    candidates = [(plan_cost(cell, e, R, F), e, R, F)
                  for e, R, F in _cutoffs(cell, etas, below, below)]
    if not candidates:
        raise PlanError(
            f"tolerance unattainable: no cutoffs within ceilings "
            f"({REAL_CUTOFF_CEILING}, {FOURIER_CUTOFF_CEILING}) reach tol={tol}"
        )
    plan = _split(cell, env, tol, *min(candidates)[1:])
    # the nearest images z != 0, at gap min_edge / 2, fall just outside the
    # pruning margin
    eta = 2.0 * np.sqrt(_LIVE_T * (1.0 + 2.0 * _BOX_MARGIN)) / cell.min_edge
    candidates = _cutoffs(cell, [plan.eta, eta],
                          lambda b: b <= plan.real_bound, lambda b: b <= plan.fourier_bound)
    plan.product = _split(cell, env, tol, *list(candidates)[-1])
    return plan


def _attach_tables(plan, cell, env):
    q = np.asarray(cell.q_diag)
    z = _lattice_points(plan.real_cutoff, exclude_origin=False)
    # images no argument reduced to the cell box can bring within the live
    # radius are pruned
    gap = np.maximum(np.abs(z) - 0.5, 0.0) * q[None, :]
    plan.shifts = z[plan.eta**2 * np.sum(gap * gap, axis=1) < _LIVE_T * (1.0 + _BOX_MARGIN)] * q[None, :]
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


def _real_coeffs(d, eta, beta, want_grad=False):
    """Scalar coefficients of the real-space term at displacements d (L, 2).

    The term, the matrix delta_jk w - beta Hess-phi_jk, is p delta_jk
    + A d_j d_k; its gradient is delta_jk (cw + A) d_m + A (delta_jm d_k
    + delta_km d_j) + Bc d_j d_k d_m.  Returns (p, A, cw, Bc), the last two
    None unless requested.
    """
    r2 = _dot(d, d)
    T = eta**2 * r2
    expT = np.exp(-T)
    e1 = exp1(T)
    inv_r2 = 1.0 / r2
    # Hess-phi_jk = -delta_jk e1 / (8 pi) + a d_j d_k
    a = expT * inv_r2 / (4.0 * np.pi)
    p = (expT - e1) / (4.0 * np.pi) + beta * e1 / (8.0 * np.pi)
    if not want_grad:
        return p, -beta * a, None, None
    # d_m w = cw d_m and d_m Hess-phi_jk = a (delta_jk d_m + delta_jm d_k
    # + delta_km d_j) - b d_j d_k d_m
    cw = expT * (1.0 - T) * inv_r2 / (2.0 * np.pi)
    b = expT * (T + 1.0) * inv_r2 * inv_r2 / (2.0 * np.pi)
    return p, -beta * a, cw, beta * b


def _real_terms(d, eta, beta, want_grad=False):
    """Real-space contribution at displacements d (shape (L, 2)).

    Returns the 2x2 matrix block delta_jk w - beta * Hess-phi_jk and, when
    requested, its gradient indexed [L, j, k, m].
    """
    p, A, cw, Bc = _real_coeffs(d, eta, beta, want_grad)
    dd = d[:, :, None] * d[:, None, :]
    val = A[:, None, None] * dd
    val[:, 0, 0] += p
    val[:, 1, 1] += p
    if not want_grad:
        return val, None
    grad = Bc[:, None, None, None] * dd[:, :, :, None] * d[:, None, None, :]
    ad = A[:, None] * d
    diag_m = cw[:, None] * d + ad
    for j in range(2):
        grad[:, j, j, :] += diag_m
        grad[:, j, :, j] += ad
        grad[:, :, j, j] += ad
    return val, grad


def _contract(d, rho, p, A, C=None, Bc=None):
    """A kernel of the form p delta_jk + A d_j d_k applied to rho, pair by pair.

    d and rho are (L, 2).  The gradient, when C is given, is C delta_jk d_m
    + A (delta_jm d_k + delta_km d_j) + Bc d_j d_k d_m.  Returns the (L, 2)
    values sum_k K_jk rho_k and the (L, 2, 2) gradients, indexed [L, j, m],
    or None; no (L, 2, 2) kernel block is formed.
    """
    drho = _dot(d, rho)
    val = p[:, None] * rho + (A * drho)[:, None] * d
    if C is None:
        return val, None
    grad = (C[:, None] * rho + (Bc * drho)[:, None] * d)[:, :, None] * d[:, None, :]
    grad += (A[:, None] * d)[:, :, None] * rho[:, None, :]
    grad[:, 0, 0] += A * drho
    grad[:, 1, 1] += A * drho
    return val, grad


def _live_images(points, shifts, eta, skip=None):
    """The (point, image) pairs with eta^2 r^2 < 45, in point-major order.

    skip (P, 2) optionally holds, per point, one shift (a row of shifts, or
    any other vector) whose image to leave out.  Returns the point index of
    each live pair and its (L, 2) displacement.
    """
    d = points[:, None, :] - shifts[None, :, :]
    live = eta**2 * _dot(d, d) < _LIVE_T
    if skip is not None:
        live &= ~np.all(shifts[None, :, :] == skip[:, None, :], axis=-1)
    rows, cols = np.nonzero(live)
    return rows, d[rows, cols]


def _real_sum(points, shifts, eta, beta, want_grad=False, skip=None):
    """Sum of real-space image terms over the given lattice shifts.

    Keeps only the live (point, image) pairs of _live_images, skip
    included; each point's live terms are summed in shift order.  Returns
    the (P, 2, 2) values and, when requested, the (P, 2, 2, 2) gradients.
    """
    P = points.shape[0]
    rows, d = _live_images(points, shifts, eta, skip)
    v, g = _real_terms(d, eta, beta, want_grad)
    return _sum_by_point(v, rows, P), None if g is None else _sum_by_point(g, rows, P)


def _sum_by_point(w, rows, P):
    """Sums of the rows of w (L, ...) by point, shape (P, ...).

    rows holds the point of each row in non-decreasing order, as
    _live_images gives it.
    """
    out = np.zeros((P,) + w.shape[1:])
    if len(rows):
        counts = np.bincount(rows, minlength=P)
        held = np.flatnonzero(counts)
        out[held] = np.add.reduceat(w, (np.cumsum(counts) - counts)[held], axis=0)
    return out


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
    return np.sqrt(_dot(xr, xr)) <= _SINGULAR_FRACTION * cell.min_edge


def _reduce(x, cell):
    xr = nearest_image(x, cell)
    if np.any(_on_lattice(xr, cell)):
        raise SingularArgumentError("argument lies on the lattice q Z^n")
    return xr


def _skipped_image(x, cell):
    """Reduced arguments xr of x (L, 2) and the shifts xr - x of their own image.

    The regular part sums every image but the argument itself, which its
    center terms carry; the shifts are products of whole numbers and the
    edges, so they compare exactly with the plan's shifts.
    """
    q = np.asarray(cell.q_diag)
    xr = nearest_image(x, cell)
    return xr, -np.rint((x - xr) / q) * q


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


def _center_coeffs(x, eta, env, want_grad=False, f1=None):
    """Scalar coefficients of the center terms at x (..., 2), in _contract's form.

    Returns (p, A, C, Bc), the last two None unless requested; f1 optionally
    holds _f1(eta^2 |x|^2), computed by the caller.
    """
    r2 = _dot(x, x)
    T = eta**2 * r2
    if f1 is None:
        f1 = _f1(T)
    expT = np.exp(-T)
    alpha, beta = env.alpha, env.beta
    log_eta = np.log(eta)
    diag = expT / (4.0 * np.pi) - alpha / (4.0 * np.pi) * (f1 - EULER_GAMMA - 2.0 * log_eta)
    dyad = -(beta * eta**2 / (4.0 * np.pi)) * _f2(T)
    if not want_grad:
        return diag, dyad, None, None
    c1 = (-eta**2 / (2.0 * np.pi)) * expT - (alpha * eta**2 / (2.0 * np.pi)) * _f3(T)
    return diag, dyad, c1, -(beta * eta**4 / (2.0 * np.pi)) * _f2p(T)


def _regular_center_terms(x, eta, env, want_grad=False, f1=None):
    """Analytic extension of [z=0 real image] - Kelvin, finite at x = 0.

    f1 optionally holds _f1(eta^2 |x|^2), computed by the caller.
    """
    diag, dyad, c1, g3c = _center_coeffs(x, eta, env, want_grad, f1)
    eye = np.eye(2)
    xj = x[..., :, None]
    xk = x[..., None, :]
    val = diag[..., None, None] * eye + dyad[..., None, None] * xj * xk
    if not want_grad:
        return val, None
    dm = x[..., None, None, :]
    grad = c1[..., None, None, None] * eye[:, :, None] * dm
    e_jm = eye[:, None, :]
    e_km = eye[None, :, :]
    djm = x[..., :, None, None]
    dkm = x[..., None, :, None]
    g2 = dyad[..., None, None, None] * (e_jm * dkm + e_km * djm)
    g3 = g3c[..., None, None, None] * djm * dkm * dm
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
    if not periodic:
        # E1 of the center terms in one call: its series and continued
        # fractions cost a fixed number of array operations per call, which
        # would dominate per block
        f1 = _f1(plan.eta**2 * _dot(x, x))
    for lo in range(0, P, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        if periodic:
            xr, skip = _reduce(x[blk], cell), None
        else:
            xr, skip = _skipped_image(x[blk], cell)
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


def _phase_blocks(points, split, cell):
    """cos(k.x) and sin(k.x) of the split's paired k, in blocks of points x.

    With t = 2 pi x / q for x reduced to the cell box, k.x = z1 t1 + z2 t2,
    so the angle-sum formulas give every phase from the multiples of t1 and
    t2: about 6F trig calls per point instead of 4F^2.  The (z1, z2) grid
    with z1 in [0, F] and z2 in [-F, F] is the plan's paired set after its
    first F + 1 entries.  Yields (slice, cos, sin) with (B, F_paired) arrays.
    """
    F = split.fourier_cutoff
    t = 2.0 * np.pi * nearest_image(points, cell) / np.asarray(cell.q_diag)
    m1, m2 = np.arange(F + 1), np.arange(-F, F + 1)
    step = max(1, _PHASES // ((F + 1) * (2 * F + 1)))
    for lo in range(0, points.shape[0], step):
        blk = slice(lo, lo + step)
        a, b = np.multiply.outer(t[blk, 0], m1), np.multiply.outer(t[blk, 1], m2)
        c1, s1 = np.cos(a)[:, :, None], np.sin(a)[:, :, None]
        c2, s2 = np.cos(b)[:, None, :], np.sin(b)[:, None, :]
        n = a.shape[0]
        cos = (c1 * c2 - s1 * s2).reshape(n, -1)[:, F + 1:]
        sin = (s1 * c2 + c1 * s2).reshape(n, -1)[:, F + 1:]
        yield blk, cos, sin


def _product_fourier(x, y, rho, split, cell, values, grads):
    """Reciprocal part of sum_b K(x_p - y_b) rho_b by structure factors.

    S^c = cos(k y)^T rho and S^s = sin(k y)^T rho are contracted with the
    split's tables once; cos(k.(x - y)) = cos(k.x) cos(k.y) + sin(k.x)
    sin(k.y) then leaves one GEMM per block of targets.
    """
    F = split.kvecs.shape[0]
    Sc = np.zeros((F, 2))
    Ss = np.zeros((F, 2))
    for blk, cos, sin in _phase_blocks(y, split, cell):
        Sc += cos.T @ rho[blk]
        Ss += sin.T @ rho[blk]
    C = split.cos_table.reshape(F, 2, 2)
    D = split.sin_table.reshape(F, 2, 2, 2)
    Vc, Vs = (np.einsum("fjk,fk->fj", C, S) for S in (Sc, Ss))
    Gc, Gs = (np.einsum("fjkm,fk->fjm", D, S).reshape(F, 4) for S in (Sc, Ss))
    P = x.shape[0]
    val = np.empty((P, 2)) if values else None
    grad = np.empty((P, 4)) if grads else None
    for blk, cos, sin in _phase_blocks(x, split, cell):
        if values:
            val[blk] = cos @ Vc + sin @ Vs
        if grads:
            grad[blk] = sin @ Gc - cos @ Gs
    return val, None if grad is None else grad.reshape(P, 2, 2)


def lattice_product(x, y, rho, env, cell, plan, periodic, values=True, grads=False):
    """sum_b K(x_p - y_b) rho_b for targets x (P, 2), sources y (M, 2), density rho (M, 2).

    K is the periodic Green's matrix (periodic=True) or the regular part R^q
    (periodic=False), evaluated with the plan's product split.  The
    reciprocal part goes through structure factors of rho, O((P + M) F); the
    live real-space images and, for R^q, the center terms are contracted with
    rho pair by pair, in batches of about _PAIRS pairs.  Returns the (P, 2)
    values and the (P, 2, 2) gradients d_m, indexed [p, j, m], None where not
    requested.  A target-source difference on the lattice raises
    SingularArgumentError for the periodic kernel.
    """
    _check_plan(plan, env, cell)
    split = plan.product
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    rho = np.asarray(rho, dtype=float).reshape(-1, 2)
    P, M = x.shape[0], y.shape[0]
    val, grad = _product_fourier(x, y, rho, split, cell, values, grads)
    step = max(1, _PAIRS // max(M, 1))
    for lo in range(0, P, step):
        B = min(step, P - lo)
        d = (x[lo:lo + B, None, :] - y[None, :, :]).reshape(-1, 2)
        if periodic:
            xr, skip = _reduce(d, cell), None
        else:
            xr, skip = _skipped_image(d, cell)
        rows, e = _live_images(xr, split.shifts, split.eta, skip)
        if len(rows):
            p, A, cw, Bc = _real_coeffs(e, split.eta, env.beta, grads)
            v, g = _contract(e, rho[rows % M], p, A, None if cw is None else cw + A, Bc)
            tgt = rows // M
            if values:
                val[lo:lo + B] += _sum_by_point(v, tgt, B)
            if grads:
                grad[lo:lo + B] += _sum_by_point(g, tgt, B)
        if not periodic:
            v, g = _contract(d, np.tile(rho, (B, 1)), *_center_coeffs(d, split.eta, env, grads))
            if values:
                val[lo:lo + B] += v.reshape(B, M, 2).sum(axis=1)
            if grads:
                grad[lo:lo + B] += g.reshape(B, M, 2, 2).sum(axis=1)
    return val, grad


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
