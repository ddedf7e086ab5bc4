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

A plan holds one split.  Its eta is the smallest at which no image but z = 0
is live (eta^2 r^2 < 45) for an argument reduced to the cell box, and the
image box keeps only the images a reduced argument can bring live.  Its
cutoffs are the smallest whose tail bounds are both below tol/20.  The
reciprocal sum keeps the k of the disc |k| <= 2 pi F / max_edge, one z of each
+-z pair with doubled coefficients (C_{-z} = C_z); the Fourier bound covers
every dropped k.  Where no F within the ceiling meets the budget, eta is the
largest at which F at the ceiling does.

Every lattice sum is a target-source sum over K(x_a - y_b), as blocks or
applied to a density rho_b, and lattice_product is its one evaluator; the
pointwise kernels are the case of the one source y = 0.  Since
e^{ik.(x-y)} = e^{ik.x} e^{-ik.y}, the reciprocal part is a GEMM of the
targets' phases [cos k.x | sin k.x] with the sources' phases and the
coefficients, in blocks of targets; a product contracts the sources' rows
with rho first (structure factors).  The pair terms, the live real-space
images and, for the regular part, the center terms, have one layout: scalar
coefficients (p, A, C, Bc) on the (B, M) grid of target-source pairs, one
set per image of the plan, zero at the pairs where that image is not live.
_blocks turns them into 2x2(x2) blocks and _grid_contract applies them to
rho.  The verification-only helpers (the scalar oracle, the PDE residual
and the finite-difference Lame operator) live in verify.
"""

import math
from bisect import bisect_left
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
# share of tol that each tail bound may take.  The far field of a solve needs
# the margin: held to tol/2, the unit cell at tol 1e-10 keeps one Fourier
# shell less and the benchmark's far-field digits at N = 512 fall from 14.1
# to 13.0
_TAIL_SHARE = 0.05
# bisection steps of the fallback eta
_BISECTIONS = 30
# target-source pairs per batch of the real-space and center terms
_PAIRS = 1 << 15
# (point, k) entries per chunk of _phases
_PHASES = 1 << 15
# phase entries (2F per point) of a block of targets, or of a product's
# sources, in the reciprocal GEMMs; they bound its scratch memory
_ENTRIES = 1 << 17
# relative margin of the live radius when images are pruned from a box: it
# absorbs the rounding of the reduction to the cell box
_BOX_MARGIN = 1e-9
# Taylor coefficients (-1)^n (n+1)/(n+2)! of f2' about T = 0, taken below
# T = 1: there the closed form cancels (2.5e-5 relative at T = 1.1e-6, 1.2e-15
# just above T = 0.5); 20 terms stay within 2.2e-16 relative below T = 1, and
# the closed form within 6.4e-16 above it
_F2P_SERIES = np.array([(-1) ** n * (n + 1) / math.factorial(n + 2) for n in range(20)])


def _dot(a, b):
    """a . b over the last axis of length 2, as a sum of two products."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _lattice_points(cutoff):
    """The integer points z of [-cutoff, cutoff]^2, shape ((2 cutoff + 1)^2, 2)."""
    rng = np.arange(-cutoff, cutoff + 1)
    z1, z2 = np.meshgrid(rng, rng, indexing="ij")
    return np.column_stack((z1.ravel(), z2.ravel())).astype(float)


@dataclass
class LatticeSumPlan:
    """Ewald truncation plan for one (cell, env, tol) combination.

    Records the a-priori tail bounds certifying the chosen cutoffs and holds
    the precomputed tables shared by all evaluations.
    """

    eta: float
    real_cutoff: int
    fourier_cutoff: int
    tol: float
    real_bound: float
    fourier_bound: float
    cell_edges: tuple
    omega: float
    # precomputed tables; the reciprocal ones hold one z of each +-z pair
    shifts: np.ndarray = field(repr=False, default=None)      # (Z, 2) real-space images q z
    zvecs: np.ndarray = field(repr=False, default=None)       # (F, 2) integer z of the kept k
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


def _term_bound(eta, k, volume):
    """Bound on one reciprocal term's value and gradient entries at |k|, decreasing in |k|."""
    u = (k / (2.0 * eta)) ** 2
    return 2.0 * (1.0 + u) * np.exp(-u) * (1.0 + k) / (k * k * volume)


def _box_k2(cell, F):
    """|k|^2 of the z of the box |z| <= F, a (2F+1, 2F+1) array indexed [z1 + F, z2 + F]."""
    k1, k2 = (2.0 * np.pi * np.arange(-F, F + 1) / q for q in cell.q_diag)
    return np.add.outer(k1 * k1, k2 * k2)


def _fourier_tail_bound(eta, cell, F):
    """Upper bound for the dropped reciprocal terms (value and gradient).

    The kept k are those of the disc |k| <= K = 2 pi F / max_edge.  The z of
    the box |z| <= F outside it are bounded term by term; beyond the box, the
    square shell |z| = m holds 8m terms at |k| >= 2 pi m / max_edge.  The
    bound falls with F and grows with eta.
    """
    k2 = _box_k2(cell, F)
    dropped = np.sqrt(k2[k2 > (2.0 * np.pi * F / cell.max_edge) ** 2])
    m = np.arange(F + 1, F + 4001)
    shells = 8 * m * _term_bound(eta, 2.0 * np.pi * m / cell.max_edge, cell.volume)
    return float(np.sum(_term_bound(eta, dropped, cell.volume)) + np.sum(shells))


def plan_lattice_sum(cell, env, tol):
    """Choose the Ewald split and its cutoffs for a target accuracy.

    eta is the smallest at which no image but z = 0 is live for an argument
    reduced to the cell box, eta min_edge / 2 = sqrt(45), so a pair pays one
    image at most.  The Fourier cutoff F and the real cutoff R >= 2 are the
    smallest whose tail bounds are below tol/20.  Where no F within
    FOURIER_CUTOFF_CEILING reaches that (elongated cells at tight tol), eta is
    the largest at which F = FOURIER_CUTOFF_CEILING does, and more images are
    live.  Tolerances outside [1e-14, 1e-4], or a real bound no R within
    REAL_CUTOFF_CEILING meets, raise PlanError.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise PlanError(
            f"tolerance unattainable: tol={tol} outside the supported range [1e-14, 1e-4]"
        )
    budget = _TAIL_SHARE * tol
    fits = lambda eta, F: _fourier_tail_bound(eta, cell, F) < budget
    # the nearest images z != 0, at gap min_edge / 2, fall just outside the
    # pruning margin
    eta = 2.0 * np.sqrt(_LIVE_T * (1.0 + 2.0 * _BOX_MARGIN)) / cell.min_edge
    F = FOURIER_CUTOFF_CEILING
    if fits(eta, F):
        F = 1 + bisect_left(range(1, F + 1), True, key=lambda m: fits(eta, m))
    else:
        lo, hi = 0.0, eta
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fits(mid, F) else (lo, mid)
        eta = lo
    R = next((m for m in range(2, REAL_CUTOFF_CEILING + 1)
              if _real_tail_bound(eta, cell.min_edge, m + 1) < budget), None)
    if R is None:
        raise PlanError(
            f"tolerance unattainable: no cutoffs within ceilings "
            f"({REAL_CUTOFF_CEILING}, {FOURIER_CUTOFF_CEILING}) reach tol={tol}"
        )
    plan = LatticeSumPlan(
        eta=eta,
        real_cutoff=R,
        fourier_cutoff=F,
        tol=tol,
        real_bound=_real_tail_bound(eta, cell.min_edge, R + 1),
        fourier_bound=_fourier_tail_bound(eta, cell, F),
        cell_edges=cell.q_diag,
        omega=env.omega,
    )
    _attach_tables(plan, cell, env)
    return plan


def _attach_tables(plan, cell, env):
    q = np.asarray(cell.q_diag)
    z = _lattice_points(plan.real_cutoff)
    # images no argument reduced to the cell box can bring within the live
    # radius are pruned
    gap = np.maximum(np.abs(z) - 0.5, 0.0) * q[None, :]
    plan.shifts = z[plan.eta**2 * np.sum(gap * gap, axis=1) < _LIVE_T * (1.0 + _BOX_MARGIN)] * q[None, :]
    F = plan.fourier_cutoff
    k2 = _box_k2(cell, F)
    z = np.argwhere(k2 <= (2.0 * np.pi * F / cell.max_edge) ** 2) - F
    z = z[(z[:, 0] > 0) | ((z[:, 0] == 0) & (z[:, 1] > 0))]  # one of each +-z pair
    # by falling |k|: the sums add the small terms first, which keeps their
    # rounding noise (amplified by finite differences) near that of one value
    k2 = k2[z[:, 0] + F, z[:, 1] + F]
    order = np.argsort(-k2, kind="stable")
    z, k2 = z[order], k2[order]
    k = 2.0 * np.pi * z / q[None, :]
    u = k2 / (4.0 * plan.eta**2)
    screen = (1.0 + u) * np.exp(-u)
    khat = k / np.sqrt(k2)[:, None]
    eye = np.eye(2)
    base = -eye[None, :, :] + env.beta * khat[:, :, None] * khat[:, None, :]
    coeffs = 2.0 * screen[:, None, None] * base / (k2[:, None, None] * cell.volume)
    plan.zvecs = z
    plan.cos_table = coeffs.reshape(-1, 4)
    plan.sin_table = -(coeffs[:, :, :, None] * k[:, None, None, :]).reshape(-1, 8)


def _real_coeffs(d, eta, beta, want_grad=False):
    """Scalar coefficients of the real-space term at displacements d (L, 2).

    The term, the matrix delta_jk w - beta Hess-phi_jk, is p delta_jk
    + A d_j d_k; its gradient is delta_jk C d_m + A (delta_jm d_k
    + delta_km d_j) + Bc d_j d_k d_m.  Returns (p, A, C, Bc), the last two
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
    return p, -beta * a, cw - beta * a, beta * b


def _blocks(d, p, A, C=None, Bc=None):
    """A kernel of the form p delta_jk + A d_j d_k as (..., 2, 2) blocks at d (..., 2).

    p and A are the (...) coefficients.  The gradient, when C is given, is
    C delta_jk d_m + A (delta_jm d_k + delta_km d_j) + Bc d_j d_k d_m, as
    (..., 2, 2, 2) blocks indexed [..., j, k, m]; otherwise None.
    """
    dd = d[..., :, None] * d[..., None, :]
    val = A[..., None, None] * dd
    val[..., 0, 0] += p
    val[..., 1, 1] += p
    if C is None:
        return val, None
    grad = Bc[..., None, None, None] * dd[..., None] * d[..., None, None, :]
    ad = A[..., None] * d
    cd = C[..., None] * d
    for j in range(2):
        grad[..., j, j, :] += cd
        grad[..., j, :, j] += ad
        grad[..., :, j, j] += ad
    return val, grad


def _rowdot(a, b):
    """Row sums of a * b for (B, M) arrays, shape (B,)."""
    return np.einsum("bm,bm->b", a, b)


def _grid_contract(d, rho, p, A, C=None, Bc=None):
    """A kernel of _blocks' form on a grid of pairs, applied to rho and summed over the sources.

    d holds the (B, M, 2) differences of B targets and M sources, p, A, C and
    Bc their (B, M) coefficients, rho the (M, 2) density.  Returns the (B, 2)
    values and the (B, 2, 2) gradients, indexed [B, j, m], or None: matrix
    products of the coefficients with rho and row sums of scalar (B, M)
    arrays, with no per-pair vector or block.
    """
    dc = (d[..., 0], d[..., 1])
    drho = dc[0] * rho[:, 0] + dc[1] * rho[:, 1]
    Ar = A * drho
    val = p @ rho + np.column_stack([_rowdot(Ar, dj) for dj in dc])
    if C is None:
        return val, None
    # C rho_j d_m + A d_j rho_m + delta_jm A (d.rho) + Bc (d.rho) d_j d_m
    grad = np.stack([(C * dm) @ rho for dm in dc], axis=-1)
    for j, dj in enumerate(dc):
        grad[:, j, :] += (A * dj) @ rho
    trace = Ar.sum(axis=1)
    Br = Bc * drho
    Bx = Br * dc[0]
    xy = _rowdot(Bx, dc[1])
    grad[:, 0, 0] += trace + _rowdot(Bx, dc[0])
    grad[:, 1, 1] += trace + _rowdot(Br * dc[1], dc[1])
    grad[:, 0, 1] += xy
    grad[:, 1, 0] += xy
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
    shift = -(q * np.floor(x / q + 0.5))
    return x + shift, shift


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
    """(exp(-T) - 1)/T, analytic through T = 0; -f2 is (1 - exp(-T))/T."""
    T = np.asarray(T, dtype=float)
    out = np.empty_like(T)
    small = np.abs(T) < 1e-8
    out[small] = -1.0 + T[small] / 2.0
    out[~small] = np.expm1(-T[~small]) / T[~small]
    return out


def _f2p(T, expT):
    """Derivative of f2, (1 - exp(-T) - T exp(-T))/T^2, analytic through T = 0.

    expT holds exp(-T), which the center coefficients take once.
    """
    out = np.empty_like(T)
    small = T < 1.0
    t = T[small]
    series = np.full_like(t, _F2P_SERIES[-1])
    for c in _F2P_SERIES[-2::-1]:
        series = series * t + c
    out[small] = series
    t, e = T[~small], expT[~small]
    out[~small] = (1.0 - e - t * e) / (t * t)
    return out


def _center_coeffs(x, eta, env, want_grad=False):
    """Scalar coefficients of the center terms at x (..., 2), in _blocks' form.

    The center terms are the analytic extension of [z = 0 real image]
    - Kelvin, finite at x = 0.  Returns (p, A, C, Bc), the last two None
    unless requested; exp(-T) and f2 are each taken once per argument.
    """
    T = eta**2 * _dot(x, x)
    expT = np.exp(-T)
    alpha, beta = env.alpha, env.beta
    log_eta = np.log(eta)
    diag = expT / (4.0 * np.pi) - alpha / (4.0 * np.pi) * (_f1(T) - EULER_GAMMA - 2.0 * log_eta)
    f2 = _f2(T)
    dyad = -(beta * eta**2 / (4.0 * np.pi)) * f2
    if not want_grad:
        return diag, dyad, None, None
    c1 = (-eta**2 / (2.0 * np.pi)) * expT + (alpha * eta**2 / (2.0 * np.pi)) * f2
    return diag, dyad, c1, -(beta * eta**4 / (2.0 * np.pi)) * _f2p(T, expT)


def _phases(points, plan, cell):
    """cos k.x and sin k.x of the plan's k at points x (P, 2): a (2F, P) array.

    Row f holds cos k_f.x and row F + f holds sin k_f.x.  With t = 2 pi x / q
    for x reduced to the cell box, k.x = z1 t1 + z2 t2, so e^{ik.x} is one
    complex product per k of e^{i z1 t1} and e^{i z2 t2}, from the trig values
    of the multiples m t for m up to max(F1, F2) (those of -m by parity).
    """
    z = plan.zvecs
    F = z.shape[0]
    F1, F2 = z[:, 0].max(), np.abs(z[:, 1]).max()
    t = 2.0 * np.pi * nearest_image(points, cell) / np.asarray(cell.q_diag)
    out = np.empty((2 * F, points.shape[0]))
    step = max(1, _PHASES // F)
    for lo in range(0, points.shape[0], step):
        blk = slice(lo, lo + step)
        a = np.multiply.outer(np.arange(max(F1, F2) + 1), t[blk])
        e = np.empty(a.shape, dtype=complex)
        np.cos(a, out=e.real)
        np.sin(a, out=e.imag)
        e2 = e[:F2 + 1, :, 1]
        p = np.ascontiguousarray(e[:F1 + 1, :, 0])[z[:, 0]]
        p *= np.concatenate([e2[:0:-1].conj(), e2])[z[:, 1] + F2]
        out[:F, blk] = p.real
        out[F:, blk] = p.imag
    return out


def _reciprocal(x, y, rho, cell, plan, values, grads):
    """The reciprocal part of lattice_product, as GEMMs of phases.

    cos k.(x - y) = cos k.x cos k.y + sin k.x sin k.y carries the values and
    sin k.(x - y) = sin k.x cos k.y - cos k.x sin k.y the gradients, so
    against the targets' phases (cos k.x, sin k.x) per k a source has the
    rows (cos k.y, sin k.y) for cos_table and (-sin k.y, cos k.y) for
    sin_table.  Both tables are symmetric in j and k.  With rho, the rows are
    contracted into structure factors, and those with the table (k taken as
    the index rho contracts).  Without, each entry of the blocks is one GEMM
    of the targets' phases, scaled by that entry's coefficients, with the
    sources' rows, and the (k, j) entry copies the (j, k) one.  Targets and
    the sources of a product go in blocks of about _ENTRIES phases.  Returns
    the values and gradients in lattice_product's shapes, None where not
    requested.
    """
    F = len(plan.zvecs)
    P, M = x.shape[0], y.shape[0]
    step = max(1, _ENTRIES // (2 * F))

    # (swap, coefficients (2F, 2, 2, 1 or 2) indexed [f, k, j, m]) per kind
    kinds = [(swap, np.tile(table.reshape(F, 2, 2, -1), (2, 1, 1, 1)))
             for swap, table, want in ((False, plan.cos_table, values),
                                       (True, plan.sin_table, grads)) if want]
    rows = lambda ph, swap: np.concatenate([-ph[F:], ph[:F]]) if swap else ph
    if rho is None:
        ph = _phases(y, plan, cell)
        sources = [rows(ph, swap) for swap, _ in kinds]
        del ph  # W*'s assembly keeps only the swapped rows
        out = [np.empty((P, M) + coef.shape[1:]) for _, coef in kinds]
    else:
        factors = [0.0] * len(kinds)
        for lo in range(0, M, step):
            ph = _phases(y[lo:lo + step], plan, cell)
            factors = [S + rows(ph, swap) @ rho[lo:lo + step]
                       for S, (swap, _) in zip(factors, kinds)]
        sources = [np.einsum("fk,fkjm->fjm", S, coef).reshape(2 * F, -1)
                   for S, (_, coef) in zip(factors, kinds)]
        out = [np.empty((P,) + coef.shape[2:]) for _, coef in kinds]
    for lo in range(0, P, step):
        tb = slice(lo, lo + step)
        A = _phases(x[tb], plan, cell).T
        for (_, coef), R, o in zip(kinds, sources, out):
            if rho is not None:
                o[tb] = (A @ R).reshape(o[tb].shape)
                continue
            cols = coef.reshape(2 * F, -1)
            flat = o[tb].reshape(A.shape[0], M, -1)
            if M * cols.shape[1] <= step:
                # few sources (a pointwise kernel's one): scale their rows
                # by every column at once, for one GEMM
                table = (R[:, :, None] * cols[:, None, :]).reshape(2 * F, -1)
                flat[...] = (A @ table).reshape(flat.shape)
                continue
            mirror = np.arange(cols.shape[1]).reshape(coef.shape[1:]).swapaxes(0, 1).ravel()
            for c, m in enumerate(mirror):
                flat[:, :, c] = flat[:, :, m] if m < c else (A * cols[:, c]) @ R
    out = iter(out)
    val = next(out)[..., 0] if values else None
    return val, next(out) if grads else None


def _scatter(mask, c):
    """The coefficients c (L,) of the pairs in mask, zero at the others: a mask-shaped array."""
    out = np.zeros(mask.shape)
    out[mask] = c
    return out


def _add_pair_terms(val, grad, x, y, rho, env, cell, plan, periodic):
    """Adds the pair terms of lattice_product to its values and gradients.

    The pair terms are the live real-space images and, for the regular part,
    the center terms, each with scalar (B, M) coefficients on a batch's grid
    of about _PAIRS target-source pairs.  Per image of plan.shifts, the live
    pairs are a (B, M) mask: as blocks, _blocks of the live pairs is added at
    the mask; applied to rho, the coefficients, zero off the mask, go
    through _grid_contract.  The images of a pair are summed before they
    join the reciprocal part.  The center terms, which every pair has, take
    the same two consumers on the whole grid.
    """
    M = y.shape[0]
    grads = grad is not None
    step = max(1, _PAIRS // M)
    for lo in range(0, x.shape[0], step):
        tb = slice(lo, lo + step)
        d = x[tb, None, :] - y[None, :, :]
        if periodic:
            xr, skip = _reduce(d, cell), None
        else:
            xr, skip = _skipped_image(d, cell)
        images = [None if o is None else np.zeros(o[tb].shape) for o in (val, grad)]
        for shift in plan.shifts:
            e = xr - shift
            live = plan.eta**2 * _dot(e, e) < _LIVE_T
            if skip is not None:
                live &= (skip[..., 0] != shift[0]) | (skip[..., 1] != shift[1])
            if not np.any(live):
                continue
            e_live = e[live]
            if skip is not None and np.any(_on_lattice(e_live, cell)):
                raise SingularArgumentError("argument lies on a nonzero lattice point")
            coeffs = _real_coeffs(e_live, plan.eta, env.beta, grads)
            if rho is None:
                parts, at = _blocks(e_live, *coeffs), live
            else:
                coeffs = [None if c is None else _scatter(live, c) for c in coeffs]
                parts, at = _grid_contract(e, rho, *coeffs), Ellipsis
            for s, part in zip(images, parts):
                if s is not None:
                    s[at] += part
        for o, s in zip((val, grad), images):
            if o is not None:
                o[tb] += s
        del xr, skip, e, live  # freed before the center terms' arrays
        if not periodic:
            center = _center_coeffs(d, plan.eta, env, grads)
            parts = _blocks(d, *center) if rho is None else _grid_contract(d, rho, *center)
            for o, part in zip((val, grad), parts):
                if o is not None:
                    o[tb] += part


def lattice_product(x, y, rho, env, cell, plan, periodic, values=True, grads=False):
    """sum_b K(x_p - y_b) rho_b for targets x (P, 2), sources y (M, 2), density rho (M, 2).

    K is the periodic Green's matrix (periodic=True: each difference is
    reduced modulo the lattice, and a difference on the lattice raises
    SingularArgumentError) or the regular part R^q (periodic=False: the
    image box is certified for reduced arguments, so the sums run at the
    reduced difference and skip the image that is the difference itself,
    which the center terms carry).  The reciprocal part costs O((P + M) F)
    phases and, for blocks, O(P M F) in GEMMs; the pair terms are batched by
    about _PAIRS pairs.  Applied to rho, the live images and the regular
    part's center terms are contracted on each batch's (B, M) grid of pairs
    as scalar arrays (matrix products with rho and row sums), one grid per
    image of the plan.  Returns the (P, 2) values and the (P, 2, 2)
    gradients d_m, indexed [p, j, m]; with rho None, the (P, M, 2, 2) blocks
    K(x_p - y_b) and their (P, M, 2, 2, 2) gradients, indexed
    [p, b, j, k, m].  Each is None where not requested.  A non-finite
    target, source or density raises ValueError.
    """
    _check_plan(plan, env, cell)
    x = np.asarray_chkfinite(x, dtype=float).reshape(-1, 2)
    y = np.asarray_chkfinite(y, dtype=float).reshape(-1, 2)
    if rho is not None:
        rho = np.asarray_chkfinite(rho, dtype=float).reshape(-1, 2)
    val, grad = _reciprocal(x, y, rho, cell, plan, values, grads)
    _add_pair_terms(val, grad, x, y, rho, env, cell, plan, periodic)
    return val, grad


def _pointwise(x, env, cell, plan, periodic, grads):
    """The kernel at x (..., 2): lattice_product's blocks against the one source 0."""
    x = np.asarray(x, dtype=float)
    out = lattice_product(x, np.zeros((1, 2)), None, env, cell, plan, periodic,
                          values=not grads, grads=grads)[int(grads)]
    return out.reshape(x.shape[:-1] + out.shape[2:])


def periodic_green(x, env, cell, plan):
    """Periodic Lame Green's matrix at x (any shape (..., 2)), to plan accuracy."""
    return _pointwise(x, env, cell, plan, periodic=True, grads=False)


def periodic_green_grad(x, env, cell, plan):
    """Gradient d_m Gamma^q_jk, indexed out[..., j, k, m]."""
    return _pointwise(x, env, cell, plan, periodic=True, grads=True)


def regular_part(x, env, cell, plan):
    """Smooth remainder: periodic Green minus the Kelvin matrix, finite at 0.

    The remainder is not periodic, so the argument is not reduced modulo the
    lattice; x has any shape (..., 2).  An x within the singular distance of
    a nonzero lattice point raises SingularArgumentError, as periodic_green
    does at every lattice point.
    """
    return _pointwise(x, env, cell, plan, periodic=False, grads=False)


def regular_part_grad(x, env, cell, plan):
    """Gradient of the smooth remainder, indexed out[..., j, k, m]; odd, zero at 0."""
    return _pointwise(x, env, cell, plan, periodic=False, grads=True)
