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
"""

from dataclasses import dataclass, field

import numpy as np

from .cell import nearest_image
from .errors import PlanError, SingularArgumentError
from .special import EULER_GAMMA, exp1

REAL_CUTOFF_CEILING = 12
FOURIER_CUTOFF_CEILING = 96
_SINGULAR_FRACTION = 1e-12


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
    # precomputed tables
    shifts: np.ndarray = field(repr=False, default=None)      # (Z, 2) real-space images q z
    kvecs: np.ndarray = field(repr=False, default=None)       # (F, 2) reciprocal vectors
    coeffs: np.ndarray = field(repr=False, default=None)      # (F, 2, 2) screened matrices
    scalar_coeffs: np.ndarray = field(repr=False, default=None)  # (F,) screened scalar

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


def plan_lattice_sum(cell, env, tol):
    """Choose the Ewald split parameter and both cutoffs for a target accuracy.

    The recorded tail bounds are each below tol/2; tolerances outside
    [1e-14, 1e-4] or bounds that cannot be met within the cutoff ceilings
    raise PlanError.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise PlanError(
            f"tolerance unattainable: tol={tol} outside the supported range [1e-14, 1e-4]"
        )
    if env.n != 2:
        raise PlanError("lattice sums are implemented for n=2 only")
    eta = np.sqrt(np.pi) / cell.min_edge
    best = None
    for eta_scale in (1.0, 1.25, 1.6, 2.0, 0.8):
        e = eta * eta_scale
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
        cost = (2 * real_cut + 1) ** 2 + 2 * (2 * four_cut + 1) ** 2
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
    k = 2.0 * np.pi * z / q[None, :]
    k2 = np.sum(k * k, axis=1)
    u = k2 / (4.0 * plan.eta**2)
    screen = (1.0 + u) * np.exp(-u)
    khat = k / np.sqrt(k2)[:, None]
    eye = np.eye(2)
    base = -eye[None, :, :] + env.beta * khat[:, :, None] * khat[:, None, :]
    plan.kvecs = k
    plan.coeffs = screen[:, None, None] * base / (k2[:, None, None] * cell.volume)
    plan.scalar_coeffs = -screen / (k2 * cell.volume)


def _real_terms(d, eta, beta, want_grad=False):
    """Real-space contribution at displacements d (shape (P, 2)).

    Returns the 2x2 matrix block delta_jk w - beta * Hess-phi_jk and, when
    requested, its gradient indexed [P, j, k, m].
    """
    d = np.asarray(d, dtype=float)
    r2 = np.sum(d * d, axis=-1)
    T = eta**2 * r2
    expT = np.exp(-T)
    e1 = exp1(T)
    inv_r2 = 1.0 / r2
    w = (expT - e1) / (4.0 * np.pi)
    eye = np.eye(2)
    dj = d[..., :, None]
    dk = d[..., None, :]
    hess = (-e1 / (8.0 * np.pi))[..., None, None] * eye \
        + (expT * inv_r2 / (4.0 * np.pi))[..., None, None] * dj * dk
    val = w[..., None, None] * eye - beta * hess
    if not want_grad:
        return val, None
    # d/dm of w and of Hess-phi
    wm = (expT * (1.0 - T) * inv_r2 / (2.0 * np.pi))[..., None] * d
    dm = d[..., None, None, :]
    djm = d[..., :, None, None]
    dkm = d[..., None, :, None]
    e_jm = eye[:, None, :]
    e_km = eye[None, :, :]
    a = (expT * inv_r2 / (4.0 * np.pi))[..., None, None, None]
    b = (expT * (T + 1.0) * inv_r2 * inv_r2 / (2.0 * np.pi))[..., None, None, None]
    hess_m = a * (eye[:, :, None] * dm + e_jm * dkm + e_km * djm) - b * djm * dkm * dm
    grad = wm[..., None, None, :] * eye[:, :, None] - beta * hess_m
    return val, grad


def _real_sum(points, shifts, eta, beta, want_grad=False):
    """Sum of real-space image terms over the given lattice shifts.

    Loops over shifts and skips (point, image) pairs with eta^2 r^2 >= 45,
    whose contribution is below 3e-20 through every prefactor.
    """
    P = points.shape[0]
    val = np.zeros((P, 2, 2))
    grad = np.zeros((P, 2, 2, 2)) if want_grad else None
    for shift in shifts:
        d = points - shift[None, :]
        T = eta**2 * np.sum(d * d, axis=-1)
        live = T < 45.0
        if not np.any(live):
            continue
        v, g = _real_terms(d[live], eta, beta, want_grad)
        val[live] += v
        if want_grad:
            grad[live] += g
    return val, grad


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
    phase = xr @ plan.kvecs.T
    out += np.einsum("pf,fjk->pjk", np.cos(phase), plan.coeffs)
    return out[0] if single else out


def periodic_green_grad(x, env, cell, plan):
    """Gradient d_m Gamma^q_jk, indexed out[..., j, k, m]."""
    _check_plan(plan, env, cell)
    xr = _reduce(x, cell)
    single = xr.ndim == 1
    xr = np.atleast_2d(xr)
    _, out = _real_sum(xr, plan.shifts, plan.eta, env.beta, want_grad=True)
    phase = xr @ plan.kvecs.T
    out += np.einsum("pf,fjk,fm->pjkm", -np.sin(phase), plan.coeffs, plan.kvecs)
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


def regular_part(x, env, cell, plan):
    """Smooth remainder: periodic Green minus the Kelvin matrix, finite at 0.

    The argument is not reduced modulo the lattice; the function is valid for
    x bounded away from the nonzero lattice points.
    """
    _check_plan(plan, env, cell)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    val, _ = _regular_center_terms(xb, plan.eta, env)
    nonzero = np.any(plan.shifts != 0.0, axis=1)
    term, _ = _real_sum(xb, plan.shifts[nonzero], plan.eta, env.beta)
    val += term
    phase = xb @ plan.kvecs.T
    val += np.einsum("pf,fjk->pjk", np.cos(phase), plan.coeffs)
    return val[0] if single else val


def regular_part_grad(x, env, cell, plan):
    """Gradient of the smooth remainder, indexed out[..., j, k, m]; odd, zero at 0."""
    _check_plan(plan, env, cell)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    _, grad = _regular_center_terms(xb, plan.eta, env, want_grad=True)
    nonzero = np.any(plan.shifts != 0.0, axis=1)
    _, g = _real_sum(xb, plan.shifts[nonzero], plan.eta, env.beta, want_grad=True)
    grad += g
    phase = xb @ plan.kvecs.T
    grad += np.einsum("pf,fjk,fm->pjkm", -np.sin(phase), plan.coeffs, plan.kvecs)
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
