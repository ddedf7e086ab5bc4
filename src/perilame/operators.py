"""Dense Nystrom discretization of the periodic boundary operators.

Kernels are split on the parameter torus as

    single layer:  (alpha/(4 pi)) log(4 sin^2((t-s)/2)) I   -> Kress log rule
                   + smooth free-space remainder + R^q      -> periodic trapezoid
    traction:      gamma_c cot((t-s)/2)/(2|x'(t)|) J        -> spectral Hilbert rule
                   + smooth symmetric part + R^q traction   -> periodic trapezoid

with gamma_c = (1-beta)/(2 pi) and J the quarter-turn matrix; the traction
kernel of the plane Kelvin matrix has no logarithmic singularity, only the
Cauchy part above.  The split is re-verified numerically at sampled pairs.
Assembly forms the N x N node blocks; it takes those of R^q and of its
gradient from the target-source evaluator, lattice.lattice_product, with
no density.  At the midpoints t_i + pi/N, apply_at_midpoints applies V and
W* to a density without a block or a matrix: both rules, shifted by half a
node, act by one FFT each (_apply_rule, which also gives assembly its dense
node rules from the same symbols), the smooth free-space split is
contracted with the density as scalar target-node arrays, and R^q is a
product against the density.  The off-boundary potentials
eval_single_layer and eval_traction_offboundary are such products of the
periodic Green's matrix, so no P x M kernel block is formed outside
assembly.
Whether an off-boundary target is near the boundary (NearBoundaryWarning) is
read from the one classification of the targets, cell.locate_targets.
"""

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cell import NEAR_SPACINGS, locate_targets
from .errors import AssemblyError, NearBoundaryWarning
from .kernels import kelvin, traction_from_gradient, traction_kernel, traction_map
from .lattice import _PAIRS, _blocks, _dot, _grid_contract, lattice_product

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass
class BoundaryVectorField:
    """Nodal samples of a vector field on the curve, trig-interpolation semantics."""

    values: np.ndarray  # (N, 2)
    curve: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.curve.N, 2):
            raise ValueError(
                f"field shape {self.values.shape} does not match curve N={self.curve.N}"
            )

    def resample(self, N, curve=None):
        return BoundaryVectorField(
            values=trig_resample(self.values, N), curve=curve or self.curve.resample(N)
        )


@dataclass
class BoundaryMatrixField:
    """Nodal samples of a matrix field on the curve."""

    values: np.ndarray  # (N, 2, 2)
    curve: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.curve.N, 2, 2):
            raise ValueError(
                f"field shape {self.values.shape} does not match curve N={self.curve.N}"
            )

    def resample(self, N, curve=None):
        return BoundaryMatrixField(
            values=trig_resample(self.values, N), curve=curve or self.curve.resample(N)
        )


@dataclass
class DenseBoundaryOperator:
    """Dense nodal operator acting on node-major flattened vector fields."""

    matrix: np.ndarray  # (2N, 2N)
    curve: object

    def apply(self, field):
        out = self.matrix @ field.values.reshape(-1)
        return BoundaryVectorField(values=out.reshape(-1, 2), curve=field.curve)


def trig_resample(vals, M):
    """Exact trigonometric resampling of nodal data (N, ...) from N to M nodes (M >= N).

    Acts along axis 0, so every component of a vector or matrix field is
    resampled in one call.
    """
    vals = np.asarray(vals, dtype=float)
    N = vals.shape[0]
    if M == N:
        return vals.copy()
    if M < N or M % 2 or N % 2:
        raise ValueError("resampling requires even M >= N")
    F = np.fft.fft(vals, axis=0)
    G = np.zeros((M,) + vals.shape[1:], dtype=complex)
    h = N // 2
    G[:h] = F[:h]
    G[M - h + 1:] = F[h + 1:]
    G[h] = 0.5 * F[h]
    G[M - h] = 0.5 * F[h]
    return np.real(np.fft.ifft(G, axis=0)) * (M / N)


def _log_symbol(m):
    lam = np.zeros(m.shape)
    nz = m != 0
    lam[nz] = -2.0 * np.pi / np.abs(m[nz])
    return lam


def _hilbert_symbol(m):
    return -1j * np.sign(m)


def _apply_rule(symbol, f, shift):
    """A convolution rule read at the targets t_a + shift, applied to nodal data f (N, K).

    symbol(m) is the rule's multiplier on e^{ims}: the trig interpolant of the
    nodal data is integrated exactly and read at t_a + shift, one FFT each
    way.  The Nyquist mode is split evenly between m = +-N/2, which keeps the
    real part of its shifted symbol.  Applied to the identity, it gives the
    rule's circulant weights, whose (a, b) entry depends on a - b alone.
    """
    N = f.shape[0]
    m = np.fft.fftfreq(N, d=1.0 / N)
    lam = symbol(m)
    if shift:
        lam = lam * np.exp(1j * m * shift)
    lam[N // 2] = lam[N // 2].real
    return np.real(np.fft.ifft(lam[:, None] * np.fft.fft(f, axis=0), axis=0))


def kress_log_rule(N, shift=0.0):
    """Circulant quadrature for int_0^{2pi} log(4 sin^2((t_a + shift - s)/2)) f(s) ds."""
    return _apply_rule(_log_symbol, np.eye(N), shift)


def hilbert_rule(N, shift=0.0):
    """Circulant quadrature for (1/2pi) pv int f(s) cot((t_a + shift - s)/2) ds.

    The Nyquist mode contributes sin((N/2)(t_a + shift - t_b)) / N, which
    vanishes at shift 0 and is (-1)^(a-b) / N at shift pi/N.
    """
    return _apply_rule(_hilbert_symbol, np.eye(N), shift)


def _blocks_to_matrix(blocks):
    """(N, N, 2, 2) target-source blocks -> (2N, 2N) node-major matrix."""
    N = blocks.shape[0]
    return blocks.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)


def _midpoints(curve):
    """Geometry at the N midpoints t_i + pi/N: the odd nodes of the 2N curve."""
    fine = curve.resample(2 * curve.N)
    return SimpleNamespace(
        **{k: getattr(fine, k)[1::2] for k in ("params", "nodes", "d1", "speeds", "normals")}
    )


def _log_pairs(N):
    """(a, b) index arrays of the pairs that check the log split: N/8-spaced antipodes."""
    a = np.arange(0, N, max(1, N // 8))
    return a, (a + N // 2) % N


def _traction_pairs(N):
    """(a, b) index arrays of the 20 seeded pairs that check the traction split.

    Each a is a quarter to three quarters of the curve away from its b.
    """
    rng = np.random.default_rng(N)
    a = rng.integers(0, N, 20)
    return a, (a + rng.integers(N // 4, 3 * N // 4, 20)) % N


def _single_layer_rows(curve, env, d, lattice):
    """(2N, 2N) Nystrom matrix of V from the (N, N, 2) node differences d.

    lattice holds the (N, N, 2, 2) regular part R^q at d; the diagonal takes
    the limits of the smooth split.
    """
    N = curve.N
    sp = curve.speeds
    alpha, beta = env.alpha, env.beta
    ar = np.arange(N)

    r2 = np.sum(d * d, axis=-1)
    # smooth factor of the free-space log split
    dt_half = 0.5 * (curve.params[:, None] - curve.params[None, :])
    sin2 = 4.0 * np.sin(dt_half) ** 2
    np.fill_diagonal(r2, 1.0)
    np.fill_diagonal(sin2, 1.0)
    log_smooth = np.log(r2 / sin2)
    dyad = d[:, :, :, None] * d[:, :, None, :] / r2[:, :, None, None]
    np.fill_diagonal(log_smooth, np.log(sp * sp))
    dyad[ar, ar] = curve.d1[:, :, None] * curve.d1[:, None, :] / (sp * sp)[:, None, None]

    eye = np.eye(2)
    smooth_fs = (alpha / (4.0 * np.pi)) * log_smooth[:, :, None, None] * eye \
        - (beta / (4.0 * np.pi)) * dyad

    a, b = _log_pairs(N)
    _check_log_split(curve, curve, env, a, b, smooth_fs[a, b], sin2[a, b])

    # (2 pi / N) sp_b (smooth_fs + lattice), summed in place
    blocks = smooth_fs
    blocks += lattice
    blocks *= (2.0 * np.pi / N) * sp[None, :, None, None]
    KL = kress_log_rule(N)
    blocks += (alpha / (4.0 * np.pi)) * (KL * sp[None, :])[:, :, None, None] * eye
    return _blocks_to_matrix(blocks)


def assemble_single_layer(curve, env, cell, plan):
    """Nystrom matrix of the periodic single-layer operator on the curve."""
    d = curve.nodes[:, None, :] - curve.nodes[None, :, :]
    lattice = lattice_product(curve.nodes, curve.nodes, None, env, cell, plan,
                              periodic=False)[0]
    return DenseBoundaryOperator(
        matrix=_single_layer_rows(curve, env, d, lattice), curve=curve
    )


def _check_log_split(curve, targets, env, a, b, smooth_fs, sin2):
    """Log-coefficient extraction must rebuild the Kelvin matrix at targets a, nodes b.

    smooth_fs holds the (n, 2, 2) smooth free-space blocks and sin2 the
    4 sin^2((t_a - s_b)/2) at the n pairs.
    """
    direct = kelvin(targets.nodes[a] - curve.nodes[b], env)
    split = smooth_fs + (env.alpha / (4.0 * np.pi)) * np.log(sin2)[:, None, None] * np.eye(2)
    scale = np.maximum(1.0, np.max(np.abs(direct), axis=(1, 2)))
    if np.any(np.max(np.abs(direct - split), axis=(1, 2)) > 1e-12 * scale):
        raise AssemblyError("log-split inconsistency in single-layer assembly")


def _wstar_rows(curve, env, d, lattice):
    """(2N, 2N) Nystrom matrix of W* from the (N, N, 2) node differences d.

    The target-normal traction kernel splits into a symmetric smooth part, a
    Cauchy part carried by the spectral Hilbert rule, and the smooth periodic
    correction lattice, the (N, N, 2, 2) traction at the target normals of
    the gradient of R^q at d; the diagonal limits come from the curvature
    data.
    """
    N = curve.N
    sp = curve.speeds
    nu = curve.normals
    beta = env.beta
    gamma_c = (1.0 - beta) / (2.0 * np.pi)
    ar = np.arange(N)

    r2 = np.sum(d * d, axis=-1)
    np.fill_diagonal(r2, 1.0)
    dn = np.einsum("abk,ak->ab", d, nu)

    eye = np.eye(2)
    ksym = (1.0 - beta) / (2.0 * np.pi) * (dn / r2)[:, :, None, None] * eye
    ksym += (beta / np.pi) * (dn / (r2 * r2))[:, :, None, None] \
        * d[:, :, :, None] * d[:, :, None, :]
    d1, d2 = curve.d1, curve.d2
    d2n = np.einsum("ak,ak->a", d2, nu)
    ksym[ar, ar] = (-(1.0 - beta) / (4.0 * np.pi)) * (d2n / sp**2)[:, None, None] * eye \
        - (beta / (2.0 * np.pi)) * (d2n / sp**4)[:, None, None] \
        * d1[:, :, None] * d1[:, None, :]

    # Cauchy part: gamma_c * (x'(t).d)/(|x'(t)| r^2) * J, cot subtracted
    xpd = np.einsum("ak,abk->ab", d1, d)
    h = xpd / (sp[:, None] * r2)
    dt_half = 0.5 * (curve.params[:, None] - curve.params[None, :])
    cot = np.zeros((N, N))
    off = ~np.eye(N, dtype=bool)
    cot[off] = 1.0 / np.tan(dt_half[off])
    rho = h - cot / (2.0 * sp[:, None])
    rho[ar, ar] = np.einsum("ak,ak->a", d1, d2) / (2.0 * sp**3)

    a, b = _traction_pairs(N)
    _check_traction_split(curve, curve, env, a, b, ksym[a, b], gamma_c * rho[a, b], cot[a, b])

    # (2 pi / N) sp_b (ksym + gamma_c rho J + lattice), summed in place
    blocks = gamma_c * rho[:, :, None, None] * _J
    blocks += ksym
    blocks += lattice
    blocks *= (2.0 * np.pi / N) * sp[None, :, None, None]
    Q = hilbert_rule(N)
    blocks += gamma_c * np.pi * (Q * (sp[None, :] / sp[:, None]))[:, :, None, None] * _J
    return _blocks_to_matrix(blocks)


def assemble_wstar(curve, env, cell, plan):
    """Nystrom matrix of the traction operator of the periodic single layer."""
    d = curve.nodes[:, None, :] - curve.nodes[None, :, :]
    # the (N, N, 2, 2, 2) gradient is freed before the rows' temporaries
    lattice = traction_from_gradient(
        lattice_product(curve.nodes, curve.nodes, None, env, cell, plan, periodic=False,
                        values=False, grads=True)[1],
        curve.normals[:, None, :], env.omega,
    )
    return DenseBoundaryOperator(
        matrix=_wstar_rows(curve, env, d, lattice), curve=curve
    )


def _check_traction_split(curve, targets, env, a, b, ksym, cauchy, cot):
    """Free-space split must reproduce the direct traction kernel at targets a, nodes b.

    ksym holds the (n, 2, 2) symmetric smooth blocks, cauchy the coefficient
    of J in the smooth Cauchy remainder and cot the cot((t_a - s_b)/2) at the
    n pairs.
    """
    gamma_c = (1.0 - env.beta) / (2.0 * np.pi)
    direct = traction_kernel(targets.nodes[a] - curve.nodes[b], targets.normals[a], env)
    split = ksym + (cauchy + gamma_c * cot / (2.0 * targets.speeds[a]))[:, None, None] * _J
    worst = np.max(np.abs(direct - split), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(direct), axis=(1, 2)))
    if np.any(worst > 1e-12 * scale):
        raise AssemblyError(
            f"traction kernel split deviates from direct evaluation by {np.max(worst):.3e}"
        )


def _midpoint_split(curve, targets, env, rows):
    """The smooth free-space split at some midpoints against the N nodes, as scalar arrays.

    rows indexes the midpoint geometry targets (a slice or an index array of
    B of them).  V's smooth part is pv delta_jk + av d_j d_k and W*'s
    pw delta_jk + aw d_j d_k + cauchy J, the form of lattice._contract; each
    is a (B, N) array, with the (B, N, 2) differences d, and sin2 and cot of
    the half parameter differences for the split checks.
    """
    alpha, beta = env.alpha, env.beta
    gamma_c = (1.0 - beta) / (2.0 * np.pi)
    d = targets.nodes[rows, None, :] - curve.nodes[None, :, :]
    r2 = _dot(d, d)
    dt_half = 0.5 * (targets.params[rows, None] - curve.params[None, :])
    sin2 = 4.0 * np.sin(dt_half) ** 2
    cot = 1.0 / np.tan(dt_half)
    tsp = targets.speeds[rows, None]
    dn = _dot(d, targets.normals[rows, None, :])
    return SimpleNamespace(
        d=d, sin2=sin2, cot=cot,
        pv=(alpha / (4.0 * np.pi)) * np.log(r2 / sin2),
        av=-(beta / (4.0 * np.pi)) / r2,
        pw=((1.0 - beta) / (2.0 * np.pi)) * dn / r2,
        aw=(beta / np.pi) * dn / (r2 * r2),
        cauchy=gamma_c * (_dot(d, targets.d1[rows, None, :]) / (tsp * r2) - cot / (2.0 * tsp)),
    )


def _smooth_at_midpoints(curve, targets, env, wmu):
    """The smooth free-space split at the midpoints applied to the weighted density wmu (N, 2).

    Both split checks run first, at their pairs, on the arrays of
    _midpoint_split; the split is then contracted with wmu in batches of
    about _PAIRS midpoint-node pairs.  Returns its parts of V mu and W* mu,
    each (N, 2).
    """
    N = curve.N
    a, b = _log_pairs(N)
    s, at = _midpoint_split(curve, targets, env, a), (np.arange(len(a)), b)
    _check_log_split(curve, targets, env, a, b, _blocks(s.d[at], s.pv[at], s.av[at])[0],
                     s.sin2[at])
    a, b = _traction_pairs(N)
    s, at = _midpoint_split(curve, targets, env, a), (np.arange(len(a)), b)
    _check_traction_split(curve, targets, env, a, b, _blocks(s.d[at], s.pw[at], s.aw[at])[0],
                          s.cauchy[at], s.cot[at])

    vmu, wsmu = np.empty((N, 2)), np.empty((N, 2))
    step = max(1, _PAIRS // N)
    for lo in range(0, N, step):
        tb = slice(lo, lo + step)
        s = _midpoint_split(curve, targets, env, tb)
        vmu[tb] = _grid_contract(s.d, wmu, s.pv, s.av)[0]
        wsmu[tb] = _grid_contract(s.d, wmu, s.pw, s.aw)[0] + (s.cauchy @ wmu) @ _J.T
    return vmu, wsmu


def apply_at_midpoints(field, targets, env, cell, plan):
    """V mu and W* mu at the N midpoints t_i + pi/N, each (N, 2).

    targets is the midpoint geometry (_midpoints).  No kernel block and no
    N x N matrix is formed.  The half-shifted Kress log and Hilbert rules
    act on sp mu by one FFT each (_apply_rule); the smooth free-space split
    is contracted with the weighted density as scalar arrays, after both
    split checks have passed on it (_smooth_at_midpoints).  The lattice part
    of V mu is a regular-part product and that of W* mu the traction, at the
    midpoint normals, of a regular-part gradient product, both from one
    lattice_product call.
    """
    curve = field.curve
    N = curve.N
    gamma_c = (1.0 - env.beta) / (2.0 * np.pi)
    wmu = field.values * curve.weights[:, None]
    vmu, wsmu = _smooth_at_midpoints(curve, targets, env, wmu)
    spmu = field.values * curve.speeds[:, None]
    shift = np.pi / N
    vmu += (env.alpha / (4.0 * np.pi)) * _apply_rule(_log_symbol, spmu, shift)
    wsmu += (gamma_c * np.pi / targets.speeds[:, None]) \
        * (_apply_rule(_hilbert_symbol, spmu, shift) @ _J.T)

    lattice, lattice_grad = lattice_product(targets.nodes, curve.nodes, wmu, env, cell, plan,
                                            periodic=False, values=True, grads=True)
    vmu += lattice
    wsmu += np.einsum("ajm,am->aj", traction_map(env.omega, lattice_grad), targets.normals)
    return vmu, wsmu


def boundary_integral(field, curve=None):
    """Componentwise arclength integral of a nodal vector field (trapezoid)."""
    curve = curve if curve is not None else field.curve
    return field.values.T @ curve.weights


def warn_near_boundary(loc, stacklevel):
    """NearBoundaryWarning when a point of the cell.TargetLocation loc is near the boundary."""
    if np.any(loc.near):
        warnings.warn(
            f"evaluation point within {NEAR_SPACINGS:g} node spacings of the boundary",
            NearBoundaryWarning,
            stacklevel=stacklevel + 1,
        )


def _off_boundary_sources(x, field, cell, upsample, warn):
    """Setup shared by the off-boundary potentials at points x.

    Warns when cell.locate_targets finds a point near the boundary; returns
    the (P, 2) points, the (M, 2) quadrature nodes (the field's, resampled
    `upsample` times), the (M, 2) density times the quadrature weights and
    whether x is a single point.
    """
    src = field if upsample == 1 else field.resample(upsample * field.curve.N)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if warn:
        warn_near_boundary(locate_targets(pts, field.curve, cell), stacklevel=3)
    dens = src.values * src.curve.weights[:, None]
    return pts, src.curve.nodes, dens, x.ndim == 1


def eval_single_layer(x, field, env, cell, plan, upsample=1, warn=True):
    """Periodic single-layer potential at off-boundary points x.

    Plain trapezoid against the periodic Green's matrix, applied to the
    density by lattice_product; accuracy degrades within about
    NEAR_SPACINGS node spacings of the boundary (NearBoundaryWarning).  The
    quadrature grid can be refined by an integer `upsample` factor using
    exact trigonometric resampling of curve and density.
    """
    pts, nodes, dens, single = _off_boundary_sources(x, field, cell, upsample, warn)
    out = lattice_product(pts, nodes, dens, env, cell, plan, periodic=True)[0]
    return out[0] if single else out


def eval_traction_offboundary(x, nu, field, env, cell, plan, upsample=1, warn=True):
    """Traction T(omega, Dv) nu of the single layer at off-boundary points."""
    pts, nodes, dens, single = _off_boundary_sources(x, field, cell, upsample, warn)
    nus = np.atleast_2d(np.asarray(nu, dtype=float))
    # Jacobian of v: Dv[p, j, m] = sum_b d_m Gamma_jk(x_p - y_b) mu_k w_b
    Dv = lattice_product(pts, nodes, dens, env, cell, plan, periodic=True,
                         values=False, grads=True)[1]
    out = np.einsum("pjm,pm->pj", traction_map(env.omega, Dv), nus)
    return out[0] if single else out
