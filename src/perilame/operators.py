"""Dense Nystrom discretization of the periodic boundary operators.

Kernels are split on the parameter torus as

    single layer:  (alpha/(4 pi)) log(4 sin^2((t-s)/2)) I   -> Kress log rule
                   + smooth free-space remainder + R^q      -> periodic trapezoid
    traction:      gamma_c cot((t-s)/2)/(2|x'(t)|) J        -> spectral Hilbert rule
                   + smooth symmetric part + R^q traction   -> periodic trapezoid

with gamma_c = (1-beta)/(2 pi) (LameEnv.gamma_c) and J the quarter-turn
matrix; the traction kernel of the plane Kelvin matrix has no logarithmic
singularity, only the Cauchy part above.  The smooth free-space split has one form,
p delta_jk + A d_j d_k (plus a Cauchy remainder times J), as scalar
target-node arrays (_free_space_split), at the nodes, where a node against
itself takes the limits, and at the midpoints alike; one _checked_split
re-verifies it numerically at sampled pairs for both.  Assembly forms the
N x N node blocks: lattice._blocks of the split, plus the lattice part, R^q
for V and for W* the traction at the target normals of the gradient of R^q.
The lattice part is analytic on the (t, s) torus, normals included, so
_lattice_part evaluates it with the target-source evaluator,
lattice.lattice_product, with no density, at the Nc nodes of a coarse
resampling of the curve, and interpolates it to the N nodes by
trigonometric interpolation in t and in s.  Nc starts at _COARSE_START and
doubles until the L1 size of the coarse blocks' outer band of 2D Fourier
modes, max(|m1|, |m2|) >= 7 Nc / 16, is below the plan's tail share
(tol/20) of their largest entry, or below the band rounding leaves at tight
tol (_ROUNDING Nc eps).  When two rejected grids predict that the next one
fails too, or at Nc = N, the lattice part is evaluated at the N nodes.
Each operator records its Nc as lattice_nodes.

At the midpoints t_i + pi/N, apply_at_midpoints applies V and W* to a
density without a block or a matrix: both rules, shifted by half a node,
act by one FFT each (_apply_rule, which also gives assembly its dense
node rules from the same symbols), the split is contracted with the
density by lattice._grid_contract, and R^q is a product against the
density at the midpoints, independent of the interpolated
lattice part, so an under-resolved Nc shows in the off-node residual.  The
off-boundary potentials eval_single_layer and eval_traction_offboundary are
such products of the periodic Green's matrix, so no P x M kernel block is
formed outside assembly.
Whether an off-boundary target is near the boundary (NearBoundaryWarning) is
read from the one classification of the targets, cell.locate_targets.
"""

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cell import NEAR_SPACINGS, locate_targets
from .errors import AssemblyError, NearBoundaryWarning
from .kernels import kelvin, traction, traction_kernel
from .lattice import _PAIRS, _TAIL_SHARE, _blocks, _dot, _grid_contract, lattice_product

_J = np.array([[0.0, -1.0], [1.0, 0.0]])
# first coarse node count of the lattice part of V and W*; it doubles until
# the tail check passes or it reaches N
_COARSE_START = 64
# the tail check's band of 2D modes, max(|m1|, |m2|) >= _BAND * Nc
_BAND = 7.0 / 16.0
# the tail check's rounding floor, in units of Nc eps: samples off by about
# 10 eps of the largest entry give coefficients of about 9 eps / Nc, and
# their band, about 0.23 Nc^2 modes of four entries, about 8 Nc eps
_ROUNDING = 8.0


@dataclass
class _BoundaryField:
    """Nodal samples (N,) + TRAILING of a field on the curve, trig-interpolation semantics."""

    values: np.ndarray
    curve: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.curve.N,) + self.TRAILING:
            raise ValueError(
                f"field shape {self.values.shape} does not match curve N={self.curve.N}"
            )

    def resample(self, N):
        return type(self)(trig_resample(self.values, N), self.curve.resample(N))


class BoundaryVectorField(_BoundaryField):
    """Nodal samples (N, 2) of a vector field on the curve."""

    TRAILING = (2,)


class BoundaryMatrixField(_BoundaryField):
    """Nodal samples (N, 2, 2) of a matrix field on the curve."""

    TRAILING = (2, 2)


@dataclass
class DenseBoundaryOperator:
    """Dense nodal operator acting on node-major flattened vector fields.

    lattice_nodes is the node count at which its lattice part was evaluated:
    the coarse Nc it was interpolated from, or N.
    """

    matrix: np.ndarray  # (2N, 2N)
    lattice_nodes: int

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
    real part of its shifted symbol: for the Hilbert rule it contributes
    sin((N/2)(t_a + shift - t_b)) / N, which vanishes at shift 0 and is
    (-1)^(a-b) / N at shift pi/N.  Applied to the identity, it gives the
    rule's circulant weights, whose (a, b) entry depends on a - b alone.
    """
    N = f.shape[0]
    m = np.fft.fftfreq(N, d=1.0 / N)
    lam = symbol(m)
    if shift:
        lam = lam * np.exp(1j * m * shift)
    lam[N // 2] = lam[N // 2].real
    return np.real(np.fft.ifft(lam[:, None] * np.fft.fft(f, axis=0), axis=0))


def kress_log_rule(N):
    """Circulant quadrature for int_0^{2pi} log(4 sin^2((t_a - s)/2)) f(s) ds."""
    return _apply_rule(_log_symbol, np.eye(N), 0.0)


def hilbert_rule(N):
    """Circulant quadrature for (1/2pi) pv int f(s) cot((t_a - s)/2) ds."""
    return _apply_rule(_hilbert_symbol, np.eye(N), 0.0)


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


def _free_space_split(curve, targets, env, rows):
    """The smooth free-space split at some targets against the N nodes, as scalar arrays.

    targets is the midpoint geometry (_midpoints) or the curve itself; rows
    indexes it (a slice or an index array of B targets).  V's smooth part is
    pv delta_jk + av d_j d_k and W*'s pw delta_jk + aw d_j d_k + cauchy J,
    the form of lattice._blocks; each is a (B, N) array, with the (B, N, 2)
    differences d, and sin2 and cot of the half parameter differences for
    the split checks.  A node against itself takes the limits, with the
    tangent d1 in place of d: pv = alpha/(4 pi) log sp^2,
    av = -beta/(4 pi sp^2), pw = -gamma_c d2n/(2 sp^2),
    aw = -beta/(2 pi) d2n/sp^4 and cauchy = gamma_c d1.d2/(2 sp^3), with
    d2n = x''.nu.
    """
    alpha, beta, gamma_c = env.alpha, env.beta, env.gamma_c
    d = targets.nodes[rows, None, :] - curve.nodes[None, :, :]
    dt_half = 0.5 * (targets.params[rows, None] - curve.params[None, :])
    if targets is curve:
        a = np.arange(curve.N)[rows]
        self_pairs = (np.arange(a.size), a)
        d[self_pairs] = curve.d1[a]
        # finite stand-ins; the limits below replace what they feed
        dt_half[self_pairs] = 0.5 * np.pi
    r2 = _dot(d, d)
    sin2 = 4.0 * np.sin(dt_half) ** 2
    cot = 1.0 / np.tan(dt_half)
    tsp = targets.speeds[rows, None]
    dn = _dot(d, targets.normals[rows, None, :])
    s = SimpleNamespace(
        d=d, sin2=sin2, cot=cot,
        pv=(alpha / (4.0 * np.pi)) * np.log(r2 / sin2),
        av=-(beta / (4.0 * np.pi)) / r2,
        pw=gamma_c * dn / r2,
        aw=(beta / np.pi) * dn / (r2 * r2),
        cauchy=gamma_c * (_dot(d, targets.d1[rows, None, :]) / (tsp * r2) - cot / (2.0 * tsp)),
    )
    if targets is curve:
        sp = curve.speeds[a]
        d2n = _dot(curve.d2[a], curve.normals[a])
        s.pv[self_pairs] = (alpha / (4.0 * np.pi)) * np.log(sp * sp)
        s.av[self_pairs] = -(beta / (4.0 * np.pi)) / (sp * sp)
        s.pw[self_pairs] = -(0.5 * gamma_c) * d2n / (sp * sp)
        s.aw[self_pairs] = -(beta / (2.0 * np.pi)) * d2n / sp**4
        s.cauchy[self_pairs] = gamma_c * _dot(curve.d1[a], curve.d2[a]) / (2.0 * sp**3)
    return s


def _checked_split(curve, targets, env):
    """Checks _free_space_split at targets against the direct kernels.

    At _log_pairs the split plus its log part must rebuild the Kelvin matrix,
    and at _traction_pairs the split plus its cot part the traction kernel,
    each to 1e-12 of max(1, the kernel's size); AssemblyError otherwise.
    """
    a, b = _log_pairs(curve.N)
    s, at = _free_space_split(curve, targets, env, a), (np.arange(len(a)), b)
    log_split = _blocks(s.d[at], s.pv[at], s.av[at])[0] \
        + (env.alpha / (4.0 * np.pi)) * np.log(s.sin2[at])[:, None, None] * np.eye(2)
    log_direct = kelvin(targets.nodes[a] - curve.nodes[b], env)
    a, b = _traction_pairs(curve.N)
    s, at = _free_space_split(curve, targets, env, a), (np.arange(len(a)), b)
    cauchy = s.cauchy[at] + env.gamma_c * s.cot[at] / (2.0 * targets.speeds[a])
    traction_split = _blocks(s.d[at], s.pw[at], s.aw[at])[0] + cauchy[:, None, None] * _J
    traction_direct = traction_kernel(targets.nodes[a] - curve.nodes[b], targets.normals[a], env)
    for kind, direct, split in (("log", log_direct, log_split),
                                ("traction", traction_direct, traction_split)):
        worst = np.max(np.abs(direct - split), axis=(1, 2))
        if np.any(worst > 1e-12 * np.maximum(1.0, np.max(np.abs(direct), axis=(1, 2)))):
            raise AssemblyError(
                f"{kind} kernel split deviates from direct evaluation by {np.max(worst):.3e}"
            )


def _tail_share(blocks):
    """Size of the outer band of the 2D Fourier coefficients of (Nc, Nc, 2, 2) blocks.

    The L1 sum, over all four entries, of the coefficients with
    max(|m1|, |m2|) >= _BAND * Nc, over the largest entry of the blocks.
    """
    Nc = blocks.shape[0]
    coeffs = np.fft.fft2(blocks, axes=(0, 1)) / (Nc * Nc)
    m = np.abs(np.fft.fftfreq(Nc, d=1.0 / Nc))
    band = np.maximum.outer(m, m) >= _BAND * Nc
    return float(np.sum(np.abs(coeffs[band])) / np.max(np.abs(blocks)))


def _interpolate(blocks, N):
    """Trig interpolation of (Nc, Nc, 2, 2) samples on the torus to (N, N, 2, 2).

    Each entry becomes P B P^T, P = trig_resample(I, N) the N x Nc
    interpolation matrix: two GEMMs for all four entries.
    """
    Nc = blocks.shape[0]
    P = trig_resample(np.eye(Nc), N)
    # X[c, b] = sum_d B[c, d] P[b, d] per entry, then P X
    X = (P @ blocks.swapaxes(0, 1).reshape(Nc, -1)).reshape(N, Nc, 4).swapaxes(0, 1)
    return (P @ X.reshape(Nc, -1)).reshape(N, N, 2, 2)


def _lattice_part(curve, blocks_of, tol):
    """blocks_of(curve), the lattice part at the node pairs, and its node count.

    blocks_of maps a curve of n nodes to (n, n, 2, 2) blocks; the node count
    is the Nc they were evaluated at, a coarse one or N.  The lattice
    part is analytic on the (t, s) torus.  From Nc = _COARSE_START, doubling,
    it is evaluated at the nodes of curve.resample(Nc), and accepted, then
    interpolated to the N nodes, when its _tail_share is below the plan's
    tail share of tol or, at tight tol, below the band that rounding alone
    leaves (_ROUNDING Nc eps).  The shares of two rejected grids predict the
    next one's, as the coefficients decay exponentially; when the prediction
    fails too, or when Nc reaches N, the lattice part is evaluated at the N
    nodes.
    """
    N = curve.N
    budget = lambda n: max(_TAIL_SHARE * tol, _ROUNDING * n * np.finfo(float).eps)
    Nc, previous = _COARSE_START, None
    while Nc < N:
        coarse = blocks_of(curve.resample(Nc))
        share = _tail_share(coarse)
        if share < budget(Nc):
            return _interpolate(coarse, N), Nc
        if previous is not None and share * (share / previous) ** 2 >= budget(2 * Nc):
            break
        Nc, previous = 2 * Nc, share
    return blocks_of(curve), N


def assemble_single_layer(curve, env, cell, plan):
    """Nystrom matrix of the periodic single-layer operator on the curve.

    The blocks of the smooth free-space split at the nodes and those of R^q
    (_lattice_part: interpolated from a coarse grid where its tail allows)
    are weighted by the trapezoid rule; the Kress log rule carries the log
    part.  The operator's lattice_nodes is the Nc of R^q.
    """
    N = curve.N
    sp = curve.speeds
    values = lambda c: lattice_product(c.nodes, c.nodes, None, env, cell, plan, periodic=False)[0]
    blocks, nc = _lattice_part(curve, values, plan.tol)
    _checked_split(curve, curve, env)
    s = _free_space_split(curve, curve, env, slice(None))
    # (2 pi / N) sp_b (smooth split + R^q), summed in place
    blocks += _blocks(s.d, s.pv, s.av)[0]
    blocks *= (2.0 * np.pi / N) * sp[None, :, None, None]
    KL = kress_log_rule(N)
    blocks += (env.alpha / (4.0 * np.pi)) * (KL * sp[None, :])[:, :, None, None] * np.eye(2)
    return DenseBoundaryOperator(matrix=_blocks_to_matrix(blocks), lattice_nodes=nc)


def assemble_wstar(curve, env, cell, plan):
    """Nystrom matrix of the traction operator of the periodic single layer.

    The target-normal traction kernel splits into the smooth free-space
    split at the nodes, a Cauchy part carried by the spectral Hilbert rule,
    and the smooth periodic correction, the traction at the target normals
    of the gradient of R^q.  That correction is analytic on the torus too,
    normals included, so it is formed at the coarse nodes and interpolated
    where its tail allows (_lattice_part); the operator's lattice_nodes is
    its Nc.
    """
    N = curve.N
    sp = curve.speeds

    def lattice_traction(c):
        # column k of block (a, b) is T(omega, A) nu_a, A_jm = d_m R^q_jk(x_a - x_b),
        # contracted with the column axis k moved ahead of (j, m); the
        # (n, n, 2, 2, 2) gradient is freed before the split's arrays
        grads = lattice_product(c.nodes, c.nodes, None, env, cell, plan, periodic=False,
                                values=False, grads=True)[1]
        return traction(grads.swapaxes(2, 3), c.normals[:, None, None, :], env.omega) \
            .swapaxes(2, 3)

    blocks, nc = _lattice_part(curve, lattice_traction, plan.tol)
    _checked_split(curve, curve, env)
    s = _free_space_split(curve, curve, env, slice(None))
    # (2 pi / N) sp_b (smooth split + cauchy J + traction of grad R^q), summed in place
    blocks += _blocks(s.d, s.pw, s.aw)[0]
    blocks += s.cauchy[:, :, None, None] * _J
    blocks *= (2.0 * np.pi / N) * sp[None, :, None, None]
    Q = hilbert_rule(N)
    blocks += env.gamma_c * np.pi * (Q * (sp[None, :] / sp[:, None]))[:, :, None, None] * _J
    return DenseBoundaryOperator(matrix=_blocks_to_matrix(blocks), lattice_nodes=nc)


def apply_at_midpoints(field, targets, env, cell, plan):
    """V mu and W* mu at the N midpoints t_i + pi/N, each (N, 2).

    targets is the midpoint geometry (_midpoints).  No kernel block and no
    N x N matrix is formed.  After both split checks (_checked_split), the
    smooth free-space split is contracted with the weighted density by
    lattice._grid_contract, in batches of about _PAIRS midpoint-node pairs.
    The half-shifted Kress log and Hilbert rules act on sp mu by one FFT each
    (_apply_rule).  The lattice part of V mu is a regular-part product and
    that of W* mu the traction, at the midpoint normals, of a regular-part
    gradient product, both from one lattice_product call.
    """
    curve = field.curve
    N = curve.N
    wmu = field.values * curve.weights[:, None]
    _checked_split(curve, targets, env)
    vmu, wsmu = np.empty((N, 2)), np.empty((N, 2))
    step = max(1, _PAIRS // N)
    for lo in range(0, N, step):
        tb = slice(lo, lo + step)
        s = _free_space_split(curve, targets, env, tb)
        vmu[tb] = _grid_contract(s.d, wmu, s.pv, s.av)[0]
        wsmu[tb] = _grid_contract(s.d, wmu, s.pw, s.aw)[0] + (s.cauchy @ wmu) @ _J.T
    del s  # the split's arrays are freed before the lattice product
    spmu = field.values * curve.speeds[:, None]
    shift = np.pi / N
    vmu += (env.alpha / (4.0 * np.pi)) * _apply_rule(_log_symbol, spmu, shift)
    wsmu += (env.gamma_c * np.pi / targets.speeds[:, None]) \
        * (_apply_rule(_hilbert_symbol, spmu, shift) @ _J.T)

    lattice, lattice_grad = lattice_product(targets.nodes, curve.nodes, wmu, env, cell, plan,
                                            periodic=False, values=True, grads=True)
    vmu += lattice
    wsmu += traction(lattice_grad, targets.normals, env.omega)
    return vmu, wsmu


def boundary_integral(field):
    """Componentwise arclength integral of a nodal vector field (trapezoid)."""
    return field.values.T @ field.curve.weights


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
    """Traction T(omega, Dv) nu of the single layer at off-boundary points.

    nu holds one normal for every point or one per point; other counts
    raise ValueError.
    """
    pts, nodes, dens, single = _off_boundary_sources(x, field, cell, upsample, warn)
    nus = np.atleast_2d(np.asarray(nu, dtype=float))
    if len(nus) not in (1, len(pts)):
        raise ValueError(
            f"nu holds {len(nus)} normals for {len(pts)} points: give one normal or one per point"
        )
    # Jacobian of v: Dv[p, j, m] = sum_b d_m Gamma_jk(x_p - y_b) mu_k w_b
    Dv = lattice_product(pts, nodes, dens, env, cell, plan, periodic=True,
                         values=False, grads=True)[1]
    out = traction(Dv, nus, env.omega)
    return out[0] if single else out
