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
itself takes the limits, and at the midpoints alike; its differences are
summed from the curve's series (_chords), so that the remainder, a
difference of two terms of size about N, keeps its digits at neighbouring
nodes.  One _checked_split re-verifies the split numerically at sampled
pairs for both.  The trapezoid rule takes the whole smooth kernel: the split
plus the lattice part, R^q for V and for W* the traction at the target
normals of the gradient of R^q.  Both are analytic on the (t, s) torus,
normals included, so _smooth_part evaluates their sum at the Nc nodes of a
coarse resampling of the curve (the lattice part by the target-source
evaluator, lattice.lattice_product, with no density); the dense matrix
interpolates it to the N nodes by trigonometric interpolation in t and in
s (_interpolate).  Nc starts at _COARSE_START and doubles until the
L1 size of the coarse blocks' outer band of 2D Fourier modes,
max(|m1|, |m2|) >= 7 Nc / 16, is below the plan's tail share (tol/20) of
their largest entry, or below the band rounding leaves at tight tol
(_ROUNDING Nc eps).  When two rejected grids predict that the next one
fails too, or at Nc = N, the smooth kernel is evaluated at the N nodes.
What is left at the N nodes is the trapezoid weights and the Kress log or
Hilbert node rule, a circulant whose one column _apply_rule gives.

Each operator keeps one form (DenseBoundaryOperator): the accepted smooth
kernel B at its Nc nodes (lattice_nodes), its curve (the weights and
speeds) and the node rule's column, target factor and 2 x 2 unit:

    V x  = P(B_V(P^T(w x))) + (alpha/(4 pi)) Kress(sp x),
    W* x = P(B_W(P^T(w x))) + (gamma_c pi / sp_a) Hilbert(sp x) J^T,

P = _interpolation_matrix(Nc, N).  Where 4 Nc <= N, the N/4 at which the
field's coarse grids stop too (_source_groups), _products applies V and W*
together by FFT (P^T and P on the modes, each rule by its multipliers):
0.1 ms for both at N = 512 against 0.6 ms for the two GEMVs (one BLAS
thread).  The two-grid set-up of both Robin solvers reads the same form:
_prolonged_products forms V (P x I_2) and R W* (P x I_2), P the two-grid's
interpolation, from B and the rules, with no (2N)-square array.  Elsewhere
products take the dense matrix, formed on its first read and kept (robin's
augmented system and auxiliary solve read it); at Nc = N the assembly
finishes the N-node kernel in place into it.

At the midpoints t_i + pi/N, apply_at_midpoints applies V and W* to a
density without a block or a matrix: both rules, shifted by half a node, act
by one FFT each (_apply_rule, with the node rules' symbols), and the smooth
kernel is summed over sources: the split contracted with the density by
lattice._grid_contract, and R^q a product against it.  The sources are the
Nc coarse nodes that the assembly's tail check accepted for this kernel on
the same torus, or the N nodes, and the density reaches them as P^T (w mu),
P = _interpolation_matrix(Nc, N), formed by FFT (_interpolation_adjoint):
for a kernel band-limited in s below Nc/2, sum_b f(s_b) (w mu)_b =
f_c^T P^T (w mu).  The targets are the exact midpoints, never the
interpolated matrix, so an under-resolved Nc shows in the off-node residual.

The off-boundary potentials eval_single_layer and eval_traction_offboundary
share one product (_layer_sum): Gamma^q(x - y) = K(x' - y) + R^q(x' - y),
with x' the image of the target nearest the hole.  The Kelvin part, a log
and a dyad, is contracted with w mu over the N nodes by _grid_contract; R^q,
analytic in s while x' stays away from the hole's other images, is a
lattice_product over the Nc nodes of curve.resample(Nc) against P^T (w mu),
as in the residual.  Nc is chosen per group of targets by the tail check in
s of the Kelvin terms of the 8 neighbouring images, which carry R^q's
nearest singularities, at the group's target nearest another image
(_source_groups), from _COARSE_START up to N/4; the targets no such grid
serves take the periodic kernel over the N nodes.  No P x M kernel block is
formed outside assembly.  The potentials evaluate and do not classify their
targets: refusing points inside a hole or on a node image and warning near
the boundary is left to robin.eval_solution.
"""

import functools
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla

from .cell import _SINGULAR_FRACTION, _batches, cell_coords
from .errors import AssemblyError, SingularArgumentError
from .kernels import kelvin, traction, traction_kernel
from .lattice import _TAIL_SHARE, _blocks, _dot, _grid_contract, lattice_product

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
    """Nystrom operator on node-major flattened vector fields, kept in one form.

    A x = P(B(P^T(w x))) + scale (rule(sp x)) unit^T, P =
    _interpolation_matrix(Nc, N): kernel is B, the (2Nc, 2Nc) node-major
    smooth kernel at the Nc nodes the assembly accepted (lattice_nodes),
    w and sp the weights and speeds of the N-node curve, and the node rule
    the circulant of column, (N,), times scale (N,) and the 2 x 2 unit.
    matrix, (2N, 2N), is formed on its first read and kept; concurrent first
    reads form equal arrays.  At Nc = N the assembly finishes the N-node
    kernel in place into the matrix: kernel is the matrix, the one
    (2N)-square array the operator holds.  Products (apply, _products,
    _prolonged_products) take the FFT form when 4 Nc <= N (by_fft), which
    keeps [w, sp] and the rule's multipliers from its first product, and the
    matrix otherwise.
    """

    kernel: np.ndarray
    curve: object
    column: np.ndarray
    scale: np.ndarray
    unit: np.ndarray

    @property
    def lattice_nodes(self):
        return len(self.kernel) // 2

    @property
    def by_fft(self):
        """Whether products act in the stored form: 4 Nc <= N, the field's N/4 stop."""
        return 4 * self.lattice_nodes <= self.curve.N

    @functools.cached_property
    def matrix(self):
        Nc, N = self.lattice_nodes, self.curve.N
        if Nc == N:
            return self.kernel
        return _nystrom_matrix(_interpolate(self.kernel.reshape(Nc, 2, Nc, 2).swapaxes(1, 2), N),
                               self)

    @functools.cached_property
    def _fft_factors(self):
        """[w, sp], (2, N), and the node rule's multipliers on the real-FFT modes, for products."""
        return np.stack([self.curve.weights, self.curve.speeds]), np.fft.rfft(self.column)

    def apply(self, field):
        return BoundaryVectorField(values=_products((self,), field.values)[0], curve=field.curve)


def _resampled_modes(F, n, out):
    """The real-FFT modes of the trig interpolant at M nodes of n nodal values, written to out.

    F holds the values' n // 2 + 1 real-FFT modes on its last axis, and out
    the M // 2 + 1 of the result.  The Nyquist mode n/2 is split evenly
    between +-n/2, and the modes are scaled by M/n, so that the inverse
    real FFT of length M gives the interpolant.
    """
    M, h = 2 * (out.shape[-1] - 1), n // 2
    np.multiply(F[..., :h], M / n, out=out[..., :h])
    np.multiply(F[..., h], 0.5 * M / n, out=out[..., h])
    out[..., h + 1:] = 0.0
    return out


def _coarse_values(F, Nc):
    """P^T v at the Nc nodes from the real-FFT modes F of nodal data v (last axis).

    P = _interpolation_matrix(Nc, N); P^T keeps the modes of v below Nc/2,
    and the two at +-Nc/2 averaged onto the Nyquist mode, which for real v
    is the real part of mode Nc/2: the inverse real FFT of length Nc
    discards its imaginary part.
    """
    return np.fft.irfft(F[..., :Nc // 2 + 1], n=Nc)


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
    F = np.fft.rfft(np.moveaxis(vals, 0, -1))
    G = _resampled_modes(F, N, np.empty(F.shape[:-1] + (M // 2 + 1,), dtype=complex))
    return np.ascontiguousarray(np.moveaxis(np.fft.irfft(G, n=M), -1, 0))


@functools.lru_cache(maxsize=8)
def _interpolation_matrix(Nc, N):
    """The N x Nc trigonometric interpolation matrix P = trig_resample(I, N), read-only.

    P maps nodal values at Nc nodes to the N nodes: the dense matrix's
    interpolation (_interpolate) and the two-grid solve and its set-up
    (_prolonged_products) read it.  Cached: it
    depends on Nc and N alone.
    """
    P = trig_resample(np.eye(Nc), N)
    P.flags.writeable = False
    return P


def _interpolation_adjoint(vals, Nc):
    """P^T vals for nodal data vals (N, ...), P = _interpolation_matrix(Nc, N), by FFT.

    The adjoint of trig_resample (_coarse_values).  It carries a weighted
    density to coarse sources, for the off-node residual and the field
    alike; the field's grids reach N/4, whose P would stay in
    _interpolation_matrix's cache (0.5 MB at N = 512).
    """
    coarse = _coarse_values(np.fft.rfft(np.moveaxis(vals, 0, -1)), Nc)
    return np.ascontiguousarray(np.moveaxis(coarse, -1, 0))


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
    (-1)^(a-b) / N at shift pi/N.  Applied to the first unit vector, it gives
    the column of each circulant node rule (kress_log_rule, hilbert_rule).
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
    return sla.circulant(_apply_rule(_log_symbol, np.eye(N, 1), 0.0)[:, 0])


def hilbert_rule(N):
    """Circulant quadrature for (1/2pi) pv int f(s) cot((t_a - s)/2) ds."""
    return sla.circulant(_apply_rule(_hilbert_symbol, np.eye(N, 1), 0.0)[:, 0])


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


def _chords(curve, t, dt_half, sin_half):
    """x(t_a) - x(s_b), (B, N, 2), for targets on the curve at parameters t (B,) and its nodes.

    dt_half is (t_a - s_b) / 2 and sin_half its sine.  Summed from the
    curve's trig series in product form, x(t) - x(s) = sum_m 2 sin(m h)
    (b_m cos(m sigma) - a_m sin(m sigma)) with h = (t - s)/2 and
    sigma = (t + s)/2, the bracket by the angle sums of t/2 and s/2 as one
    (B, 2, 2) x (2, N) product: every term carries its factor sin(m h) to
    full relative precision, so the chord of two close points keeps the
    digits that the difference of their rounded coordinates loses.
    """
    d = 0.0
    for m in range(1, curve.cos_coeffs.shape[1]):
        a, b = curve.cos_coeffs[:, m], curve.sin_coeffs[:, m]
        ct, st = np.cos(0.5 * m * t)[:, None], np.sin(0.5 * m * t)[:, None]
        # [i, 0] multiplies cos(m s/2) and [i, 1] sin(m s/2) in component i
        left = np.stack([b * ct - a * st, -(b * st + a * ct)], axis=-1)
        right = np.stack([np.cos(0.5 * m * curve.params), np.sin(0.5 * m * curve.params)])
        sh = 2.0 * (sin_half if m == 1 else np.sin(m * dt_half))
        d = d + sh[..., None] * (left @ right).transpose(0, 2, 1)
    return d


def _free_space_split(curve, targets, env, rows):
    """The smooth free-space split at some targets against the N nodes, as scalar arrays.

    targets is the midpoint geometry (_midpoints) or the curve itself; rows
    indexes it (a slice or an index array of B targets).  V's smooth part is
    pv delta_jk + av d_j d_k and W*'s pw delta_jk + aw d_j d_k + cauchy J,
    the form of lattice._blocks; each is a (B, N) array, with the (B, N, 2)
    differences d, and sin2 and cot of the half parameter differences for
    the split checks.  d is summed from the curve's series (_chords).  A
    node against itself takes the limits, with the tangent d1 in place of
    d: pv = alpha/(4 pi) log sp^2, av = -beta/(4 pi sp^2),
    pw = -gamma_c d2n/(2 sp^2), aw = -beta/(2 pi) d2n/sp^4 and
    cauchy = gamma_c d1.d2/(2 sp^3), with d2n = x''.nu.
    """
    alpha, beta, gamma_c = env.alpha, env.beta, env.gamma_c
    dt_half = 0.5 * (targets.params[rows, None] - curve.params[None, :])
    sin_half = np.sin(dt_half)
    d = _chords(curve, targets.params[rows], dt_half, sin_half)
    if targets is curve:
        a = np.arange(curve.N)[rows]
        self_pairs = (np.arange(a.size), a)
        d[self_pairs] = curve.d1[a]
        # finite stand-ins; the limits below replace what they feed
        dt_half[self_pairs] = 0.5 * np.pi
        sin_half[self_pairs] = 1.0
    r2 = _dot(d, d)
    sin2 = 4.0 * sin_half ** 2
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


def _tail_share(samples, torus=2):
    """Size of the outer band of the Fourier coefficients of samples on an Nc-node torus.

    samples is (Nc,) * torus + (2, 2) or + (2, 2, 2): the assembly's blocks
    on the (t, s) torus (torus 2) or a kernel's samples in s (torus 1).  The
    L1 sum, over all entries, of the coefficients with max |m_i| >= _BAND * Nc,
    over the largest entry of the samples.
    """
    Nc = samples.shape[0]
    axes = tuple(range(torus))
    coeffs = np.fft.fftn(samples, axes=axes) / Nc ** torus
    m = np.abs(np.fft.fftfreq(Nc, d=1.0 / Nc))
    band = functools.reduce(np.maximum.outer, [m] * torus) >= _BAND * Nc
    return float(np.sum(np.abs(coeffs[band])) / np.max(np.abs(samples)))


def _tail_budget(tol, Nc):
    """The largest _tail_share an Nc-node grid may leave: tol's tail share, or rounding's band."""
    return max(_TAIL_SHARE * tol, _ROUNDING * Nc * np.finfo(float).eps)


def _interpolate(blocks, N):
    """Trig interpolation of (Nc, Nc, 2, 2) samples on the torus to the (2N, 2N) node-major matrix.

    Each entry becomes P B P^T, P = _interpolation_matrix(Nc, N): two GEMMs
    for all four entries, the second writing row 2a + j, column 2b + k of
    block (a, b) in place.
    """
    Nc = blocks.shape[0]
    P = _interpolation_matrix(Nc, N)
    # X[c, j, b, k] = sum_d B[c, d, j, k] P[b, d], then P X
    X = (blocks.transpose(0, 2, 3, 1).reshape(4 * Nc, Nc) @ P.T).reshape(Nc, 2, 2, N)
    return (P @ X.swapaxes(2, 3).reshape(Nc, 4 * N)).reshape(2 * N, 2 * N)


def _smooth_part(curve, blocks_of, tol):
    """The smooth kernel at its Nc nodes, (2Nc, 2Nc) node-major.

    blocks_of maps a curve of n nodes to (n, n, 2, 2) blocks of the smooth
    kernel, free-space split plus lattice part, analytic on the (t, s)
    torus.  From Nc = _COARSE_START, doubling, it is evaluated at the nodes
    of curve.resample(Nc), and accepted when its _tail_share is below the
    plan's tail share of tol or, at tight tol, below the band that rounding
    alone leaves (_ROUNDING Nc eps).  The shares of two rejected grids
    predict the next one's, as the coefficients decay exponentially; when
    the prediction fails too, or Nc reaches N, it is evaluated at the N nodes.
    """
    N = curve.N
    Nc, previous = _COARSE_START, None
    while Nc < N:
        coarse = blocks_of(curve.resample(Nc))
        share = _tail_share(coarse)
        if share < _tail_budget(tol, Nc):
            return _blocks_to_matrix(coarse)
        if previous is not None and share * (share / previous) ** 2 >= _tail_budget(tol, 2 * Nc):
            break
        Nc, previous = 2 * Nc, share
    return _blocks_to_matrix(blocks_of(curve))


def _nystrom_matrix(smooth, op):
    """op's (2N, 2N) matrix, finished in place from smooth, its smooth kernel at the N nodes.

    smooth is weighted by the weights w_b, and the node rule circulant(column)
    on sp_b, times scale_a at each target and the 2 x 2 unit, is added.
    """
    smooth *= np.repeat(op.curve.weights, 2)
    rule = op.scale[:, None] * (sla.circulant(op.column) * op.curve.speeds[None, :])
    for j, k in zip(*np.nonzero(op.unit)):
        smooth[j::2, k::2] += op.unit[j, k] * rule
    return smooth


def _assemble(curve, env, blocks_of, tol, symbol, scale, unit):
    """Nystrom operator: the trapezoid rule on _smooth_part's kernel plus a singular node rule.

    The node rule's multiplier on e^{ims} is symbol(m) (_apply_rule gives
    its column); it acts on sp_b, times scale_a at each target and the 2 x 2
    unit.  At Nc = N the kernel is finished in place into the matrix.
    """
    _checked_split(curve, curve, env)
    column = _apply_rule(symbol, np.eye(curve.N, 1), 0.0)[:, 0].copy()
    op = DenseBoundaryOperator(_smooth_part(curve, blocks_of, tol), curve, column, scale, unit)
    if op.lattice_nodes == curve.N:
        _nystrom_matrix(op.kernel, op)
    return op


def assemble_single_layer(curve, env, cell, plan):
    """Nystrom operator of the periodic single layer on the curve.

    The smooth kernel, the free-space split pv delta + av d d plus R^q, is
    evaluated at a coarse grid where its tail allows (_smooth_part) and
    weighted by the trapezoid rule; the Kress log rule carries the log part.
    The operator's lattice_nodes is the Nc of the smooth kernel.
    """

    def smooth(c):
        blocks = lattice_product(c.nodes, c.nodes, None, env, cell, plan, periodic=False)[0]
        s = _free_space_split(c, c, env, slice(None))
        blocks += _blocks(s.d, s.pv, s.av)[0]
        return blocks

    return _assemble(curve, env, smooth, plan.tol, _log_symbol,
                     np.broadcast_to(env.alpha / (4.0 * np.pi), curve.N), np.eye(2))


def assemble_wstar(curve, env, cell, plan):
    """Nystrom operator of the traction of the periodic single layer.

    The target-normal traction kernel splits into a Cauchy part carried by
    the spectral Hilbert rule and a smooth kernel: the free-space split
    pw delta + aw d d + cauchy J plus the traction at the target normals of
    the gradient of R^q.  The smooth kernel is analytic on the torus,
    normals included, so it is formed at the coarse nodes where its tail
    allows (_smooth_part); the operator's lattice_nodes is its Nc.
    """

    def smooth(c):
        # column k of block (a, b) is T(omega, A) nu_a, A_jm = d_m R^q_jk(x_a - x_b),
        # contracted with the column axis k moved ahead of (j, m); the
        # (n, n, 2, 2, 2) gradient is freed before the split's arrays
        grads = lattice_product(c.nodes, c.nodes, None, env, cell, plan, periodic=False,
                                values=False, grads=True)[1]
        blocks = traction(grads.swapaxes(2, 3), c.normals[:, None, None, :], env.omega) \
            .swapaxes(2, 3)
        del grads
        s = _free_space_split(c, c, env, slice(None))
        blocks += _blocks(s.d, s.pw, s.aw)[0]
        blocks += s.cauchy[:, :, None, None] * _J
        return blocks

    return _assemble(curve, env, smooth, plan.tol, _hilbert_symbol,
                     env.gamma_c * np.pi / curve.speeds, _J)


def _products(ops, x):
    """[A x for A in ops] for nodal data x, (N, 2) or columns (N, 2, m), on the operators' curve.

    Each product has x's shape.  An operator with 4 Nc > N takes its dense
    matrix: a GEMV on a field, bit for bit what its matrix gives.  The
    others act in their stored form and share one forward real FFT of
    [w x, sp x], with the nodes on the last axis, where it is contiguous.
    For each coarse Nc, P^T (w x) is read from its modes (_coarse_values);
    each B acts on it at the Nc nodes, and its result is carried to the N
    modes (_resampled_modes, as in trig_resample).  Each node rule
    multiplies the modes of sp x by the real FFT of its column
    (_fft_factors).  One inverse real FFT gives every smooth part and every
    rule part; a rule part is then taken times its unit and target factor.
    """
    N = x.shape[0]
    out, by_fft = [None] * len(ops), []
    for i, op in enumerate(ops):
        if op.by_fft:
            by_fft.append((i, op))
        elif x.ndim == 2:
            out[i] = (op.matrix @ x.reshape(-1)).reshape(x.shape)
        else:
            out[i] = (op.matrix @ x.reshape(2 * N, -1)).reshape(x.shape)
    if not by_fft:
        return out
    m, k = x.size // (2 * N), len(by_fft)
    # [w x, sp x] as (2, 2m, N/2 + 1) modes; row j m + c is column c of component j
    F = np.fft.rfft(by_fft[0][1]._fft_factors[0][:, None] * x.reshape(N, 2 * m).T)
    modes = np.empty((2 * k, 2 * m, N // 2 + 1), dtype=complex)
    densities = {}
    for j, (_, op) in enumerate(by_fft):
        Nc = op.lattice_nodes
        if Nc not in densities:
            # P^T (w x) as node-major (2 Nc, m) columns
            densities[Nc] = _coarse_values(F[0], Nc).reshape(2, m, Nc).transpose(2, 0, 1) \
                .reshape(2 * Nc, m)
        smooth = (op.kernel @ densities[Nc]).reshape(Nc, 2 * m).T
        _resampled_modes(np.fft.rfft(smooth), Nc, modes[j])
        np.multiply(op._fft_factors[1], F[1], out=modes[k + j])
    del F
    parts = np.fft.irfft(modes, n=N)
    for j, (i, op) in enumerate(by_fft):
        rule = (op.unit @ parts[k + j].reshape(2, m * N)).reshape(2, m, N)
        rule *= op.scale
        rule += parts[j].reshape(2, m, N)
        out[i] = np.ascontiguousarray(rule.transpose(2, 0, 1)).reshape(x.shape)
    return out


def _prolonged_products(op, Nc, rows=None):
    """rows A (P x I_2) for the operator A, P = _interpolation_matrix(Nc, N), as (m, 2, 2 Nc).

    Column 2c + k is A applied to P[:, c] in component k; rows, (m, N),
    acts on the node axis (None: the identity, m = N).  Where A acts by FFT
    (by_fft) it is formed from A's stored form: the smooth part is
    P_A B (M x I_2), M = P_A^T diag(w) P (P_A at A's Nc_A nodes), and the
    node rule acts on the Nc columns of sp P by one real FFT each way; rows
    meets P_A and the rule part before they reach the N nodes.  Otherwise
    it is _products on the 2 Nc columns of P x I_2.
    """
    N = op.curve.N
    P = _interpolation_matrix(Nc, N)
    if not op.by_fft:
        columns = np.zeros((N, 2, Nc, 2))
        columns[:, 0, :, 0] = columns[:, 1, :, 1] = P
        out = _products((op,), columns.reshape(N, 2, 2 * Nc))[0]
        return out if rows is None else (rows @ out.reshape(N, -1)).reshape(-1, 2, 2 * Nc)
    (w, sp), multipliers = op._fft_factors
    Na = op.lattice_nodes
    PA = _interpolation_matrix(Na, N)
    M = PA.T @ (w[:, None] * P)
    # B (M x I_2): [r, b, k] against M[b, c], one GEMM, then node-major [a, j, c, k]
    BM = op.kernel.reshape(2 * Na, Na, 2).swapaxes(1, 2).reshape(4 * Na, Na) @ M
    BM = BM.reshape(2 * Na, 2, Nc).swapaxes(1, 2).reshape(Na, 4 * Nc)
    rule = op.scale[:, None] * np.fft.irfft(
        multipliers[:, None] * np.fft.rfft(sp[:, None] * P, axis=0), n=N, axis=0)
    if rows is not None:
        PA, rule = rows @ PA, rows @ rule
    out = (PA @ BM).reshape(-1, 2, Nc, 2)
    for j, k in zip(*np.nonzero(op.unit)):
        out[:, j, :, k] += op.unit[j, k] * rule
    return out.reshape(-1, 2, 2 * Nc)


def apply_at_midpoints(field, targets, env, cell, plan, nodes):
    """V mu and W* mu at the N midpoints t_i + pi/N, each (N, 2).

    targets is the midpoint geometry (_midpoints).  No kernel block and no
    N x N matrix is formed.  After both split checks (_checked_split), the
    smooth kernel is summed over the nodes of curve.resample(nodes), nodes
    being a coarse Nc or N: the weighted density w mu at the N nodes is
    carried there by P^T, P = _interpolation_matrix(Nc, N), formed by FFT
    (_interpolation_adjoint), which is exact for a kernel band-limited in s
    below Nc/2, as the Nc an assembly accepted
    (DenseBoundaryOperator.lattice_nodes) is.  The free-space split is
    contracted with that density by lattice._grid_contract, in batches of
    about cell._PAIRS midpoint-source pairs (_batches); the lattice part of
    V mu is a regular-part product and that of W* mu the traction, at the
    midpoint normals, of a regular-part gradient product, both from one
    lattice_product call.  The half-shifted Kress log and Hilbert rules act
    on sp mu at the N nodes by one FFT each (_apply_rule).
    """
    curve = field.curve
    N = curve.N
    wmu = field.values * curve.weights[:, None]
    _checked_split(curve, targets, env)
    sources, wsrc = curve, wmu
    if nodes != N:
        sources, wsrc = curve.resample(nodes), _interpolation_adjoint(wmu, nodes)
    vmu, wsmu = np.empty((N, 2)), np.empty((N, 2))
    for tb in _batches(N, sources.N):
        s = _free_space_split(sources, targets, env, tb)
        vmu[tb] = _grid_contract(s.d, wsrc, s.pv, s.av)[0]
        wsmu[tb] = _grid_contract(s.d, wsrc, s.pw, s.aw)[0] + (s.cauchy @ wsrc) @ _J.T
    del s  # the split's arrays are freed before the lattice product
    spmu = field.values * curve.speeds[:, None]
    shift = np.pi / N
    vmu += (env.alpha / (4.0 * np.pi)) * _apply_rule(_log_symbol, spmu, shift)
    wsmu += (env.gamma_c * np.pi / targets.speeds[:, None]) \
        * (_apply_rule(_hilbert_symbol, spmu, shift) @ _J.T)

    lattice, lattice_grad = lattice_product(targets.nodes, sources.nodes, wsrc, env, cell, plan,
                                            periodic=False, values=True, grads=True)
    vmu += lattice
    wsmu += traction(lattice_grad, targets.normals, env.omega)
    return vmu, wsmu


def boundary_integral(field):
    """Componentwise arclength integral of a nodal vector field (trapezoid)."""
    return field.values.T @ field.curve.weights


def _kelvin_coeffs(r2, env, grads):
    """The Kelvin matrix at d with |d|^2 = r2 in lattice._blocks' form: (p, A, C, Bc).

    p = (alpha/(4 pi)) log r^2 and A = -(beta/(4 pi))/r^2; with grads, the
    gradient's C = (alpha/(2 pi))/r^2 and Bc = (beta/(2 pi))/r^4, else None.
    """
    inv = 1.0 / r2
    p = (env.alpha / (4.0 * np.pi)) * np.log(r2)
    A = -(env.beta / (4.0 * np.pi)) * inv
    if not grads:
        return p, A, None, None
    return p, A, (env.alpha / (2.0 * np.pi)) * inv, (env.beta / (2.0 * np.pi)) * inv * inv


def _hole_images(pts, coarse, cell):
    """The image x' of each point (P, 2) nearest the hole, and its distance to the other images.

    Distances are in the parameter: a Kelvin term K(x - y(s)) is analytic in
    s up to |Im s| = tau, which sets the decay of its Fourier coefficients.
    From the node b of the coarse curve nearest in d / |y'(t_b)|,
    d = |x - y_b|, tau is taken on the osculating circle there, of signed
    curvature kappa_b: tau = (d / |y'(t_b)|) log(1 + k) / k, k = +-kappa_b d
    (+ on the side the normal points to), exact on a circle and the
    first-order d / |y'(t_b)| as k -> 0; k is held at -1/2 or above, where
    the circle's singularity recedes.  The hole lies in the cell box [0, q)
    (discretize_curve), so the image nearest it and the next nearest are
    among the point's representative in the box shifted by q z,
    z in {-1, 0, 1}^2.  The distances order the points and pick their image;
    they decide nothing about accuracy.
    """
    q = np.asarray(cell.q_diag)
    box = cell_coords(pts, cell)
    nodes, inv_sp2 = coarse.nodes, 1.0 / coarse.speeds ** 2
    z = np.array([-1.0, 0.0, 1.0])
    x = box + q * np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1)[:, :, None, :]
    nearest = np.empty(x.shape[:-1], dtype=int)
    for blk in _batches(len(box), coarse.N):
        # x[z1, z2, p] = box_p + q z: its first component varies with z1 alone
        # and its second with z2, so the squared parameter distances to the
        # nodes, [z1, z2, p, b], are sums of two (3, B, n) arrays
        gx = (x[:, 0, blk, None, 0] - nodes[:, 0]) ** 2
        gy = (x[0, :, blk, None, 1] - nodes[:, 1]) ** 2
        nearest[:, :, blk] = np.argmin((gx[:, None] + gy[None, :]) * inv_sp2, axis=-1)
    d1, d2 = coarse.d1, coarse.d2
    kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / coarse.speeds ** 3
    d = x - nodes[nearest]
    sp = coarse.speeds[nearest]
    r = np.sqrt(_dot(d, d))
    k = np.maximum(np.sign(_dot(d, coarse.normals[nearest])) * kappa[nearest] * r, -0.5)
    g = np.divide(np.log1p(k), k, out=np.ones_like(k), where=k != 0.0)
    tau = (r / sp * g).reshape(9, -1)
    own = np.argmin(tau, axis=0)
    images = box + q * (np.column_stack(np.divmod(own, 3)) - 1.0)
    return images, np.partition(tau, 1, axis=0)[1]


def _neighbour_kelvin(x, nodes, env, shifts, grads):
    """The Kelvin matrix, or its gradient, at x - y_b - s summed over the shifts s (8, 2).

    (n, 2, 2) values or (n, 2, 2, 2) gradients at the n nodes y_b.  The
    shifts are q z for the 8 z next to 0, whose Kelvin terms carry the
    singularities of R^q(x - y(s)) nearest the curve, so their Fourier tail
    in s stands for R^q's.
    """
    d = x - nodes[None, :, :] - shifts[:, None, :]
    parts = _blocks(d, *_kelvin_coeffs(_dot(d, d), env, grads))
    return parts[int(grads)].sum(axis=0)


def _source_groups(pts, curve, env, cell, tol, grads):
    """The points' images x', their groups as (coarse nodes, indices), and the other indices.

    x' is the image nearest the hole (_hole_images).  From Nc =
    _COARSE_START, doubling up to N/4, a point is certified when the Fourier
    tail in s of the 8 neighbour Kelvin terms (_neighbour_kelvin) at the Nc
    nodes of the curve, at x', is below _tail_budget(tol, Nc), as
    _smooth_part's tail check is.  The points are taken by falling distance
    to the hole's other images; each Nc is tested at the farthest point not
    yet certified and, when it fails there, by bisection, and serves the
    points up to the last that passes, so every group is certified at its
    point nearest another image.  The indices of the points no grid
    certifies are returned apart.  Grids stop at N/4: an R^q pair costs
    about what a pair of the periodic kernel does, so with the Kelvin part
    over the N nodes a grid of N/2 sources saves nothing.
    """
    if 4 * _COARSE_START > curve.N:
        return pts, [], np.arange(len(pts))
    coarse = curve.resample(_COARSE_START)
    images, other = _hole_images(pts, coarse, cell)
    order = np.argsort(-other, kind="stable")
    z = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)
    shifts = z * np.asarray(cell.q_diag)
    groups, start, Nc = [], 0, _COARSE_START
    while 4 * Nc <= curve.N and start < len(order):
        nodes = coarse.nodes if Nc == _COARSE_START else curve.resample(Nc).nodes
        fails = lambda i: _tail_share(
            _neighbour_kelvin(images[order[i]], nodes, env, shifts, grads), torus=1,
        ) >= _tail_budget(tol, Nc)
        end = len(order)
        if fails(end - 1):
            end = bisect_left(range(start, end - 1), True, key=fails) + start
        if end > start:
            groups.append((nodes, order[start:end]))
        start, Nc = end, 2 * Nc
    return images, groups, order[start:]


def _kelvin_sum(x, curve, wmu, env, cell, grads):
    """sum_b K(x_p - y_b) (w mu)_b over the N nodes, (P, 2), or with grads its gradient, (P, 2, 2).

    The Kelvin matrix is a log and a dyad in _blocks' form, contracted by
    lattice._grid_contract in blocks of about cell._PAIRS pairs (_batches).
    A point within the singular distance of a node raises
    SingularArgumentError.
    """
    out = np.empty((len(x), 2, 2) if grads else (len(x), 2))
    singular = (_SINGULAR_FRACTION * cell.min_edge) ** 2
    for tb in _batches(len(x), curve.N):
        d = x[tb, None, :] - curve.nodes[None, :, :]
        r2 = _dot(d, d)
        if np.min(r2) <= singular:
            raise SingularArgumentError("point lies on a boundary node image")
        out[tb] = _grid_contract(d, wmu, *_kelvin_coeffs(r2, env, grads))[int(grads)]
    return out


def _layer_sum(x, field, env, cell, plan, grads):
    """sum_b Gamma^q(x_p - y_b) (w mu)_b at points x (P, 2), or its gradient, indexed [p, j, m].

    The one product of both potentials.  Gamma^q(x - y) = K(x' - y)
    + R^q(x' - y), with x' the image of x nearest the hole (_hole_images):
    the Kelvin part is summed over the N nodes (_kelvin_sum) and R^q, smooth
    in s away from the hole's other images, over the Nc nodes of
    curve.resample(Nc) by lattice_product(periodic=False), against
    P^T (w mu) (_interpolation_adjoint), as in apply_at_midpoints.  Nc is
    certified per group of points (_source_groups).  The points no grid
    certifies take the periodic kernel over the N nodes.
    """
    curve = field.curve
    x = np.asarray_chkfinite(x, dtype=float)
    wmu = field.values * curve.weights[:, None]
    out = np.empty((len(x), 2, 2) if grads else (len(x), 2))
    images, groups, rest = _source_groups(x, curve, env, cell, plan.tol, grads)
    for nodes, idx in groups:
        kelvin = _kelvin_sum(images[idx], curve, wmu, env, cell, grads)
        smooth = lattice_product(images[idx], nodes, _interpolation_adjoint(wmu, len(nodes)),
                                 env, cell, plan, periodic=False, values=not grads,
                                 grads=grads)[int(grads)]
        out[idx] = kelvin + smooth
    if len(rest):
        out[rest] = lattice_product(x[rest], curve.nodes, wmu, env, cell, plan, periodic=True,
                                    values=not grads, grads=grads)[int(grads)]
    return out


def eval_single_layer(x, field, env, cell, plan):
    """Periodic single-layer potential at off-boundary points x.

    Plain trapezoid against the periodic Green's matrix, the Kelvin part
    over the nodes and R^q over certified coarse sources (_layer_sum);
    accuracy degrades within a few node spacings of the boundary.  The
    points are not classified: a point inside a hole gets the potential's
    value there, and one within the singular distance of a node image
    raises SingularArgumentError (robin.eval_solution refuses and flags such
    points first).
    """
    x = np.asarray(x, dtype=float)
    out = _layer_sum(np.atleast_2d(x), field, env, cell, plan, grads=False)
    return out[0] if x.ndim == 1 else out


def eval_traction_offboundary(x, nu, field, env, cell, plan):
    """Traction T(omega, Dv) nu of the single layer at off-boundary points.

    Dv is the gradient of the product of eval_single_layer (_layer_sum).  nu
    holds one normal for every point or one per point; other counts raise
    ValueError.  A finer quadrature is the field resampled (field.resample,
    exact trigonometric resampling of curve and density).  The points are
    not classified, as in eval_single_layer.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    nus = np.atleast_2d(np.asarray(nu, dtype=float))
    if len(nus) not in (1, len(pts)):
        raise ValueError(
            f"nu holds {len(nus)} normals for {len(pts)} points: give one normal or one per point"
        )
    # Jacobian of v: Dv[p, j, m] = sum_b d_m Gamma_jk(x_p - y_b) mu_k w_b
    out = traction(_layer_sum(pts, field, env, cell, plan, grads=True), nus, env.omega)
    return out[0] if x.ndim == 1 else out
