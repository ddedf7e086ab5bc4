from types import SimpleNamespace

import numpy as np
import pytest

import perilame.operators as operators
from perilame.cell import (
    CircleShape,
    EllipseShape,
    TrigShape,
    build_cell,
    discretize_curve,
    hole_area,
)
from perilame.errors import AssemblyError, NearBoundaryWarning
from perilame.kernels import LameEnv, traction_kernel
from perilame.lattice import plan_lattice_sum
from perilame.operators import (
    BoundaryMatrixField,
    BoundaryVectorField,
    _apply_rule,
    _free_space_split,
    _hilbert_symbol,
    _log_symbol,
    _midpoints,
    apply_at_midpoints,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    eval_traction_offboundary,
    hilbert_rule,
    kress_log_rule,
    trig_resample,
)
from perilame.special import EULER_GAMMA, exp1
from perilame.verify import lame_apply_fd

UNIT = build_cell([1.0, 1.0])
ENV1 = LameEnv(2, 1.0)


@pytest.fixture(scope="module")
def plan1():
    return plan_lattice_sum(UNIT, ENV1, 1e-11)


@pytest.fixture(scope="module")
def circle128():
    return discretize_curve(CircleShape([0.5, 0.5], 0.25), 128, UNIT)


@pytest.fixture(scope="module")
def ops128(circle128, plan1):
    V = assemble_single_layer(circle128, ENV1, UNIT, plan1)
    W = assemble_wstar(circle128, ENV1, UNIT, plan1)
    return V, W


def test_kress_rule_integrates_log_kernel_exactly():
    N = 32
    t = 2 * np.pi * np.arange(N) / N
    KL = kress_log_rule(N)
    assert np.max(np.abs(KL @ np.ones(N))) < 1e-13
    for m in (1, 3, 7, 15):
        got = KL @ np.cos(m * t)
        assert np.max(np.abs(got + (2 * np.pi / m) * np.cos(m * t))) < 1e-13


def test_hilbert_rule_conjugates_trig_modes():
    N = 32
    t = 2 * np.pi * np.arange(N) / N
    Q = hilbert_rule(N)
    assert np.max(np.abs(Q @ np.ones(N))) < 1e-14
    for m in (1, 2, 5, 10):
        assert np.max(np.abs(Q @ np.cos(m * t) - np.sin(m * t))) < 1e-13
        assert np.max(np.abs(Q @ np.sin(m * t) + np.cos(m * t))) < 1e-13


def test_hilbert_rule_against_principal_value():
    N = 64
    t = 2 * np.pi * np.arange(N) / N
    Q = hilbert_rule(N)
    f = np.exp(np.cos(t))
    fine = 2 * np.pi * (np.arange(1 << 14) + 0.5) / (1 << 14)
    # symmetric midpoint sampling realizes the principal value
    brute = np.sum(np.exp(np.cos(fine)) / np.tan((t[3] - fine) / 2)) / (1 << 14)
    assert abs((Q @ f)[3] - brute) < 1e-10


def _node_rules(N):
    """The node-target log and Hilbert rules as first written: one symbol each."""
    m = np.fft.fftfreq(N, d=1.0 / N)
    lam = np.zeros(N)
    lam[m != 0] = -2.0 * np.pi / np.abs(m[m != 0])
    sig = -1j * np.sign(m)
    sig[np.abs(m) == N // 2] = 0.0
    F = np.fft.fft(np.eye(N), axis=0)
    return (np.real(np.fft.ifft(lam[:, None] * F, axis=0)),
            np.real(np.fft.ifft(sig[:, None] * F, axis=0)))


@pytest.mark.parametrize("N", [8, 16, 64])
def test_shifted_rules_at_zero_shift_are_the_node_rules(N):
    KL, Q = _node_rules(N)
    assert np.array_equal(_apply_rule(_log_symbol, np.eye(N), 0.0), KL)
    assert np.array_equal(_apply_rule(_hilbert_symbol, np.eye(N), 0.0), Q)
    assert np.array_equal(kress_log_rule(N), KL)
    assert np.array_equal(hilbert_rule(N), Q)


@pytest.mark.parametrize("N", [8, 16, 64])
def test_half_shifted_rules_exact_on_trig_polynomials(N):
    # targets t_a + pi/N against the nodes t_b: the log integral maps e^{imt}
    # to -2 pi/|m| e^{im(t + pi/N)}, the conjugation maps cos to sin
    shift = np.pi / N
    t = 2 * np.pi * np.arange(N) / N
    tm = t + shift
    KL = _apply_rule(_log_symbol, np.eye(N), shift)
    Q = _apply_rule(_hilbert_symbol, np.eye(N), shift)
    assert np.max(np.abs(KL @ np.ones(N))) < 1e-13
    assert np.max(np.abs(Q @ np.ones(N))) < 1e-13
    for m in range(1, N // 2):
        for f, g in ((np.cos, np.sin), (np.sin, lambda x: -np.cos(x))):
            assert np.max(np.abs(KL @ f(m * t) + (2 * np.pi / m) * f(m * tm))) < 1e-13
            assert np.max(np.abs(Q @ f(m * t) - g(m * tm))) < 1e-13
    # the Nyquist mode (-1)^b is interpolated by cos((N/2) s)
    alt = np.cos(N // 2 * t)
    assert np.max(np.abs(KL @ alt + (4 * np.pi / N) * np.cos(N // 2 * tm))) < 1e-13
    assert np.max(np.abs(Q @ alt - np.sin(N // 2 * tm))) < 1e-13


ELLIPSE4 = EllipseShape([0.5, 0.5], (0.3, 0.15), rotation=0.4)


@pytest.mark.parametrize("shape, omega", [
    (CircleShape([0.5, 0.5], 0.25), 1.0),
    (ELLIPSE4, 4.0),
], ids=["circle", "ellipse-omega4"])
def test_midpoint_products_match_2n_odd_rows(shape, omega):
    # the matrix-free products at the midpoints against the odd rows of V and
    # W* assembled at 2N, applied to the density resampled to 2N
    N = 128
    env = LameEnv(2, omega)
    plan = plan_lattice_sum(UNIT, env, 1e-11)
    curve = discretize_curve(shape, N, UNIT)
    t = curve.params
    mu = BoundaryVectorField(
        np.column_stack([np.cos(t) + 0.3 * np.sin(3 * t), 0.5 - np.sin(2 * t)]), curve
    )
    vmu, wmu = apply_at_midpoints(mu, _midpoints(curve), env, UNIT, plan)
    fine = mu.resample(2 * N)
    V2 = assemble_single_layer(fine.curve, env, UNIT, plan)
    W2 = assemble_wstar(fine.curve, env, UNIT, plan)
    assert np.max(np.abs(vmu - V2.apply(fine).values[1::2])) < 1e-13
    assert np.max(np.abs(wmu - W2.apply(fine).values[1::2])) < 1e-13


# the lattice part of V and W* against its N^2 evaluation: (name, cell edges,
# shape, N, tol, the node counts the tail check may choose)
COARSE_CASES = [
    ("circle", (1.0, 1.0), CircleShape([0.5, 0.5], 0.25), 512, 1e-10, (64, 128)),
    ("circle-tol-1e-13", (1.0, 1.0), CircleShape([0.5, 0.5], 0.25), 512, 1e-13, (64, 128)),
    ("ellipse", (1.0, 1.0), EllipseShape([0.5, 0.5], (0.2, 0.4), rotation=0.3), 256, 1e-10,
     (128,)),
    ("ellipse-cell-1x4", (1.0, 4.0), EllipseShape([0.5, 2.0], (0.3, 0.8), rotation=0.3), 512,
     1e-10, (256,)),
    ("circle-0.45", (1.0, 1.0), CircleShape([0.5, 0.5], 0.45), 512, 1e-10, (512,)),
]


def _coarse_setup(edges, shape, N, tol):
    cell = build_cell(edges)
    return cell, plan_lattice_sum(cell, ENV1, tol), discretize_curve(shape, N, cell)


def _assembled(curve, cell, plan):
    return (assemble_single_layer(curve, ENV1, cell, plan),
            assemble_wstar(curve, ENV1, cell, plan))


def _tried_grids(monkeypatch):
    """The coarse blocks whose tail the assemblers check, in order."""
    tried = []
    check = operators._tail_share

    def recorded(blocks):
        tried.append(blocks)
        return check(blocks)

    monkeypatch.setattr(operators, "_tail_share", recorded)
    return tried


@pytest.mark.parametrize("edges, shape, N, tol, chosen",
                         [case[1:] for case in COARSE_CASES], ids=[c[0] for c in COARSE_CASES])
def test_coarse_lattice_part_matches_node_pairs(monkeypatch, edges, shape, N, tol, chosen):
    # the interpolated lattice part leaves V and W* as the N^2 evaluation
    # makes them, to 1e-12 of their largest entry, at tol 1e-10 and where
    # rounding floors the tail check (tol 1e-13); the circle r = 0.45 comes
    # close to its images and is evaluated at the N nodes
    cell, plan, curve = _coarse_setup(edges, shape, N, tol)
    ops = _assembled(curve, cell, plan)
    monkeypatch.setattr(operators, "_COARSE_START", N)
    today = _assembled(curve, cell, plan)
    for op, ref in zip(ops, today):
        assert op.lattice_nodes in chosen
        assert ref.lattice_nodes == N
        assert np.max(np.abs(op.matrix - ref.matrix)) <= 1e-12 * np.max(np.abs(ref.matrix))


def test_tail_check_rejects_a_coarse_grid_too_small(monkeypatch):
    # on the ellipse, 32 nodes leave a tail above the budget, and their
    # interpolant misses the accepted one by more than 1e-12 of its size;
    # started at 32, the lattice part doubles past 32 and 64 to 128
    _, edges, shape, N, tol, chosen = COARSE_CASES[2]
    cell, plan, curve = _coarse_setup(edges, shape, N, tol)
    monkeypatch.setattr(operators, "_COARSE_START", 32)
    tried = _tried_grids(monkeypatch)
    for assemble in (assemble_single_layer, assemble_wstar):
        tried.clear()
        assert assemble(curve, ENV1, cell, plan).lattice_nodes in chosen
        assert [len(blocks) for blocks in tried] == [32, 64, 128]
        first, accepted = tried[0], operators._interpolate(tried[-1], N)
        assert operators._tail_share(first) > operators._TAIL_SHARE * plan.tol
        miss = np.max(np.abs(operators._interpolate(first, N) - accepted))
        assert miss > 1e-12 * np.max(np.abs(accepted))


def test_tail_check_stops_when_the_next_grid_would_fail(monkeypatch):
    # on the circle r = 0.45 at N = 512 the tails at 64 and 128 nodes predict
    # that 256 fail as well, so the lattice part goes to the N nodes after
    # two coarse grids
    _, edges, shape, N, tol, _ = COARSE_CASES[4]
    cell, plan, curve = _coarse_setup(edges, shape, N, tol)
    tried = _tried_grids(monkeypatch)
    for assemble in (assemble_single_layer, assemble_wstar):
        tried.clear()
        assert assemble(curve, ENV1, cell, plan).lattice_nodes == N
        assert [len(blocks) for blocks in tried] == [64, 128]


def test_split_checks_catch_a_wrong_gamma_c(monkeypatch):
    # on a circle the Cauchy remainder of the split vanishes, so a wrong
    # gamma_c shows only through its other uses, which the checks must see
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    plan = plan_lattice_sum(UNIT, ENV1, 1e-10)
    mu = BoundaryVectorField(np.column_stack([np.cos(curve.params), np.ones(64)]), curve)
    monkeypatch.setattr(LameEnv, "gamma_c", property(lambda env: (1.0 - env.beta) / (2.1 * np.pi)))
    for build in (lambda: assemble_single_layer(curve, ENV1, UNIT, plan),
                  lambda: assemble_wstar(curve, ENV1, UNIT, plan),
                  lambda: apply_at_midpoints(mu, _midpoints(curve), ENV1, UNIT, plan)):
        with pytest.raises(AssemblyError, match="traction kernel split"):
            build()


def test_trig_resample_exact_for_trig_polynomials():
    N = 16
    t = 2 * np.pi * np.arange(N) / N
    vals = 1.0 + np.cos(3 * t) - 0.4 * np.sin(5 * t)
    up = trig_resample(vals, 64)
    t2 = 2 * np.pi * np.arange(64) / 64
    assert np.max(np.abs(up - (1.0 + np.cos(3 * t2) - 0.4 * np.sin(5 * t2)))) < 1e-13


def test_field_resampling_matches_per_component():
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), 64, UNIT)
    rng = np.random.default_rng(20)
    vec = BoundaryVectorField(rng.normal(size=(64, 2)), curve)
    mat = BoundaryMatrixField(rng.normal(size=(64, 2, 2)), curve)
    for M in (64, 128, 512):
        up = vec.resample(M).values
        for k in range(2):
            assert np.array_equal(up[:, k], trig_resample(vec.values[:, k], M))
        up = mat.resample(M).values
        for i in range(2):
            for j in range(2):
                assert np.array_equal(up[:, i, j], trig_resample(mat.values[:, i, j], M))


def test_boundary_integral_examples(circle128):
    one = BoundaryVectorField(np.tile([1.0, 0.0], (128, 1)), circle128)
    got = boundary_integral(one)
    assert np.allclose(got, [2 * np.pi * 0.25, 0.0], atol=1e-13)
    t = circle128.params
    f = BoundaryVectorField(np.column_stack([np.cos(t), np.zeros(128)]), circle128)
    assert np.max(np.abs(boundary_integral(f))) < 1e-13


def test_boundary_integral_refined_oracle():
    rng = np.random.default_rng(21)
    shape = EllipseShape([0.5, 0.5], (0.3, 0.2), rotation=0.7)
    coarse = discretize_curve(shape, 64, UNIT)
    fine = discretize_curve(shape, 512, UNIT)
    for _ in range(5):
        c = rng.normal(size=(2, 4))
        s = rng.normal(size=(2, 4))

        def sample(curve):
            t = curve.params
            vals = np.zeros((curve.N, 2))
            for m in range(4):
                vals += np.outer(np.cos(m * t), c[:, m])
                vals += np.outer(np.sin(m * t), s[:, m])
            return BoundaryVectorField(vals, curve)

        a = boundary_integral(sample(coarse))
        b = boundary_integral(sample(fine))
        assert np.max(np.abs(a - b)) < 1e-12


def test_single_layer_linearity(ops128, circle128):
    V, _ = ops128
    rng = np.random.default_rng(22)
    m1 = BoundaryVectorField(rng.normal(size=(128, 2)), circle128)
    m2 = BoundaryVectorField(rng.normal(size=(128, 2)), circle128)
    combo = BoundaryVectorField(0.3 * m1.values - 1.7 * m2.values, circle128)
    lhs = V.apply(combo).values
    rhs = 0.3 * V.apply(m1).values - 1.7 * V.apply(m2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def _scalar_harmonic_slp(curve, cell):
    """Independent scalar-harmonic single-layer matrix (classical split)."""
    N = curve.N
    t = curve.params
    x = curve.nodes
    sp = curve.speeds
    eta = np.sqrt(np.pi) / cell.min_edge
    d = x[:, None, :] - x[None, :, :]
    r2 = np.sum(d * d, axis=-1)
    np.fill_diagonal(r2, 1.0)
    s2 = 4 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
    np.fill_diagonal(s2, 1.0)
    logsm = np.log(r2 / s2)
    np.fill_diagonal(logsm, np.log(sp * sp))

    # scalar periodic remainder via the classical Gaussian screen:
    # center image minus the free-space log, -E1(T)/(4 pi) - log(r)/(2 pi)
    T0 = eta**2 * r2
    R = -exp1(T0) / (4 * np.pi) - np.log(r2) / (4 * np.pi)
    np.fill_diagonal(R, (EULER_GAMMA + 2 * np.log(eta)) / (4 * np.pi))
    q = np.asarray(cell.q_diag)
    for z1 in range(-6, 7):
        for z2 in range(-6, 7):
            if z1 == 0 and z2 == 0:
                continue
            shift = np.array([z1, z2]) * q
            rr = np.sum((d - shift[None, None, :]) ** 2, axis=-1)
            Tz = eta**2 * rr
            live = Tz < 45.0
            if np.any(live):
                R[live] += -exp1(Tz[live]) / (4 * np.pi)
    m = 24
    rng = np.arange(-m, m + 1)
    z1g, z2g = np.meshgrid(rng, rng, indexing="ij")
    z = np.column_stack((z1g.ravel(), z2g.ravel())).astype(float)
    z = z[np.any(z != 0, axis=1)]
    k = 2 * np.pi * z / q[None, :]
    k2 = np.sum(k * k, axis=1)
    coef = -np.exp(-k2 / (4 * eta**2)) / (k2 * cell.volume)
    R += (np.cos(d.reshape(-1, 2) @ k.T) @ coef).reshape(N, N)
    R += 1.0 / (4 * eta**2 * cell.volume)

    KL = kress_log_rule(N)
    return (2 * np.pi / N) * sp[None, :] * (logsm / (4 * np.pi) + R) + KL * sp[
        None, :
    ] / (4 * np.pi)


def test_single_layer_scalar_limit(circle128):
    env0 = LameEnv(2, 1e-9)
    plan0 = plan_lattice_sum(UNIT, env0, 1e-11)
    V0 = assemble_single_layer(circle128, env0, UNIT, plan0)
    Vs = _scalar_harmonic_slp(circle128, UNIT)
    blocks = V0.matrix.reshape(128, 2, 128, 2)
    assert np.max(np.abs(blocks[:, 0, :, 0] - Vs)) < 1e-10
    assert np.max(np.abs(blocks[:, 1, :, 1] - Vs)) < 1e-10
    assert np.max(np.abs(blocks[:, 0, :, 1])) < 1e-10


def test_single_layer_self_convergence(plan1):
    shape = EllipseShape([0.5, 0.5], (0.3, 0.2))
    results = {}
    for N in (64, 256):
        curve = discretize_curve(shape, N, UNIT)
        t = curve.params
        mu = BoundaryVectorField(
            np.column_stack([np.cos(t), np.sin(2 * t)]), curve
        )
        V = assemble_single_layer(curve, ENV1, UNIT, plan1)
        results[N] = V.apply(mu).values
    coarse_on_fine = results[256][::4]
    assert np.max(np.abs(results[64] - coarse_on_fine)) < 1e-10


def test_single_layer_weight_consistency(plan1):
    # integrating V[const] must agree with the refined-grid value of the
    # same double integral
    shape = CircleShape([0.5, 0.5], 0.25)
    vals = {}
    for N in (64, 256):
        curve = discretize_curve(shape, N, UNIT)
        V = assemble_single_layer(curve, ENV1, UNIT, plan1)
        mu = BoundaryVectorField(np.tile([1.0, -0.5], (N, 1)), curve)
        vals[N] = boundary_integral(V.apply(mu))
    assert np.max(np.abs(vals[64] - vals[256])) < 1e-12


def test_wstar_integral_identity_reference_value(ops128, circle128):
    _, W = ops128
    mu = BoundaryVectorField(np.tile([1.0, 0.0], (128, 1)), circle128)
    got = boundary_integral(W.apply(mu))
    expect = (0.5 - np.pi / 16) * (np.pi / 2)
    assert abs(got[0] - expect) < 1e-8
    assert abs(got[1]) < 1e-8


@pytest.mark.parametrize("kind", ["circle", "ellipse"])
def test_wstar_integral_identity_random_densities(kind, plan1):
    shape = (
        CircleShape([0.5, 0.5], 0.25)
        if kind == "circle"
        else EllipseShape([0.5, 0.5], (0.3, 0.2), rotation=0.4)
    )
    curve = discretize_curve(shape, 128, UNIT)
    W = assemble_wstar(curve, ENV1, UNIT, plan1)
    factor = 0.5 - hole_area(curve) / UNIT.volume
    rng = np.random.default_rng(23)
    t = curve.params
    for _ in range(10):
        vals = np.zeros((128, 2))
        for m in range(4):
            vals += np.outer(np.cos(m * t), rng.normal(size=2))
            vals += np.outer(np.sin(m * t), rng.normal(size=2))
        mu = BoundaryVectorField(vals, curve)
        lhs = boundary_integral(W.apply(mu))
        rhs = factor * boundary_integral(mu)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_wstar_zero_density(ops128, circle128):
    _, W = ops128
    mu = BoundaryVectorField(np.zeros((128, 2)), circle128)
    assert np.max(np.abs(W.apply(mu).values)) == 0.0


def test_wstar_kernel_split_at_close_separations(circle128, plan1):
    # free-space split must agree with the direct kernel down to separations
    # of 1e-3 node spacings (continuity certificate for the decomposition)
    curve = circle128
    beta = ENV1.beta
    gamma_c = (1 - beta) / (2 * np.pi)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    t0 = curve.params[5]
    x0 = curve.eval([t0])[0]
    d1 = curve.eval([t0], derivative=1)[0]
    sp = np.hypot(*d1)
    nu = np.array([d1[1], -d1[0]]) / sp
    dt = 2 * np.pi / curve.N
    for eps in (0.5 * dt, 1e-1 * dt, 1e-3 * dt):
        s = t0 - eps
        y = curve.eval([s])[0]
        d = x0 - y
        direct = traction_kernel(d, nu, ENV1)
        h_scal = (d1 @ d) / (sp * np.sum(d * d))
        ksym = direct - gamma_c * h_scal * J
        rebuilt = ksym + gamma_c * (1.0 / np.tan((t0 - s) / 2)) / (2 * sp) * J \
            + gamma_c * (h_scal - (1.0 / np.tan((t0 - s) / 2)) / (2 * sp)) * J
        assert np.max(np.abs(rebuilt - direct)) < 1e-12 * np.max(np.abs(direct))
        # the regularized Cauchy factor stays bounded near the diagonal
        rho = h_scal - (1.0 / np.tan((t0 - s) / 2)) / (2 * sp)
        assert abs(rho) < 10.0


def _split_parts(s, at):
    """pv, av d d^T, pw, aw d d^T and cauchy of the split s at the pairs at."""
    dd = s.d[at][:, :, None] * s.d[at][:, None, :]
    return [s.pv[at], s.av[at][:, None, None] * dd, s.pw[at], s.aw[at][:, None, None] * dd,
            s.cauchy[at]]


def _split_beside_nodes(curve, env, delta):
    """The split at the on-curve targets t_a + delta against the nodes t_a, pair by pair.

    Each pair is written in its own frame, node a at the origin and t_a = 0,
    with x(t_a + delta) - x(t_a) summed from the series in product form, so
    neither the difference nor delta carries the rounding of the coordinates.
    """
    N = curve.N
    m = np.arange(curve.cos_coeffs.shape[1])
    arg, half = np.outer(curve.params + 0.5 * delta, m), np.sin(0.5 * m * delta)
    diff = (-2.0 * np.sin(arg) * half) @ curve.cos_coeffs.T \
        + (2.0 * np.cos(arg) * half) @ curve.sin_coeffs.T
    d1 = curve.eval(curve.params + delta, derivative=1)
    sp = np.hypot(d1[:, 0], d1[:, 1])
    targets = SimpleNamespace(nodes=diff, params=np.full(N, delta), d1=d1, speeds=sp,
                              normals=np.column_stack((d1[:, 1], -d1[:, 0])) / sp[:, None])
    frame = SimpleNamespace(nodes=np.zeros((N, 2)), params=np.zeros(N))
    return _split_parts(_free_space_split(frame, targets, env, slice(None)), (np.arange(N),) * 2)


@pytest.mark.parametrize("kind", ["circle", "ellipse", "perturbed"])
def test_free_space_split_node_limits(kind):
    # a node against itself takes the limits of the split at on-curve targets
    # t_a + delta: the two-sided mean is even in delta, and one Richardson
    # step from delta = 1e-3 h and 5e-4 h leaves O(delta^4)
    shape = {
        "circle": CircleShape([0.5, 0.5], 0.25),
        "ellipse": EllipseShape([0.5, 0.5], (0.3, 0.2), 0.3),
        "perturbed": TrigShape([[0.5, 0.22, 0.03, 0.02], [0.5, 0.0, 0.0, 0.0]],
                               [[0.0, 0.0, 0.0, 0.0], [0.0, 0.22, 0.0, -0.02]],
                               interior=(0.5, 0.5)),
    }[kind]
    curve = discretize_curve(shape, 64, UNIT)
    on_node = _split_parts(_free_space_split(curve, curve, ENV1, slice(None)),
                           (np.arange(64),) * 2)

    def mean(delta):
        pairs = zip(_split_beside_nodes(curve, ENV1, delta),
                    _split_beside_nodes(curve, ENV1, -delta))
        return [0.5 * (a + b) for a, b in pairs]

    h = curve.dt
    for limit, coarse, fine in zip(on_node, mean(1e-3 * h), mean(5e-4 * h)):
        assert np.max(np.abs((4.0 * fine - coarse) / 3.0 - limit)) <= 1e-9


def test_wstar_spectral_convergence(plan1):
    shape = EllipseShape([0.5, 0.5], (0.3, 0.2))
    results = {}
    for N in (64, 256):
        curve = discretize_curve(shape, N, UNIT)
        t = curve.params
        mu = BoundaryVectorField(
            np.column_stack([np.cos(t), np.sin(2 * t)]), curve
        )
        W = assemble_wstar(curve, ENV1, UNIT, plan1)
        results[N] = W.apply(mu).values
    assert np.max(np.abs(results[64] - results[256][::4])) < 1e-9


def test_single_layer_quarter_turn_symmetry(plan1):
    # the centered circle and the square lattice share the quarter-turn
    # symmetry: conjugating by the N/4 node shift plus component rotation
    # leaves the matrix action invariant
    N = 64
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
    V = assemble_single_layer(curve, ENV1, UNIT, plan1)
    rng = np.random.default_rng(24)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    mu_vals = rng.normal(size=(N, 2))
    out = V.apply(BoundaryVectorField(mu_vals, curve)).values
    shift = N // 4
    mu_rot = np.roll(mu_vals, shift, axis=0) @ R.T
    out_rot = V.apply(BoundaryVectorField(mu_rot, curve)).values
    assert np.max(np.abs(np.roll(out, shift, axis=0) @ R.T - out_rot)) < 1e-11


def test_jump_relation_two_sided(plan1):
    # one-sided limits of the single-layer traction against the operator
    N = 128
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.2), N, UNIT)
    W = assemble_wstar(curve, ENV1, UNIT, plan1)
    t = curve.params
    mu_vals = np.column_stack([0.5 + 0.3 * np.cos(t), 0.4 * np.sin(t)])
    mu = BoundaryVectorField(mu_vals, curve)
    wmu = W.apply(mu).values
    h = np.max(curve.weights)
    # the hole-side limit extrapolates cleanly; the material-side field has a
    # much shorter analyticity scale, so its tolerance is coarser (both are
    # far below the jump magnitude itself)
    sides = ((-1.0, -0.5 * mu_vals + wmu, 1e-5), (+1.0, 0.5 * mu_vals + wmu, 1e-2))
    for sgn, target, tol in sides:
        vals = [
            eval_traction_offboundary(
                curve.nodes + sgn * f * h * curve.normals,
                curve.normals, mu, ENV1, UNIT, plan1, upsample=4, warn=False,
            )
            for f in (1.0, 2.0, 4.0)
        ]
        extrap = (8 * vals[0] - 6 * vals[1] + vals[2]) / 3
        assert np.max(np.abs(extrap - target)) < tol


def test_eval_single_layer_periodicity(ops128, circle128, plan1):
    rng = np.random.default_rng(25)
    t = circle128.params
    mu = BoundaryVectorField(
        np.column_stack([np.cos(t), 0.5 - np.sin(t)]), circle128
    )
    pts = np.array([[0.1, 0.12], [0.05, 0.9], [0.93, 0.5]])
    base = eval_single_layer(pts, mu, ENV1, UNIT, plan1, warn=False)
    for e in np.eye(2):
        shifted = eval_single_layer(pts + e, mu, ENV1, UNIT, plan1, warn=False)
        assert np.max(np.abs(base - shifted)) < 1e-10
    zero = BoundaryVectorField(np.zeros((128, 2)), circle128)
    assert np.max(np.abs(eval_single_layer(pts, zero, ENV1, UNIT, plan1, warn=False))) == 0.0


def test_eval_single_layer_lame_residual(circle128):
    plan = plan_lattice_sum(UNIT, ENV1, 1e-13)
    t = circle128.params
    mu = BoundaryVectorField(
        np.column_stack([1.0 + 0.2 * np.cos(t), -0.5 + 0.1 * np.sin(t)]), circle128
    )
    target = -boundary_integral(mu) / UNIT.volume
    lam = lame_apply_fd(
        lambda pts: eval_single_layer(pts, mu, ENV1, UNIT, plan, warn=False),
        np.array([0.06, 0.1]),
        ENV1.omega,
        1e-3,
    )
    assert np.max(np.abs(lam - target)) < 1e-5 * np.max(np.abs(target))


def test_eval_traction_matches_differentiation(circle128, plan1):
    t = circle128.params
    mu = BoundaryVectorField(
        np.column_stack([np.cos(t), np.sin(2 * t)]), circle128
    )
    x = np.array([0.1, 0.15])
    nu = np.array([0.6, 0.8])
    got = eval_traction_offboundary(x, nu, mu, ENV1, UNIT, plan1, warn=False)
    h = 1e-5
    Dv = np.zeros((2, 2))
    for m in range(2):
        e = np.zeros(2)
        e[m] = h
        Dv[:, m] = (
            eval_single_layer(x + e, mu, ENV1, UNIT, plan1, warn=False)
            - eval_single_layer(x - e, mu, ENV1, UNIT, plan1, warn=False)
        ) / (2 * h)
    from perilame.kernels import traction_map

    expect = traction_map(ENV1.omega, Dv) @ nu
    assert np.max(np.abs(got - expect)) < 1e-7


def test_traction_rejects_mismatched_normal_count(circle128, plan1):
    # one normal serves every point and one per point pairs up; any other
    # count raises, also for a single point given several normals
    mu = BoundaryVectorField(np.column_stack([np.cos(circle128.params), np.ones(128)]),
                             circle128)
    x = np.array([[0.05, 0.1], [0.1, 0.05]])
    nus = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    both = eval_traction_offboundary(x, nus[:2], mu, ENV1, UNIT, plan1)
    shared = eval_traction_offboundary(x, nus[0], mu, ENV1, UNIT, plan1)
    single = eval_traction_offboundary(x[0], nus[0], mu, ENV1, UNIT, plan1)
    assert np.array_equal(both[0], shared[0])
    # one point alone takes another BLAS path than a row of a batch
    assert np.max(np.abs(single - shared[0])) <= 1e-14 * np.max(np.abs(single))
    for pts, normals, message in ((x[0], nus, "3 normals for 1 points"),
                                  (x, nus, "3 normals for 2 points"),
                                  (x[:1], nus[:2], "2 normals for 1 points")):
        with pytest.raises(ValueError, match=message):
            eval_traction_offboundary(pts, normals, mu, ENV1, UNIT, plan1)


def test_near_boundary_warning(circle128, plan1):
    t = circle128.params
    mu = BoundaryVectorField(np.column_stack([np.cos(t), np.sin(t)]), circle128)
    close = circle128.nodes[0] + 1e-3 * circle128.normals[0]
    with pytest.warns(NearBoundaryWarning):
        eval_single_layer(close, mu, ENV1, UNIT, plan1)
