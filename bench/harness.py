"""perilame benchmark: workloads, seeded inputs, timed operations and gates.

Every workload is a unit cell with omega = 1 and a circular hole of radius
0.25 at the cell centre, lattice tolerance 1e-10.  The exact field is a
manufactured one: a pair of opposite point loads inside the hole plus a
constant c* and a drift B q^-1 x.  The seed draws the source points, the load,
c*, the jitter of B, the CLI Green's-function load and the placement of the
targets; the solver only ever sees the generated arrays or config files.

One *operation* is what a user waits for on the workload (a solve plus a
field evaluation, and on ``fields-n128`` also two CLI runs).  Operations
repeat until the measuring time is used up; end-to-end times are the medians
over them.  A traced run alternates untraced and traced operations, then calls
once, on the workload's own inputs, every layer function that its operation
does not reach, so that every per-layer metric is measured on every workload.
See README.md for which end-to-end metric each per-layer metric should move.
"""

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

import perilame as pl
from perilame import cli

from tracing import NullTracer, Tracer

CELL_EDGES = (1.0, 1.0)
OMEGA = 1.0
CENTER = np.array([0.5, 0.5])
RADIUS = 0.25
LATTICE_TOL = 1e-10
DRIFT = np.diag([0.1, -0.05])
KAPPA = -0.8
# tolerance of the registry property robin-manufactured-convergence
FAR_TOL = 1e-8
# distances from the hole, in node spacings h; targets at FAR_BAND h or more are "far"
NEAR_BAND = (0.25, 1.0, 3.0)
FAR_BAND = 10.0
# pairs per direct periodic_green call, as in the package's own chunking
GREEN_CHUNK = 16384

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int            # N of the workload's geometry
    solver: str           # "robin" (solve_robin) or "newton" (solve_nonlinear_robin)
    field_targets: str    # "grid": far grid points; "random": seeded far points; "band": rings
    grid: int             # side of the far-target grid and of both CLI output grids
    n_random: int         # number of seeded far targets ("random")
    ring_size: int        # targets per ring; a prime, so the rings meet the nodes at all phases
    with_cli: bool        # the operation runs green-eval and solve-linear in-process
    cli_nodes: int        # N of the CLI solve-linear run
    setups: int           # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear-n512", 512, "robin", "grid", 40, 0, 61, False, 128, 3),
        Workload("newton-n512", 512, "newton", "random", 40, 48, 61, False, 128, 3),
        Workload("fields-n128", 128, "robin", "band", 40, 0, 257, True, 128, 9),
    )
}


@dataclass
class Inputs:
    """Everything the seed decides."""

    sources: np.ndarray     # (2, 2) source points inside the hole
    strength: np.ndarray    # (2,) load of the source pair
    cstar: np.ndarray       # (2,) additive constant of the exact field
    drift: np.ndarray       # (2, 2) drift matrix B
    green_load: np.ndarray  # (2,) unit load of the CLI green-eval run
    phase: float            # angular offset of the band rings, in ring steps
    rng: np.random.Generator  # continues with the seeded far targets


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    # The source pair, its load and c* turn rigidly about the hole's centre:
    # the sources keep their distance from the boundary, so the near-field
    # error keeps its size, and |c*| stays fixed, so Newton takes the same
    # number of steps on every seed.
    turn = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    sources = CENTER + (np.array([[0.31, 0.5], [0.68, 0.54]]) - CENTER) @ rot.T
    strength = rot @ np.array([1.0, 1.0])
    cstar = rot @ np.array([0.2, -0.4])
    drift = DRIFT + rng.uniform(-0.01, 0.01, size=(2, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi)
    phase = float(rng.uniform(0.0, 1.0))
    return Inputs(sources, strength, cstar, drift,
                  np.array([np.cos(angle), np.sin(angle)]), phase, rng)


@dataclass
class Geometry:
    cell: object
    env: object
    plan: object
    curve: object
    V: object
    W: object


def set_up(wl, tracer):
    """Plan, discretize and assemble V and W*; returns (geometry, seconds)."""
    t0 = clock()
    with tracer.span("cell.build_cell"):
        cell = pl.build_cell(CELL_EDGES)
    env = pl.LameEnv(2, OMEGA)
    with tracer.span("lattice.plan_lattice_sum"):
        plan = pl.plan_lattice_sum(cell, env, LATTICE_TOL)
    with tracer.span("cell.discretize_curve"):
        curve = pl.discretize_curve(pl.CircleShape(CENTER, RADIUS), wl.nodes, cell)
    with tracer.span("operators.assemble_single_layer"):
        V = pl.assemble_single_layer(curve, env, cell, plan)
    with tracer.span("operators.assemble_wstar"):
        W = pl.assemble_wstar(curve, env, cell, plan)
    return Geometry(cell, env, plan, curve, V, W), clock() - t0


def hole_distance(pts):
    """Distance of each point from the nearest image of the circular hole."""
    edges = np.asarray(CELL_EDGES)
    rel = pts - CENTER
    rel -= np.round(rel / edges) * edges
    return np.linalg.norm(rel, axis=-1) - RADIUS


def grid_points(n):
    side = (np.arange(n) + 0.5) / n
    g1, g2 = np.meshgrid(side * CELL_EDGES[0], side * CELL_EDGES[1], indexing="ij")
    return np.column_stack((g1.ravel(), g2.ravel()))


def ring_points(dists, size, phase):
    theta = 2.0 * np.pi * (np.arange(size) + phase) / size
    unit = np.column_stack((np.cos(theta), np.sin(theta)))
    return np.concatenate([CENTER + (RADIUS + d) * unit for d in dists])


@dataclass
class Problem:
    """One workload's solver inputs, targets and reference values."""

    data: object            # RobinData of the linear problem
    model: object           # saturating TractionModel whose solution is the exact field
    field_pts: np.ndarray   # targets of the timed field evaluation
    field_far: np.ndarray   # which of them are far targets
    near_pts: np.ndarray    # near-band targets evaluated apart (empty on "band")
    exact: object           # exact field, u(points) -> (P, 2)
    affine_exact: object    # exact field of the CLI solve-linear run
    green_config: dict
    linear_config: dict


def build_problem(wl, geo, inp):
    cell, env, plan, curve = geo.cell, geo.env, geo.plan, geo.curve
    Bq = inp.drift @ cell.q_inv
    signs = np.array([1.0, -1.0])

    def exact(pts):
        pts = np.atleast_2d(pts)
        out = inp.cstar + pts @ Bq.T
        for s, x0 in zip(signs, inp.sources):
            out = out + s * pl.periodic_green(pts - x0, env, cell, plan) @ inp.strength
        return out

    def traction(pts, normals):
        Du = np.broadcast_to(Bq, (pts.shape[0], 2, 2)).copy()
        for s, x0 in zip(signs, inp.sources):
            Du += s * np.einsum("pjkm,k->pjm", pl.periodic_green_grad(pts - x0, env, cell, plan),
                                inp.strength)
        return np.einsum("pjm,pm->pj", pl.traction_map(env.omega, Du), normals)

    ustar = exact(curve.nodes)
    tstar = traction(curve.nodes, curve.normals)
    data = pl.RobinData(
        a=pl.constant_matrix_field(np.eye(2), curve),
        b=pl.constant_matrix_field(-np.eye(2), curve),
        g=pl.BoundaryVectorField(tstar - ustar, curve),
        B=inp.drift,
    )
    # G(u) = h + kappa u / (1 + |u|^2) with h chosen so that G(u*) = t* at every node
    h_nodes = tstar - KAPPA * ustar / (1.0 + np.sum(ustar * ustar, axis=1))[:, None]
    model = pl.saturating_model(h_nodes, KAPPA, curve)

    h = float(np.max(curve.weights))
    near_pts = ring_points([d * h for d in NEAR_BAND], wl.ring_size, inp.phase)
    if wl.field_targets == "band":
        field_pts = ring_points([d * h for d in NEAR_BAND + (FAR_BAND,)],
                                wl.ring_size, inp.phase)
        near_pts = np.empty((0, 2))
    elif wl.field_targets == "grid":
        field_pts = grid_points(wl.grid)
        field_pts = field_pts[hole_distance(field_pts) >= FAR_BAND * h]
    else:
        picked = []
        while len(picked) < wl.n_random:
            p = inp.rng.uniform(0.0, 1.0, size=2) * CELL_EDGES
            if hole_distance(p[None, :])[0] >= FAR_BAND * h:
                picked.append(p)
        field_pts = np.array(picked)
    field_far = hole_distance(field_pts) >= (FAR_BAND - 0.5) * h

    circle = {"kind": "circle", "center": CENTER.tolist(), "radius": RADIUS}
    common = {"cell": list(CELL_EDGES), "omega": OMEGA, "curve": circle,
              "lattice_tol": LATTICE_TOL, "grid": [wl.grid, wl.grid]}
    green_config = dict(common, mode="green-eval",
                        green={"source": CENTER.tolist(), "load": inp.green_load.tolist()})
    linear_config = dict(common, mode="solve-linear", nodes=wl.cli_nodes,
                         drift=inp.drift.tolist(),
                         robin={"a": [[1.0, 0.0], [0.0, 1.0]],
                                "b": [[-1.0, 0.0], [0.0, -1.0]],
                                "g": affine_field_datum(inp, env, cell)})
    return Problem(data, model, field_pts, field_far, near_pts, exact,
                   lambda pts: inp.cstar + pts @ Bq.T, green_config, linear_config)


def affine_field_datum(inp, env, cell):
    """Robin datum g(t) with a = I, b = -I whose solution is u = c* + B q^-1 x.

    On the circle x = c + r (cos t, sin t) and nu = (cos t, sin t), so
    g = T(B q^-1) nu - u is a first-order trigonometric series in t.
    """
    Bq = inp.drift @ cell.q_inv
    T = pl.traction_map(env.omega, Bq)
    const = -(inp.cstar + Bq @ CENTER)
    return [{"cos": [const[j], T[j, 0] - RADIUS * Bq[j, 0]], "sin": [T[j, 1] - RADIUS * Bq[j, 1]]}
            for j in range(2)]


def run_cli(config, workdir, tag):
    """Run perilame's CLI in-process; returns (exit code, field.csv rows)."""
    out_dir = workdir / tag
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(path), "--out-dir", str(out_dir)])
    return code, out_dir / "field.csv"


def read_field_csv(path):
    """(points, values) from a CLI field.csv."""
    rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return rows[:, 0:2], rows[:, 2:4]


def max_error(u, ref):
    return float(np.max(np.abs(u - ref)))


def digits(err):
    return -math.log10(max(err, sys.float_info.min))


class OpFailed(Exception):
    """An operation's output missed its correctness gate."""


def run_op(wl, geo, prob, tracer, workdir):
    """One complete operation, then its correctness gate.

    Returns the operation's times and errors; raises OpFailed when a far-field
    error exceeds FAR_TOL or a CLI run exits non-zero or writes wrong values.
    Solver exceptions (for example a Newton ConvergenceError) propagate.
    """
    cell, env, plan, curve = geo.cell, geo.env, geo.plan, geo.curve
    t = {}
    t_op = clock()
    with tracer.span("bench.op"):
        if wl.with_cli:
            t0 = clock()
            with tracer.span("cli.main:green-eval"):
                green = run_cli(prob.green_config, workdir, "green")
            t1 = clock()
            with tracer.span("cli.main:solve-linear"):
                linear = run_cli(prob.linear_config, workdir, "linear")
            t2 = clock()
            t["cli_green_s"], t["cli_linear_s"] = t1 - t0, t2 - t1
        t0 = clock()
        if wl.solver == "robin":
            with tracer.span("robin.solve_robin"):
                rep = pl.solve_robin(prob.data, curve, env, cell, plan,
                                     operators=(geo.V, geo.W))
        else:
            with tracer.span("nonlinear.solve_nonlinear_robin"):
                rep = pl.solve_nonlinear_robin(prob.model, prob.data.B, curve, env, cell, plan,
                                               method="newton", operators=(geo.V, geo.W))
        t1 = clock()
        with tracer.span("robin.eval_solution:field"):
            u_field = pl.eval_solution(rep, prob.field_pts, env, cell, plan, warn=False)
        t2 = clock()
        u_near = np.empty((0, 2))
        if len(prob.near_pts):
            with tracer.span("robin.eval_solution:near"):
                u_near = pl.eval_solution(rep, prob.near_pts, env, cell, plan, warn=False)
    t["op_s"] = clock() - t_op
    t["solve_s"], t["field_eval_s"] = t1 - t0, t2 - t1

    far = prob.field_far
    err_field = np.max(np.abs(u_field - prob.exact(prob.field_pts)), axis=1)
    err_near = np.max(np.abs(u_near - prob.exact(prob.near_pts)), axis=1)
    far_err = float(np.max(err_field[far]))
    # rings in order: the RMS error of the worst ring.  The maximum over a ring
    # depends on where its points fall between the nodes; the RMS is steady.
    rings = np.concatenate([err_field[~far], err_near]).reshape(len(NEAR_BAND), -1)
    near_err = float(np.max(np.sqrt(np.mean(rings ** 2, axis=1))))
    rec = {"times": t, "far_err": far_err, "near_err": near_err,
           "near_max_err": float(np.max(rings)),
           "iterations": rep.diagnostics.get("iterations")}
    if far_err > FAR_TOL:
        raise OpFailed(f"far-field error {far_err:.3e} > {FAR_TOL:g}")
    if wl.with_cli:
        rec.update(check_cli(prob, geo, green, linear))
    return rec


def check_cli(prob, geo, green, linear):
    """Gate the CLI outputs against a direct evaluation and the exact field."""
    cell, env, plan = geo.cell, geo.env, geo.plan
    for tag, (code, _) in (("green-eval", green), ("solve-linear", linear)):
        if code != 0:
            raise OpFailed(f"CLI {tag} exited with {code}")
    spec = prob.green_config["green"]
    source, load = np.asarray(spec["source"]), np.asarray(spec["load"])
    expected = grid_points(prob.green_config["grid"][0])
    keep = np.linalg.norm(pl.nearest_image(expected - source, cell), axis=1)
    expected = expected[keep >= 0.02 * cell.min_edge]
    pts, vals = read_field_csv(green[1])
    if pts.shape != expected.shape or max_error(pts, expected) > 1e-9:
        raise OpFailed("CLI green-eval rows do not match the unmasked grid")
    green_err = max_error(vals, pl.periodic_green(pts - source, env, cell, plan) @ load)
    green_rows = len(pts)
    pts, vals = read_field_csv(linear[1])
    linear_err = max_error(vals, prob.affine_exact(pts))
    if max(green_err, linear_err) > FAR_TOL:
        raise OpFailed(f"CLI field error {max(green_err, linear_err):.3e} > {FAR_TOL:g}")
    return {"green_rows": green_rows, "field_rows": len(pts),
            "cli_err": max(green_err, linear_err)}


def attempt_op(wl, geo, prob, tracer, workdir):
    """run_op behind the per-operation boundary: a failure is counted, not fatal."""
    try:
        return run_op(wl, geo, prob, tracer, workdir)
    except Exception:  # any failure of one operation counts it as failed
        traceback.print_exc(file=sys.stderr)
        return None


def probe_layers(wl, geo, prob, tracer, workdir, rec):
    """Call once every layer function the operation does not reach (traced runs).

    Adds the counts the probes observe to ``rec``.
    """
    cell, env, plan, curve = geo.cell, geo.env, geo.plan, geo.curve
    with tracer.span("bench.probe"):
        diffs = (prob.field_pts[:, None, :] - curve.nodes[None, :, :]).reshape(-1, 2)
        with tracer.span("lattice.periodic_green"):
            for lo in range(0, len(diffs), GREEN_CHUNK):
                pl.periodic_green(diffs[lo:lo + GREEN_CHUNK], env, cell, plan)
        with tracer.span("robin.validate_robin_data"):
            pl.validate_robin_data(prob.data, curve)
        with tracer.span("robin.assemble_robin_system"):
            system = pl.assemble_robin_system(prob.data, curve, env, cell, plan,
                                              operators=(geo.V, geo.W))
        with tracer.span("robin.lu_factor"):
            sla.lu_factor(system.matrix)
        if wl.solver != "robin":
            with tracer.span("robin.solve_robin"):
                pl.solve_robin(prob.data, curve, env, cell, plan, operators=(geo.V, geo.W))
        if wl.solver != "newton":
            with tracer.span("nonlinear.solve_nonlinear_robin"):
                rep = pl.solve_nonlinear_robin(prob.model, prob.data.B, curve, env, cell, plan,
                                               method="newton", operators=(geo.V, geo.W))
            rec["iterations"] = rep.diagnostics["iterations"]
        if not wl.with_cli:
            with tracer.span("cli.main:green-eval"):
                green = run_cli(prob.green_config, workdir, "green")
            with tracer.span("cli.main:solve-linear"):
                linear = run_cli(prob.linear_config, workdir, "linear")
            rec.update(check_cli(prob, geo, green, linear))
    rec["green_pairs"] = len(diffs)


def median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(ops, setup_times):
    times = lambda key: median([op["times"][key] for op in ops])
    worst = lambda key: max(op[key] for op in ops) if ops else None
    far, near = worst("far_err"), worst("near_err")
    return {
        "setup_s": (median(setup_times), "s"),
        "solve_s": (times("solve_s"), "s"),
        "field_eval_s": (times("field_eval_s"), "s"),
        "op_s": (times("op_s"), "s"),
        "far_digits": (None if far is None else digits(far), "digits"),
        "near_digits": (None if near is None else digits(near), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(wl, geo, prob, tracer, traced, untraced, probe):
    med = lambda name: median(tracer.durations(name))
    plan, N = geo.plan, wl.nodes
    v_s, w_s = med("operators.assemble_single_layer"), med("operators.assemble_wstar")
    green_s = med("lattice.periodic_green")
    validate_s, system_s, lu_s = (med("robin.validate_robin_data"),
                                  med("robin.assemble_robin_system"), med("robin.lu_factor"))
    kernel_pairs = N * (N + 1) // 2
    iterations = probe.get("iterations") or traced[0]["iterations"]
    ops = [s for s in tracer.spans if s.name == "bench.op"]
    coverage = median([1.0 - tracer.self_time(s.id) / s.duration for s in ops])
    op_traced = median([op["times"]["op_s"] for op in traced])
    op_untraced = median([op["times"]["op_s"] for op in untraced])
    cli_green_s = med("cli.main:green-eval")
    rows = traced[0] if wl.with_cli else probe
    return {
        "cell.discretize_s": (med("cell.discretize_curve"), "s"),
        "lattice.plan_s": (med("lattice.plan_lattice_sum"), "s"),
        "lattice.eta": (plan.eta, "1/length"),
        "lattice.image_terms": ((2 * plan.real_cutoff + 1) ** 2, "count"),
        "lattice.fourier_terms": ((2 * plan.fourier_cutoff + 1) ** 2 - 1, "count"),
        "lattice.green_s": (green_s, "s"),
        "lattice.green_pairs_per_s": (probe["green_pairs"] / green_s, "1/s"),
        "operators.assemble_v_s": (v_s, "s"),
        "operators.assemble_wstar_s": (w_s, "s"),
        "operators.kernel_pairs": (kernel_pairs, "count"),
        "operators.pairs_per_s": (2 * kernel_pairs / (v_s + w_s), "1/s"),
        "robin.validate_s": (validate_s, "s"),
        "robin.system_s": (system_s, "s"),
        "robin.lu_s": (lu_s, "s"),
        "robin.solve_self_s": (med("robin.solve_robin") - validate_s - system_s - lu_s, "s"),
        "robin.eval_s": (med("robin.eval_solution:field"), "s"),
        "robin.eval_pairs": (len(prob.field_pts) * N, "count"),
        "nonlinear.iterations": (iterations, "count"),
        "nonlinear.step_s": (med("nonlinear.solve_nonlinear_robin") / iterations, "s"),
        "cli.green_rows": (rows["green_rows"], "count"),
        "cli.green_row_s": (cli_green_s / rows["green_rows"], "s"),
        "cli.field_rows": (rows["field_rows"], "count"),
        "cli.linear_s": (med("cli.main:solve-linear"), "s"),
        "trace.overhead_frac": (op_traced / op_untraced - 1.0, "1"),
        "trace.span_coverage": (coverage, "1"),
    }


def run(wl, seed, seconds, trace, out_dir):
    """Run one workload; returns (result, record) where result is the printed line."""
    inp = make_inputs(seed)
    tracer = Tracer() if trace else NullTracer()
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(wl.setups):
            with tracer.span("bench.setup"):
                geo, dt = set_up(wl, tracer)
            setup_times.append(dt)
        prob = build_problem(wl, geo, inp)

        untraced, traced, attempted, failed = [], [], 0, 0
        deadline = clock() + seconds
        # a traced run alternates untraced and traced operations, untraced first
        while clock() < deadline or attempted < (2 if trace else 1):
            traced_turn = trace and attempted % 2 == 1
            rec = attempt_op(wl, geo, prob, tracer if traced_turn else NullTracer(), workdir)
            attempted += 1
            if rec is None:
                failed += 1
            else:
                (traced if traced_turn else untraced).append(rec)

        probe = {}
        if trace and traced:
            try:
                probe_layers(wl, geo, prob, tracer, workdir, probe)
            except Exception:  # a failed probe is a failed operation
                traceback.print_exc(file=sys.stderr)
                attempted, failed = attempted + 1, failed + 1
        ok = failed == 0
        if trace:
            metrics = (per_layer_metrics(wl, geo, prob, tracer, traced, untraced, probe)
                       if ok else {})
        else:
            metrics = end_to_end_metrics(untraced, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": stamp(), "result": result, "setup_s": setup_times,
        "ops": untraced + traced, "probe": probe,
    }
    if trace:
        record["spans"] = tracer.to_json()
        record["layer_self_s"] = layer_self_times(tracer)
    return result, record


def layer_self_times(tracer):
    """Total self time of each layer over all spans of the run."""
    totals = {}
    for s in tracer.spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + tracer.self_time(s.id)
    return totals


def stamp():
    """Where and with what the run was made."""
    root = Path(__file__).resolve().parent.parent
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
