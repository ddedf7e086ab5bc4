"""Configuration parsing, run orchestration and result serialization.

A run is described by one JSON config file; the command line can override the
mode, node count, lattice tolerance, output directory and seed.  The config is
validated once into a canonical table, with every default resolved; the run
is built from that table, fingerprinted by it and echoes it alongside its
outputs, so re-parsing the echo reproduces the run exactly.  Outputs are
plain CSV/key=value files written atomically (write then rename).

Exit codes: 0 success, 2 validation rejection, 3 solver failure,
4 verification failure.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import sys

import numpy as np

from .cell import (
    CircleShape,
    EllipseShape,
    TrigShape,
    build_cell,
    discretize_curve,
    locate_targets,
    nearest_image,
)
from .errors import (
    AssemblyError,
    ConfigError,
    ConvergenceError,
    PlanError,
    SolveError,
)
from .kernels import LameEnv
from .lattice import periodic_green, plan_lattice_sum
from .nonlinear import affine_model, saturating_model, solve_nonlinear_robin
from .operators import BoundaryMatrixField, BoundaryVectorField
from .robin import RobinData, _displacement, solve_robin, timed
from .verify import run_property_suite

MODES = ("solve-linear", "solve-nonlinear", "green-eval", "verify")

DEFAULTS = {
    "nodes": 128,
    "lattice_tol": 1e-10,
    "drift": [[0.0, 0.0], [0.0, 0.0]],
    "grid": [40, 40],
    "out_dir": "out",
    "seed": 0,
}
_GREEN_DEFAULTS = {"source": [0.0, 0.0], "load": [1.0, 0.0]}

_KNOWN_KEYS = {
    "mode", "cell", "omega", "curve", "nodes", "lattice_tol", "robin",
    "drift", "model", "green", "grid", "out_dir", "seed",
}
_ROBIN_SHAPES = {"a": (2, 2), "b": (2, 2), "g": (2,)}
# fields of each kind of curve and of nonlinear model, besides "kind"
_CURVE_FIELDS = {
    "circle": ("center", "radius"),
    "ellipse": ("center", "semi_axes", "rotation"),
    "trig": ("cos", "sin", "interior"),
}
_MODEL_FIELDS = {"affine": ("M", "h"), "saturating": ("h", "kappa")}


def _join(path, key):
    return f"{path}.{key}" if path else key


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _known(spec, allowed, path):
    """spec, checked to be a table whose keys all lie in allowed."""
    if not isinstance(spec, dict):
        _fail(path or "config", f"expected a table, got {spec!r}")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        _fail(_join(path, unknown[0]), "unknown field")
    return spec


def _require(spec, key, path):
    if key not in spec:
        _fail(_join(path, key), "missing required field")
    return spec[key]


def _number(value, path):
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and math.isfinite(value)):
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _count(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _nested(value, path, shape, leaf=_number):
    """value as nested lists of the given shape (None: any length), leaves parsed by leaf."""
    if not shape:
        return leaf(value, path)
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {value!r}")
    if shape[0] is not None and len(value) != shape[0]:
        _fail(path, f"expected {shape[0]} entries, got {len(value)}")
    return [_nested(v, f"{path}[{k}]", shape[1:], leaf) for k, v in enumerate(value)]


def _field(spec, key, path, shape=(), leaf=_number):
    """The required field key of the table spec, parsed by _nested."""
    return _nested(_require(spec, key, path), _join(path, key), shape, leaf)


def _entry(spec, path):
    """Scalar entry in the curve parameter: a number or {"cos": [c0, ...], "sin": [s1, ...]}.

    A series of one cos coefficient and no sin term is the constant it
    stands for and is kept as that number.
    """
    if not isinstance(spec, dict):
        return _number(spec, path)
    _known(spec, ("cos", "sin"), path)
    series = {key: _nested(spec.get(key, []), f"{path}.{key}", (None,)) for key in ("cos", "sin")}
    if len(series["cos"]) == 1 and not series["sin"]:
        return series["cos"][0]
    return series


def _kind(spec, fields, path):
    """The 'kind' of the table spec; its other keys must be fields of that kind."""
    _known(spec, {"kind"}.union(*fields.values()), path)
    kind = _require(spec, "kind", path)
    if not isinstance(kind, str) or kind not in fields:
        _fail(f"{path}.kind", f"unknown {path} kind {kind!r}")
    _known(spec, ("kind",) + fields[kind], path)
    return kind


def _curve(spec):
    """Canonical curve table: rotation and trig interior resolved, trig rows padded."""
    kind = _kind(spec, _CURVE_FIELDS, "curve")
    if kind == "circle":
        return {"kind": kind, "center": _field(spec, "center", "curve", (2,)),
                "radius": _field(spec, "radius", "curve")}
    if kind == "ellipse":
        return {"kind": kind, "center": _field(spec, "center", "curve", (2,)),
                "semi_axes": _field(spec, "semi_axes", "curve", (2,)),
                "rotation": _number(spec.get("rotation", 0.0), "curve.rotation")}
    rows = {key: _field(spec, key, "curve", (2, None)) for key in ("cos", "sin")}
    width = max(len(row) for coeffs in rows.values() for row in coeffs)
    if not width:
        _fail("curve", "expected at least one trig coefficient")
    table = {"kind": kind}
    for key, coeffs in rows.items():
        table[key] = [row + [0.0] * (width - len(row)) for row in coeffs]
    interior = spec.get("interior")
    table["interior"] = (
        [table["cos"][0][0], table["cos"][1][0]] if interior is None
        else _nested(interior, "curve.interior", (2,))
    )
    return table


def _model(spec):
    kind = _kind(spec, _MODEL_FIELDS, "model")
    table = {"kind": kind, "h": _field(spec, "h", "model", (2,), _entry)}
    if kind == "affine":
        table["M"] = _field(spec, "M", "model", (2, 2), _entry)
    else:
        table["kappa"] = _field(spec, "kappa", "model")
    return table


class RunConfig:
    """Validated run description: one canonical table with every default resolved.

    The table holds plain lists, numbers, strings and {"cos", "sin"} series
    tables, and only the sections the mode uses.  echo() returns it,
    fingerprint() hashes it and run() builds its inputs from it.
    """

    def __init__(self, raw):
        _known(raw, _KNOWN_KEYS, "")
        mode = _require(raw, "mode", "")
        if mode not in MODES:
            _fail("mode", f"must be one of {MODES}, got {mode!r}")
        spec = {**DEFAULTS, **raw}
        table = {
            "mode": mode,
            "cell": _field(spec, "cell", "", (2,)),
            "omega": _field(spec, "omega", ""),
            "nodes": _field(spec, "nodes", "", (), _count),
            "lattice_tol": _field(spec, "lattice_tol", ""),
            "drift": _field(spec, "drift", "", (2, 2)),
            "grid": _field(spec, "grid", "", (2,), _count),
            "out_dir": str(spec["out_dir"]),
            "seed": _field(spec, "seed", "", (), _count),
        }
        try:
            LameEnv(2, table["omega"])
        except ValueError as exc:
            _fail("omega", str(exc))
        if min(table["grid"]) < 2:
            _fail("grid", f"expected two counts >= 2, got {table['grid']}")
        if mode != "verify":
            table["curve"] = _curve(_require(raw, "curve", ""))
        if mode == "solve-linear":
            robin = _known(_require(raw, "robin", ""), _ROBIN_SHAPES, "robin")
            table["robin"] = {
                key: _field(robin, key, "robin", shape, _entry)
                for key, shape in _ROBIN_SHAPES.items()
            }
        if mode == "solve-nonlinear":
            table["model"] = _model(_require(raw, "model", ""))
        if mode == "green-eval":
            green = {**_GREEN_DEFAULTS, **_known(raw.get("green", {}), _GREEN_DEFAULTS, "green")}
            table["green"] = {key: _field(green, key, "green", (2,)) for key in green}
        self._table = table

    def echo(self):
        """The canonical table (a copy); re-parsing it reproduces this RunConfig."""
        return copy.deepcopy(self._table)

    def fingerprint(self):
        payload = self.echo()
        payload.pop("out_dir")  # the output location is not physics
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def parse_config(path, overrides=None):
    """Load, validate and resolve a RunConfig from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}")
    if overrides and isinstance(raw, dict):
        raw = dict(raw, **{k: v for k, v in overrides.items() if v is not None})
    return RunConfig(raw)


def _sample(entry, t):
    """Samples at the parameters t of a canonical entry or of nested lists of them.

    A vector of entries gives shape (N, 2), a matrix (N, 2, 2).
    """
    if isinstance(entry, list):
        return np.stack([_sample(e, t) for e in entry], axis=1)
    series = entry if isinstance(entry, dict) else {"cos": [entry], "sin": []}
    out = np.zeros_like(t)
    for m, c in enumerate(series["cos"]):
        out += c * np.cos(m * t)
    for m, s in enumerate(series["sin"], start=1):
        out += s * np.sin(m * t)
    return out


def _shape(curve):
    """The shape object of a canonical curve table."""
    if curve["kind"] == "circle":
        return CircleShape(curve["center"], curve["radius"])
    if curve["kind"] == "ellipse":
        return EllipseShape(curve["center"], curve["semi_axes"], curve["rotation"])
    return TrigShape(curve["cos"], curve["sin"], interior=curve["interior"])


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows, fingerprint):
    lines = [f"# fingerprint={fingerprint}", header]
    lines += [",".join(str(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _summary_text(entries):
    return "\n".join(f"{k}={v}" for k, v in entries) + "\n"


def _grid_points(grid, cell):
    """Cell-centred output grid, shape (nx * ny, 2), ordered by x1 index then x2 index."""
    nx, ny = grid
    q1, q2 = cell.q_diag
    x1, x2 = np.meshgrid(
        (np.arange(nx) + 0.5) * q1 / nx, (np.arange(ny) + 0.5) * q2 / ny, indexing="ij"
    )
    return np.column_stack([x1.ravel(), x2.ravel()])


def _format_field_rows(pts, vals, warn):
    """field.csv rows (x1, x2, u1, u2, warning) of points, values and warning flags."""
    return [
        (f"{p[0]:.12g}", f"{p[1]:.12g}", f"{u[0]:.17g}", f"{u[1]:.17g}", int(w))
        for p, u, w in zip(pts, vals, warn)
    ]


def _field_rows(rep, grid, env, cell, plan):
    """The solution's displacement on the output grid, classified once by cell.locate_targets.

    Hole interiors and points on a boundary node image, where the boundary
    passes through the point, are omitted; near-boundary points are flagged.
    """
    pts = _grid_points(grid, cell)
    loc = locate_targets(pts, rep.mu.curve, cell)
    keep = ~loc.inside & ~loc.on_node
    if not np.any(keep):
        return []
    vals = _displacement(rep, pts[keep], env, cell, plan)
    return _format_field_rows(pts[keep], vals, loc.near[keep])


def _stage_entries(stages):
    """Summary entries time_<stage>_s of the run's stage timings."""
    return [(f"time_{stage}_s", f"{sec:.6e}") for stage, sec in stages.items()]


def _verify_mode(table):
    """The property suite at the config's seed: summary entries, tables and exit code."""
    reports = run_property_suite(seed=table["seed"])
    rows = [
        (r.name, r.anchor.replace(",", ";"), f"{r.max_error:.6e}",
         f"{r.tolerance:.6e}", int(r.passed), f"{r.runtime_s:.3f}")
        for r in reports
    ]
    n_fail = sum(1 for r in reports if not r.passed)
    entries = [("properties_total", len(reports)), ("properties_failed", n_fail)]
    tables = [("reports.csv", "property,anchor,max_error,tolerance,pass,runtime_s", rows)]
    return entries, tables, 4 if n_fail else 0


def _green_mode(table, cell, env, plan, stages):
    """The periodic Green's matrix times the load on the output grid: entries and tables."""
    source = np.array(table["green"]["source"])
    load = np.array(table["green"]["load"])
    pts = _grid_points(table["grid"], cell)
    d = np.linalg.norm(nearest_image(pts - source, cell), axis=1)
    keep = d >= 0.02 * cell.min_edge  # mask points too close to a source image
    pts, warn = pts[keep], d[keep] < 0.1 * cell.min_edge
    with timed(stages, "field_eval"):
        vals = np.einsum("pjk,k->pj", periodic_green(pts - source, env, cell, plan), load)
    return [], [("field.csv", "x1,x2,u1,u2,warning", _format_field_rows(pts, vals, warn))]


def _solve_mode(table, cell, env, plan, stages):
    """The linear or nonlinear Robin solve and its field on the output grid: entries and tables.

    The solvers assemble V and W* themselves and report it as their
    "assembly" stage, within the run's "solve".
    """
    with timed(stages, "discretize"):
        curve = discretize_curve(_shape(table["curve"]), table["nodes"], cell)
    t = curve.params
    drift = np.array(table["drift"])
    entries = []
    if table["mode"] == "solve-linear":
        robin = table["robin"]
        data = RobinData(
            a=BoundaryMatrixField(_sample(robin["a"], t), curve),
            b=BoundaryMatrixField(_sample(robin["b"], t), curve),
            g=BoundaryVectorField(_sample(robin["g"], t), curve),
            B=drift,
        )
        with timed(stages, "solve"):
            rep = solve_robin(data, curve, env, cell, plan)
    else:
        spec = table["model"]
        if spec["kind"] == "affine":
            model = affine_model(_sample(spec["M"], t), _sample(spec["h"], t), curve)
        else:
            model = saturating_model(_sample(spec["h"], t), spec["kappa"], curve)
        with timed(stages, "solve"):
            rep = solve_nonlinear_robin(model, drift, curve, env, cell, plan)

    d = rep.diagnostics
    # Newton's step count, then the augmented solve's counts, which both modes report
    if "iterations" in d:
        entries.append(("iterations", d["iterations"]))
    entries += [("rank_checks", d["rank_checks"]),
                ("fine_factorizations", d["fine_factorizations"]),
                ("krylov_iterations", "(" + ",".join(map(str, d["krylov_iterations"])) + ")")]
    off_node = [("residual_off_node", f"{d.get('residual_off_node', float('nan')):.6e}")]
    if "residual_nodes" in d:  # the linear solve's residual, and its source count
        off_node.append(("residual_nodes", d["residual_nodes"]))
    entries += [
        ("c", "(" + ",".join(f"{v:.17g}" for v in rep.c) + ")"),
        ("B", "(" + ",".join(f"{v:.17g}" for v in rep.B.reshape(-1)) + ")"),
        ("mu_sup_norm", f"{np.max(np.abs(rep.mu.values)):.17g}"),
        ("residual_on_node", f"{d['residual_on_node']:.6e}"),
    ] + off_node + [
        ("condition_estimate", f"{d['condition_estimate']:.6e}"),
        ("det_integral_ainv_b", f"{d.get('det_integral_ainv_b', float('nan')):.6e}"),
        ("zero_mean_violation", f"{d['zero_mean_violation']:.6e}"),
        ("density_tail_ratio", f"{d['density_tail_ratio']:.6e}"),
        ("lattice_nodes_v", d["lattice_nodes_v"]),
        ("lattice_nodes_wstar", d["lattice_nodes_wstar"]),
    ] + _stage_entries(d["timings"])
    density_rows = [
        (f"{t[i]:.12g}", f"{curve.nodes[i,0]:.12g}", f"{curve.nodes[i,1]:.12g}",
         f"{rep.mu.values[i,0]:.17g}", f"{rep.mu.values[i,1]:.17g}")
        for i in range(curve.N)
    ]
    with timed(stages, "field_eval"):
        field_rows = _field_rows(rep, table["grid"], env, cell, plan)
    return entries, [("density.csv", "t,x1,x2,mu1,mu2", density_rows),
                     ("field.csv", "x1,x2,u1,u2,warning", field_rows)]


def run(config):
    """Execute the configured pipeline and write its outputs; returns (summary, exit code)."""
    table = config.echo()
    out_dir = table["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    fp = config.fingerprint()
    _atomic_write(
        os.path.join(out_dir, "config.echo.json"),
        json.dumps(table, indent=2, sort_keys=True) + "\n",
    )
    summary = [("mode", table["mode"]), ("fingerprint", fp)]
    # seconds of each stage of the run, written as time_<stage>_s
    stages, exit_code = {}, 0
    if table["mode"] == "verify":
        entries, tables, exit_code = _verify_mode(table)
    else:
        cell = build_cell(table["cell"])
        env = LameEnv(2, table["omega"])
        with timed(stages, "plan"):
            plan = plan_lattice_sum(cell, env, table["lattice_tol"])
        summary += [
            ("lattice_tail_bound", f"{plan.real_bound + plan.fourier_bound:.6e}"),
            ("lattice_eta", f"{plan.eta:.6e}"),
            ("lattice_real_cutoff", plan.real_cutoff),
            ("lattice_fourier_cutoff", plan.fourier_cutoff),
        ]
        mode = _green_mode if table["mode"] == "green-eval" else _solve_mode
        entries, tables = mode(table, cell, env, plan, stages)
    summary += entries + _stage_entries(stages)
    for name, header, rows in tables:
        _write_csv(os.path.join(out_dir, name), header, rows, fp)
    _atomic_write(os.path.join(out_dir, "summary.txt"), _summary_text(summary))
    return summary, exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perilame",
        description="Boundary-integral solver for Robin traction problems "
        "of periodic plane elastostatics",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--nodes", type=int, help="override the node count N")
    parser.add_argument("--tol", dest="lattice_tol", type=float,
                        help="override the lattice tolerance")
    parser.add_argument("--out-dir", help="override the output directory")
    parser.add_argument("--seed", type=int, help="seed for randomized verify points")
    overrides = vars(parser.parse_args(argv))
    path = overrides.pop("config")
    try:
        summary, exit_code = run(parse_config(path, overrides))
    except (ValueError, PlanError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (SolveError, ConvergenceError, AssemblyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for key, value in summary:
        print(f"{key}={value}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
