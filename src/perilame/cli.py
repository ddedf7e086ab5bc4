"""Configuration parsing, run orchestration and result serialization.

A run is described by one JSON config file; the command line can override the
mode, node count, lattice tolerance, output directory and seed.  Outputs are
plain CSV/key=value files written atomically (write then rename), with the
resolved configuration echoed alongside so a run can be reproduced exactly.

Exit codes: 0 success, 2 validation rejection, 3 solver failure,
4 verification failure.
"""

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cell import (
    CircleShape,
    EllipseShape,
    TrigShape,
    build_cell,
    discretize_curve,
    nearest_image,
    point_in_hole,
)
from .errors import (
    AdmissibilityError,
    AssemblyError,
    CellError,
    ConfigError,
    ConvergenceError,
    CurveError,
    DegenerateProblemError,
    NearBoundaryWarning,
    PlanError,
    SolveError,
)
from .kernels import LameEnv
from .lattice import periodic_green, plan_lattice_sum
from .nonlinear import affine_model, saturating_model, solve_nonlinear_robin
from .operators import BoundaryMatrixField, BoundaryVectorField, near_boundary
from .robin import RobinData, eval_solution, solve_robin
from .verify import run_property_suite

MODES = ("solve-linear", "solve-nonlinear", "green-eval", "verify")

DEFAULTS = {
    "nodes": 128,
    "lattice_tol": 1e-10,
    "drift": ((0.0, 0.0), (0.0, 0.0)),
    "grid": (40, 40),
    "out_dir": "out",
    "seed": 0,
}

_KNOWN_KEYS = {
    "mode", "cell", "omega", "curve", "nodes", "lattice_tol", "robin",
    "drift", "model", "green", "grid", "out_dir", "seed",
}


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _require(cfg, key, path):
    if key not in cfg:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return cfg[key]


def _as_floats(value, path, count=None):
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError):
        _fail(path, f"expected a list of numbers, got {value!r}")
    if count is not None and len(out) != count:
        _fail(path, f"expected {count} entries, got {len(out)}")
    return out


class EntrySpec:
    """Scalar-valued entry: constant or truncated trigonometric series in t."""

    def __init__(self, spec, path):
        if isinstance(spec, (int, float)):
            self.cos = [float(spec)]
            self.sin = []
        elif isinstance(spec, dict):
            unknown = set(spec) - {"cos", "sin"}
            if unknown:
                _fail(path, f"unknown field {sorted(unknown)[0]!r}")
            self.cos = _as_floats(spec.get("cos", []), f"{path}.cos")
            self.sin = _as_floats(spec.get("sin", []), f"{path}.sin")
        else:
            _fail(path, f"expected number or cos/sin table, got {spec!r}")

    def sample(self, t):
        out = np.zeros_like(t)
        for m, c in enumerate(self.cos):
            out += c * np.cos(m * t)
        for m, s in enumerate(self.sin, start=1):
            out += s * np.sin(m * t)
        return out

    def echo(self):
        if not self.sin and len(self.cos) == 1:
            return self.cos[0]
        return {"cos": self.cos, "sin": self.sin}


class MatrixSpec:
    def __init__(self, spec, path):
        try:
            rows = list(spec)
        except TypeError:
            _fail(path, f"expected a 2x2 table, got {spec!r}")
        if len(rows) != 2:
            _fail(path, "expected 2 rows")
        self.entries = [
            [EntrySpec(rows[i][j], f"{path}[{i}][{j}]") for j in range(2)]
            for i in range(2)
        ]

    def sample(self, t):
        out = np.zeros((t.shape[0], 2, 2))
        for i in range(2):
            for j in range(2):
                out[:, i, j] = self.entries[i][j].sample(t)
        return out

    def echo(self):
        return [[self.entries[i][j].echo() for j in range(2)] for i in range(2)]


class VectorSpec:
    def __init__(self, spec, path):
        try:
            items = list(spec)
        except TypeError:
            _fail(path, f"expected a 2-entry list, got {spec!r}")
        if len(items) != 2:
            _fail(path, "expected 2 entries")
        self.entries = [EntrySpec(items[k], f"{path}[{k}]") for k in range(2)]

    def sample(self, t):
        return np.column_stack([e.sample(t) for e in self.entries])

    def echo(self):
        return [e.echo() for e in self.entries]


def _parse_curve(spec, path):
    if not isinstance(spec, dict):
        _fail(path, "expected a table with a 'kind' field")
    kind = _require(spec, "kind", path)
    known = {
        "circle": {"kind", "center", "radius"},
        "ellipse": {"kind", "center", "semi_axes", "rotation"},
        "trig": {"kind", "cos", "sin", "interior"},
    }
    if kind not in known:
        _fail(f"{path}.kind", f"unknown curve kind {kind!r}")
    unknown = set(spec) - known[kind]
    if unknown:
        _fail(path, f"unknown field {sorted(unknown)[0]!r}")
    if kind == "circle":
        center = _as_floats(_require(spec, "center", path), f"{path}.center", 2)
        radius = float(_require(spec, "radius", path))
        return CircleShape(center, radius)
    if kind == "ellipse":
        center = _as_floats(_require(spec, "center", path), f"{path}.center", 2)
        axes = _as_floats(_require(spec, "semi_axes", path), f"{path}.semi_axes", 2)
        rotation = float(spec.get("rotation", 0.0))
        return EllipseShape(center, axes, rotation)
    cos_c = [
        _as_floats(row, f"{path}.cos") for row in _require(spec, "cos", path)
    ]
    sin_c = [
        _as_floats(row, f"{path}.sin") for row in _require(spec, "sin", path)
    ]
    interior = spec.get("interior")
    if interior is not None:
        interior = _as_floats(interior, f"{path}.interior", 2)
    width = max(len(r) for r in cos_c + sin_c)
    pad = lambda rows: [r + [0.0] * (width - len(r)) for r in rows]
    return TrigShape(np.array(pad(cos_c)), np.array(pad(sin_c)), interior=interior)


class RunConfig:
    """Validated run description with all defaults resolved."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            _fail(sorted(unknown)[0], "unknown field")
        self.mode = _require(raw, "mode", "")
        if self.mode not in MODES:
            _fail("mode", f"must be one of {MODES}, got {self.mode!r}")
        self.cell_edges = _as_floats(_require(raw, "cell", ""), "cell", 2)
        self.omega = float(_require(raw, "omega", ""))
        try:
            LameEnv(2, self.omega)
        except ValueError as exc:
            _fail("omega", str(exc))
        self.nodes = int(raw.get("nodes", DEFAULTS["nodes"]))
        self.lattice_tol = float(raw.get("lattice_tol", DEFAULTS["lattice_tol"]))
        self.grid = tuple(
            int(v) for v in raw.get("grid", DEFAULTS["grid"])
        )
        if len(self.grid) != 2 or min(self.grid) < 2:
            _fail("grid", f"expected two counts >= 2, got {raw.get('grid')}")
        self.out_dir = str(raw.get("out_dir", DEFAULTS["out_dir"]))
        self.seed = int(raw.get("seed", DEFAULTS["seed"]))
        self.drift = np.array(
            [_as_floats(r, "drift") for r in raw.get("drift", DEFAULTS["drift"])]
        )
        if self.drift.shape != (2, 2):
            _fail("drift", "expected a 2x2 matrix")

        self.curve_spec = None
        if self.mode != "verify":
            self.curve_spec = _parse_curve(_require(raw, "curve", ""), "curve")

        self.robin = None
        if self.mode == "solve-linear":
            robin = _require(raw, "robin", "")
            unknown = set(robin) - {"a", "b", "g"}
            if unknown:
                _fail(f"robin.{sorted(unknown)[0]}", "unknown field")
            self.robin = {
                "a": MatrixSpec(_require(robin, "a", "robin"), "robin.a"),
                "b": MatrixSpec(_require(robin, "b", "robin"), "robin.b"),
                "g": VectorSpec(_require(robin, "g", "robin"), "robin.g"),
            }

        self.model = None
        if self.mode == "solve-nonlinear":
            model = _require(raw, "model", "")
            kind = _require(model, "kind", "model")
            if kind == "affine":
                unknown = set(model) - {"kind", "M", "h"}
                if unknown:
                    _fail(f"model.{sorted(unknown)[0]}", "unknown field")
                self.model = {
                    "kind": "affine",
                    "M": MatrixSpec(_require(model, "M", "model"), "model.M"),
                    "h": VectorSpec(_require(model, "h", "model"), "model.h"),
                }
            elif kind == "saturating":
                unknown = set(model) - {"kind", "h", "kappa"}
                if unknown:
                    _fail(f"model.{sorted(unknown)[0]}", "unknown field")
                self.model = {
                    "kind": "saturating",
                    "h": VectorSpec(_require(model, "h", "model"), "model.h"),
                    "kappa": float(_require(model, "kappa", "model")),
                }
            else:
                _fail("model.kind", f"unknown model kind {kind!r}")

        self.green = {"source": [0.0, 0.0], "load": [1.0, 0.0]}
        if "green" in raw:
            green = raw["green"]
            unknown = set(green) - {"source", "load"}
            if unknown:
                _fail(f"green.{sorted(unknown)[0]}", "unknown field")
            if "source" in green:
                self.green["source"] = _as_floats(green["source"], "green.source", 2)
            if "load" in green:
                self.green["load"] = _as_floats(green["load"], "green.load", 2)

    def echo(self):
        """Resolved configuration; re-parsing it reproduces this RunConfig."""
        out = {
            "mode": self.mode,
            "cell": list(self.cell_edges),
            "omega": self.omega,
            "nodes": self.nodes,
            "lattice_tol": self.lattice_tol,
            "drift": self.drift.tolist(),
            "grid": list(self.grid),
            "out_dir": self.out_dir,
            "seed": self.seed,
        }
        if self.curve_spec is not None:
            shape = self.curve_spec
            if isinstance(shape, CircleShape):
                out["curve"] = {
                    "kind": "circle",
                    "center": shape.center.tolist(),
                    "radius": shape.radius,
                }
            elif isinstance(shape, EllipseShape):
                out["curve"] = {
                    "kind": "ellipse",
                    "center": shape.center.tolist(),
                    "semi_axes": list(shape.semi_axes),
                    "rotation": shape.rotation,
                }
            else:
                out["curve"] = {
                    "kind": "trig",
                    "cos": shape.cos_coeffs.tolist(),
                    "sin": shape.sin_coeffs.tolist(),
                    "interior": shape.interior_point().tolist(),
                }
        if self.robin is not None:
            out["robin"] = {k: v.echo() for k, v in self.robin.items()}
        if self.model is not None:
            m = dict(self.model)
            for key in ("M", "h"):
                if key in m and not isinstance(m[key], (int, float, str)):
                    m[key] = m[key].echo()
            out["model"] = m
        if self.mode == "green-eval":
            out["green"] = self.green
        return out

    def fingerprint(self):
        payload = self.echo()
        payload.pop("out_dir", None)  # the output location is not physics
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
    if overrides:
        raw = dict(raw)
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(raw)


@dataclass
class ResultBundle:
    """Everything a run produced; every table is stamped with the fingerprint."""

    fingerprint: str
    summary: list          # (key, value) pairs, written to summary.txt
    exit_code: int
    density_rows: list = field(default_factory=list)
    field_rows: list = field(default_factory=list)
    reports: list = field(default_factory=list)


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


def _grid_points(config, cell):
    """Cell-centred output grid, shape (nx * ny, 2), ordered by x1 index then x2 index."""
    nx, ny = config.grid
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


def _field_rows(config, cell, curve, evaluator):
    """Sample the output grid, masking hole interiors and flagging near-boundary points."""
    pts = _grid_points(config, cell)
    pts = pts[~point_in_hole(pts, curve, cell)]
    if not len(pts):
        return []
    return _format_field_rows(pts, evaluator(pts), near_boundary(pts, curve, cell))


def run(config):
    """Execute the configured pipeline; returns a ResultBundle."""
    os.makedirs(config.out_dir, exist_ok=True)
    fp = config.fingerprint()
    _atomic_write(
        os.path.join(config.out_dir, "config.echo.json"),
        json.dumps(config.echo(), indent=2, sort_keys=True) + "\n",
    )
    summary = [("mode", config.mode), ("fingerprint", fp)]

    if config.mode == "verify":
        reports = run_property_suite(seed=config.seed)
        rows = [
            (r.name, r.anchor.replace(",", ";"), f"{r.max_error:.6e}",
             f"{r.tolerance:.6e}", int(r.passed))
            for r in reports
        ]
        _write_csv(
            os.path.join(config.out_dir, "reports.csv"),
            "property,anchor,max_error,tolerance,pass",
            rows,
            fp,
        )
        n_fail = sum(1 for r in reports if not r.passed)
        summary += [
            ("properties_total", len(reports)),
            ("properties_failed", n_fail),
        ]
        _atomic_write(os.path.join(config.out_dir, "summary.txt"), _summary_text(summary))
        return ResultBundle(
            fingerprint=fp, summary=summary, exit_code=4 if n_fail else 0,
            reports=reports,
        )

    cell = build_cell(config.cell_edges)
    env = LameEnv(2, config.omega)
    plan = plan_lattice_sum(cell, env, config.lattice_tol)
    summary += [
        ("lattice_tail_bound", f"{plan.real_bound + plan.fourier_bound:.6e}"),
        ("lattice_eta", f"{plan.eta:.6e}"),
        ("lattice_real_cutoff", plan.real_cutoff),
        ("lattice_fourier_cutoff", plan.fourier_cutoff),
    ]

    if config.mode == "green-eval":
        source = np.array(config.green["source"])
        load = np.array(config.green["load"])

        pts = _grid_points(config, cell)
        d = np.linalg.norm(nearest_image(pts - source, cell), axis=1)
        keep = d >= 0.02 * cell.min_edge  # mask points too close to a source image
        pts, warn = pts[keep], d[keep] < 0.1 * cell.min_edge
        vals = np.einsum("pjk,k->pj", periodic_green(pts - source, env, cell, plan), load)
        rows = _format_field_rows(pts, vals, warn)
        _write_csv(
            os.path.join(config.out_dir, "field.csv"),
            "x1,x2,u1,u2,warning", rows, fp,
        )
        _atomic_write(os.path.join(config.out_dir, "summary.txt"), _summary_text(summary))
        return ResultBundle(fingerprint=fp, summary=summary, exit_code=0, field_rows=rows)

    curve = discretize_curve(config.curve_spec, config.nodes, cell)
    t = curve.params

    if config.mode == "solve-linear":
        data = RobinData(
            a=BoundaryMatrixField(config.robin["a"].sample(t), curve),
            b=BoundaryMatrixField(config.robin["b"].sample(t), curve),
            g=BoundaryVectorField(config.robin["g"].sample(t), curve),
            B=config.drift,
        )
        rep = solve_robin(data, curve, env, cell, plan)
    else:
        if config.model["kind"] == "affine":
            model = affine_model(
                config.model["M"].sample(t), config.model["h"].sample(t), curve
            )
        else:
            model = saturating_model(
                config.model["h"].sample(t), config.model["kappa"], curve
            )
        rep = solve_nonlinear_robin(
            model, config.drift, curve, env, cell, plan, method="newton"
        )
        summary.append(("iterations", rep.diagnostics["iterations"]))

    d = rep.diagnostics
    summary += [
        ("c", "(" + ",".join(f"{v:.17g}" for v in rep.c) + ")"),
        ("B", "(" + ",".join(f"{v:.17g}" for v in rep.B.reshape(-1)) + ")"),
        ("mu_sup_norm", f"{np.max(np.abs(rep.mu.values)):.17g}"),
        ("residual_on_node", f"{d.get('residual_on_node', float('nan')):.6e}"),
        ("residual_off_node", f"{d.get('residual_off_node', float('nan')):.6e}"),
        ("condition_estimate", f"{d.get('condition_estimate', float('nan')):.6e}"),
        ("det_integral_ainv_b", f"{d.get('det_integral_ainv_b', float('nan')):.6e}"),
        ("zero_mean_violation", f"{d.get('zero_mean_violation', float('nan')):.6e}"),
        ("density_tail_ratio", f"{d['density_tail_ratio']:.6e}"),
    ]
    summary += [(f"time_{stage}_s", f"{sec:.6e}") for stage, sec in d["timings"].items()]

    rows = [
        (f"{t[i]:.12g}", f"{curve.nodes[i,0]:.12g}", f"{curve.nodes[i,1]:.12g}",
         f"{rep.mu.values[i,0]:.17g}", f"{rep.mu.values[i,1]:.17g}")
        for i in range(curve.N)
    ]
    _write_csv(
        os.path.join(config.out_dir, "density.csv"),
        "t,x1,x2,mu1,mu2", rows, fp,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearBoundaryWarning)
        field_rows = _field_rows(
            config, cell, curve,
            lambda pts: eval_solution(rep, pts, env, cell, plan, warn=False),
        )
    _write_csv(
        os.path.join(config.out_dir, "field.csv"),
        "x1,x2,u1,u2,warning", field_rows, fp,
    )
    _atomic_write(os.path.join(config.out_dir, "summary.txt"), _summary_text(summary))
    return ResultBundle(
        fingerprint=fp, summary=summary, exit_code=0,
        density_rows=rows, field_rows=field_rows,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perilame",
        description="Boundary-integral solver for Robin traction problems "
        "of periodic plane elastostatics",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--nodes", type=int, help="override the node count N")
    parser.add_argument("--tol", type=float, help="override the lattice tolerance")
    parser.add_argument("--out-dir", help="override the output directory")
    parser.add_argument("--seed", type=int, help="seed for randomized verify points")
    args = parser.parse_args(argv)

    overrides = {
        "mode": args.mode,
        "nodes": args.nodes,
        "lattice_tol": args.tol,
        "out_dir": args.out_dir,
        "seed": args.seed,
    }
    try:
        config = parse_config(args.config, overrides)
        bundle = run(config)
    except (ConfigError, CellError, CurveError, AdmissibilityError, PlanError,
            ValueError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (SolveError, ConvergenceError, DegenerateProblemError, AssemblyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for key, value in bundle.summary:
        print(f"{key}={value}")
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
