import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import perilame.cli as cli
import perilame.robin as robin
from perilame.cell import build_cell, nearest_image
from perilame.cli import main, parse_config
from perilame.errors import ConfigError
from perilame.kernels import LameEnv
from perilame.lattice import periodic_green, plan_lattice_sum

MINIMAL = {
    "mode": "solve-linear",
    "cell": [1.0, 1.0],
    "omega": 1.0,
    "curve": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.25},
    "robin": {
        "a": [[1.0, 0.0], [0.0, 1.0]],
        "b": [[-1.0, 0.0], [0.0, -1.0]],
        "g": [-0.3, 0.7],
    },
}


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_summary(out_dir):
    summary = {}
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            summary[key] = value
    return summary


def test_parse_minimal_config_resolves_defaults(tmp_path):
    echo = parse_config(_write(tmp_path, MINIMAL)).echo()
    assert echo["mode"] == "solve-linear"
    assert echo["nodes"] == 128 and echo["lattice_tol"] == 1e-10


def test_omega_bound_rejected(tmp_path):
    bad = dict(MINIMAL, omega=-2.0)
    with pytest.raises(ConfigError, match="omega must exceed 0"):
        parse_config(_write(tmp_path, bad))


def test_unknown_field_rejected(tmp_path):
    bad = dict(MINIMAL, lattice_tolerance=1e-8)
    with pytest.raises(ConfigError, match="lattice_tolerance"):
        parse_config(_write(tmp_path, bad))
    bad2 = dict(MINIMAL)
    bad2["curve"] = dict(MINIMAL["curve"], radiuss=0.2)
    with pytest.raises(ConfigError, match="radiuss"):
        parse_config(_write(tmp_path, bad2))


@pytest.mark.parametrize("key, value, path", [
    pytest.param("robin", dict(MINIMAL["robin"], a=[[1, 0], [0]]), "robin.a[1]", id="short-row"),
    pytest.param("robin", dict(MINIMAL["robin"], a=[[1, 0], 1.0]), "robin.a[1]", id="number-row"),
    pytest.param("grid", 5, "grid", id="number-grid"),
    pytest.param("drift", [[0.0, 0.0], [0.0]], "drift[1]", id="ragged-drift"),
    pytest.param("robin", [1, 2], "robin", id="list-robin"),
    pytest.param("robin", dict(MINIMAL["robin"], g=[float("nan"), 0.7]), "robin.g[0]",
                 id="nan-entry"),
])
def test_malformed_table_rejected(tmp_path, key, value, path):
    bad = dict(MINIMAL, out_dir=str(tmp_path / "out"))
    bad[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{path}:")):
        parse_config(_write(tmp_path, bad))
    assert main(["--config", _write(tmp_path, bad)]) == 2


def _readme_config_example():
    """The JSON example under "### Config file" in README.md."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    section = text[text.index("### Config file"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_config_example_roundtrips(tmp_path):
    config = parse_config(_write(tmp_path, _readme_config_example(), "readme.json"))
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(config.echo()))
    assert parse_config(str(echo_path)).fingerprint() == config.fingerprint()


def test_echo_is_canonical(tmp_path):
    # constants echo as numbers; optional curve fields echo resolved
    cfg = dict(MINIMAL, mode="solve-nonlinear", cell=[2, 3],
               curve={"kind": "ellipse", "center": [1, 1.5], "semi_axes": [0.4, 0.6]},
               model={"kind": "affine", "M": [[{"cos": [-1]}, 0], [0, {"cos": [-1, 0.2]}]],
                      "h": [{"cos": [0.5], "sin": []}, {"sin": [0.1]}]})
    echo = parse_config(_write(tmp_path, cfg)).echo()
    assert echo["curve"] == {"kind": "ellipse", "center": [1.0, 1.5],
                             "semi_axes": [0.4, 0.6], "rotation": 0.0}
    assert echo["model"] == {"kind": "affine",
                             "M": [[-1.0, 0.0], [0.0, {"cos": [-1.0, 0.2], "sin": []}]],
                             "h": [0.5, {"cos": [], "sin": [0.1]}]}
    assert "robin" not in echo and "green" not in echo
    cfg = dict(MINIMAL, curve={"kind": "trig", "cos": [[0.5, 0.25], [0.5]],
                               "sin": [[0.0], [0.0, 0.25]]})
    assert parse_config(_write(tmp_path, cfg)).echo()["curve"] == {
        "kind": "trig", "cos": [[0.5, 0.25], [0.5, 0.0]], "sin": [[0.0, 0.0], [0.0, 0.25]],
        "interior": [0.5, 0.5]}


def test_config_roundtrip(tmp_path):
    config = parse_config(_write(tmp_path, MINIMAL))
    echoed = config.echo()
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echoed))
    config2 = parse_config(str(path))
    assert config2.echo() == echoed
    assert config2.fingerprint() == config.fingerprint()


def test_constant_solution_run(tmp_path):
    cfg = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "out"))
    code = main(["--config", _write(tmp_path, cfg)])
    assert code == 0
    summary = _read_summary(cfg["out_dir"])
    c = np.array([float(v) for v in summary["c"].strip("()").split(",")])
    assert np.max(np.abs(c - [0.3, -0.7])) < 1e-10
    assert float(summary["mu_sup_norm"]) < 1e-10
    plan = plan_lattice_sum(build_cell([1.0, 1.0]), LameEnv(2, 1.0), 1e-10)
    assert float(summary["lattice_tail_bound"]) == pytest.approx(
        plan.real_bound + plan.fourier_bound, rel=1e-6)
    assert float(summary["lattice_tail_bound"]) < 1e-10
    assert float(summary["lattice_eta"]) == pytest.approx(plan.eta, rel=1e-6)
    assert int(summary["lattice_real_cutoff"]) == plan.real_cutoff
    assert int(summary["lattice_fourier_cutoff"]) == plan.fourier_cutoff
    # one split serves assembly, products and field evaluation; at N = 64 the
    # lattice parts of V and W* are evaluated at the 64 nodes
    assert [key for key in summary if key.startswith("lattice_")] == [
        "lattice_tail_bound", "lattice_eta", "lattice_real_cutoff", "lattice_fourier_cutoff",
        "lattice_nodes_v", "lattice_nodes_wstar"]
    assert int(summary["lattice_nodes_v"]) == int(summary["lattice_nodes_wstar"]) == 64
    for name in ("density.csv", "field.csv", "config.echo.json"):
        assert os.path.exists(os.path.join(cfg["out_dir"], name))


def test_linear_run_reports_the_residual_source_count(tmp_path, capsys):
    # at N = 128 on the unit-cell circle the smooth kernels of V and W* are
    # interpolated from 64 nodes, and the off-node residual sums over those
    # 64 sources; summary.txt and stdout write the count after the residual
    cfg = dict(MINIMAL, out_dir=str(tmp_path / "out"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    summary = _read_summary(cfg["out_dir"])
    keys = list(summary)
    assert keys[keys.index("residual_off_node") + 1] == "residual_nodes"
    assert int(summary["residual_nodes"]) == 64
    assert float(summary["residual_off_node"]) < 1e-12
    assert f"residual_nodes={summary['residual_nodes']}\n" in capsys.readouterr().out


def test_linear_run_classifies_its_grid_once(tmp_path, monkeypatch):
    # the output grid is classified once (cell.locate_targets), and the
    # displacement evaluated on the points kept without classifying them again
    calls, locate = [], cli.locate_targets

    def counted(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[0])))
        return locate(*args, **kwargs)

    for module in (cli, robin):
        monkeypatch.setattr(module, "locate_targets", counted)
    cfg = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "out"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    assert calls == [40 * 40]


def test_rejected_data_exit_code(tmp_path):
    cfg = dict(MINIMAL, out_dir=str(tmp_path / "out2"))
    cfg["robin"] = dict(cfg["robin"], b=[[1.0, 0.0], [0.0, 1.0]])
    code = main(["--config", _write(tmp_path, cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "change,code",
    [
        ({"cell": [0.0, 1.0]}, 2),  # CellError
        ({"curve": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.7}}, 2),  # CurveError
        ({"lattice_tol": 1e-16}, 2),  # PlanError
        # DegenerateProblemError: nothing constrains the additive constant
        ({"mode": "solve-nonlinear", "nodes": 32, "drift": [[0.0, 0.0], [0.0, 0.0]],
          "model": {"kind": "affine", "M": [[0.0, 0.0], [0.0, 0.0]], "h": [0.0, 0.0]}}, 3),
    ],
    ids=["cell-edge", "curve-outside-cell", "lattice-tol", "degenerate-law"],
)
def test_failure_exit_codes(tmp_path, capsys, change, code):
    cfg = dict(MINIMAL, out_dir=str(tmp_path / "out"), **change)
    assert main(["--config", _write(tmp_path, cfg)]) == code
    assert capsys.readouterr().err.startswith("rejected: " if code == 2 else "solver failure: ")


def test_cli_overrides(tmp_path):
    cfg = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "out3"))
    code = main(["--config", _write(tmp_path, cfg), "--nodes", "32", "--tol", "1e-8"])
    assert code == 0
    echoed = json.load(open(os.path.join(cfg["out_dir"], "config.echo.json")))
    assert echoed["nodes"] == 32
    assert echoed["lattice_tol"] == 1e-8


def test_density_csv_schema(tmp_path):
    cfg = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "out4"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    lines = open(os.path.join(cfg["out_dir"], "density.csv")).read().splitlines()
    assert lines[0].startswith("# fingerprint=")
    assert lines[1] == "t,x1,x2,mu1,mu2"
    assert len(lines) == 2 + 64


def test_field_csv_masks_hole(tmp_path):
    cfg = dict(MINIMAL, nodes=64, grid=[12, 12], out_dir=str(tmp_path / "out5"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    lines = open(os.path.join(cfg["out_dir"], "field.csv")).read().splitlines()
    assert lines[1] == "x1,x2,u1,u2,warning"
    rows = [line.split(",") for line in lines[2:]]
    assert 0 < len(rows) < 144  # hole interior omitted
    for row in rows:
        p = np.array([float(row[0]), float(row[1])])
        assert np.linalg.norm(p - [0.5, 0.5]) > 0.25 - 1e-9
        assert row[4] in ("0", "1")
    # constant solution: u == c everywhere outside the hole
    for row in rows:
        assert abs(float(row[2]) - 0.3) < 1e-9
        assert abs(float(row[3]) + 0.7) < 1e-9


@pytest.mark.parametrize("cfg, node_point", [
    pytest.param(dict(MINIMAL, nodes=32, grid=[6, 7]), (0.25, 0.5), id="circle"),
    pytest.param(dict(MINIMAL, nodes=32, grid=[5, 5], cell=[2.0, 3.0],
                      curve={"kind": "ellipse", "center": [1.0, 1.5], "semi_axes": [0.4, 0.6]}),
                 (1.4, 1.5), id="ellipse"),
])
def test_field_csv_omits_boundary_nodes(tmp_path, cfg, node_point):
    # a grid point that is a boundary node is on the boundary, not in the field
    cfg = dict(cfg, out_dir=str(tmp_path / "out"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    lines = open(os.path.join(cfg["out_dir"], "field.csv")).read().splitlines()
    pts = np.array([[float(v) for v in line.split(",")[:2]] for line in lines[2:]])
    assert len(pts) > 0
    assert np.min(np.linalg.norm(pts - node_point, axis=1)) > 0.1


def test_determinism(tmp_path):
    cfg1 = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "a"))
    cfg2 = dict(MINIMAL, nodes=64, out_dir=str(tmp_path / "b"))
    assert main(["--config", _write(tmp_path, cfg1, "a.json")]) == 0
    assert main(["--config", _write(tmp_path, cfg2, "b.json")]) == 0
    sa = open(os.path.join(cfg1["out_dir"], "density.csv")).read()
    sb = open(os.path.join(cfg2["out_dir"], "density.csv")).read()
    assert sa == sb
    a = _read_summary(cfg1["out_dir"])
    b = _read_summary(cfg2["out_dir"])
    for key in ("c", "mu_sup_norm", "residual_on_node"):
        assert a[key] == b[key]


def test_output_reproducible_across_processes(tmp_path):
    # one solve-linear config with a varied density, run in two processes:
    # summary.txt but its time_* lines, density.csv and field.csv are equal
    # byte for byte
    cfg = dict(MINIMAL, nodes=96, grid=[10, 10], cell=[2.0, 3.0], omega=0.5,
               curve={"kind": "ellipse", "center": [1.0, 1.5], "semi_axes": [0.6, 0.45],
                      "rotation": 0.3},
               drift=[[0.1, 0.02], [-0.03, -0.05]],
               robin=dict(MINIMAL["robin"], g=[{"cos": [0.1, 0.3], "sin": [0.2]},
                                               {"cos": [-0.2], "sin": [0.0, 0.4]}]))
    path = _write(tmp_path, cfg)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    outputs = []
    for tag in ("a", "b"):
        out_dir = str(tmp_path / tag)
        subprocess.run([sys.executable, "-m", "perilame.cli", "--config", path,
                        "--out-dir", out_dir], check=True, env=env, capture_output=True)
        files = {name: open(os.path.join(out_dir, name)).read()
                 for name in ("summary.txt", "density.csv", "field.csv")}
        files["summary.txt"] = [line for line in files["summary.txt"].splitlines()
                                if not line.startswith("time_")]
        outputs.append(files)
    assert outputs[0] == outputs[1]


def test_green_eval_mode(tmp_path):
    cfg = {
        "mode": "green-eval",
        "cell": [1.0, 1.0],
        "omega": 1.0,
        "curve": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.25},
        "green": {"source": [0.5, 0.5], "load": [1.0, 0.0]},
        "grid": [8, 8],
        "out_dir": str(tmp_path / "green"),
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    lines = open(os.path.join(cfg["out_dir"], "field.csv")).read().splitlines()
    assert lines[1] == "x1,x2,u1,u2,warning"
    assert len(lines) > 2
    summary = _read_summary(cfg["out_dir"])
    assert float(summary["time_plan_s"]) >= 0.0 and float(summary["time_field_eval_s"]) >= 0.0
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])

    # rows and warning flags follow the per-point rule: masked below 0.02 of
    # the cell edge from a source image, flagged below 0.1
    cell = build_cell([1.0, 1.0])
    env = LameEnv(2, 1.0)
    source = np.array([0.5, 0.5])
    kept, warn = [], []
    for i in range(8):
        for j in range(8):
            p = np.array([(i + 0.5) / 8, (j + 0.5) / 8])
            d = float(np.linalg.norm(nearest_image(p - source, cell)))
            if d >= 0.02:
                kept.append(p)
                warn.append(1 if d < 0.1 else 0)
    kept = np.array(kept)
    assert rows.shape == (len(kept), 5)
    assert np.max(np.abs(rows[:, :2] - kept)) < 1e-12
    assert rows[:, 4].tolist() == warn
    plan = plan_lattice_sum(cell, env, 1e-10)
    expected = periodic_green(kept - source, env, cell, plan)[:, :, 0]
    assert np.max(np.abs(rows[:, 2:4] - expected)) <= 1e-15


def test_nonlinear_mode(tmp_path):
    cfg = {
        "mode": "solve-nonlinear",
        "cell": [1.0, 1.0],
        "omega": 1.0,
        "nodes": 64,
        "curve": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.25},
        "model": {
            "kind": "affine",
            "M": [[-1.0, 0.0], [0.0, -1.0]],
            "h": [-0.3, 0.7],
        },
        "out_dir": str(tmp_path / "nl"),
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    summary = _read_summary(cfg["out_dir"])
    # affine model with M=-I, h=g matches the linear constant solution
    c = np.array([float(v) for v in summary["c"].strip("()").split(",")])
    assert np.max(np.abs(c - [-0.3, 0.7])) < 1e-10
    assert "iterations" in summary


def test_nonlinear_saturating_mode(tmp_path, capsys):
    for nodes in (64, 128):
        cfg = {
            "mode": "solve-nonlinear",
            "cell": [1.0, 1.0],
            "omega": 1.0,
            "nodes": nodes,
            "curve": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.25},
            "model": {"kind": "saturating", "kappa": -0.8,
                      "h": [{"cos": [0.3, 0.2]}, {"cos": [-0.2], "sin": [0.0, 0.1]}]},
            "out_dir": str(tmp_path / f"sat{nodes}"),
            "grid": [4, 4],
        }
        assert main(["--config", _write(tmp_path, cfg)]) == 0
        summary = _read_summary(cfg["out_dir"])
        assert float(summary["residual_on_node"]) < 1e-10
        # the coarse Jacobian's gecon estimate, certified of full rank without an SVD
        assert 1.0 < float(summary["condition_estimate"]) < 1e8
        assert int(summary["rank_checks"]) == 0
        # GMRES for every step and no fine LU; at N = 64 the preconditioner
        # is J^{-1}, one iteration per step
        iterations = int(summary["iterations"])
        krylov = [int(k) for k in summary["krylov_iterations"].strip("()").split(",")]
        assert len(krylov) == iterations >= 3 and max(krylov) >= 1
        assert int(summary["fine_factorizations"]) == 0
        if nodes == 64:
            assert max(krylov) == 1
        out = capsys.readouterr().out
        for key in ("iterations", "rank_checks", "fine_factorizations", "krylov_iterations"):
            assert f"{key}={summary[key]}\n" in out


def test_verify_mode_quick(tmp_path, monkeypatch):
    # run the suite on a cheap subset through the CLI plumbing
    import perilame.cli as cli

    def quick_suite(seed=0):
        from perilame.verify import run_property_suite as full

        return full(names=["green-evenness", "green-matrix-symmetry"], seed=seed)

    monkeypatch.setattr(cli, "run_property_suite", quick_suite)
    cfg = {
        "mode": "verify",
        "cell": [1.0, 1.0],
        "omega": 1.0,
        "out_dir": str(tmp_path / "verify"),
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    lines = open(os.path.join(cfg["out_dir"], "reports.csv")).read().splitlines()
    assert lines[1] == "property,anchor,max_error,tolerance,pass,runtime_s"
    rows = [line.split(",") for line in lines[2:]]
    assert all(row[4] == "1" and float(row[5]) >= 0.0 for row in rows)


def test_missing_config_rejected():
    assert main(["--config", "/nonexistent/path.json"]) == 2


def test_summary_reports_tail_ratio_and_stage_timings(tmp_path, capsys):
    cfg = dict(MINIMAL, nodes=32, grid=[4, 4], out_dir=str(tmp_path / "out"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    summary = _read_summary(cfg["out_dir"])
    assert 0.0 <= float(summary["density_tail_ratio"]) < 1.0
    for stage in ("validate", "system", "lu", "back_solve", "off_node_residual"):
        assert float(summary[f"time_{stage}_s"]) >= 0.0
    # the run's own stages, in summary.txt and on stdout
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    for stage in ("plan", "discretize", "assembly", "solve", "field_eval"):
        assert float(summary[f"time_{stage}_s"]) >= 0.0
        assert printed[f"time_{stage}_s"] == summary[f"time_{stage}_s"]


def test_summary_of_a_two_grid_linear_solve(tmp_path):
    # at N = 512 the linear solve runs two-grid GMRES: summary.txt names its
    # stages and counts, once each, and no LU stage
    cfg = dict(MINIMAL, nodes=512, grid=[4, 4], out_dir=str(tmp_path / "out"))
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    with open(os.path.join(cfg["out_dir"], "summary.txt")) as fh:
        lines = fh.read().splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert all("=" in line for line in lines) and len(set(keys)) == len(keys)
    summary = _read_summary(cfg["out_dir"])
    for stage in ("validate", "assembly", "two_grid_setup", "two_grid_solve",
                  "off_node_residual"):
        assert float(summary[f"time_{stage}_s"]) >= 0.0
    assert "time_lu_s" not in summary and int(summary["fine_factorizations"]) == 0
    assert 1 <= int(summary["krylov_iterations"].strip("()")) <= robin.GMRES_CAP
    assert np.max(np.abs(np.array(summary["c"].strip("()").split(","), dtype=float)
                         - [0.3, -0.7])) < 1e-10
