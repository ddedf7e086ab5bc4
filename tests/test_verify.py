import json
import os
import time

import numpy as np
import pytest

from perilame.cell import (
    CircleShape,
    EllipseShape,
    TrigShape,
    build_cell,
    discretize_curve,
    hole_area,
)
from perilame.errors import OracleError
from perilame.kernels import LameEnv
from perilame.lattice import plan_lattice_sum
from perilame.operators import BoundaryVectorField, assemble_wstar, boundary_integral
from perilame.verify import (
    REGISTRY,
    oracle_filtered_fourier,
    oracle_scalar_harmonic,
    run_property_suite,
    standard_curve,
)

UNIT = build_cell([1.0, 1.0])
ENV1 = LameEnv(2, 1.0)

# every load-bearing invariant must be registered exactly once; this list
# is the completeness contract for the suite registry
REQUIRED_PROPERTIES = [
    "green-oracle-agreement",
    "green-evenness",
    "green-lattice-periodicity",
    "green-matrix-symmetry",
    "green-kelvin-decomposition",
    "remainder-finite-at-zero",
    "green-pde-residual",
    "green-scalar-limit",
    "green-gradient",
    "wstar-integral-identity",
    "traction-jump-relation",
    "single-layer-periodicity",
    "single-layer-load-balance",
    "aux-operator-roundtrip",
    "aux-mean-identity",
    "representation-roundtrip",
    "robin-exact-solutions",
    "robin-homogeneous-uniqueness",
    "robin-manufactured-convergence",
    "robin-quasi-periodicity",
    "nonlinear-affine-equivalence",
    "nonlinear-manufactured",
    "nonlinear-degeneracy-report",
    "data-admissibility-rejections",
]


def test_registry_completeness():
    assert sorted(REGISTRY) == sorted(REQUIRED_PROPERTIES)
    assert len(set(REQUIRED_PROPERTIES)) == len(REQUIRED_PROPERTIES)


def test_oracle_self_consistency_and_symmetries():
    cell = build_cell([2.0, 3.0])
    env = LameEnv(2, 0.5)
    x = np.array([0.7, 1.9])
    G = oracle_filtered_fourier(x, env, cell)
    assert np.max(np.abs(G - G.T)) < 1e-10
    G_neg = oracle_filtered_fourier(-x, env, cell)
    assert np.max(np.abs(G - G_neg)) < 1e-10
    G_shift = oracle_filtered_fourier(x + np.array([2.0, 0.0]), env, cell)
    assert np.max(np.abs(G - G_shift)) < 1e-10


def test_oracle_scalar_decoupling():
    cell = build_cell([1.0, 1.0])
    env = LameEnv(2, 1e-9)
    x = np.array([0.4, 0.3])
    G = oracle_filtered_fourier(x, env, cell)
    s = oracle_scalar_harmonic(x, cell)
    assert abs(G[0, 0] - s) < 1e-8
    assert abs(G[0, 1]) < 1e-10


def test_oracle_rejects_lattice_point():
    with pytest.raises(OracleError):
        oracle_filtered_fourier(np.array([1.0, 0.0]), ENV1, UNIT)


def test_oracle_inconsistency_detection():
    # an absurdly large sigma0 leaves screened-image errors the extrapolation
    # cannot cancel; the certificate must catch it
    with pytest.raises(OracleError):
        oracle_filtered_fourier(
            np.array([0.03, 0.02]), ENV1, UNIT, sigma0=0.05, certify=1e-12
        )


def test_oracle_takes_many_points():
    cell = build_cell([2.0, 3.0])
    env = LameEnv(2, 0.5)
    pts = np.array([[0.7, 1.9], [1.3, 0.4], [-0.5, 2.2]])
    G = oracle_filtered_fourier(pts, env, cell)
    assert G.shape == (3, 2, 2)
    for p, g in zip(pts, G):
        assert np.max(np.abs(g - oracle_filtered_fourier(p, env, cell))) < 1e-12
    assert oracle_scalar_harmonic(pts, cell).shape == (3,)


def test_oracle_reports_the_worst_point():
    # at one sigma0 for all points, each point's certificate is its own; the
    # call fails when any point fails, naming the worst spread
    pts = np.array([[0.4, 0.3], [0.05, 0.04], [0.03, 0.02], [0.1, 0.02]])
    spreads = []
    for p in pts:
        try:
            oracle_filtered_fourier(p, ENV1, UNIT, sigma0=2e-4)
        except OracleError as exc:
            spreads.append(str(exc))
    assert 0 < len(spreads) < len(pts)
    with pytest.raises(OracleError) as info:
        oracle_filtered_fourier(pts, ENV1, UNIT, sigma0=2e-4)
    assert str(info.value) == max(spreads, key=lambda msg: float(msg.split()[4]))


def test_fixture_file_fingerprints():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "oracle_green.json")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    assert len(data["configs"]) == 6
    for config in data["configs"]:
        assert "fingerprint" in config
        assert len(config["points"]) == len(config["values"]) == 6


def test_suite_runs_kernel_subset():
    reports = run_property_suite(
        names=["green-evenness", "green-matrix-symmetry"], seed=3
    )
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == {"green-evenness", "green-matrix-symmetry"}
    for r in reports:
        assert r.max_error <= r.tolerance
        assert r.fingerprint


def test_properties_outside_the_criteria_pass():
    # the acceptance criteria and the kernel-subset test run the other 19
    names = ["green-kelvin-decomposition", "green-scalar-limit", "green-gradient",
             "single-layer-periodicity", "single-layer-load-balance"]
    reports = run_property_suite(names, seed=0)
    assert [r.name for r in reports] == names
    assert all(r.passed for r in reports), [(r.name, r.max_error) for r in reports]


def _curve_name(shape, cell):
    """The fingerprint name of a shape: its standard_curve kind, or the circle and its radius."""
    if isinstance(shape, CircleShape) and shape.radius != 0.25 * cell.min_edge:
        return f"circle r={shape.radius:g}"
    return {CircleShape: "circle", EllipseShape: "ellipse", TrigShape: "perturbed"}[type(shape)]


def test_fingerprints_name_what_each_check_builds(monkeypatch):
    # every cell, omega and plan tolerance a check plans at, and every curve
    # and N it discretizes, is named in the fingerprint of its report
    import perilame.verify as verify

    built = []
    plan_lattice_sum_, discretize_curve_ = verify.plan_lattice_sum, verify.discretize_curve

    def cell_name(cell):
        return "x".join(f"{q:g}" for q in cell.q_diag)

    def plan(cell, env, tol):
        built.extend([("cell", cell_name(cell)), ("omega", f"{env.omega:g}"),
                      ("plan_tol", f"{tol:g}")])
        return plan_lattice_sum_(cell, env, tol)

    def discretize(shape, N, cell):
        built.extend([("cell", cell_name(cell)), ("curve", _curve_name(shape, cell)),
                      ("N", str(N))])
        return discretize_curve_(shape, N, cell)

    monkeypatch.setattr(verify, "plan_lattice_sum", plan)
    monkeypatch.setattr(verify, "discretize_curve", discretize)
    for name, (_, _, check) in REGISTRY.items():
        built.clear()
        _, fp = check(0)
        named = dict(part.split("=", 1) for part in fp.split(";"))
        assert built, name
        for key, value in built:
            assert value in named.get(key, "").split(","), (name, key, value, fp)


def test_fault_injection_breaks_integral_identity():
    # corrupting one quadrature weight must surface in the identity check
    plan = plan_lattice_sum(UNIT, ENV1, 1e-11)
    curve = standard_curve("circle", UNIT, 64)
    W = assemble_wstar(curve, ENV1, UNIT, plan)
    W.matrix[3, 7] += 1e-3  # corrupt one entry
    factor = 0.5 - hole_area(curve) / UNIT.volume
    t = curve.params
    mu = BoundaryVectorField(
        np.column_stack([1.0 + np.cos(t), np.sin(t)]), curve
    )
    lhs = boundary_integral(W.apply(mu))
    rhs = factor * boundary_integral(mu)
    assert np.max(np.abs(lhs - rhs)) > 1e-8


def test_convergence_study_manufactured_case():
    plan = plan_lattice_sum(UNIT, ENV1, 1e-12)
    from perilame.verify import _manufactured_error

    rng = np.random.default_rng(5)
    errs = [_manufactured_error(ENV1, UNIT, plan, N, rng) for N in (32, 64)]
    assert errs[1] < errs[0] / 10.0


def test_convergence_study_constant_case_floors():
    from perilame.robin import constant_matrix_field, constant_vector_field, solve_robin
    from perilame.robin import RobinData

    plan = plan_lattice_sum(UNIT, ENV1, 1e-11)
    cstar = np.array([0.3, -0.7])
    for N in (16, 32, 64):
        curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, UNIT)
        data = RobinData(
            a=constant_matrix_field(np.eye(2), curve),
            b=constant_matrix_field(-np.eye(2), curve),
            g=constant_vector_field(-cstar, curve),
            B=np.zeros((2, 2)),
        )
        rep = solve_robin(data, curve, ENV1, UNIT, plan)
        assert np.max(np.abs(rep.c - cstar)) < 1e-10, N


def test_exception_row_keeps_registry_tolerance(monkeypatch, tmp_path):
    # a check that raises is reported against its pinned tolerance, in the
    # suite's rows and in the CLI's reports.csv
    import perilame.cli as cli
    import perilame.verify as verify

    def boom(seed):
        raise RuntimeError("injected")

    name = "green-evenness"
    anchor, tol, _ = REGISTRY[name]
    monkeypatch.setitem(verify.REGISTRY, name, (anchor, tol, boom))
    (row,) = run_property_suite([name])
    assert (row.max_error, row.tolerance, row.passed) == (np.inf, 1e-9, False)
    assert row.fingerprint == "exception: RuntimeError: injected"

    monkeypatch.setattr(cli, "run_property_suite", lambda seed=0: run_property_suite([name]))
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"mode": "verify", "cell": [1.0, 1.0], "omega": 1.0,
                               "out_dir": str(tmp_path / "out")}))
    assert cli.main(["--config", str(cfg)]) == 4
    lines = (tmp_path / "out" / "reports.csv").read_text().splitlines()
    assert lines[2].startswith(f"{name},matrix even in x,inf,1.000000e-09,0,")
    assert float(lines[2].rsplit(",", 1)[1]) >= 0.0


def test_every_report_carries_its_runtime(monkeypatch):
    import perilame.verify as verify

    def slow(seed):
        time.sleep(0.05)
        return 0.0, "slept"

    monkeypatch.setitem(verify.REGISTRY, "green-evenness", ("matrix even in x", 1e-9, slow))
    reports = run_property_suite(["green-evenness", "green-matrix-symmetry"])
    assert [r.name for r in reports] == ["green-evenness", "green-matrix-symmetry"]
    assert all(isinstance(r.runtime_s, float) and 0.0 <= r.runtime_s < 60.0 for r in reports)
    assert reports[0].runtime_s >= 0.05
