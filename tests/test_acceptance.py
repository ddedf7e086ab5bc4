"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every criterion runs its properties from the verify registry at seed 0, the
default of `perilame --mode verify`, so the two report the same numbers and
each check, with its pinned tolerance, lives in one place (perilame.verify).
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with each property's measured error against its tolerance.
"""

import time

from perilame.verify import run_property_suite


def _criterion(k, names):
    """Run the named registry properties; print and assert criterion k.

    Returns the wall time of the run.
    """
    t0 = time.perf_counter()
    reports = run_property_suite(names, seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    detail = ", ".join(
        f"{r.name} {r.max_error:.3e} <= {r.tolerance:.1e} in {r.runtime_s:.1f}s" for r in reports
    )
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail}; runtime {elapsed:.1f}s)")
    failed = [f"{r.name} [{r.fingerprint}]" for r in reports if not r.passed]
    assert ok, f"criterion {k} failed: {'; '.join(failed)}"
    return elapsed


def test_criterion_01_green_certification():
    elapsed = _criterion(
        1, ["green-oracle-agreement", "green-evenness", "green-lattice-periodicity"]
    )
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_02_pde_residual():
    _criterion(2, ["green-pde-residual"])


def test_criterion_03_remainder_limit():
    _criterion(3, ["remainder-finite-at-zero"])


def test_criterion_04_integral_identity():
    _criterion(4, ["wstar-integral-identity"])


def test_criterion_05_jump_relation():
    _criterion(5, ["traction-jump-relation"])


def test_criterion_06_aux_operator():
    _criterion(6, ["aux-operator-roundtrip", "aux-mean-identity"])


def test_criterion_07_linear_robin():
    _criterion(
        7,
        [
            "robin-exact-solutions",
            "robin-homogeneous-uniqueness",
            "robin-manufactured-convergence",
            "robin-quasi-periodicity",
        ],
    )


def test_criterion_08_representation():
    _criterion(8, ["representation-roundtrip"])


def test_criterion_09_nonlinear():
    _criterion(
        9,
        [
            "nonlinear-affine-equivalence",
            "nonlinear-manufactured",
            "nonlinear-degeneracy-report",
        ],
    )


def test_criterion_10_data_validation():
    _criterion(10, ["data-admissibility-rejections"])
