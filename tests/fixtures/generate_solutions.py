"""Regenerate the frozen solutions of the two Robin solvers.

Run from the repository root:  python tests/fixtures/generate_solutions.py
Unlike oracle_green.json, whose values come from an oracle independent of
the solver, solutions.json freezes the solver's own output: mu and c of
solve_robin and solve_nonlinear_robin on one problem, at N = 128 (the fine
LU, V and W* applied as matrices) and N = 256 (two-grid GMRES, V and W*
applied by FFT).  The problem is the circle r = 0.25 in the unit cell,
omega = 1, plan tol 1e-10, whose exact solution is a two-source field with
a constant and a drift (verify._sources_field): the linear solve takes
a = I, b = -I and g = t* - u*, Newton the saturating law with kappa = -0.8
whose solution is the same field.  A change may regenerate this file only
if it says in CHANGES.md why its numerics moved.
"""

import json
import os

import numpy as np

from perilame.cell import CircleShape, build_cell, discretize_curve
from perilame.kernels import LameEnv
from perilame.lattice import plan_lattice_sum
from perilame.nonlinear import saturating_model, solve_nonlinear_robin
from perilame.operators import BoundaryVectorField, assemble_single_layer, assemble_wstar
from perilame.robin import RobinData, constant_matrix_field, solve_robin
from perilame.verify import _sources_field

PATH = os.path.join(os.path.dirname(__file__), "solutions.json")
NODES = (128, 256)
KAPPA = -0.8
DRIFT = np.diag([0.1, -0.05])


def solutions(N):
    """{"linear": rep, "newton": rep}: the two solvers' SolutionReps of the problem at N nodes."""
    cell, env = build_cell((1.0, 1.0)), LameEnv(2, 1.0)
    plan = plan_lattice_sum(cell, env, 1e-10)
    curve = discretize_curve(CircleShape([0.5, 0.5], 0.25), N, cell)
    ops = (assemble_single_layer(curve, env, cell, plan), assemble_wstar(curve, env, cell, plan))
    u_fn, trac_fn = _sources_field(env, cell, plan, (0.31, 0.5), (0.68, 0.54), (1.0, 1.0),
                                   cstar=np.array([0.2, -0.4]), B=DRIFT)
    ustar, tstar = u_fn(curve.nodes), trac_fn(curve.nodes, curve.normals)
    data = RobinData(a=constant_matrix_field(np.eye(2), curve),
                     b=constant_matrix_field(-np.eye(2), curve),
                     g=BoundaryVectorField(tstar - ustar, curve), B=DRIFT)
    h = tstar - KAPPA * ustar / (1.0 + np.sum(ustar * ustar, axis=1))[:, None]
    return {"linear": solve_robin(data, curve, env, cell, plan, operators=ops),
            "newton": solve_nonlinear_robin(saturating_model(h, KAPPA, curve), DRIFT, curve,
                                            env, cell, plan, operators=ops)}


def main():
    frozen = {str(N): {solver: {"mu": rep.mu.values.tolist(), "c": rep.c.tolist()}
                       for solver, rep in solutions(N).items()}
              for N in NODES}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh)
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
