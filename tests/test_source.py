"""Rules the package's source code keeps, checked on its syntax trees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "perilame"


def test_no_assert_statements():
    # a violated precondition raises an exception that python -O cannot strip
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/perilame: {found}"


def _private_definitions(tree):
    """Names of the private module-level functions, classes and constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _references(tree):
    """Names the module reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_private_names_are_used():
    # a private helper that nothing in the package reads is dead code; a
    # docstring naming it does not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == [], f"private names nothing in src/perilame reads: {unused}"


def _is_dataclass(node):
    """Whether node is a class decorated @dataclass or @dataclass(...)."""
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_dataclass_fields_are_read():
    # a field that nothing in the package reads back is dead state; storing
    # it (self.x = ...) does not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{cls.name}.{stmt.target.id}"
              for module, tree in trees.items()
              for cls in ast.walk(tree) if _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert unread == [], f"dataclass fields nothing in src/perilame reads: {unread}"


def test_only_the_field_evaluators_classify_targets():
    # kernels, lattice sums and layer potentials evaluate wherever they are
    # asked; robin.eval_solution, the CLI's output grid and the property
    # checks classify their targets with cell.locate_targets
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "locate_targets":
                    callers.add(path.name)
    assert "robin.py" in callers
    assert callers <= {"cli.py", "robin.py", "verify.py"}, f"locate_targets called in {callers}"


def test_import_leaves_out_sparse_and_spatial():
    # scipy.sparse and scipy.spatial raise the resident memory of every run
    # that imports perilame (scipy.spatial by 9.5 MB, scipy.sparse.linalg by
    # 2.4 MB), so the package does not import them
    code = ("import sys, perilame; print(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith(('scipy.sparse', 'scipy.spatial'))}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]", f"import perilame loads scipy.{out.strip()}"


def _is_eye_resample(node):
    """Whether node is a call trig_resample(np.eye(...), ...)."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "trig_resample"
            and node.args and isinstance(node.args[0], ast.Call)):
        return False
    inner = node.args[0].func
    return isinstance(inner, ast.Attribute) and inner.attr == "eye"


def test_one_interpolation_matrix():
    # the N x Nc interpolation matrix is built, and cached, in one helper;
    # assembly and the two-grid solve read it there (a density reaches
    # coarse sources by FFT, _interpolation_adjoint)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            found += [f"{path.name}:{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top) if _is_eye_resample(node)]
    assert found == ["operators.py:_interpolation_matrix"], found


def _call_sites(name):
    """module:function of every call name(...) or x.name(...) in the package, outermost definition."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            found += [f"{path.name}:{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    return found


def test_one_singular_system_rule_and_one_lu():
    # one helper decides whether a dense system is singular, for the linear,
    # auxiliary and Newton factorizations, and one helper calls LAPACK's LU
    assert _call_sites("svdvals") == ["robin.py:_full_rank_lu"]
    assert _call_sites("get_lapack_funcs") == ["robin.py:_lu_condition"]


def _argument(call, index, name):
    """The node of a call's argument given at position index or by keyword name, or None."""
    keywords = {k.arg: k.value for k in call.keywords}
    return call.args[index] if len(call.args) > index else keywords.get(name)


def _is_constant(node, value):
    return isinstance(node, ast.Constant) and node.value is value


def test_one_periodic_product_with_a_density():
    # the potentials sum the periodic kernel against a density over the N
    # nodes only for the points no coarse grid certifies: one call, in the
    # shared helper of both potentials; the others take the Kelvin part
    # and R^q (periodic=False)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "lattice_product"):
                    continue
                if not (_is_constant(_argument(node, 2, "rho"), None)
                        or _is_constant(_argument(node, 6, "periodic"), False)):
                    found.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert found == ["operators.py:_layer_sum"], found


def _is_literal(node):
    """Whether node is a literal, such as 1 or -1."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_one_blocking_rule():
    # every target-source loop takes its row blocks from one helper, which
    # reads one budget: the budget is assigned once, in cell, and a range
    # with a computed step is written only in the helper
    assigned, stepped, names = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "_PAIRS" for t in node.targets):
                    assigned.append(path.name)
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
                        and len(node.args) == 3 and not _is_literal(node.args[2])):
                    stepped.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert assigned == ["cell.py"], assigned
    assert stepped == ["cell.py:_batches"], stepped
    assert not names & {"_PHASES", "_ENTRIES"}, names & {"_PHASES", "_ENTRIES"}


def test_one_collocated_equation():
    # the collocated equation is written once, in robin._equation, for the
    # linear right-hand side, the off-node residual and the Newton residual:
    # in the two solver modules only it and the displacement read B q^{-1}
    readers, names, gone = set(), set(), {"_collocated_rhs", "drift_traction"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= set(_references(tree))
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if path.name in ("robin.py", "nonlinear.py"):
            readers |= {f"{path.name}:{getattr(top, 'name', top.lineno)}"
                        for top in tree.body for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and node.attr == "q_inv"}
    assert readers == {"robin.py:_equation", "robin.py:_displacement"}, readers
    assert not names & gone, names & gone


def test_operator_matrices_are_read_where_they_are_factored():
    # V and W* apply by FFT where 4 Nc <= N (operators._products, whose
    # GEMV branch reads the matrix of the others); the dense matrix is read
    # where it is factored, robin's augmented system and auxiliary solve,
    # and nonlinear reads none.  The one augmented solve of both solvers
    # reads the matrix of its DiscreteSystem, named system, only in its
    # fine-LU path.
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers |= {(f"{path.name}:{getattr(top, 'name', top.lineno)}",
                     getattr(node.value, "id", None))
                    for top in tree.body for node in ast.walk(top)
                    if isinstance(node, ast.Attribute) and node.attr == "matrix"
                    and isinstance(node.ctx, ast.Load)}
    operator_readers = {where for where, receiver in readers if receiver != "system"}
    assert operator_readers == {"operators.py:_products", "robin.py:augmented_matrix",
                                "robin.py:solve_neumann_aux"}, operator_readers
    assert {where for where, receiver in readers if receiver == "system"} \
        == {"robin.py:_AugmentedSolver"}


def test_one_dense_matrix_derivation():
    # the dense matrix of V and W* is formed in one place, on its first
    # read (DenseBoundaryOperator.matrix): only it interpolates the smooth
    # kernel, and no assembly builds the dense N x N rules, which the
    # quadrature tests alone call
    assert _call_sites("_interpolate") == ["operators.py:DenseBoundaryOperator"]
    assert _call_sites("kress_log_rule") == _call_sites("hilbert_rule") == []


def _definitions(name):
    """module of every module-level function or class definition called name in the package."""
    return [path.name for path in sorted(SRC.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == name]


def _imported_names(module):
    """Names a package module imports: whole modules and the names it takes from modules."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    return {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_one_two_grid_gmres():
    # GMRES and its two-grid preconditioner are written once, in robin, and
    # one object is the augmented solve of both solvers, the linear system
    # and the Newton steps: it alone builds the two-grid, runs GMRES and
    # falls back to the fine LU.  Besides it, only the auxiliary solve takes
    # the rank-checked LU and only assemble_robin_system forms the augmented
    # matrix; nonlinear imports neither, nor scipy.linalg
    assert _definitions("_gmres") == _definitions("_AugmentedSolver") == ["robin.py"]
    assert _definitions("_TwoGrid") == []
    assert _call_sites("_gmres") == ["robin.py:_AugmentedSolver"]
    assert sorted(_call_sites("_full_rank_lu")) == ["robin.py:_AugmentedSolver",
                                                    "robin.py:solve_neumann_aux"]
    assert sorted(_call_sites("augmented_matrix")) == ["robin.py:_AugmentedSolver",
                                                       "robin.py:assemble_robin_system"]
    assert sorted(_call_sites("_AugmentedSolver")) == ["nonlinear.py:solve_nonlinear_robin",
                                                       "robin.py:solve_robin"]
    imported = _imported_names("nonlinear.py")
    assert not imported & {"augmented_matrix", "_full_rank_lu", "scipy.linalg"}, \
        imported
