"""Exception and warning types shared across the package."""


class SingularArgumentError(ValueError):
    """Kernel evaluated at a point where it is singular (origin or a lattice point)."""


class CellError(ValueError):
    """Invalid periodicity cell (non-positive edge length)."""


class CurveError(ValueError):
    """Invalid boundary curve: bad node count, vanishing speed, or containment failure."""


class PlanError(RuntimeError):
    """Lattice-sum tolerance unattainable within the hard cutoff ceilings, or a
    plan used with a cell or omega other than the one it was built for."""


class AssemblyError(RuntimeError):
    """Operator assembly failed an internal kernel-split consistency check."""


class AdmissibilityError(ValueError):
    """Robin coefficient data violates one of the solvability conditions.

    The ``condition`` attribute names the failed check.
    """

    def __init__(self, condition, message):
        super().__init__(message)
        self.condition = condition


class ConfigError(ValueError):
    """Run configuration is malformed; the message names the offending field."""


class SolveError(RuntimeError):
    """Discrete system unsolvable; DegenerateProblemError is the numerically singular case."""


class DomainError(ValueError):
    """Evaluation point lies outside the domain of the requested field."""


class ConvergenceError(RuntimeError):
    """Nonlinear iteration exceeded its budget without meeting the tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DegenerateProblemError(SolveError):
    """Dense system numerically singular: its smallest singular value is at most
    robin.RANK_TOL times max(largest, 1).  Raised by the linear, auxiliary and
    Newton factorizations alike (e.g. when nothing constrains the additive constant).
    """

    def __init__(self, message, smallest_singular_value):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class OracleError(RuntimeError):
    """Brute-force oracle failed its own extrapolation consistency certificate."""


class NearBoundaryWarning(UserWarning):
    """robin.eval_solution asked for a point closer than three node spacings to the
    boundary, as its one classification of the targets (cell.locate_targets) finds."""
