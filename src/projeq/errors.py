"""Exception hierarchy for the toolkit.

Every error raised on a contract violation derives from ProjeqError so
callers (and the CLI) can distinguish structural failures from ordinary
Python errors.
"""


class ProjeqError(Exception):
    """Base class for all toolkit errors."""


class ChartError(ProjeqError):
    """Malformed chart: bad bounds, dimension or coordinate names."""


class OutsideChart(ProjeqError):
    """A point lies outside the open coordinate box."""


class PointError(ProjeqError):
    """A failure located at one point, kept as ``point`` and named in the text."""

    def __init__(self, message, point=None):
        self.point = None if point is None else [float(v) for v in point]
        super().__init__(message if point is None else f"{message} at {self.point}")


class SingularMetric(PointError):
    """Metric matrix numerically singular (condition number above cap)."""


class NotPositiveDefinite(PointError):
    """A matrix required to be positive-definite is not."""


class NotSelfAdjoint(PointError):
    """Lowered endomorphism g*L fails symmetry beyond tolerance."""


class NonPositiveSpectrum(ProjeqError):
    """An endomorphism required to have positive spectrum does not."""


class StepUnderflow(ProjeqError):
    """Adaptive step controller drove the step below h_min."""


class ZeroVelocity(PointError):
    """Phase state has (numerically) zero momentum where nonzero is required."""


class ComplexRoots(PointError):
    """Polynomial roots kept a non-negligible imaginary part."""


class OrderingViolated(PointError):
    """Eigenfunction ordering phi_1 < ... < phi_m fails on the domain."""


class NonPositivePhi(PointError):
    """Partner construction requested with a non-positive eigenfunction."""


class GapViolated(PointError):
    """Spectral gap required by the splitting construction closes."""


class WrongDimension(ProjeqError):
    """Operation restricted to a specific dimension (usually 2)."""


class EnergyProportional(ProjeqError):
    """Quadratic integral proportional to the energy; form undefined."""


class NotPolynomial(ProjeqError):
    """Holomorphic coefficient does not fit a quadratic polynomial."""


class BranchViolation(ProjeqError):
    """Point too close to a pole or branch cut of a flattening map."""


class SingularMatrix(PointError):
    """A matrix required to be invertible is singular."""


class DomainViolation(PointError):
    """A value leaves its domain: separable-form margins, or a math
    function evaluated outside its domain or range."""


class UnknownName(ProjeqError):
    """Unknown builtin scenario name."""


class ManifestError(ProjeqError):
    """Manifest missing fields, inconsistent, or failing validation."""


class ExpressionError(ProjeqError):
    """Base class for expression language errors."""


class ExpressionSyntaxError(ExpressionError):
    """Tokenizer/parser failure; carries the byte offset of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionError):
    """Identifier is neither a coordinate name nor a known constant."""

    def __init__(self, name, offset=None):
        msg = f"unknown identifier '{name}'"
        if offset is not None:
            msg += f" (offset {offset})"
        super().__init__(msg)
        self.name = name
        self.offset = offset


class ArityError(ExpressionError):
    """Function called with the wrong number of arguments."""

    def __init__(self, name, expected, got, offset=None):
        super().__init__(f"function '{name}' expects {expected} argument(s), got {got}")
        self.name = name
        self.expected = expected
        self.got = got
        self.offset = offset


class DerivativeNotAvailable(ExpressionError):
    """Derivative rejected, e.g. abs() whose argument crosses zero."""
