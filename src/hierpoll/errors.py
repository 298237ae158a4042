"""Exception types shared across the package.

Each error names the violated contract; callers catch the narrow class or
the module-level base where the distinction does not matter.
"""


class HierPollError(Exception):
    """Base class for all package errors."""


class InvalidArgument(HierPollError, ValueError):
    """An argument outside the range its function accepts."""


# ---------------------------------------------------------------- matrices
class StochasticMatrixError(HierPollError, ValueError):
    pass


class NegativeEntry(StochasticMatrixError):
    pass


class NonFiniteEntry(StochasticMatrixError):
    pass


class RowSumMismatch(StochasticMatrixError):
    pass


class NotSquare(StochasticMatrixError):
    pass


class NotUltrametric(StochasticMatrixError):
    pass


class NegativeEigenvalue(StochasticMatrixError):
    pass


class StochasticityLost(StochasticMatrixError):
    pass


# ------------------------------------------------------------- polynomials
class PolynomialError(HierPollError, ValueError):
    pass


class DegenerateDegreeZero(PolynomialError):
    pass


class NonzeroRemainder(PolynomialError):
    pass


class NegativeQuotientCoefficient(PolynomialError):
    pass


# ---------------------------------------------------------------- channels
class ChannelError(HierPollError, ValueError):
    pass


class DegreeExceedsLevels(ChannelError):
    pass


class AlphabetTooLarge(ChannelError):
    pass


class DimensionMismatch(ChannelError):
    pass


class LPSolverFailure(HierPollError, RuntimeError):
    pass


# -------------------------------------------------------------- infotheory
class AlphaOutOfRange(HierPollError, ValueError):
    pass


class MaxIterationsExceeded(HierPollError, RuntimeError):
    """An iterative solver hit its cap; `index` names the item of a batch
    that did not converge, or is None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UncertifiedChain(HierPollError, ValueError):
    pass


# ------------------------------------------------------------------- pomdp
class ZeroLikelihood(HierPollError, ValueError):
    pass


class InvalidAction(HierPollError, ValueError):
    pass


class InvalidCostSpec(HierPollError, ValueError):
    pass


class GridTooLarge(HierPollError, ValueError):
    pass


class NonConvergence(HierPollError, RuntimeError):
    pass


class ModelShapeMismatch(HierPollError, ValueError):
    pass


class BeliefOffGrid(HierPollError, ValueError):
    pass


# --------------------------------------------------------------- sim / L2
class UndefinedCTilde(HierPollError, ValueError):
    pass


# -------------------------------------------------------------- estimation
class EmptyData(HierPollError, ValueError):
    pass


class AlphabetMismatch(HierPollError, ValueError):
    pass


class ProjectionStalled(HierPollError, RuntimeError):
    pass


class ParseError(HierPollError, ValueError):
    pass


class UnknownSymbol(HierPollError, ValueError):
    pass
