"""Exception hierarchy. Every domain failure derives from DomainError so the
CLI can map it to exit code 1; programming errors stay ordinary exceptions."""


class DomainError(Exception):
    """Base class for all input-domain failures raised by this package."""


class BadParameter(DomainError):
    """Generic precondition violation not covered by a more specific error."""


# finite fields
class NonPrime(DomainError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class DegreeOutOfRange(DomainError):
    pass


class ZeroInverse(DomainError):
    pass


# set families
class DOutOfRange(DomainError):
    pass


class UniverseTooLarge(DomainError):
    pass


class TargetTooLarge(DomainError):
    pass


# hypergraphs
class WrongArity(DomainError):
    pass


class VertexOutOfRange(DomainError):
    pass


class EdgeOutOfRange(DomainError):
    pass


class IOutOfRange(DomainError):
    pass


# properties
class BadLength(DomainError):
    pass


class OddK(DomainError):
    pass


class LengthMismatch(DomainError):
    pass


# sensitivity engine
class TooLarge(DomainError):
    pass


class OverlappingBlocks(DomainError):
    pass


class NonSensitiveBlock(DomainError):
    def __init__(self, index):
        super().__init__(f"block #{index} does not flip the function value")
        self.index = index


class ValueIsOne(DomainError):
    pass


class EvaluatorMismatch(RuntimeError):
    """The batch evaluator disagreed with scalar `value`, or a witness term
    failed its checks: a programming error in some `patterns()` or
    `witness_term()`, hence not a DomainError."""


# witnesses
class TooSmall(DomainError):
    pass


class SetOutOfRange(DomainError):
    pass


class IntersectionTooLarge(DomainError):
    pass


class HTooLarge(DomainError):
    pass


class ConstructionUnavailable(DomainError):
    pass


# experiment harness
class BudgetExceeded(DomainError):
    pass


class CellBudgetExceeded(DomainError):
    """Internal: a per-cell wall-clock deadline was hit mid-computation."""


class TooFewRows(DomainError):
    pass


class NonPositiveY(DomainError):
    pass
