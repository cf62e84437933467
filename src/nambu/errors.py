"""Exception taxonomy shared by all modules.

Exit-code mapping for the CLI lives on the classes: verification
failures are report content (exit 1 at the CLI level), preconditions
exit 2, field-extension obstructions exit 3, parse problems exit 4, and a
failed internal postcondition (InternalError) exits 5.
"""


class AlgebraError(Exception):
    exit_code = 2


class DimensionMismatch(AlgebraError):
    pass


class ArityMismatch(AlgebraError):
    pass


class IndexOutOfRange(AlgebraError):
    pass


class NonGradedSubspace(AlgebraError):
    pass


class NotAnIdeal(AlgebraError):
    pass


class EndomorphismCheckFailed(AlgebraError):
    pass


class NotACochain(AlgebraError):
    pass


class CocycleNotClosed(AlgebraError):
    pass


class CocycleNotEven(AlgebraError):
    pass


class SectionInvalid(AlgebraError):
    pass


class NoCompatibleSection(AlgebraError):
    pass


class CoadjointMissing(AlgebraError):
    pass


class ThetaNotClosed(AlgebraError):
    pass


class ThetaNotCyclic(AlgebraError):
    pass


class NotNilpotent(AlgebraError):
    pass


class NotMetric(AlgebraError):
    pass


class OddDimension(AlgebraError):
    pass


class NotHalfDimensional(AlgebraError):
    pass


class ComplementNotFound(AlgebraError):
    pass


class NoStableIsotropicVector(AlgebraError):
    pass


class NeedsFieldExtension(AlgebraError):
    """A construction step needs a square root that does not exist in Q.

    ``discriminant`` is the rational number whose square root would be
    required; it is the informative payload, not an approximation.
    """

    exit_code = 3

    def __init__(self, discriminant, message=""):
        self.discriminant = discriminant
        text = f"needs sqrt of {discriminant} over Q"
        if message:
            text = f"{message}: {text}"
        super().__init__(text)


class ParseError(AlgebraError):
    exit_code = 4


class InternalError(AlgebraError):
    """A postcondition of the program's own computation failed: a bug, not
    a property of the input."""

    exit_code = 5


def ensure(condition, message):
    """Raise InternalError(message) unless condition holds (python -O keeps it)."""
    if not condition:
        raise InternalError(message)
