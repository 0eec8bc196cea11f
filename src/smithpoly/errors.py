"""Exception types shared across the package."""


class SmithError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(SmithError):
    pass


class NotSquare(SmithError):
    pass


class NotMonic(SmithError):
    pass


class DegreeZero(SmithError):
    pass


class DegreeTooHigh(SmithError):
    pass


class EmptyInput(SmithError):
    pass


class UnsupportedField(SmithError):
    pass


class NotRegular(SmithError):
    """The matrix polynomial has identically zero determinant."""


class PrimeDoesNotDivideDet(SmithError):
    pass


class NotIrreducible(SmithError):
    """A polynomial supplied as a prime is constant or factors."""


class MultiplicityMismatch(SmithError):
    """The local chain construction disagrees with the multiplicity mu.

    Two messages mean the caller's mu is wrong: "claimed multiplicity
    exceeds what the chains support" (mu too large) and "accepted
    exponents sum to ..., expected ..." (the last round overshot mu).
    Every other message is a broken internal invariant: a bug, or a p
    that is not irreducible."""


class PrimeMismatch(SmithError):
    pass


class NotUnimodular(SmithError):
    pass


class DivisibilityFailure(SmithError):
    pass


class FactorSetMismatch(SmithError):
    pass


class ShapeMismatch(SmithError):
    pass


class TooLarge(SmithError):
    pass


class BadFamilyParam(SmithError):
    pass


class ParseError(SmithError):
    pass
