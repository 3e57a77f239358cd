"""Error types shared across the package.

Every error raised on bad input derives from EnrLatError so the CLI can map
the whole family to a single exit code.
"""


class EnrLatError(Exception):
    pass


class NotSymmetric(EnrLatError):
    pass


class NotEvenGram(EnrLatError):
    pass


class Degenerate(EnrLatError):
    pass


class ZeroScale(EnrLatError):
    pass


class DependentVectors(EnrLatError):
    pass


class NotIsotropic(EnrLatError):
    pass


class NotSubgroup(EnrLatError):
    pass


class NotTwoGroup(EnrLatError):
    pass


class UnknownTag(EnrLatError):
    pass


class BadLength(EnrLatError):
    pass


class GramMismatch(EnrLatError):
    pass


class NotPrimitive(EnrLatError):
    """Raised with the saturation index as first argument."""

    @property
    def index(self):
        return self.args[0] if self.args else None


class NotDefinite(EnrLatError):
    pass


class CapExceeded(EnrLatError):
    pass


class NotFound(EnrLatError):
    pass


class BadShape(EnrLatError):
    pass


class BadParams(EnrLatError):
    pass


class RankTooLarge(EnrLatError):
    pass


class BadPrime(EnrLatError):
    pass


class NoUnitVector(EnrLatError):
    pass


class StarViolated(EnrLatError):
    pass


class ExistenceFails(EnrLatError):
    pass


class EvenIndex(EnrLatError):
    pass


class NonWitt(EnrLatError):
    """The form is degenerate, so its Gauss sum has none of the eight
    admissible phases."""


class NotFundamental(EnrLatError):
    pass


class NotImaginary(EnrLatError):
    pass


class BadCongruence(EnrLatError):
    pass


class NotPositiveDefinite(EnrLatError):
    pass
