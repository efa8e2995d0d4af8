"""Shared exception types."""


class OrbiformError(Exception):
    pass


class NonInvertibleLeadingTerm(OrbiformError):
    pass


class NotConvergent(OrbiformError):
    pass


class UnsupportedPrecision(OrbiformError):
    pass


class WindowTooSmall(OrbiformError):
    pass


class BadWeight(OrbiformError):
    pass


class UndefinedAtTrivialPair(OrbiformError):
    pass


class UndefinedAtLatticePoint(OrbiformError):
    pass


class NearPole(OrbiformError):
    pass


class OutsideRegion(OrbiformError):
    pass


class NotUnimodular(OrbiformError):
    pass


class NotGenerating(OrbiformError):
    pass


class TruncationInsufficient(OrbiformError):
    pass


class TruncationTooSmall(OrbiformError):
    pass


class NonIntegralCharacter(OrbiformError):
    pass


class UnknownClass(OrbiformError):
    pass
