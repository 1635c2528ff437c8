"""Exception hierarchy shared across the toolkit."""


class JointslabError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(JointslabError):
    pass


class DimensionMismatch(JointslabError):
    pass


class SingularMap(JointslabError):
    pass


class NotOnVariety(JointslabError):
    pass


class SingularPoint(JointslabError):
    pass


class UnsupportedKind(JointslabError):
    pass


class UnknownJoint(JointslabError):
    pass


class ChartMissing(JointslabError):
    pass


class LedgerMissing(JointslabError):
    pass


class FieldTooSmall(JointslabError):
    pass


class Disconnected(JointslabError):
    pass


class ZeroPolynomial(JointslabError):
    pass


class NotAJoint(JointslabError):
    pass


class MalformedInput(JointslabError, ValueError):
    """Text or JSON from outside the program that does not parse."""
