"""Exception hierarchy shared by all modules."""


class FtpError(Exception):
    """Base class for every error raised by this package."""


# -- field construction and arithmetic ---------------------------------------

class NonPrime(FtpError):
    pass


class NoIrreducible(FtpError):
    pass


class ZeroInverse(FtpError):
    pass


class NormOutsideBase(FtpError):
    """A tower norm that should lie in F_q0 did not: the tower is inconsistent."""


class RoundingBoundExceeded(FtpError):
    """A product too large for its floating-point transform to stay exact."""


class FieldMismatch(FtpError):
    pass


class BadGroupIndex(FtpError):
    pass


class SingularGram(FtpError):
    pass


class Singular(FtpError):
    pass


# -- polynomials --------------------------------------------------------------

class DuplicatePoint(FtpError):
    pass


# -- matrices and scheme ------------------------------------------------------

class DimMismatch(FtpError):
    pass


class NotDivisible(FtpError):
    pass


class TooFewEvalPoints(FtpError):
    pass


class ShapeMismatch(FtpError):
    pass


class TooLargeForExhaustive(FtpError):
    pass


# -- baselines ----------------------------------------------------------------

class BadVariantParams(FtpError):
    pass


class TooFewPoints(FtpError):
    pass


# -- analysis -----------------------------------------------------------------

class InvalidParams(FtpError):
    pass


class PrimesNotAscendingDistinct(InvalidParams):
    """Tower degrees that are not primes, or not strictly ascending."""


class HypothesesFail(FtpError):
    pass


# -- wire protocol ------------------------------------------------------------

class MalformedFrame(FtpError):
    pass


class VersionMismatch(FtpError):
    pass


class DigitOverflow(FtpError):
    pass


class FieldTooLarge(FtpError):
    """A peer asked for a field, or a job's matrices, past the daemon's size
    limits."""


class ConnectionFailed(FtpError):
    def __init__(self, server_index, message=""):
        super().__init__(f"server {server_index}: {message}" if message else f"server {server_index}")
        self.server_index = server_index


class ProtocolError(FtpError):
    pass


class ProtocolTimeout(FtpError):
    pass
