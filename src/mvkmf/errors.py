"""Exception types shared across the package."""


class MvkmfError(Exception):
    """Base class for all mvkmf errors."""


class NonFiniteError(MvkmfError):
    """Data contains NaN or Inf where finite values are required."""


class BadParamError(MvkmfError):
    """A parameter is outside its valid range."""


class ZeroDiagonalError(MvkmfError):
    """Cosine normalization requires a strictly positive kernel diagonal."""


class DimensionMismatchError(MvkmfError):
    """Matrix or vector shapes disagree."""


class AsymmetricKernelError(MvkmfError):
    """Kernel asymmetry exceeds the repairable tolerance."""


class LengthMismatchError(MvkmfError):
    """Two label sequences differ in length."""


class TooFewPointsError(MvkmfError):
    """Fewer points than requested clusters."""


class CorruptHeaderError(MvkmfError):
    """Matrix file header is missing or malformed."""


class TruncatedDataError(MvkmfError):
    """Matrix file payload is shorter than its header promises."""


class ParseError(MvkmfError):
    """Manifest or table file violates its schema."""


class MissingFileError(MvkmfError):
    """A file referenced by a manifest does not exist."""


class RankDeficientWarning(UserWarning):
    """Orthogonal subproblem has a (near-)zero trailing singular value."""


class ConvergenceWarning(UserWarning):
    """The iteration cap ended a fit before its stopping rule was met."""
