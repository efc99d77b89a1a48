"""Exception types shared across the package, and the integer check of the
config classes' fields."""

import operator


class MvkmfError(Exception):
    """Base class for all mvkmf errors."""


class NonFiniteError(MvkmfError):
    """Data contains NaN or Inf where finite values are required."""


class BadParamError(MvkmfError):
    """A parameter is outside its valid range."""


def require_integers(config, *names: str) -> None:
    """Raise :class:`BadParamError`, naming the field, if one of the fields
    ``names`` of ``config`` is not an integer: Python's or numpy's, whatever
    ``operator.index`` takes."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise BadParamError(
                f"{name} must be an integer, got {value!r}") from None


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
