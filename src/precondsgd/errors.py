"""Exception types shared across the package."""


class PrecondSgdError(Exception):
    """Base class for all package errors."""


class NumericError(PrecondSgdError):
    """A numeric failure of a run: the CLI exits with code 3.

    ``rows``, when set, is a boolean mask over the leading (seed) axis of
    the stacked input that failed; None means every row failed.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class NonFiniteError(NumericError):
    """A value that must be finite is NaN/inf, or a run diverged."""


class SingularMatrixError(NumericError):
    """A negative matrix power was requested of a singular matrix."""


class Terminated(BaseException):
    """SIGTERM, raised by the handler of ``cli.main`` or of a ``--jobs`` worker process: like
    KeyboardInterrupt, no handler of Exception stops it, so it unwinds and each temp file is removed."""


class PreconditionViolatedError(PrecondSgdError):
    """Inputs are outside the validity region of a bound."""


class InvalidParamError(PrecondSgdError):
    """A parameter is outside its documented domain."""


class MissingOracleError(PrecondSgdError):
    """The problem does not expose the requested exact quantity."""


class DimMismatchError(PrecondSgdError):
    """Vector/matrix dimensions do not agree."""


class DataFormatError(PrecondSgdError):
    """Dataset rows/columns are malformed or inconsistent."""


class ConfigError(PrecondSgdError):
    """An experiment config failed to parse or validate."""
