"""Exception types shared across the package."""


class FedgmError(Exception):
    """Base class for all package errors."""


class ShapeError(FedgmError, ValueError):
    """Operands have non-conformable dimensions."""


class UsageError(FedgmError, ValueError):
    """A caller violated an argument contract (bad tag, bad range, ...)."""


class ContractError(FedgmError, RuntimeError):
    """An internal consistency requirement was violated."""


class ParseError(FedgmError, ValueError):
    """A config or checkpoint file could not be parsed."""


class UnsupportedVersionError(ParseError):
    """A checkpoint declares a file-format version we do not read."""


class DivergenceError(FedgmError, RuntimeError):
    """Training produced a non-finite loss."""


class OracleError(FedgmError, RuntimeError):
    """A reference oracle failed: a finite-difference probe hit a non-finite
    function value, or a compiled step differs from its eager ``backward``."""
