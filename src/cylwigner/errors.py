"""Exception and warning types shared across the package."""


class CylWignerError(Exception):
    """Base class for numerical-contract violations."""


class OrderBoundError(CylWignerError):
    """Polynomial order outside the supported range."""


class QuadratureOrderError(CylWignerError):
    """Quadrature rule cannot integrate the requested polynomial degree exactly."""


class QuadratureResidueError(CylWignerError):
    """Discarded imaginary residue of a nominally real quadrature is too large."""


class ConvergenceError(CylWignerError):
    """A truncated sum has not converged at the requested cutoff."""


class SpecParseError(ValueError):
    """State-spec text could not be parsed; carries line/column of the offender."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TruncationWarning(UserWarning):
    """Result may be affected by Fock-space or integration-domain truncation."""
