"""Exception and warning types shared across the package, and ``real_part``: the one rule by
which every route to W (contour kernel, radial Poisson sum, 4D oracle) refuses a sum."""

from math import isfinite

import numpy as np


class CylWignerError(Exception):
    """Base class for numerical-contract violations."""


class OrderBoundError(CylWignerError):
    """Polynomial order outside the supported range."""


class QuadratureResidueError(CylWignerError):
    """Discarded imaginary residue of a nominally real quadrature is too large."""


def real_part(val, scale, tol, what):
    """``val.real``, or QuadratureResidueError unless every value is finite and
    |Im val| <= tol * max(scale, 1e-300) in every element.  ``scale`` (one number, or an array
    that broadcasts with ``val``) is the size of the terms summed to ``val``; a nan one fails.
    One value and one scale (a Python number, a numpy scalar or a size-1 array) are judged
    by the same rule in Python floats, without numpy's ufunc dispatch.  The caller holds
    numpy's floating-point warnings off, so an overflowed or nan term reaches this test."""
    if getattr(val, "size", 1) == 1 == getattr(scale, "size", 1):
        v, s = complex(_item(val)), float(_item(scale))
        # max(s, ...) keeps a nan s, which then fails the comparison as numpy's does
        ok = isfinite(v.real) and isfinite(v.imag) and abs(v.imag) <= tol * max(s, 1e-300)
    else:
        ok = (np.isfinite(val) & (abs(val.imag) <= tol * np.maximum(scale, 1e-300))).all()
    if not ok:
        raise QuadratureResidueError(f"{what} is not finite or not real to {tol:g} of its terms")
    return val.real


def _item(x):
    """A size-1 array's or numpy scalar's value as a Python number; a Python number as is."""
    return x.item() if hasattr(x, "item") else x


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
