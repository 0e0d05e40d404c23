"""Error taxonomy shared by every module in the package.

Each class is a precise failure mode and carries the command line's exit
code for it as the class attribute ``exit_code``: parse errors 2,
computation errors 3, recovery failures 4.  All of them derive from
:class:`Error` so callers can catch the whole family at once.
"""

from __future__ import annotations

__all__ = [
    "Error",
    "ParseError",
    "UnitMismatch",
    "NonpositiveScalar",
    "EmptySpectrum",
    "CutoffExceeded",
    "DegreeOutOfRange",
    "SingularBasis",
    "BoxTooLarge",
    "BudgetExceeded",
    "UnrepresentedNorm",
    "NotInImage",
    "EmptyInput",
    "BranchAmbiguous",
    "CutoffTooSmall",
    "NonpositiveMin",
]


class Error(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 3

    @property
    def kind(self) -> str:
        return type(self).__name__


class ParseError(Error):
    """Malformed user input: bad rational literal, bad JSON payload, bad flag value."""

    exit_code = 2


class UnitMismatch(Error):
    """Two spectra with different unit tags were combined or compared."""


class NonpositiveScalar(Error):
    """A scalar that must be positive (scale factor, alpha, beta, r^2) was not."""


class EmptySpectrum(Error):
    """min_entry was asked of a spectrum with no entries."""


class CutoffExceeded(Error):
    """A comparison or truncation bound lies beyond a spectrum's guaranteed cutoff."""


class DegreeOutOfRange(Error):
    """A form degree outside the range an operation is defined for."""


class SingularBasis(Error):
    """A lattice basis matrix is not invertible."""


class BoxTooLarge(Error):
    """The brute-force enumeration box exceeds the configured budget."""


class BudgetExceeded(Error):
    """A lattice elimination, norm enumeration or sphere series exceeds the work budget."""


class UnrepresentedNorm(Error):
    """A squared norm not attained by any dual lattice vector."""


class NotInImage(Error):
    """A spectrum promised to be a two-parameter combination of a base set is not."""


class EmptyInput(Error):
    """A recovery algorithm received an empty spectrum."""


class BranchAmbiguous(Error):
    """The leading multiplicity matches no admissible recovery branch."""

    exit_code = 4


class CutoffTooSmall(Error):
    """A recovery step ran past the truncation cutoff before it could finish."""

    exit_code = 4


class NonpositiveMin(Error):
    """Radius recovery needs a positive minimal eigenvalue."""
