"""Exception types shared across the package.

Hypothesis failures on *vectors* (a point outside its certifying ball) are not
errors: evaluators return reports with ``holds=False`` so callers can study
what happens outside the hypothesis set.  Exceptions are reserved for inputs
on which the requested quantity is not even well defined (mismatched spaces,
degenerate scalar pairs, parameters that make a bound divide by zero or take
the square root of a negative number).
"""


class IneqError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(IneqError):
    """Operands live over different scalar fields (or a complex scalar hit a real space)."""


class DimensionMismatchError(IneqError):
    """Operands have incompatible dimensions or lengths."""


class RankDeficiencyError(IneqError):
    """Orthonormalization hit a residual below tolerance (dependent input)."""


class NotOrthonormalError(IneqError):
    """A supplied family fails the orthonormality tolerance."""


class NotUnitVectorError(IneqError):
    """A base vector required to have unit norm does not (within tolerance)."""


class DegeneratePairError(IneqError):
    """A scalar pair is degenerate: hi too close to +/- lo for the bound to be meaningful."""


class PreconditionError(IneqError):
    """A scalar parameter precondition failed (e.g. r >= ||a||, nonpositive Re(G*conj(g)))."""


class InputFormatError(IneqError):
    """A problem with an instance document (malformed JSON, missing fields, bad values)."""


#: Longest repr of an offending value that an error message quotes.
_BRIEF_CHARS = 200


def _brief(value) -> str:
    """repr(value) for an error message, cut to _BRIEF_CHARS with an ellipsis.

    Messages quote untrusted document values, which can be arbitrarily large.
    """
    text = repr(value)
    if len(text) <= _BRIEF_CHARS:
        return text
    return text[: _BRIEF_CHARS - 3] + "..."
