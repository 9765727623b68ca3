"""Exception types shared across the package."""


class CrankqError(Exception):
    """Base class for all package-specific errors."""


class OrderExceeded(CrankqError):
    """A coefficient beyond the computed truncation order was requested.

    The caller must recompute the series at a higher order.
    """


class NonUnitLeadingCoefficient(CrankqError):
    """Inversion was attempted on a series whose leading coefficient is not +-1."""


class InexactDivision(CrankqError):
    """An exact integer division left a remainder.

    Raised where divisibility is a mathematical claim under test, so a
    failure here falsifies the claim rather than signalling a usage bug.
    """


class EnumerationCapExceeded(CrankqError):
    """A combinatorial oracle was asked for an n_max above ``ORACLE_CAP``.

    The counts are exact at any n; the cap bounds the O(n_max^2)
    big-integer work of one request.
    """
