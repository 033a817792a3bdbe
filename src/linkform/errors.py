"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the split coarse:
bad user data or input outside the supported range (a brute-force bound
the user chose included), targets outside the implemented constructions,
and internal consistency failures.
"""


class LinkformError(Exception):
    """Base class for all package-specific errors."""


class InvalidDataError(LinkformError):
    """Seifert data or a pairing description violates its invariants."""


class UnsupportedError(LinkformError):
    """Input is valid but outside the supported range (e.g. r = 1 pairings)."""


class UnrealizableError(LinkformError):
    """No implemented construction produces the requested pairing."""


class VerificationError(LinkformError):
    """An internal cross-check failed; indicates a bug, not a user error."""


class SearchBoundExceeded(UnsupportedError):
    """A brute-force oracle refused because its size bound was exceeded."""
