"""Domain exceptions shared across the package.

Each class carries a distinct process exit code so the command line tool
can keep its documented error contract without a separate lookup table.
"""

from __future__ import annotations


class ScbError(Exception):
    """Base class for every domain error raised by this package."""

    exit_code = 1


class MalformedFile(ScbError):
    """A file that cannot be read or written, or a document that does not
    parse or parses to the wrong shape."""

    exit_code = 3


class InvalidComplex(ScbError):
    """A face table that breaks the simplicial identities or refers to
    simplices that do not exist."""

    exit_code = 4

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "; ".join(self.violations) if self.violations else "invalid complex"
        )


class DanglingReference(ScbError):
    """An index pointing outside the carrier it should live on."""

    exit_code = 4


class IncoherentLocalSystem(ScbError):
    """Stalk or descent data that fails the restriction laws."""

    exit_code = 5


class NotBinary(ScbError):
    """A cochain required to take values in {0, 1} that does not."""

    exit_code = 6


class NotACocycle(ScbError):
    """A cochain whose coboundary is nonzero where zero is required."""

    exit_code = 6


class BoundExceeded(ScbError):
    """A requested invariant outside the range the carrier supports."""

    exit_code = 7


class IncompatibleFamily(ScbError):
    """Facet data that fails the face-exchange precheck for lifting."""

    exit_code = 8


class NotClosedSurface(ScbError):
    exit_code = 9


class NonOrientable(ScbError):
    exit_code = 9


class LastArc(ScbError):
    """Contraction of the only bead on a vertex circle."""

    exit_code = 10


class BeadNotFound(ScbError):
    exit_code = 10


class LastColor(ScbError):
    """Deletion of the only color of a necklace."""

    exit_code = 10


class EnumerationBound(ScbError):
    """An enumeration request above the configured size ceiling."""

    exit_code = 11


class MismatchedCarriers(ScbError):
    """Two values that must live on the same carrier but do not."""

    exit_code = 12
