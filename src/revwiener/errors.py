"""Exception types shared across the package."""

from __future__ import annotations


class RevWienerError(Exception):
    """Base class for all errors raised by this package."""


class TreeValidationError(RevWienerError, ValueError):
    """An edge list does not describe a valid tree."""


class WrongEdgeCount(TreeValidationError):
    pass


class SelfLoop(TreeValidationError):
    pass


class DuplicateEdge(TreeValidationError):
    pass


class Disconnected(TreeValidationError):
    pass


class LabelOutOfRange(TreeValidationError):
    pass


class EdgeListParseError(RevWienerError, ValueError):
    """Malformed edge-list text input."""


class InvalidSpec(RevWienerError, ValueError):
    """A family descriptor violates its invariants."""


class SpecParseError(RevWienerError, ValueError):
    """Malformed family spec string."""


class UnusablePath(RevWienerError):
    """A file named on the command line cannot be read or written."""


class PreconditionFailed(RevWienerError):
    """A transform was applied to a tree outside its domain."""


class DomainTooSmall(RevWienerError, ValueError):
    """An argument outside the values its function accepts.

    Below the smallest accepted value, an empty range, or past a limit that
    no option raises.  A resource bound that an option raises is
    BoundExceeded instead.
    """


class BoundExceeded(RevWienerError):
    """An enumeration request exceeds the configured resource bound."""


class EmptyClass(RevWienerError):
    """No tree exists with the requested (n, diameter) combination."""


class UnknownTheorem(RevWienerError, ValueError):
    """Unrecognized theorem id passed to the verifier."""


class InternalCheckFailed(RevWienerError):
    """A result failed one of the package's own consistency checks: a bug."""
