"""Typed errors with stable CLI exit codes.

Exit code map: 0 success, 1 size-cap violation, 2 missing input file,
3 malformed rational literal, 4 schema violation, 5 internal invariant
failure (a bug in unclab, not in the input). DomainError covers
precondition failures that are not size related; it exits 1 as well
since the distinction callers care about is "your input was out of
contract" vs "file/format problems".
"""


class UnclabError(Exception):
    exit_code = 1


class DomainError(UnclabError):
    """Input violates a mathematical precondition (bad eta, m = 0, delta > 1, ...)."""

    exit_code = 1


class SizeError(UnclabError):
    """Input exceeds a declared size cap."""

    exit_code = 1


class MissingInputError(UnclabError):
    """A referenced input file does not exist."""

    exit_code = 2


class RationalFormatError(UnclabError):
    """A rational literal is not parseable as p/q with q != 0."""

    exit_code = 3


class SchemaError(UnclabError):
    """JSON input does not match the documented schema."""

    exit_code = 4


class InternalError(UnclabError):
    """An internal invariant failed: a dynamic program or a bound disagrees
    with itself. Points at a bug in unclab rather than at the input."""

    exit_code = 5
