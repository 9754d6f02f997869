"""Exception hierarchy shared across the package.

Errors split into three groups that the CLI maps onto distinct exit codes:
spec-string syntax problems (usage), construction-time rejections
(validation), and run-time evaluation failures.
"""

from __future__ import annotations


class NdaError(Exception):
    """Base class for all package errors."""


class SpecError(NdaError):
    """A command line or a mini-syntax spec string (arithmetic, carrier, f, sequence) is malformed."""


class ValidationError(NdaError):
    """A functional parameter or carrier was rejected at construction time."""


class TableError(ValidationError):
    """A table-backed functional parameter file is unusable."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class OffCarrierError(NdaError):
    """A value does not lie on the carrier grid (within tolerance)."""


class CarrierIndexError(NdaError):
    """A carrier index is outside [0, size)."""


class CarrierExhaustedError(NdaError):
    """A dual-kind operation overflowed the finite carrier window."""


class MultiplicationUnavailableError(NdaError):
    """Multiplication requested in an arithmetic whose f does not fix 1."""


class LexError(NdaError):
    """Unknown character in an expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ParseError(NdaError):
    """Malformed expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
