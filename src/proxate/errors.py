"""Exception hierarchy shared across the package.

Two families matter for the CLI exit-code contract: ``ValidationError``
(bad config, schema, or input data; exit code 1) and ``NumericalError``
(a solve or fit failed on otherwise valid input; exit code 2).
"""

from __future__ import annotations


class ProxateError(Exception):
    """Base class for all package errors."""


class ValidationError(ProxateError):
    """Invalid configuration, arguments, or input data."""


class SchemaViolationError(ValidationError):
    """A record's missingness pattern contradicts its sample label."""


class ParseError(ValidationError):
    """A CSV row could not be parsed; carries the offending row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class RoleUnavailableError(ValidationError):
    """A variable role was requested on a sample where it is masked."""


class UnderIdentifiedError(ValidationError):
    """Fewer instruments than parameters in a bridge solve."""


class NumericalError(ProxateError):
    """A numerical procedure failed."""


class SingularSystemError(NumericalError):
    """Rank-deficient solve with no regularization; pass ridge > 0."""


class DegenerateTreatmentError(NumericalError):
    """A fit required both treatment arms but saw only one."""


class DegenerateInstrumentError(NumericalError):
    """Instrument carries no first-stage signal."""
