"""Exception hierarchy for the temporal XML database.

All library-raised exceptions derive from :class:`TemporalXMLError` so
applications can catch everything coming out of the library with a single
``except`` clause while still being able to discriminate finer categories.
"""

from __future__ import annotations


class TemporalXMLError(Exception):
    """Base class for every error raised by this library."""


class XMLSyntaxError(TemporalXMLError):
    """Raised by the XML parser on malformed input.

    Carries the (1-based) ``line`` and ``column`` of the offending position
    when known.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class PathSyntaxError(TemporalXMLError):
    """Raised when a path expression cannot be parsed."""


class QuerySyntaxError(TemporalXMLError):
    """Raised by the TXQL lexer/parser on malformed queries."""

    def __init__(self, message, position=None):
        suffix = f" (near position {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class QueryPlanError(TemporalXMLError):
    """Raised when a parsed query cannot be compiled to an operator plan."""


class StorageError(TemporalXMLError):
    """Base class for errors from the versioned document store."""


class NoSuchDocumentError(StorageError):
    """Raised when a document name or identifier is unknown to the store."""


class CorruptArchiveError(StorageError):
    """Raised when a stored archive or checkpoint fails validation.

    Covers unparsable files (wrapping the raw parser error with the file
    path and offset), checksum mismatches, and journal/checkpoint
    combinations that cannot reproduce a consistent store.  ``path`` and
    ``offset`` locate the corruption when known.
    """

    def __init__(self, message, path=None, offset=None):
        location = ""
        if path is not None:
            location += f" in {path!r}"
        if offset is not None:
            location += f" at byte offset {offset}"
        super().__init__(message + location)
        self.path = path
        self.offset = offset


class TornJournalError(CorruptArchiveError):
    """Raised (in strict verification only) when a commit journal ends in a
    torn or corrupted record.

    Recovery never raises this for a torn *tail* — it truncates the tail
    instead — so this surfaces only through :func:`~repro.storage.journal.verify_journal`.
    """


class UnsupportedFormatError(StorageError):
    """Raised when a durable file is in a format this release does not
    read: an older release's, which ``repro upgrade`` converts once, or
    an unknown one.  A refusal, never a fallback to an older generation."""

    def __init__(self, message):
        super().__init__(
            f"{message}: this release reads CAS root format 4 and journal "
            "v3 only; convert a directory an older release wrote, once, "
            "with `repro upgrade -d DIR`"
        )


class NoSuchVersionError(StorageError):
    """Raised when a requested version/timestamp does not exist."""


class DocumentDeletedError(StorageError):
    """Raised when the *current* version of a deleted document is requested."""


class DeltaApplicationError(StorageError):
    """Raised when an edit script cannot be applied to a tree.

    This signals repository corruption (a delta chain inconsistent with the
    stored current version) and is never expected during normal operation.
    """


class IdentityError(TemporalXMLError):
    """Raised on misuse of XIDs/EIDs/TEIDs (e.g. reusing a retired XID)."""


class DiffError(TemporalXMLError):
    """Raised when the differ is given trees it cannot process."""


class TimeError(TemporalXMLError):
    """Raised on invalid timestamps or malformed temporal literals."""


class ServingError(TemporalXMLError):
    """Raised by the serving layer: protocol violations, server-side
    failures reported back to a :class:`~repro.serving.ServingClient`."""
