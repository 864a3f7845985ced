"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error the engine raises on purpose."""


class DataFormatError(EngineError):
    """Malformed ingestion or ground-truth data.

    ``row`` is the 1-based row (or file line) number of the offending record
    when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class QueryParseError(EngineError):
    """The raw query string cannot be split into a head and modifiers."""


class UnanswerableQueryError(EngineError):
    """No modifier of the query resolves to a concept in the taxonomy."""


class NoCandidateEntitiesError(EngineError):
    """The query concepts cover no entities at all."""
