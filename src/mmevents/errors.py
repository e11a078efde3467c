"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


# --- hypergraph state ---

class InvalidLocalization(EngineError):
    pass


class DuplicateLocalization(EngineError):
    pass


class MalformedState(EngineError):
    pass


# --- operation validation ---

class ValidationError(EngineError):
    """An operation failed structural validation."""


class UnknownTarget(ValidationError):
    pass


class SchemaViolation(ValidationError):
    pass


class MissingField(ValidationError):
    pass


class OutOfRangeConfidence(ValidationError):
    pass


class InternalInconsistency(EngineError):
    """Post-commit invariant check failed; indicates an engine bug."""


# --- agents / backends ---

class AgentUnavailable(EngineError):
    pass


class VisionUnavailable(EngineError):
    pass


class BackendTimeout(EngineError):
    pass


class BackendHTTPError(EngineError):
    pass


class ScriptExhausted(EngineError):
    pass


# --- stage III / scoring ---

class NoAlignment(EngineError):
    """A mention could not be located in the source text."""


class UnknownSetting(EngineError):
    pass
