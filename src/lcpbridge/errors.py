"""Exception hierarchy shared across the toolkit, and ``input_file``, the
one rule for an input file that cannot be read.

Every error carries a stable ``code`` so CLI output and tests can match on
it without parsing message text.
"""

from __future__ import annotations

from contextlib import contextmanager


class LcpBridgeError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class DslSyntaxError(LcpBridgeError):
    """Pivot DSL input does not match the grammar."""

    code = "SYNTAX_ERROR"

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        super().__init__(message, line=line, column=column, expected=expected)
        self.line = line
        self.column = column
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        loc = f"line {self.line}, column {self.column}"
        if self.expected:
            return f"{base} ({loc}; expected {', '.join(self.expected)})"
        return f"{base} ({loc})"


class InvalidModelError(LcpBridgeError):
    """A model failed well-formedness validation where a valid one is required."""

    code = "INVALID_MODEL"

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)

    def __str__(self) -> str:
        head = super().__str__()
        if not self.violations:
            return head
        lines = [head] + [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


class PlantUmlError(LcpBridgeError):
    """PlantUML input cannot be interpreted (missing markers, bad multiplicity...)."""

    code = "PLANTUML_ERROR"


class NoPlantUmlBlockError(PlantUmlError):
    """Completion text contains no @startuml...@enduml block."""

    code = "NO_PLANTUML_BLOCK"


class MendixImportError(LcpBridgeError):
    """Mendix export document is malformed or internally inconsistent."""

    code = "MENDIX_IMPORT_ERROR"


class TabularError(LcpBridgeError):
    """Tabular source cannot be loaded."""

    code = "TABULAR_ERROR"


class UnknownPlatformError(LcpBridgeError):
    """Platform id is not present in the capability registry."""

    code = "UNKNOWN_PLATFORM"


class NoViablePathError(LcpBridgeError):
    """Neither migration method is available at one end of the requested pair."""

    code = "NO_VIABLE_PATH"


class MissingInputError(LcpBridgeError):
    """The migration plan requires an input artifact that was not supplied."""

    code = "MISSING_INPUT"


class UnusedInputError(LcpBridgeError):
    """An input file or screenshot was supplied that no step of the chain reads."""

    code = "UNUSED_INPUT"


@contextmanager
def input_file(path, mode: str = "rb", **open_args):
    """``path`` opened for reading: an ``OSError`` raised while it is opened
    or read in the ``with`` block becomes a MissingInputError. What the file
    holds is the caller's to judge."""
    try:
        with open(path, mode, **open_args) as handle:
            yield handle
    except OSError as exc:
        raise MissingInputError(f"cannot read {path}: {exc.strerror or exc}") from exc


class OutputError(LcpBridgeError):
    """The output directory or an artifact in it cannot be written."""

    code = "OUTPUT_ERROR"


class LlmClientError(LcpBridgeError):
    """Base for vision-model client failures."""

    code = "LLM_ERROR"


class NoCredentialsError(LlmClientError):
    """Live mode invoked without an API key; raised before any network call."""

    code = "NO_CREDENTIALS"


class AuthenticationError(LlmClientError):
    """The provider rejected the configured credentials."""

    code = "AUTHENTICATION_FAILED"


class TransportError(LlmClientError):
    """Network-level failure talking to the provider."""

    code = "TRANSPORT_FAILURE"


class MissingFixtureError(LlmClientError):
    """Replay store has no canned response for the request digest."""

    code = "MISSING_FIXTURE"

    def __init__(self, digest: str):
        super().__init__(f"no replay fixture for request digest {digest}", digest=digest)
        self.digest = digest


class UnreadableFixtureError(LlmClientError):
    """A replay fixture exists for the request digest but is not readable UTF-8 text."""

    code = "UNREADABLE_FIXTURE"


class ConfigError(LcpBridgeError):
    """CLI or file configuration is unusable."""

    code = "CONFIG_ERROR"
