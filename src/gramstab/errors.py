"""Exception types raised across the package.

Every error that stems from bad user input derives from
:class:`GramstabError` and carries ``exit_code = 2`` for the CLI.
:class:`InternalInvariant` signals a broken internal contract and maps
to exit code 3.
"""

from __future__ import annotations


class GramstabError(Exception):
    """Base class for input and validation errors."""

    exit_code = 2


class NonFiniteInput(GramstabError):
    """A matrix contains NaN or infinite values."""


class ShapeMismatch(GramstabError):
    """Dimensions disagree between inputs.

    ``config_index`` names the offending configuration when the mismatch
    was detected inside an ensemble.
    """

    def __init__(self, message: str, config_index: int | None = None):
        super().__init__(message)
        self.config_index = config_index


class NonFiniteScore(GramstabError):
    """A score or index is NaN or infinite although every entry is finite.

    The result is too large for float64: a raw edge summary, a pair's
    distance, or their spread. ``config_index`` names the configuration
    of an edge summary; the message names the pair of a pair score.
    """

    def __init__(self, message: str, config_index: int | None = None):
        super().__init__(message)
        self.config_index = config_index


class EmptyGraph(GramstabError):
    """The graph has no edges, so edge-restricted sums are undefined."""


class TooFewConfigs(GramstabError):
    """An ensemble needs at least two configurations."""


class KTooLarge(GramstabError):
    """Requested neighbor count k is not in [1, node_count - 1]."""


class InstanceTooLarge(GramstabError):
    """Input exceeds the configured size cap for a dense computation."""


class NotABijection(GramstabError):
    """A node mapping is not a bijection onto 0..n-1."""


class ParseError(GramstabError):
    """A text input could not be parsed.

    Carries the path and 1-based line number where parsing failed.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{loc} {message}".strip())
        self.path = path
        self.line = line


class TruncatedFile(GramstabError):
    """A binary embedding file is shorter than its header promises."""

    def __init__(self, path: str, expected_bytes: int, actual_bytes: int):
        super().__init__(
            f"{path}: truncated file, expected {expected_bytes} bytes "
            f"but found {actual_bytes}"
        )
        self.path = path
        self.expected_bytes = expected_bytes
        self.actual_bytes = actual_bytes


class TrailingBytes(GramstabError):
    """A binary embedding file is longer than its header promises."""

    def __init__(self, path: str, expected_bytes: int, actual_bytes: int):
        super().__init__(
            f"{path}: {actual_bytes - expected_bytes} trailing bytes, expected "
            f"{expected_bytes} bytes but found {actual_bytes}"
        )
        self.path = path
        self.expected_bytes = expected_bytes
        self.actual_bytes = actual_bytes


class ManifestError(GramstabError):
    """An ensemble manifest is malformed."""


class InternalInvariant(Exception):
    """An internal consistency check failed; indicates a bug, not bad input."""

    exit_code = 3
