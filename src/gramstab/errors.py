"""Exception types raised across the package.

Every error that stems from bad user input derives from
:class:`GramstabError`; :class:`InternalInvariant` signals a broken
internal contract. The CLI alone decides exit codes: 2 for a
GramstabError or an OSError, 3 for anything else.
"""

from __future__ import annotations

import os


class GramstabError(Exception):
    """Base class for input and validation errors.

    ``config_index``, ``path`` and ``line`` name the configuration, the
    file and its 1-based line the error was found in, each None when not
    known. A path prefixes the message as ``path:`` or ``path:line:``.
    """

    def __init__(self, message: str = "", *, config_index: int | None = None,
                 path: str | os.PathLike | None = None, line: int | None = None):
        if path is not None:
            path = str(path)
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        super().__init__(message)
        self.config_index = config_index
        self.path = path
        self.line = line


class NonFiniteInput(GramstabError):
    """A matrix contains NaN or infinite values."""


class ShapeMismatch(GramstabError):
    """Dimensions disagree between inputs.

    ``config_index`` names the offending configuration when the mismatch
    was detected inside an ensemble.
    """


class NonFiniteScore(GramstabError):
    """A score or index is NaN or infinite although every entry is finite.

    The result is too large for float64: centered values, a pair's
    distance, or the mean over pairs. ``config_index`` names the
    configuration of the first; the message names a pair's.
    """


class EmptyGraph(GramstabError):
    """The graph has no edges, so edge-restricted sums are undefined."""


class TooFewConfigs(GramstabError):
    """An ensemble needs at least two configurations."""


class KTooLarge(GramstabError):
    """Requested neighbor count k is not in [1, node_count - 1]."""


class InstanceTooLarge(GramstabError):
    """Input exceeds the size cap of a dense computation, or asks for more
    memory than can be allocated."""


class NotABijection(GramstabError):
    """A node mapping is not a bijection onto 0..n-1."""


class ParseError(GramstabError):
    """A text input could not be parsed.

    Carries the path and 1-based line number where parsing failed.
    """


class TruncatedFile(GramstabError):
    """A binary embedding file is shorter than its header promises."""


class TrailingBytes(GramstabError):
    """A binary embedding file is longer than its header promises."""


class ManifestError(GramstabError):
    """An ensemble manifest is malformed."""


class InternalInvariant(Exception):
    """An internal consistency check failed; indicates a bug, not bad input."""
