"""Exception types shared across the package."""


class CubeplanError(Exception):
    """Base class for all errors raised by this package.

    ``index`` is the position of the refused item in its input sequence
    (a graph edge, an obstacle, a seed, a move), or None when no one
    item is at fault.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class ModelError(CubeplanError):
    """A system definition is malformed (bad generator, bad workspace, ...)."""


class StateError(CubeplanError):
    """A state is inconsistent with the workspace or its obstacles."""


class NotAdmissibleError(CubeplanError):
    """An action's source pattern does not match the state it is applied to."""


class BuildTruncatedError(CubeplanError):
    """An operation needs the full complex but the build hit its cap."""


class TooLargeError(CubeplanError):
    """A computation was refused because the input exceeds a safety bound."""


class PathError(CubeplanError):
    """A cube path or edge path is not well formed or not executable."""


class FormatError(CubeplanError):
    """A system description file could not be parsed."""
