"""Exception hierarchy shared by all homlab modules.

The CLI maps these onto exit codes: InputError -> 2, ResourceLimitError (and
MemoryError) -> 3, InvariantError and FreenessError -> 4 (internal error).
"""


class HomlabError(Exception):
    """Base class for all homlab errors."""


class InputError(HomlabError, ValueError):
    """Malformed or out-of-contract input (undeclared vertex, empty set, bad file)."""


class ResourceLimitError(HomlabError):
    """An enumeration exceeded its configured element/chain cap.

    Raised instead of silently truncating; the cap is configurable via the
    HOMLAB_MAX_ELEMENTS environment variable.
    """


class FreenessError(HomlabError):
    """An involution that was required to be free fixes a cell or element."""


class InvariantError(HomlabError):
    """An internal cross-check failed; indicates a bug, not bad input."""
