"""Exception hierarchy shared by all homlab modules.

The CLI maps these onto exit codes: InputError -> 2, ResourceLimitError (and
MemoryError) -> 3, InvariantError and FreenessError -> 4 (internal error).
"""

import os

_DEFAULT_CAP = 10**7


class HomlabError(Exception):
    """Base class for all homlab errors."""


class InputError(HomlabError, ValueError):
    """Malformed or out-of-contract input (undeclared vertex, empty set, bad file)."""


class ResourceLimitError(HomlabError):
    """An enumeration exceeded its configured element/chain cap.

    Raised instead of silently truncating; the cap is configurable via the
    HOMLAB_MAX_ELEMENTS environment variable.
    """


def default_max_elements() -> int:
    """Enumeration cap; HOMLAB_MAX_ELEMENTS overrides the 10^7 default."""
    raw = os.environ.get("HOMLAB_MAX_ELEMENTS")
    if raw is None:
        return _DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"HOMLAB_MAX_ELEMENTS={raw!r} is not an integer") from None


class FreenessError(HomlabError):
    """An involution that was required to be free fixes a cell or element."""


class InvariantError(HomlabError):
    """An internal cross-check failed; indicates a bug, not bad input."""
