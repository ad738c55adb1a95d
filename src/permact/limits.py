"""Guard rails for exhaustive enumeration.

Everything in this package enumerates small combinatorial sets exhaustively.
The cap exists so that a typo like n=12 fails fast instead of running for
hours; it can be raised explicitly via the PERMACT_MAX_N environment variable.
"""

from __future__ import annotations

import math
import os

DEFAULT_MAX_N = 10


class BoundExceededError(ValueError):
    pass


def enumeration_bound() -> int:
    raw = os.environ.get("PERMACT_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        bound = int(raw)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ValueError(f"PERMACT_MAX_N must be a nonnegative integer, got {raw!r}")
    return bound


def check_enumeration_size(n: int, what: str = "n") -> None:
    bound = enumeration_bound()
    if n > bound:
        raise BoundExceededError(
            f"{what}={n} exceeds the enumeration cap {bound}; "
            "set PERMACT_MAX_N to raise it"
        )


def check_enumeration_count(count: int, what: str) -> None:
    """Refuse to build more objects than S_n has at the cap n: a set whose
    size grows faster in its own parameter than n! is capped by its count."""
    bound = enumeration_bound()
    most = math.factorial(bound)
    if count > most:
        raise BoundExceededError(
            f"{what} has {count} members, more than {bound}! = {most}, the enumeration cap; "
            "set PERMACT_MAX_N to raise it"
        )
