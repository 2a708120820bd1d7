"""Closed-form count laws used by the construction and its checks.

All functions are pure integer arithmetic; none of them touch geometry, so
the algebra can be tested without building anything.
"""

from __future__ import annotations

from .errors import InvalidCounts


def arc_index_upper(c: int, e: int, b: int) -> int:
    """Upper bound on the arc index in terms of a crossing count."""
    return c + e + b


def construction_count(alpha: int, e: int, v: int, s: int, k: int) -> int:
    """Sticks used by the construction: 3*alpha + 3e - 4v - 2s + k."""
    n = 3 * alpha + 3 * e - 4 * v - 2 * s + k
    if n < 3:
        raise InvalidCounts(f"count {n} < 3 for a nonempty input")
    return n


def crossing_stick_bound(c: int, e: int, v: int, s: int, b: int, k: int) -> int:
    """Stick bound from a crossing count: 3c + 6e - 4v - 2s + 3b + k."""
    return 3 * c + 6 * e - 4 * v - 2 * s + 3 * b + k

