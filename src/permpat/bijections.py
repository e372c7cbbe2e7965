"""Constructive length-changing maps with exact round-trip behavior.

Two distinct insertion families are exposed under distinct names because
they behave very differently and must never be conflated in reports:

* `prepend_insert` puts a new value h at the front and shifts old entries
  >= h up by one (the closure map for whole-family avoidance).
* `insert_bottom` shifts every entry up by one and inserts the new minimum 1
  at a chosen position (the closure map for exactly-once counting), with
  `remove_bottom` as its exact inverse.
"""

from __future__ import annotations

from .core import Permutation

__all__ = ["prepend_insert", "insert_bottom", "remove_bottom"]


def prepend_insert(beta: Permutation, h: int) -> Permutation:
    """Prepend the value h, shifting old entries >= h up by one.

    The result has length n+1, starts with h, and restricts back to beta on
    the remaining positions after collapsing values.
    """
    n = len(beta)
    if not 1 <= h <= n + 1:
        raise ValueError(f"h={h} outside 1..{n + 1}")
    return Permutation((h, *(v if v < h else v + 1 for v in beta.values)))


def insert_bottom(beta: Permutation, h: int) -> Permutation:
    """Shift every entry up by one and insert the new minimum 1 at
    position h (1-based)."""
    n = len(beta)
    if not 1 <= h <= n + 1:
        raise ValueError(f"h={h} outside 1..{n + 1}")
    bumped = [v + 1 for v in beta.values]
    bumped.insert(h - 1, 1)
    return Permutation(bumped)


def remove_bottom(alpha: Permutation) -> tuple[Permutation, int]:
    """Remove the entry 1 and shift every other entry down by one; returns
    the shortened permutation together with the 1-based position the 1
    occupied.  Exact inverse of `insert_bottom`."""
    if len(alpha) < 2:
        raise ValueError("needs length >= 2")
    h = alpha.values.index(1) + 1
    rest = tuple(v - 1 for v in alpha.values if v != 1)
    return Permutation(rest), h
