"""Bit-parallel truth tables.

A table over t Boolean variables is a (2**t)-bit integer whose bit e holds
the value at the assignment with binary code e, where variable i contributes
bit i of e.  Conjunction and disjunction of constraints become bitwise
AND/OR on tables, and model counting becomes a popcount.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def table_full(t: int) -> int:
    """All-ones table over t variables."""
    return (1 << (1 << t)) - 1


@lru_cache(maxsize=None)
def table_var(i: int, t: int) -> int:
    """Table of the projection onto variable i (bit e set iff bit i of e).

    One period is `2**i` zeros then `2**i` ones; it is repeated by doubling
    (`x |= x << period`), so the build costs O(2**t) bit operations in total.
    """
    if not 0 <= i < t:
        raise ValueError(f"variable {i} out of range for {t} variables")
    half = 1 << i
    x = ((1 << half) - 1) << half
    period = 2 * half
    width = 1 << t
    while period < width:
        x |= x << period
        period *= 2
    return x


def iter_bits(mask: int):
    """Yield the positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
