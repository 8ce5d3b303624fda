"""Bit-parallel truth tables, and the product of many big integers.

A table over t Boolean variables is a (2**t)-bit integer whose bit e holds
the value at the assignment with binary code e, where variable i contributes
bit i of e.  Conjunction and disjunction of constraints become bitwise
AND/OR on tables: elimination builds the joint table of a bucket's 0/1
factors this way, and the gadget search checks each candidate by
popcounts under selector masks.
"""

from __future__ import annotations

from functools import lru_cache

_BITS = bytes.maketrans(b"01", b"\x00\x01")


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


def factor_table(scope, table, bases, full: int) -> int:
    """The table of a 0/1 factor (see satpoly.elimination), bases[u] being u's table.

    One cube per entry of the rarer value: the zeros are cleared from full,
    or the ones are joined.
    """
    zeros = [e for e, x in enumerate(table) if not x]
    few_zeros = 2 * len(zeros) <= len(table)
    mask = 0
    for e in zeros if few_zeros else (e for e, x in enumerate(table) if x):
        cube = full
        for j, u in enumerate(scope):
            cube &= bases[u] if e >> j & 1 else ~bases[u]
        mask |= cube
    return ~mask & full if few_zeros else mask


def table_bits(table: int, t: int) -> list[int]:
    """The 2**t entries of a table over t variables, as a list of 0/1 ints."""
    return list(format(table, f"0{1 << t}b")[::-1].encode().translate(_BITS))


def iter_bits(mask: int):
    """Yield the positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def balanced_product(factors: list[int]) -> int:
    """Multiply pairwise in rounds, so big factors meet at balanced sizes.

    Factors such as the 2**k leaf weights of a cover count carry many
    trailing zero bits: they are stripped from each factor first, the odd
    parts multiplied, and one shift at the end puts them back.
    """
    if 0 in factors:
        return 0
    shift = 0
    odd = []
    for x in factors:
        tz = (x & -x).bit_length() - 1
        shift += tz
        odd.append(x >> tz)
    factors = odd
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return (factors[0] if factors else 1) << shift
