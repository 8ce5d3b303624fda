import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from satpoly._bits import iter_bits, table_bits, table_full, table_var


def division_table_var(i, t):
    """The earlier construction: one period times the repunit full // (2**period - 1)."""
    half = 1 << i
    block = ((1 << half) - 1) << half
    denom = (1 << (2 * half)) - 1
    return block * (table_full(t) // denom)


@pytest.mark.parametrize("t", range(1, 13))
def test_table_var_matches_division_formula(t):
    for i in range(t):
        assert table_var(i, t) == division_table_var(i, t)


@pytest.mark.parametrize("t", range(1, 7))
def test_table_var_bits_are_projections(t):
    for i in range(t):
        assert list(iter_bits(table_var(i, t))) == [e for e in range(1 << t) if e >> i & 1]


def test_table_var_range():
    with pytest.raises(ValueError):
        table_var(3, 3)
    with pytest.raises(ValueError):
        table_var(-1, 3)


@st.composite
def tables(draw):
    t = draw(st.integers(0, 12))
    table = draw(st.one_of(st.sampled_from([0, table_full(t)]),
                           st.integers(0, table_full(t))))
    return table, t


@given(tables())
@example((0, 0))
@example((1, 0))
@example((0, 12))
@example((table_full(12), 12))
def test_table_bits_lists_every_entry(case):
    # elimination multiplies these entries by big integers, so they must be
    # Python ints, not fixed-width array values
    table, t = case
    bits = table_bits(table, t)
    assert type(bits) is list and all(type(b) is int for b in bits)
    assert bits == [table >> e & 1 for e in range(1 << t)]
