import pytest

from satpoly._bits import iter_bits, table_full, table_var


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
