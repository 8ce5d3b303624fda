from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpoly._bits import iter_bits
from satpoly.polynomial import (
    MultilinearPoly,
    canonical_terms,
    homogeneous_component,
    linear_coefficient,
    parse_poly,
    serialize_poly,
)

from strategies import points_for, rationals

F = Fraction


def poly(n, terms):
    return MultilinearPoly(n, {m: F(c) for m, c in terms.items()})


@st.composite
def polys(draw, max_vars=5):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    terms = {}
    for mask in range(1 << n):
        if draw(st.booleans()):
            c = draw(rationals)
            if c:
                terms[mask] = c
    return MultilinearPoly(n, terms)


def test_evaluate_examples():
    p = poly(2, {0b01: 1, 0b10: 1, 0b11: 1})
    assert p.evaluate([1, 1]) == 3
    assert p.evaluate([F(1, 2), F(1, 3)]) == 1
    assert MultilinearPoly.zero(2).evaluate([5, 7]) == 0


def test_add_multiply_equal():
    x1 = poly(2, {0b01: 1, 0: 1})
    x2 = poly(2, {0b10: 1, 0: 1})
    assert x1.multiply(x2) == poly(2, {0: 1, 0b01: 1, 0b10: 1, 0b11: 1})
    assert poly(2, {0b01: 1, 0b10: 1}) == poly(2, {0b10: 1, 0b01: 1})
    with pytest.raises(ValueError):
        poly(2, {0b01: 1}).multiply(poly(2, {0b01: 1}))


def test_multiply_disjoint_supports_ok():
    # a shared variable only in one factor's support is still a collision
    p = poly(3, {0b001: 1, 0: 2})
    q = poly(3, {0b110: 3})
    assert p.multiply(q) == poly(3, {0b111: 3, 0b110: 6})


def test_zero_coefficients_dropped():
    p = MultilinearPoly(2, {0b01: F(0), 0b10: F(2)})
    assert p.terms == {0b10: F(2)}


def test_substitute():
    p = poly(2, {0b11: 1, 0b01: 1})
    assert p.substitute({1: F(0)}) == poly(2, {0b01: 1})
    assert p.substitute({0: F(2)}) == poly(2, {0b10: 2, 0: 2})


def test_homogeneous_component_readoff():
    p = poly(2, {0: 3, 0b01: 2, 0b11: 5})
    hom2 = homogeneous_component(p.evaluate, 2, 2, 2)
    only = poly(2, {0b11: 5})
    for pt in ([1, 1], [F(2), F(-1, 3)], [0, 7]):
        assert hom2(pt) == only.evaluate(pt)


def test_homogeneous_component_identity_on_homogeneous():
    p = poly(3, {0b011: 2, 0b101: -1})
    hom = homogeneous_component(p.evaluate, 3, 3, 2)
    for pt in ([1, 2, 3], [F(1, 2), F(1, 3), F(1, 5)]):
        assert hom(pt) == p.evaluate(pt)


@given(polys(), st.data())
def test_homogeneous_components_sum_and_scale(p, data):
    comps = [homogeneous_component(p.evaluate, p.num_vars, p.num_vars, d) for d in range(p.num_vars + 1)]
    x = data.draw(points_for(p.num_vars))
    assert sum((c(x) for c in comps), F(0)) == p.evaluate(x)
    t = data.draw(rationals)
    for d, c in enumerate(comps):
        assert c([t * xi for xi in x]) == t**d * c(x)


def test_linear_coefficient_examples():
    # f = 1 + X1 X2 + A (X1 + X2), A is variable index 2
    f = poly(3, {0: 1, 0b011: 1, 0b101: 1, 0b110: 1})
    c = linear_coefficient(f.evaluate, 3, 2)
    for pt in ([1, 2, 0], [F(1, 2), F(3), F(9)]):
        assert c(pt) == pt[0] + pt[1]
    g = poly(3, {0b011: 4})  # free of variable 2
    czero = linear_coefficient(g.evaluate, 3, 2)
    assert czero([5, 6, 7]) == 0


@given(polys())
def test_serialize_roundtrip(p):
    assert parse_poly(serialize_poly(p), p.num_vars) == p


@given(polys(max_vars=7))
def test_canonical_terms_order_by_degree_then_indices(p):
    # the order both the term-per-line format and the CLI's JSON used to sort by
    masks = sorted(p.terms, key=lambda m: (m.bit_count(), tuple(iter_bits(m))))
    assert canonical_terms(p) == [([i + 1 for i in iter_bits(m)], p.terms[m]) for m in masks]


def test_serialization_format():
    p = poly(3, {0: F(5), 0b101: F(3, 2), 0b010: F(-1)})
    text = serialize_poly(p)
    assert text == "5 :\n-1 : 2\n3/2 : 1 3\n"
    assert parse_poly(text).terms == p.terms


def test_as_fraction():
    assert poly(2, {0: 7}).as_fraction() == 7
    with pytest.raises(ValueError):
        poly(2, {0b01: 1}).as_fraction()
