from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpoly.errors import ParseError
from satpoly.formulas import count_sat, poly_of_formula
from satpoly.graphs import Var, bipartize, ip, weighted_graph
from satpoly.polynomial import MultilinearPoly
from satpoly.posets import (
    Poset,
    antichain_ideal_bijection,
    antichain_poly,
    format_poset_file,
    ideal_poly,
    maximal_elements,
    parse_poset_file,
    poset,
    poset_from_bipartite,
    weighted_bijection,
)
from satpoly.reductions import ideal_to_implicative2sat

import reference_paths as reference

F = Fraction


def P(n, terms):
    return MultilinearPoly(n, {m: F(c) for m, c in terms.items()})


def all_antichains(p):
    elems = sorted(p.elements)
    for r in range(len(elems) + 1):
        for s in combinations(elems, r):
            if p.is_antichain(s):
                yield frozenset(s)


def all_ideals(p):
    elems = sorted(p.elements)
    for r in range(len(elems) + 1):
        for s in combinations(elems, r):
            if p.is_ideal(s):
                yield frozenset(s)


def test_transitive_closure_and_validation():
    p = poset({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2)])
    assert (0, 2) in p.less
    with pytest.raises(ValueError):
        poset({0: 1, 1: 1}, [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ValueError):
        poset({0: 1}, [(0, 0)])  # irreflexive


def test_poset_from_bipartite_single_edge():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)], (frozenset({0}), frozenset({1})))
    p = poset_from_bipartite(g)
    assert p.less == frozenset({(0, 1)})
    assert p.levels == (frozenset({0}), frozenset({1}))


def test_poset_from_edgeless_is_antichain():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [], (frozenset({0}), frozenset({1})))
    p = poset_from_bipartite(g)
    assert p.less == frozenset()


def test_poset_from_bipartize_image():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)])
    bp = bipartize(g)
    p = poset_from_bipartite(bp)
    assert len(p.elements) == 5
    assert antichain_poly(p) == ip(bp)


def test_antichain_ideal_polys_chain():
    p = poset({0: Var(0), 1: Var(1)}, [(0, 1)])
    assert antichain_poly(p) == P(2, {0: 1, 1: 1, 2: 1})
    assert ideal_poly(p) == P(2, {0: 1, 0b01: 1, 0b11: 1})


def test_polys_empty_order():
    p = poset({0: Var(0), 1: Var(1)}, [])
    both = P(2, {0: 1, 1: 1, 2: 1, 3: 1})
    assert antichain_poly(p) == both and ideal_poly(p) == both


def test_two_level_negative_example():
    p = poset(
        {0: F(-1), 1: F(-1), 2: Var(0)},
        [(0, 2), (1, 2)],
        (frozenset({0, 1}), frozenset({2})),
    )
    x_only = P(1, {1: 1})
    assert antichain_poly(p) == x_only
    assert ideal_poly(p) == x_only


def test_natural_bijection():
    p = poset({0: 1, 1: 1}, [(0, 1)])
    assert antichain_ideal_bijection(p, {0}) == frozenset({0})
    assert antichain_ideal_bijection(p, set()) == frozenset()
    assert antichain_ideal_bijection(p, {1}) == frozenset({0, 1})
    assert maximal_elements(p, {0, 1}) == frozenset({1})
    with pytest.raises(ValueError):
        antichain_ideal_bijection(p, {0, 1})  # comparable pair


@given(st.data())
def test_bijection_mutually_inverse(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    rels = data.draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    p = Poset({x: F(1) for x in range(n)}, rels)
    antichains = list(all_antichains(p))
    ideals = set(all_ideals(p))
    images = set()
    for a in antichains:
        i = antichain_ideal_bijection(p, a)
        assert i in ideals
        assert maximal_elements(p, i) == a
        images.add(i)
    assert images == ideals
    assert len(antichains) == len(ideals)


def test_weighted_bijection_example():
    p = poset(
        {0: F(-1), 1: F(-1), 2: Var(0)},
        [(0, 2), (1, 2)],
        (frozenset({0, 1}), frozenset({2})),
    )
    image = weighted_bijection(p, {2})
    assert image == frozenset({0, 1, 2})
    assert p.is_ideal(image)


def test_weighted_bijection_requires_levels():
    p = poset({0: 1, 1: 1}, [(0, 1)])
    with pytest.raises(ValueError):
        weighted_bijection(p, {0})


def test_or1_formula_chain():
    p = poset({0: Var(0), 1: Var(1)}, [(0, 1)])
    f = ideal_to_implicative2sat(p)
    assert poly_of_formula(f) == ideal_poly(p)


def test_or1_formula_transitive_pairs():
    p = poset({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2)])
    f = ideal_to_implicative2sat(p)
    assert len(f.constraints) == 3  # includes the composed pair
    assert count_sat(f) == 4  # ideals of a 3-chain


def test_or1_formula_empty_order():
    p = poset({0: Var(0), 1: Var(1)}, [])
    f = ideal_to_implicative2sat(p)
    assert len(f.constraints) == 0
    assert poly_of_formula(f) == P(2, {0: 1, 1: 1, 2: 1, 3: 1})


@given(st.data())
def test_antichains_are_independent_sets(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    edges = [
        (u, v)
        for u in range(k)
        for v in range(k, n)
        if data.draw(st.booleans())
    ]
    g = weighted_graph(
        {v: Var(v) for v in range(n)},
        edges,
        (frozenset(range(k)), frozenset(range(k, n))),
    )
    p = poset_from_bipartite(g)
    assert antichain_poly(p) == ip(g)


POSET_FILE = """\
p poset 3
v 1 X1
v 2 -1
v 3 1
r 1 2
r 2 3
"""


def test_poset_file_roundtrip_closure():
    p = parse_poset_file(POSET_FILE)
    assert (1, 3) in p.less  # closure computed on load
    again = parse_poset_file(format_poset_file(p))
    assert again.less == p.less and again.elements == p.elements


def test_poset_file_errors():
    with pytest.raises(ParseError):
        parse_poset_file("p poset 2\nv 1 1\nv 2 1\nr 1 2\nr 2 1\n")
    with pytest.raises(ParseError):
        parse_poset_file("v 1 1\n")


# ---------------------------------------------------------------------------
# Bitset closure against the all-pairs fixpoint reference


@st.composite
def labelled_dags(draw, max_elements=12):
    n = draw(st.integers(1, max_elements))
    labels = draw(st.permutations(range(10, 10 + n)))  # topological order is not label order
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return labels, [(labels[i], labels[j]) for (i, j), k in zip(pairs, keep) if k]


@settings(max_examples=100)
@given(labelled_dags())
def test_closure_matches_reference_on_dags(dag):
    labels, rel = dag
    p = Poset({x: F(1) for x in labels}, rel)
    assert p.less == reference.transitive_closure(rel)


@given(labelled_dags(), st.data())
def test_cycles_raise_like_reference(dag, data):
    labels, rel = dag
    assume(rel)
    x, y = data.draw(st.sampled_from(rel))
    cyclic = [*rel, (y, x)]  # a back edge closes a cycle through x and y
    with pytest.raises(ValueError, match="cycle through") as new:
        Poset({v: F(1) for v in labels}, cyclic)
    with pytest.raises(ValueError, match="cycle through"):
        reference.transitive_closure(cyclic)
    culprit = int(str(new.value).split()[2])  # "cycle through <x> breaks antisymmetry"
    closed = reference.transitive_closure(rel)
    assert culprit in (x, y) or {(x, culprit), (culprit, y)} <= closed  # it lies on the cycle


def test_closure_of_long_chain():
    n = 160
    p = Poset({x: F(1) for x in range(n)}, [(x, x + 1) for x in range(n - 1)])
    assert len(p.less) == n * (n - 1) // 2 and (0, n - 1) in p.less
