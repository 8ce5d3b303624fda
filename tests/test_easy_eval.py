import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly.easy_eval import easy_evaluate, easy_factor, evaluate_factored, expand_factored
from satpoly.errors import SatPolyError
from satpoly.formulas import Formula, count_sat, eval_formula_poly, poly_of_formula
from satpoly.polynomial import MultilinearPoly
from satpoly.relations import BUILTIN_RELATIONS, relation

import reference_paths as reference
from strategies import easy_formulas, points_for

B = BUILTIN_RELATIONS
F = Fraction


def test_factor_parity_chain():
    f = Formula(3, ((B["NE"], (0, 1)), (B["EQ"], (1, 2))))
    fp = easy_factor(f)
    assert fp.consistent and fp.forced == frozenset()
    assert fp.components == ((frozenset({1, 2}), frozenset({0})),)
    assert expand_factored(fp) == MultilinearPoly(3, {0b110: F(1), 0b001: F(1)})


def test_factor_inconsistent():
    f = Formula(1, ((B["F"], (0,)), (B["T"], (0,))))
    fp = easy_factor(f)
    assert not fp.consistent
    assert evaluate_factored(fp, [F(5)]) == 0


def test_factor_free_variables():
    f = Formula(3, ())
    fp = easy_factor(f)
    assert len(fp.components) == 3
    assert all(zero == frozenset() for zero, _ in fp.components)
    assert evaluate_factored(fp, [1, 1, 1]) == 8


def test_forced_component_merges():
    # x1 = 1 and x1 != x2 forces x2 = 0
    f = Formula(2, ((B["T"], (0,)), (B["NE"], (0, 1))))
    fp = easy_factor(f)
    assert fp.consistent
    assert fp.forced == frozenset({0})
    assert fp.components == ()
    assert easy_evaluate(f, [F(7), F(11)]) == 7


def test_easy_evaluate_examples():
    f = Formula(3, ((B["NE"], (0, 1)), (B["EQ"], (1, 2))))
    assert easy_evaluate(f, [1, 1, 1]) == 2 == count_sat(f)
    single = Formula(1, ((B["T"], (0,)),))
    assert easy_evaluate(single, [F(5)]) == 5
    n = 10_000
    chain = Formula(n, tuple((B["EQ"], (i, i + 1)) for i in range(n - 1)))
    assert easy_evaluate(chain, [1] * n) == 2


def test_duplicate_argument_contradiction():
    f = Formula(1, ((B["NE"], (0, 0)),))
    fp = easy_factor(f)
    assert not fp.consistent


def test_hard_set_rejected():
    f = Formula(2, ((B["OR0"], (0, 1)),))
    with pytest.raises(SatPolyError):
        easy_factor(f)


def test_padded_relation_decomposition():
    pad = relation("pad", 3, [(0, 1, 0), (1, 1, 1)])  # (x2=1) and (x1=x3)
    f = Formula(4, ((pad, (0, 1, 2)), (pad, (2, 3, 0))))
    assert expand_factored(easy_factor(f)) == poly_of_formula(f)


@given(easy_formulas(), st.data())
def test_easy_matches_brute_force(f, data):
    point = data.draw(points_for(f.num_vars))
    assert easy_evaluate(f, point) == eval_formula_poly(f, point)


@given(easy_formulas())
def test_expansion_matches_enumeration(f):
    assert expand_factored(easy_factor(f)) == poly_of_formula(f)


# ---------------------------------------------------------------------------
# Differential tests against the per-coordinate, per-constraint reference

EXTRA_EASY = (
    relation("pad", 3, [(0, 1, 0), (1, 1, 1)]),  # (x2 = 1) and (x1 = x3)
    relation("par001", 3, [(0, 0, 1), (1, 1, 0)]),  # x1 = x2 != x3
    relation("pin101", 3, [(1, 0, 1)]),
    relation("padne", 3, [t for t in product((0, 1), repeat=3) if t[0] != t[2]]),
    relation("never", 1, []),
)
EASY_RELS = tuple(B[k] for k in ("EQ", "NE", "F", "T")) + EXTRA_EASY

# points mix int, str and Fraction coordinates, zero and negative values,
# and repeat some coordinate objects, as the CLI's parsed points do
coordinates = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
)


@st.composite
def easy_cases(draw, max_vars=9):
    n = draw(st.integers(1, max_vars))
    # a few relations per formula, so most constraints reuse a relation
    rels = draw(st.lists(st.sampled_from(EASY_RELS), min_size=1, max_size=3))
    cons = []
    for _ in range(draw(st.integers(0, 2 * n))):
        rel = draw(st.sampled_from(rels))
        cons.append((rel, tuple(draw(st.integers(0, n - 1)) for _ in range(rel.rank))))
    pool = draw(st.lists(coordinates, min_size=1, max_size=4))
    point = [draw(st.sampled_from(pool)) for _ in range(n)]
    return Formula(n, tuple(cons)), point


def assert_matches_reference(f, point):
    fp = easy_factor(f)
    assert fp == reference.easy_factor(f)
    value = evaluate_factored(fp, point)
    assert type(value) is Fraction
    assert value == reference.evaluate_factored(fp, point)


@settings(max_examples=200)
@given(easy_cases())
def test_factor_and_value_match_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize(
    "cons, point",
    [
        ([("EQ", (2, 2))], [0, "-1/2", F(3)]),  # repeated argument: no constraint
        ([("NE", (2, 2))], [1, 2, 3]),  # repeated argument: inconsistent
        ([("T", (0,)), ("NE", (0, 1)), ("EQ", (1, 2))], ["5", "5", F(-2)]),  # forced component
        ([("F", (1,)), ("T", (1,))], [1, 1, 1]),  # inconsistent by forcing
        ([("T", (0,)), ("T", (2,)), ("EQ", (1, 2))], [2, "3", F(5)]),  # one relation forces twice
        ([("EQ", (0, 1)), ("NE", (1, 2)), ("EQ", (0, 2))], [1, 1, 1]),  # odd parity cycle
        ([], [0, F(-1), "7/3"]),  # free variables, one branch vanishing
    ],
    ids=["eq-self", "ne-self", "forced", "forced-clash", "forced-twice", "odd-cycle", "free"],
)
def test_edge_cases_match_reference(cons, point):
    f = Formula(3, tuple((B[name], args) for name, args in cons))
    assert_matches_reference(f, point)


def test_large_components_match_reference():
    # component sides past the balanced-product switch, beside many small ones
    rng = random.Random(8)
    n = 12_000
    cons = [(B["EQ" if rng.random() < 0.5 else "NE"], (rng.randrange(v), v)) for v in range(1, 9_000)]
    cons += [(B["NE"], (v, v + 1)) for v in range(9_000, n - 1, 3)]
    cons.append((B["T"], (9_000,)))
    f = Formula(n, tuple(cons))
    pool = [F(-2, 3), "3/2", 2, F(1, 3), "-3"]
    point = [pool[rng.randrange(len(pool))] for _ in range(n)]
    fp = easy_factor(f)
    assert max(len(side) for comp in fp.components for side in comp) >= 4_096
    assert_matches_reference(f, point)


def test_wrong_point_length_message_matches_reference():
    fp = easy_factor(Formula(2, ()))
    with pytest.raises(ValueError) as new:
        evaluate_factored(fp, [1])
    with pytest.raises(ValueError) as old:
        reference.evaluate_factored(fp, [1])
    assert str(new.value) == str(old.value)


# ---------------------------------------------------------------------------
# Large shapes against the union-find reference: orders that make hooking
# take many rounds or deep trees, dense graphs, and the inconsistent forms

LARGE = 100_000


def _links_along(order, rng):
    return [(a, b, rng.randrange(2)) for a, b in zip(order, order[1:])]


def _planted_links(pairs, rng, n):
    """EQ/NE links that a random planted assignment satisfies."""
    state = [rng.randrange(2) for _ in range(n)]
    return [(a, b, state[a] ^ state[b]) for a, b in pairs], state


def _large_case(shape):
    rng = random.Random(f"easy-factor/{shape}")
    n = LARGE
    perm = list(range(n))
    rng.shuffle(perm)
    centre = n - 1
    forcings = []
    if shape == "path-ascending":
        links = _links_along(range(n), rng)
    elif shape == "path-descending":
        links = _links_along(range(n - 1, -1, -1), rng)
    elif shape == "path-shuffled":
        links = _links_along(perm, rng)
    elif shape == "star-centre-first":
        # leaves ascending here and descending below: a centre that hooked
        # onto its last or first neighbour instead of its smallest would
        # move one leaf per round
        links = [(centre, leaf, rng.randrange(2)) for leaf in range(n - 1)]
    elif shape == "star-centre-last":
        links = [(leaf, centre, rng.randrange(2)) for leaf in range(n - 2, -1, -1)]
    elif shape == "zigzag":
        links = _links_along([v for k in range(n // 2) for v in (k, n - 1 - k)], rng)
    elif shape == "random-tree":
        links = [(perm[rng.randrange(k)], perm[k], rng.randrange(2)) for k in range(1, n)]
    elif shape.startswith("random-graph"):
        # a spanning tree first, so the last link closes a cycle
        pairs = [(perm[rng.randrange(k)], perm[k]) for k in range(1, n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n + 1)]
        links, _ = _planted_links(pairs, rng, n)
        if shape == "random-graph-inconsistent":
            a, b, parity = links[-1]
            links[-1] = (a, b, parity ^ 1)
        rng.shuffle(links)
    elif shape == "all-forced":
        pairs = [(perm[rng.randrange(k)], perm[k]) for k in range(1, n)]
        links, state = _planted_links(pairs, rng, n)
        forcings = [(v, state[v]) for v in rng.sample(range(n), 100)]
    elif shape == "forcing-clash":
        links, state = _planted_links(list(zip(range(n), range(1, n))), rng, n)
        forcings = [(0, state[0]), (n - 1, state[n - 1] ^ 1)]
    elif shape == "ne-self":
        links = _links_along(perm, rng) + [(perm[n // 2], perm[n // 2], 1)]
    else:
        raise ValueError(shape)
    cons = [(B["NE" if parity else "EQ"], (a, b)) for a, b, parity in links]
    cons += [(B["T" if bit else "F"], (v,)) for v, bit in forcings]
    return Formula(n, tuple(cons))


@pytest.mark.parametrize(
    "shape",
    [
        "path-ascending", "path-descending", "path-shuffled", "star-centre-first",
        "star-centre-last", "zigzag", "random-tree", "random-graph-consistent",
        "random-graph-inconsistent", "all-forced", "forcing-clash", "ne-self",
    ],
)
def test_large_shapes_match_reference(shape):
    f = _large_case(shape)
    fp = easy_factor(f)
    assert fp == reference.easy_factor(f)
    consistent = shape not in ("random-graph-inconsistent", "forcing-clash", "ne-self")
    assert fp.consistent == consistent
    if shape == "all-forced":
        assert fp.components == () and fp.forced
    elif consistent:
        assert len(fp.components) == 1


def _factor_outcome(factor, f):
    try:
        return "ok", factor(f)
    except SatPolyError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "cons",
    [
        [("NE", (0, 0)), ("OR0", (1, 2))],
        [("EQ", (0, 1)), ("NE", (1, 2)), ("EQ", (0, 2)), ("OR0", (1, 2))],
        [("EQ", (0, 1)), ("OR0", (1, 2)), ("NE", (2, 2))],
        [("T", (0,)), ("F", (0,)), ("OR0", (1, 2))],
    ],
    ids=["ne-self-first", "odd-cycle-first", "inconsistent-after", "forcing-clash-first"],
)
def test_applied_hard_relation_is_refused_in_any_order(cons):
    # the relation set is the relations applied, so an OR0 anywhere makes it
    # hard, whether or not the links before it are already inconsistent
    f = Formula(3, tuple((B[name], args) for name, args in cons))
    got = _factor_outcome(easy_factor, f)
    assert got == _factor_outcome(reference.easy_factor, f)
    assert got == ("error", "relation set is not easy (witness: ('nonAffine', 'OR0'))")
