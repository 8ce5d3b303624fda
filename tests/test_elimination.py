import random
from itertools import product
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from satpoly import elimination as elimination_mod
from satpoly.elimination import constraint_factor, count, min_degree_order, weighted_count
from satpoly.relations import BUILTIN_RELATIONS, xor_relation

from strategies import small_relations

B = BUILTIN_RELATIONS


def test_min_degree_order_path_and_clique():
    path = [(i, i + 1) for i in range(9)]
    order, width = min_degree_order(10, path)
    assert sorted(order) == list(range(10)) and width == 1
    clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert min_degree_order(6, clique)[1] == 5
    assert min_degree_order(4, []) == ([0, 1, 2, 3], 0)
    # the leaves go first; the hub and the last leaf then both have degree 1
    star = [(0, i) for i in range(1, 6)]
    assert min_degree_order(6, star) == ([1, 2, 3, 4, 0, 5], 1)
    # a scope of three variables joins them all
    assert min_degree_order(3, [(0, 1, 2)]) == ([0, 1, 2], 2)


def test_min_degree_order_counts_fill_edges():
    # a 4-cycle: eliminating any vertex joins its two neighbours
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    order, width = min_degree_order(4, cycle)
    assert order[0] == 0 and width == 2


def test_min_degree_order_drops_stale_entries():
    # a star with one pendant path: the hub's degree falls as leaves go,
    # leaving stale heap entries behind; each vertex is ordered once
    star = [(0, i) for i in range(1, 6)] + [(5, 6), (6, 7)]
    order, width = min_degree_order(8, star)
    assert sorted(order) == list(range(8))
    assert width == 1
    assert order.index(0) > order.index(1)


def test_constraint_factor_diagonal():
    scope, table = constraint_factor(B["OR0"], (3, 3))
    assert scope == (3,) and table == [0, 1]
    scope, table = constraint_factor(B["NE"], (2, 2))
    assert table == [0, 0]
    # x xor x xor y = 1 forces y = 1 and leaves x free
    scope, table = constraint_factor(xor_relation(3, 1), (0, 0, 1))
    assert scope == (0, 1) and table == [0, 0, 1, 1]
    scope, table = constraint_factor(B["CLAUSE3"], (5, 1, 5))
    assert scope == (5, 1)
    for e in range(4):
        x, y = e & 1, e >> 1 & 1
        assert table[e] == int((x, y, x) in B["CLAUSE3"].accepted)


def brute_weighted_count(num_vars, constraints, weights):
    total = 0
    for bits in product((0, 1), repeat=num_vars):
        if all(tuple(bits[a] for a in args) in rel.accepted for rel, args in constraints):
            prod = 1
            for b, (w0, w1) in zip(bits, weights):
                prod *= w1 if b else w0
            total += prod
    return total


XORS = [xor_relation(k, c) for k in (2, 3, 4) for c in (0, 1)]
weight_st = st.one_of(st.integers(-2, 2), st.integers(-(1 << 40), 1 << 40))
weights_st = st.tuples(weight_st, weight_st)


@st.composite
def applied_constraints(draw, max_vars=7):
    n = draw(st.integers(1, max_vars))
    cons = []
    for _ in range(draw(st.integers(0, 2 * n))):
        rel = draw(st.one_of(small_relations, st.sampled_from(sorted(B.values(), key=repr)),
                             st.sampled_from(XORS)))
        cons.append((rel, tuple(draw(st.integers(0, n - 1)) for _ in range(rel.rank))))
    weights = [draw(weights_st) for _ in range(n)]
    return n, cons, weights


@given(applied_constraints())
def test_weighted_count_matches_enumeration(case):
    n, cons, weights = case
    order = min_degree_order(n, (args for _, args in cons))[0]
    factors = [constraint_factor(rel, args) for rel, args in cons]
    assert weighted_count(factors, weights, order) == brute_weighted_count(n, cons, weights)


@given(applied_constraints(), st.randoms(use_true_random=False))
def test_weighted_count_does_not_depend_on_the_order(case, rnd):
    n, cons, weights = case
    order = list(range(n))
    rnd.shuffle(order)
    factors = [constraint_factor(rel, args) for rel, args in cons]
    assert weighted_count(factors, weights, order) == brute_weighted_count(n, cons, weights)


def test_weighted_count_unconstrained_variable_and_zero_weight():
    # variable 1 is in no factor, so it contributes w0 + w1
    factors = [constraint_factor(B["OR0"], (0, 2))]
    assert weighted_count(factors, [(2, 3), (5, 7), (1, 0)], [0, 1, 2]) == 3 * 12
    assert weighted_count([constraint_factor(B["NE"], (0, 0))], [(1, 1)], [0]) == 0


@given(applied_constraints(), st.integers(2, 1 << 70))
def test_weighted_count_modulo_n_is_the_exact_count_modulo_n(case, modulus):
    n, cons, weights = case
    order = min_degree_order(n, (args for _, args in cons))[0]
    factors = [constraint_factor(rel, args) for rel, args in cons]
    exact = weighted_count(factors, weights, order)
    assert weighted_count(factors, weights, order, modulus) == exact % modulus


def test_weighted_count_modulo_n_reduces_every_step():
    # in-weights of 2**1000, as leaf blocks give: the exact count runs to
    # tens of thousands of bits, the modular one stays below N
    n, modulus = 40, (1 << 61) - 1
    factors = [constraint_factor(B["OR0"], (i, i + 1)) for i in range(n - 1)]
    weights = [(1, 1 << 1000)] * n
    order = min_degree_order(n, (scope for scope, _ in factors))[0]
    exact = weighted_count(factors, weights, order)
    assert exact.bit_length() > 1000 * (n // 2)
    assert weighted_count(factors, weights, order, modulus) == exact % modulus


@given(applied_constraints(), st.sampled_from([-1, 0, 1, 2, 11]),
       st.one_of(st.none(), st.integers(2, 1 << 70)))
def test_count_matches_enumeration_at_every_elimination_width(case, width, modulus):
    # width -1 conditions every component and eliminates none; the weights
    # include 0 often enough to fix variables in the folds
    n, cons, weights = case
    factors = [constraint_factor(rel, args) for rel, args in cons]
    with mock.patch.object(elimination_mod, "ELIM_WIDTH", width):
        got = count(factors, weights, modulus)
    want = brute_weighted_count(n, cons, weights)
    assert got == (want if modulus is None else want % modulus)


def test_min_degree_order_stops_past_max_width():
    clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    order, width = min_degree_order(6, clique, max_width=3)
    assert order == [] and width == 5
    assert min_degree_order(6, clique, max_width=5) == min_degree_order(6, clique)
    path = [(i, i + 1) for i in range(9)]
    assert min_degree_order(10, path, max_width=1) == min_degree_order(10, path)


def test_parity_pivot_is_written_out_of_other_factors():
    # NE(1, 2) makes the pivot x1 the negation of x2, so OR0(0, 1) becomes a
    # factor over (0, 2) that rejects only x0 = 0, x2 = 1; x1 keeps its row
    # when its weights differ and is left free of factors when they agree
    factors = [constraint_factor(B["OR0"], (0, 1)), constraint_factor(B["NE"], (1, 2))]
    w = {0: (1, 1), 1: (2, 3), 2: (1, 1)}
    assert elimination_mod._solve_parity(factors, w) == [((1, 2), [0, 1, 1, 0]), ((0, 2), [1, 1, 0, 1])]
    w = {0: (1, 1), 1: (5, 5), 2: (1, 1)}
    assert elimination_mod._solve_parity(factors, w) == [((0, 2), [1, 1, 0, 1])]
    assert w[1] == (5, 0)


def test_parity_solve_without_solution_or_that_would_widen():
    contradiction = [constraint_factor(B["EQ"], (0, 1)), constraint_factor(B["NE"], (1, 0))]
    assert elimination_mod._solve_parity(contradiction, {0: (1, 2), 1: (1, 2)}) is None
    assert count(contradiction, [(1, 1)] * 2) == 0
    # a chain of xor3 equations: reduced, the first row spans 4 variables,
    # more than any factor given, so with unequal weights nothing is solved
    chain = [constraint_factor(xor_relation(3, 0), (i, i + 1, i + 2)) for i in (0, 2, 4)]
    w = {v: (1, 2) for v in range(7)}
    assert elimination_mod._solve_parity(chain, w) is chain
    assert count(chain, [(1, 1)] * 7) == 2 ** 4


def test_dense_parity_is_counted_without_elimination_or_conditioning():
    # one xor8 equation per variable has rank about n: the solved system
    # fixes almost every variable, where a table per equation left count
    # conditioning over thousands of branches
    rng = random.Random(8)
    for n in (20, 22, 26):
        cons = [(xor_relation(8, rng.randrange(2)), tuple(rng.sample(range(n), 8))) for _ in range(n)]
        factors = [constraint_factor(rel, args) for rel, args in cons]
        with mock.patch.object(elimination_mod, "weighted_count", side_effect=AssertionError), \
                mock.patch.object(elimination_mod._Part, "components", no_components):
            got = count(factors, [(1, 1)] * n)
        assert got == rank_count(n, cons)


def no_components(part):
    """_Part.components, failing if the folds left any component to eliminate or condition."""
    comps = list(COMPONENTS(part))
    assert not comps
    return iter(comps)


COMPONENTS = elimination_mod._Part.components


def rank_count(n, cons):
    """Solutions of the xor equations, 2**(n - rank) or 0, by a row reduction of their own."""
    rows = []
    for rel, args in cons:
        row = sum(1 << a for a in args) | next(iter(rel.accepted)).count(1) % 2 << n
        for r in rows:
            if row & (r & -r):
                row ^= r
        if row == 1 << n:
            return 0
        if row:
            rows = [r ^ row if r & (row & -row) else r for r in rows] + [row]
    return 2 ** (n - len(rows))
