import contextlib
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly.errors import MAX_INT_CHARS, BoundExceeded, ParseError
from satpoly import formulas as formulas_mod
from satpoly.formulas import (
    Formula,
    count_sat,
    eval_assignment,
    eval_formula_poly,
    format_formula_file,
    formula,
    parse_formula_file,
    poly_of_formula,
)
from satpoly import _bits as bits_mod
from satpoly import elimination as elimination_mod
from satpoly import generators as gen
from satpoly.elimination import constraint_factor, min_degree_order, weighted_count
from satpoly.graphs import build_partial_perm_graph
from satpoly.polynomial import MultilinearPoly
from satpoly.posets import Poset
from satpoly.reductions import ideal_to_implicative2sat, is_to_negative2sat
from satpoly.relations import BUILTIN_RELATIONS, parse_relation_file, relation, xor_relation

import reference_paths as reference
from strategies import formulas, points_for

B = BUILTIN_RELATIONS
F = Fraction


def test_eval_assignment():
    f = Formula(2, ((B["OR0"], (0, 1)),))
    assert not eval_assignment(f, [0, 0])
    assert eval_assignment(f, [1, 0])
    empty = Formula(3, ())
    assert eval_assignment(empty, [0, 1, 0])
    with pytest.raises(ValueError):
        eval_assignment(f, [0, 0, 0])


def test_count_sat_examples():
    assert count_sat(Formula(2, ((B["OR0"], (0, 1)),))) == 3
    assert count_sat(is_to_negative2sat(build_partial_perm_graph(2))) == 7
    inconsistent = Formula(1, ((B["F"], (0,)), (B["T"], (0,))))
    assert count_sat(inconsistent) == 0


def test_count_sat_bound():
    with pytest.raises(BoundExceeded):
        count_sat(Formula(31, ()))


def test_poly_of_formula_examples():
    p = poly_of_formula(Formula(2, ((B["OR0"], (0, 1)),)))
    assert p == MultilinearPoly(2, {0b01: F(1), 0b10: F(1), 0b11: F(1)})
    free = poly_of_formula(Formula(2, ()))
    assert free == MultilinearPoly(2, {0: F(1), 1: F(1), 2: F(1), 3: F(1)})
    chain = Formula(3, ((B["NE"], (0, 1)), (B["EQ"], (1, 2))))
    assert poly_of_formula(chain) == MultilinearPoly(3, {0b001: F(1), 0b110: F(1)})


def test_poly_of_formula_stops_past_max_poly_terms():
    # each free variable doubles the terms; a formula with no models has none
    or0 = (B["OR0"], (0, 1))
    with mock.patch.object(formulas_mod, "MAX_POLY_TERMS", 16):
        assert len(poly_of_formula(Formula(4, ())).terms) == 16
        assert len(poly_of_formula(Formula(4, (or0,))).terms) == 12
        assert poly_of_formula(Formula(30, ((B["NE"], (0, 0)),))).terms == {}
        for f in (Formula(5, ()), Formula(5, (or0,))):
            with pytest.raises(BoundExceeded):
                poly_of_formula(f)


def test_eval_formula_poly_examples():
    f = Formula(2, ((B["OR0"], (0, 1)),))
    assert eval_formula_poly(f, [1, 1]) == 3
    assert eval_formula_poly(f, [2, 3]) == 11
    assert eval_formula_poly(f, [0, 0]) == 0  # all-false rejected
    sat0 = Formula(2, ((B["OR2"], (0, 1)),))
    assert eval_formula_poly(sat0, [0, 0]) == 1  # all-false accepted


def test_duplicate_arguments_diagonal():
    # OR0(x, x) accepts only x = 1
    f = Formula(1, ((B["OR0"], (0, 0)),))
    assert count_sat(f) == 1
    assert poly_of_formula(f).terms == {1: F(1)}
    # NE(x, x) is unsatisfiable
    g = Formula(1, ((B["NE"], (0, 0)),))
    assert count_sat(g) == 0
    # parity with a repeated variable cancels it
    h = Formula(2, ((xor_relation(3, 1), (0, 0, 1)),))
    assert count_sat(h) == 2  # x free, y forced to 1


def test_rational_evaluation_exact():
    f = Formula(2, ((B["OR0"], (0, 1)),))
    assert eval_formula_poly(f, [F(1, 2), F(1, 3)]) == F(1, 2) + F(1, 3) + F(1, 6)


@given(formulas(max_vars=7), st.data())
def test_streaming_matches_materialized(f, data):
    point = data.draw(points_for(f.num_vars))
    with fail("_models"):
        value = eval_formula_poly(f, point)
    assert value == poly_of_formula(f).evaluate(point)


@given(formulas(max_vars=7))
def test_all_ones_is_model_count(f):
    with fail("_models"):
        n = count_sat(f)
        assert eval_formula_poly(f, [1] * f.num_vars) == n
    poly = poly_of_formula(f)
    assert len(poly.terms) == n
    assert all(c == 1 for c in poly.terms.values())


def test_or0_path_counts_fibonacci():
    # with elimination's ELIM_WIDTH at -1, count folds and conditions but
    # eliminates no component.  A chain of OR0 clauses counts strings with no
    # two adjacent zeros, i.e. a Fibonacci number (independent recurrence)
    fib = [1, 2]  # fib[n] = strings of length n with no two adjacent zeros
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    cons = tuple((B["OR0"], (i, i + 1)) for i in range(22))
    f = Formula(23, cons)
    assert count_sat(f) == fib[23]
    with mock.patch.object(elimination_mod, "ELIM_WIDTH", -1), \
            mock.patch.object(elimination_mod, "weighted_count", side_effect=AssertionError):
        assert count_sat(f) == fib[23]
    assert count_sat(Formula(24, ())) == 1 << 24


six_digit = st.builds(F, st.integers(-999_999, 999_999), st.integers(1, 999_999))


def fail(name, module=formulas_mod):
    return mock.patch.object(module, name, side_effect=AssertionError)


@contextlib.contextmanager
def unreachable(*modules):
    """Make every function the modules define fail, under each name satpoly binds it to."""
    defined = {id(obj) for mod in modules for obj in vars(mod).values()
               if callable(obj) and getattr(obj, "__module__", None) == mod.__name__}
    with contextlib.ExitStack() as stack:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("satpoly"):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in defined:
                        stack.enter_context(fail(name, mod))
        yield


def listed(f, point):
    """The model count and the value at point of the polynomial poly_of_formula lists.

    The listing runs with every function of elimination and _bits failing.
    """
    with unreachable(elimination_mod, bits_mod):
        poly = poly_of_formula(f)
    return len(poly.terms), poly.evaluate(point)


def routes(f, point):
    """(count, value at point) by each route, each forced; no route reaches another.

    - eliminate: count_sat and eval_formula_poly, that is elimination.count;
    - condition: the same with count's ELIM_WIDTH = -1, so that every
      component is conditioned and none eliminated;
    - listed: poly_of_formula's models, listed depth-first.
    """
    def both():
        return count_sat(f), eval_formula_poly(f, point)

    out = {}
    with fail("_models"):
        out["eliminate"] = both()
        with mock.patch.object(elimination_mod, "ELIM_WIDTH", -1), \
                fail("weighted_count", elimination_mod):
            out["condition"] = both()
    out["listed"] = listed(f, point)
    return out


def assert_routes_agree(f, point):
    out = routes(f, point)
    assert len(set(out.values())) == 1, out


@given(formulas(max_vars=12), st.data())
def test_elimination_conditioning_and_listing_agree_at_six_digit_points(f, data):
    point = [data.draw(six_digit) for _ in range(f.num_vars)]
    assert_routes_agree(f, point)


ROUTE_CASES = {
    # name: (formula, point)
    "repeated-arguments": (
        Formula(4, ((B["OR0"], (0, 0)), (B["CLAUSE3"], (1, 2, 1)), (B["OR2"], (2, 3)))),
        [F(3, 7), F(-5, 2), F(123457, 999983), F(-1)],
    ),
    "parity": (
        Formula(5, (
            (xor_relation(3, 1), (0, 1, 2)),
            (xor_relation(3, 0), (2, 3, 4)),
            (xor_relation(2, 1), (4, 4)),  # x xor x = 1: unsatisfiable
        )),
        [F(2)] * 5,
    ),
    "parity-satisfiable": (
        Formula(6, (
            (xor_relation(4, 1), (0, 1, 2, 3)),
            (xor_relation(3, 0), (3, 4, 5)),
            (xor_relation(3, 1), (5, 5, 0)),
        )),
        [F(-987654, 123457), F(654321, 999983), F(1, 3), F(7), F(-2, 9), F(5, 4)],
    ),
    "inconsistent": (
        Formula(3, ((B["OR0"], (0, 1)), (B["F"], (0,)), (B["F"], (1,)), (B["EQ"], (1, 2)))),
        [F(1), F(2), F(3)],
    ),
    "free-variables": (
        Formula(6, ((B["NE"], (1, 4)), (B["OR1"], (4, 2)))),
        [F(2, 3), F(-999_999, 7), F(5), F(11, 13), F(-1, 2), F(9)],
    ),
    "zero-coordinates": (
        Formula(4, ((B["OR0"], (0, 1)), (B["OR2"], (1, 2)), (B["CLAUSE3"], (1, 2, 3)))),
        [F(0), F(0), F(-4, 5), F(0)],
    ),
    "negative-coordinates": (
        Formula(5, tuple((B["OR0"], (i, i + 1)) for i in range(4))),
        [F(-999_999, 100_003), F(-1), F(-3, 2), F(-654_321), F(-1, 999_999)],
    ),
}


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_routes_agree_on_edge_cases(name):
    f, point = ROUTE_CASES[name]
    assert_routes_agree(f, point)


def banded_formula(rng, n, window=6, density=1.5):
    """A satisfiable formula whose constraints join variables < window apart."""
    names = ["OR0", "OR1", "OR2", "CLAUSE3", "EQ", "NE"]
    planted = [rng.randrange(2) for _ in range(n)]
    cons = []
    while len(cons) < round(density * n) or len({a for _, args in cons for a in args}) < n:
        rel = B[rng.choice(names)]
        base = rng.randrange(n - window + 1)
        args = tuple(rng.sample(range(base, base + window), rel.rank))
        if tuple(planted[a] for a in args) in rel.accepted:
            cons.append((rel, args))
    return Formula(n, tuple(cons))


def six_digit_point(rng, n):
    return [F(rng.choice((-1, 1)) * rng.randint(100_000, 999_999), rng.randint(100_000, 999_999))
            for _ in range(n)]


@pytest.mark.parametrize("n", [1, 12, 22, 28])
def test_count_and_eval_list_no_models_at_any_size(n):
    # OR0 on every pair of n variables: at most one variable is 0, so n + 1
    # models.  An n-element chain has n + 1 ideals, its prefixes; its
    # encoding has one OR1 clause per pair of the closed order
    clique = Formula(n, tuple((B["OR0"], (i, j)) for i in range(n) for j in range(i + 1, n)))
    chain = ideal_to_implicative2sat(Poset({x: F(1) for x in range(n)},
                                           [(x, x + 1) for x in range(n - 1)]))
    point = [F(i + 2, i + 1) for i in range(n)]
    with fail("_models"):
        assert count_sat(clique) == count_sat(chain) == n + 1
        all_ones = math.prod(point)
        assert eval_formula_poly(clique, point) == all_ones * (1 + sum(1 / x for x in point))
        prefixes = (math.prod(point[:k]) for k in range(n + 1))
        assert eval_formula_poly(chain, point) == sum(prefixes, F(0))


@pytest.mark.parametrize("n", [1, 12, 22, 28])
def test_listing_reaches_no_code_of_the_counter(n):
    # poly_of_formula lists the models with every function of elimination
    # and _bits failing, so a fault there cannot hide on both sides of verify
    clique = Formula(n, tuple((B["OR0"], (i, j)) for i in range(n) for j in range(i + 1, n)))
    if n > 6:
        banded = banded_formula(random.Random(f"listing/{n}"), n)
    else:
        banded = Formula(n, ((B["OR0"], (0, 0)),))
    with unreachable(elimination_mod, bits_mod):
        listed_clique = poly_of_formula(clique)
        listed_banded = poly_of_formula(banded)
    assert len(listed_clique.terms) == n + 1
    assert set(listed_clique.terms) == {(1 << n) - 1} | {((1 << n) - 1) ^ 1 << v for v in range(n)}
    assert len(listed_banded.terms) == count_sat(banded) > 0


@pytest.mark.parametrize("n", [23, 26])
def test_repeated_arguments_above_22_variables_match_the_count(n):
    # OR0(x, x) forces x = 1, xor3_c(x, x, y) forces y = c and NE(y, y)
    # rejects every assignment; x and c are read off a model of the banded
    # formula, so that g keeps it, and all three routes must agree
    rng = random.Random(f"repeated/{n}")
    f = banded_formula(rng, n)
    model = next(iter(poly_of_formula(f).terms))
    x = next(v for v in range(n) if model >> v & 1)
    y = rng.randrange(n)
    pinned = f.constraints + ((B["OR0"], (x, x)), (xor_relation(3, model >> y & 1), (x, x, y)))
    g = Formula(n, pinned)
    h = Formula(n, pinned + ((B["NE"], (y, y)),))
    point = six_digit_point(rng, n)
    assert count_sat(g) > 0 and count_sat(h) == 0
    assert_routes_agree(g, point)
    assert_routes_agree(h, point)


@pytest.mark.parametrize("n", range(23, 29))
def test_elimination_matches_dfs_on_banded_formulas(n):
    rng = random.Random(f"banded/{n}")
    f = banded_formula(rng, n)
    point = six_digit_point(rng, n)
    with fail("_models"):
        elim = count_sat(f), eval_formula_poly(f, point)
    assert elim == listed(f, point) and elim[0] > 0


def test_formula_wider_than_elim_width_is_conditioned_not_searched():
    # OR0 on every pair of 24 variables: at most one variable is 0.  Its
    # width, 23, is past ELIM_WIDTH, so count conditions it down to a
    # clique it can eliminate; neither count_sat nor eval searches the models
    n = 24
    f = Formula(n, tuple((B["OR0"], (i, j)) for i in range(n) for j in range(i + 1, n)))
    assert min_degree_order(n, (args for _, args in f.constraints))[1] > elimination_mod.ELIM_WIDTH
    counter = mock.Mock(wraps=elimination_mod.count)
    eliminated = mock.Mock(wraps=elimination_mod.weighted_count)
    with fail("_models"), mock.patch.object(formulas_mod, "count", counter), \
            mock.patch.object(elimination_mod, "weighted_count", eliminated):
        assert count_sat(f) == n + 1
        point = [F(i + 1) for i in range(n)]
        all_ones = 1
        for x in point:
            all_ones *= x
        assert eval_formula_poly(f, point) == all_ones * (1 + sum(1 / x for x in point))
    assert counter.call_count == 2 and eliminated.call_count == 2


@pytest.mark.parametrize("kind", ["or0", "clause3-or2", "planted"])
@pytest.mark.parametrize("n", [24, 26, 28])
def test_wide_formulas_match_the_models_listed_depth_first(kind, n):
    # past ELIM_WIDTH: count conditions, poly_of_formula lists the models
    # depth-first (each listing here takes under 1 s)
    rng = random.Random(f"wide/{kind}/{n}")
    f = gen.random_wide_formula(rng, n, kind)
    assert 12 <= min_degree_order(n, (args for _, args in f.constraints))[1] <= 21
    point = six_digit_point(rng, n)
    with fail("_models"):
        counted = count_sat(f), eval_formula_poly(f, point)
    assert counted == listed(f, point)


@pytest.mark.parametrize("n", [25, 28])
def test_wide_clause3_formulas_match_elimination_along_one_order(n):
    # 10**5-10**7 models: listing them takes minutes, so count's folds,
    # splits and conditioning are checked against plain bucket elimination
    # along the whole formula's min-degree order, with no width limit
    rng = random.Random(f"wide/clause3/{n}")
    f = gen.random_wide_formula(rng, n, "clause3")
    order, width = min_degree_order(n, (args for _, args in f.constraints))
    assert 12 <= width <= 21
    point = six_digit_point(rng, n)
    factors = [constraint_factor(rel, args) for rel, args in f.constraints]
    assert count_sat(f) == weighted_count(factors, [(1, 1)] * n, order)
    total = weighted_count(factors, [(x.denominator, x.numerator) for x in point], order)
    assert eval_formula_poly(f, point) == F(total, math.prod(x.denominator for x in point))


FORMULA_FILE = """\
p csp 3 2
NE 1 2
EQ 2 3
"""


def test_formula_file_roundtrip():
    f = parse_formula_file(FORMULA_FILE)
    assert f.num_vars == 3 and len(f.constraints) == 2
    assert count_sat(f) == 2
    again = parse_formula_file(format_formula_file(f))
    assert again.constraints == f.constraints


def test_formula_file_with_relation_table():
    rels = parse_relation_file("relation myrel 2\n01\n10\nend\n")
    f = parse_formula_file("p csp 2 1\nmyrel 1 2\n", rels)
    assert count_sat(f) == 2
    assert any(r.name == "myrel" for r in f.relation_set)


def test_formula_file_errors():
    with pytest.raises(ParseError):
        parse_formula_file("NE 1 2\n")  # missing header
    with pytest.raises(ParseError):
        parse_formula_file("p csp 2 1\nNE 1 3\n")  # index out of range
    with pytest.raises(ParseError):
        parse_formula_file("p csp 2 2\nNE 1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_formula_file("p csp 2 1\nNE 1\n")  # arity mismatch


def test_relation_set_is_computed_once_and_leaves_equality_alone():
    f = parse_formula_file(FORMULA_FILE)
    g = parse_formula_file(FORMULA_FILE)
    first = f.relation_set
    assert first == (B["NE"], B["EQ"])
    assert f.relation_set is first
    assert f == g and hash(f) == hash(g)


def test_relation_set_keeps_first_seen_of_equal_relations():
    ne_copy = relation("NE", 2, B["NE"].accepted)  # equal to B["NE"], another object
    f = Formula(3, ((B["EQ"], (0, 1)), (ne_copy, (1, 2)), (B["NE"], (0, 2)), (B["EQ"], (1, 2))))
    assert f.relation_set == (B["EQ"], B["NE"])
    assert f.relation_set[1] is ne_copy


@pytest.mark.parametrize(
    "num_vars, constraints, message",
    [
        (0, (), "a formula needs at least one variable"),
        (2, ((B["NE"], (0,)),), "NE has rank 2 but got 1 arguments"),
        (2, ((B["NE"], (0, 2)),), "argument 2 out of range [0, 2)"),
        (2, ((B["EQ"], (0, 1)), (B["T"], (-1,))), "argument -1 out of range [0, 2)"),
    ],
)
def test_formula_constructor_still_checks_rank_and_range(num_vars, constraints, message):
    # parse_formula_file checks these itself and skips the constructor's check
    with pytest.raises(ValueError) as exc:
        Formula(num_vars, constraints)
    assert str(exc.value) == message
    with pytest.raises(ValueError):
        formula(num_vars, constraints)


# ---------------------------------------------------------------------------
# Formula files against the reference parser

CUSTOM_RELS = "relation pin1 1\n1\nend\nrelation EQ 2\n01\n10\nend\n"


def parse_outcome(parse, text, relations):
    try:
        f = parse(text, relations)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", f, f.relation_set


def assert_parse_matches_reference(text, relations):
    assert parse_outcome(parse_formula_file, text, relations) == parse_outcome(
        reference.parse_formula_file, text, relations
    )


@pytest.mark.parametrize(
    "text",
    [
        FORMULA_FILE,
        "# comment only\n\np csp 2 1 # trailing\n  NE 1 2#x\n",
        "p csp 3 2\npin1 2\nEQ 1 3\n",  # names the custom table resolves
        "NE 1 2\n",  # missing header
        "p csp 2 1\np csp 2 1\nNE 1 2\n",  # duplicate header
        "p csp 2\nNE 1 2\n",  # short header
        "p cnf 2 1\nNE 1 2\n",
        "p csp two 1\n",
        "p csp 0 0\n",
        "p csp 2 1\nNE 1 x\n",  # bad token
        "p csp 2 1\nNE 1 2.0\n",
        "p csp 2 1\nNE 1 3\n",  # index out of range
        "p csp 2 1\nNE 0 2\n",
        "p csp 2 1\nNE -1 2\n",
        "p csp 2 1\nNE 1\n",  # wrong arity
        "p csp 2 1\nT 1 2\n",
        "p csp 2 2\nNE 1 2\n",  # count mismatch
        "p csp 2 0\nNE 1 2\n",
        "p csp 2 1\nNOPE 1 2\n",  # unknown relation
        "p csp 2 2\nNE 1 2\nNOPE 1 2\n",
        "p csp 4 3\nxor3_1 1 2 3\nxor3_1 2 3 4\nNE 1 4\n",
        "",
    ],
)
@pytest.mark.parametrize("with_table", [False, True])
def test_formula_file_matches_reference(text, with_table):
    assert_parse_matches_reference(text, parse_relation_file(CUSTOM_RELS) if with_table else None)


formula_lines = st.one_of(
    st.tuples(
        st.sampled_from(["NE", "EQ", "T", "pin1", "OR0", "xor3_0", "bad", "p"]),
        st.lists(st.sampled_from(["1", "2", "3", "0", "4", "-1", "x", "csp", "#"]), max_size=4),
    ).map(lambda t: " ".join([t[0], *t[1]])),
    st.sampled_from(["", "# c", "p csp 3 2", "p csp 3 1"]),
)


@given(st.lists(formula_lines, max_size=6), st.booleans())
def test_formula_file_matches_reference_on_random_files(lines, with_table):
    text = "\n".join(["p csp 3 2", *lines]) + "\n"
    assert_parse_matches_reference(text, parse_relation_file(CUSTOM_RELS) if with_table else None)



# ---------------------------------------------------------------------------
# The whole-text pass over canonical files, against the reference line parser

CANONICAL_RANKS = {"NE": 2, "EQ": 2, "T": 1, "F": 1, "OR0": 2, "CLAUSE3": 3, "xor3_1": 3,
                   "xor02_0": 2, "pin1": 1}


def index_token(draw, i):
    """A 1-based index as int() reads it: plain, zero-padded, signed or with an underscore."""
    text = str(i)
    form = draw(st.sampled_from(["plain", "plain", "zero", "plus", "underscore"]))
    if form == "zero":
        return "0" + text
    if form == "plus":
        return "+" + text
    if form == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text


@st.composite
def canonical_files(draw):
    """(text, table): a canonically spaced formula file, and the relation table it may use."""
    n = draw(st.integers(1, 40))
    table = draw(st.sampled_from([None, parse_relation_file(CUSTOM_RELS)]))
    names = sorted(CANONICAL_RANKS) if table else sorted(set(CANONICAL_RANKS) - {"pin1"})
    lines = [f"p csp {n} {{m}}"]
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(names))
        args = (index_token(draw, draw(st.integers(1, n))) for _ in range(CANONICAL_RANKS[name]))
        lines.append(" ".join([name, *args]))
    lines[0] = lines[0].format(m=len(lines) - 1)
    return "".join(line + "\n" for line in lines), table


@given(canonical_files(), st.sampled_from([1, 7, 64, formulas_mod._CHUNK_CHARS]))
def test_canonical_files_take_the_whole_text_pass_and_match_the_reference(case, chunk):
    text, table = case
    with mock.patch.object(formulas_mod, "_CHUNK_CHARS", chunk), fail("_parse_lines"):
        fast = parse_formula_file(text, table)
    expected = reference.parse_formula_file(text, table)
    assert (fast, fast.relation_set) == (expected, expected.relation_set)


def move_newline(text, i):
    """Move the line break at or after i past the next token: EQ 1 2 / NE 3 4 -> EQ 1 2 NE / 3 4."""
    nl = text.find("\n", i)
    space = text.find(" ", nl)
    if nl < 0 or space < 0:
        return text
    return text[:nl] + " " + text[nl + 1:space] + "\n" + text[space + 1:]


def move_argument(text, j):
    """Move line j's last token past line j + 1's name: EQ 1 2 / NE 3 4 -> EQ 1 / NE 2 3 4."""
    lines = text.split("\n")
    if j + 2 >= len(lines):
        return text
    head, tail = lines[j].split(" "), lines[j + 1].split(" ")
    if len(head) < 2:
        return text
    lines[j], lines[j + 1] = " ".join(head[:-1]), " ".join([tail[0], head[-1], *tail[1:]])
    return "\n".join(lines)


def recount(text, delta):
    """The header's declared constraint count changed by delta."""
    header, _, body = text.partition("\n")
    *head, count = header.split(" ")
    return " ".join([*head, str(int(count) + delta)]) + "\n" + body


MUTATION_PIECES = [
    "\t", "\r\n", "\x0c", "\x1c", "\x85", "\u2028",  # whitespace the loop splits on
    "  ", " ", "\n", "\n\n", "#", "# comment\n",  # spacing, blank lines, comments
    "+1", "01", "1_0", "\u0661", "9" * (MAX_INT_CHARS + 1),  # tokens int() reads or refuses
    "p ", "p csp 3 1\n", "p 1 2\n", "NOPE ", "xor3_1 ", "xor99_1 ", "xor4_0 ", "NE ",  # names
]


def bounded_int(x, *base):
    """int(), failing on a token longer than MAX_INT_CHARS: no parser may convert one."""
    assert not isinstance(x, str) or len(x) <= MAX_INT_CHARS, len(x)
    return int(x, *base)


def bounded_ints():
    return mock.patch.object(formulas_mod, "int", bounded_int, create=True)


@st.composite
def near_canonical_files(draw):
    """(text, table): a canonical file with its count, spacing, tokens or line breaks mutated."""
    text, table = draw(canonical_files())
    text = recount(text, draw(st.sampled_from([0, 0, 0, -1, 1])))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "replace", "line-start", "line-end", "move-newline",
                                   "move-argument"]))
        i = draw(st.integers(0, len(text)))
        if op == "move-newline":
            text = move_newline(text, i)
        elif op == "move-argument":
            text = move_argument(text, text.count("\n", 0, i))
        else:
            if op in ("line-start", "line-end"):  # a piece at the start or end of a line
                i = text.rfind("\n", 0, i) + 1 if op == "line-start" else max(text.find("\n", i), 0)
            piece = draw(st.sampled_from(MUTATION_PIECES))
            text = text[:i] + piece + text[i + (op == "replace"):]
    return text, table


@settings(max_examples=200)
@given(near_canonical_files())
def test_near_canonical_files_read_as_the_line_loop_and_the_reference_read_them(case):
    text, table = case
    with bounded_ints():
        got = parse_outcome(parse_formula_file, text, table)
    assert got == parse_outcome(formulas_mod._parse_lines, text, table)
    if any(len(tok) > MAX_INT_CHARS for tok in text.split()):
        # the reference predates the length bound; the loop refuses the token
        assert got[0] == "error"
    else:
        assert got == parse_outcome(reference.parse_formula_file, text, table)


@pytest.mark.parametrize(
    "text, message",
    [
        # the tokens of two good lines, EQ 1 2 and NE 3 4
        ("p csp 4 2\nEQ 1 2 NE\n3 4\n", "line 2: bad variable index"),
        ("p csp 4 2\nEQ 1\nNE 2 3 4\n", "line 2: EQ has rank 2, got 1 arguments"),
        # the table defines a relation p, yet every p line is a header
        ("p csp 4 2\nEQ 1 2\np 3 4\n", "line 3: duplicate header"),
        ("p csp 4 1\nEQ 1 2\nNE 3 4\n", "header declares 1 constraints, found 2"),
        ("p csp 4 1\nEQ 1 \u0661\n", None),  # int() reads the Arabic-Indic digit one
        ("p csp 4 1\nEQ 1 " + "9" * (MAX_INT_CHARS + 1) + "\n",
         f"line 2: integer token of {MAX_INT_CHARS + 1} characters (at most {MAX_INT_CHARS})"),
    ],
    ids=["moved-newline", "moved-argument", "p-in-table", "declared-count", "non-ascii-digit",
         "overlong-index"],
)
def test_the_whole_text_pass_leaves_each_doubtful_file_to_the_line_loop(text, message):
    table = parse_relation_file("relation p 2\n01\n10\nend\n")
    with bounded_ints():
        assert formulas_mod._parse_canonical(text, table) is None
        if message is None:
            assert parse_formula_file(text, table).constraints == ((B["EQ"], (0, 0)),)
        else:
            with pytest.raises(ParseError) as exc:
                parse_formula_file(text, table)
            assert str(exc.value) == message


def parity_tree_file(rng, n):
    lines = [f"{rng.choice(['EQ', 'NE'])} {rng.randrange(v) + 1} {v + 1}" for v in range(1, n)]
    return f"p csp {n} {n - 1}\n" + "\n".join(lines) + "\n"


def test_a_canonical_tree_of_ten_thousand_variables_never_reaches_the_line_loop():
    text = parity_tree_file(random.Random("tree/10000"), 10_000)
    with fail("_parse_lines"):
        f = parse_formula_file(text)
    assert f == reference.parse_formula_file(text)
    assert len(f.codes) == 9_999 and len(f.args) == 19_998


@given(formulas(max_vars=12))
def test_formulas_round_trip_through_constraints_and_files(f):
    # the constructor's arrays give back its constraints, and a parsed
    # formula equals and hashes as the tuple-built one it was written from
    assert formulas_mod.Formula._of_arrays(f.num_vars, f.relations, f.codes, f.args) == f
    assert Formula(f.num_vars, f.constraints) == f
    parsed = parse_formula_file(format_formula_file(f))
    assert "constraints" not in vars(parsed)  # built on first use
    assert parsed == f and hash(parsed) == hash(f)
    assert parsed.constraints == f.constraints and parsed.relation_set == f.relation_set
    assert Formula(parsed.num_vars, parsed.constraints) == parsed


def test_formula_arrays_hold_one_code_per_constraint_and_the_flat_arguments():
    ne_copy = relation("NE", 2, B["NE"].accepted)  # equal to B["NE"], another object
    f = Formula(4, ((B["NE"], (0, 1)), (B["T"], (3,)), (ne_copy, (2, 3)), (B["NE"], (1, 2))))
    assert f.relations == (B["NE"], B["T"], ne_copy) and f.relations[2] is ne_copy
    assert list(f.codes) == [0, 1, 2, 0]
    assert list(f.args) == [0, 1, 3, 2, 3, 1, 2]
    assert f.relation_set == (B["NE"], B["T"])
    with pytest.raises(AttributeError):
        f.num_vars = 5


def test_indices_past_64_bits_are_kept_exactly():
    # past int64 the arguments stay a list; count_sat stops at its cap
    # before it reads a constraint
    n = 10**20
    f = parse_formula_file(f"p csp {n} 1\nNE 1 {n}\n")
    assert f.constraints == ((B["NE"], (0, n - 1)),)
    assert f == Formula(n, ((B["NE"], (0, n - 1)),))
    with pytest.raises(BoundExceeded):
        count_sat(f)
