from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpoly.errors import BoundExceeded, ParseError
from satpoly.formulas import count_sat, poly_of_formula
from satpoly.graphs import (
    Var,
    WeightedGraph,
    bipartize,
    build_partial_perm_graph,
    format_graph_file,
    incidence_transform,
    ip,
    parse_graph_file,
    parse_weight,
    partial_permanent,
    permanent,
    two_coloring,
    vcp,
    weighted_graph,
)
from satpoly.polynomial import MultilinearPoly
from satpoly.posets import parse_poset_file
from satpoly.reductions import is_to_negative2sat, vc_to_positive2sat

from strategies import nonzero_rationals

F = Fraction


def P(n, terms):
    return MultilinearPoly(n, {m: F(c) for m, c in terms.items()})


def brute_subset_poly(g, independent):
    """Oracle: direct summation over all vertex subsets."""
    verts = sorted(g.vertices)
    loops = g.loops()
    plain = g.plain_edges()
    n_sym = g.num_symbols()
    total = MultilinearPoly.zero(n_sym)
    for bits in range(1 << len(verts)):
        chosen = {verts[i] for i in range(len(verts)) if bits >> i & 1}
        if independent:
            if chosen & loops:
                continue
            if any(u in chosen and v in chosen for u, v in plain):
                continue
            weighted_set = chosen
        else:
            if not loops <= chosen:
                continue
            if any(u not in chosen and v not in chosen for u, v in plain):
                continue
            weighted_set = chosen
        term = MultilinearPoly.constant(n_sym, 1)
        for v in weighted_set:
            w = g.vertices[v]
            factor = (
                MultilinearPoly.variable(n_sym, w.index)
                if isinstance(w, Var)
                else MultilinearPoly.constant(n_sym, w)
            )
            term = term.multiply(factor)
        total = total.add(term)
    return total


def test_partial_permanent_examples():
    assert partial_permanent([[Var(0)]]) == P(1, {0: 1, 1: 1})
    p = partial_permanent([[Var(0), Var(1)], [Var(2), Var(3)]])
    assert p == P(
        4,
        {0: 1, 0b0001: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1, 0b1001: 1, 0b0110: 1},
    )
    assert partial_permanent([[0, 0], [0, 0]]).as_fraction() == 1


def test_partial_permanent_bounds():
    with pytest.raises(BoundExceeded):
        partial_permanent([[Var(i * 7 + j) for j in range(7)] for i in range(7)])
    with pytest.raises(BoundExceeded):
        partial_permanent([[1] * 9 for _ in range(9)])


def test_permanent_examples():
    assert permanent([[Var(0), Var(1)], [Var(2), Var(3)]]) == P(4, {0b1001: 1, 0b0110: 1})
    assert permanent([[1, 0], [0, 1]]).as_fraction() == 1
    assert permanent([[1] * 3 for _ in range(3)]).as_fraction() == 6


def test_permanent_numeric_vs_symbolic():
    m = [[F(2), F(-1)], [F(1, 2), F(3)]]
    sym = permanent([[Var(0), Var(1)], [Var(2), Var(3)]])
    assert permanent(m).as_fraction() == sym.evaluate([2, -1, F(1, 2), 3])


def test_build_partial_perm_graph():
    g = build_partial_perm_graph(2)
    assert len(g.vertices) == 4
    assert g.edges == frozenset({(0, 1), (2, 3), (0, 2), (1, 3)})  # a 4-cycle
    assert ip(g) == partial_permanent([[Var(0), Var(1)], [Var(2), Var(3)]])
    g1 = build_partial_perm_graph(1)
    assert ip(g1) == P(1, {0: 1, 1: 1})
    assert build_partial_perm_graph(3).edge_count() == 9 * 2


def test_ip_vcp_single_edge():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)])
    assert vcp(g) == P(2, {0b01: 1, 0b10: 1, 0b11: 1})
    assert ip(g) == P(2, {0: 1, 0b01: 1, 0b10: 1})


def test_ip_vcp_self_loop():
    g = weighted_graph({0: Var(0)}, [(0, 0)])
    assert vcp(g) == P(1, {1: 1})
    assert ip(g) == P(1, {0: 1})


def test_ip_vcp_empty_graph():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [])
    both = P(2, {0: 1, 1: 1, 2: 1, 3: 1})
    assert vcp(g) == both and ip(g) == both


@given(st.data())
def test_ip_vcp_against_subset_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    g = WeightedGraph({v: Var(v) for v in range(n)}, edges)
    assert ip(g) == brute_subset_poly(g, independent=True)
    assert vcp(g) == brute_subset_poly(g, independent=False)


def test_incidence_single_edge():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)])
    h = incidence_transform(g)
    assert len(h.vertices) == 3 and h.vertices[2] == F(-1)
    assert sorted(h.edges) == [(0, 2), (1, 2)]
    assert vcp(h) == P(2, {0: -1, 0b01: -1, 0b10: -1})  # -(1 + X1 + X2)
    assert ip(h) == vcp(g)
    assert h.parts == (frozenset({2}), frozenset({0, 1}))


def test_incidence_edgeless_identity():
    g = weighted_graph({0: Var(0)}, [])
    h = incidence_transform(g)
    assert h.edges == frozenset() and vcp(h) == ip(g)


def test_incidence_four_cycle():
    g = build_partial_perm_graph(2)  # the 4-cycle, even edges
    h = incidence_transform(g)
    assert vcp(h) == ip(g)
    assert ip(h) == vcp(g)


def test_incidence_rejects_loops():
    g = weighted_graph({0: F(1)}, [(0, 0)])
    with pytest.raises(ValueError):
        incidence_transform(g)


def test_bipartize_single_edge():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)])
    bp = bipartize(g)
    assert len(bp.vertices) == 5 and bp.edge_count() == 4
    assert ip(bp) == ip(g).scale(-1)
    assert two_coloring(bp) is not None
    # midpoints added last form the all-(-1) side, two per original edge
    v1, _ = bp.parts
    assert len(v1) == 2 and all(bp.vertices[v] == F(-1) for v in v1)


def test_bipartize_even_edges_preserves_ip():
    g = build_partial_perm_graph(2)
    bp = bipartize(g)
    assert ip(bp) == ip(g)


def test_bipartize_edgeless():
    g = weighted_graph({0: Var(0)}, [])
    bp = bipartize(g)
    assert len(bp.vertices) == 1 and ip(bp) == ip(g)


def test_or0_formula_of_graph():
    g = weighted_graph({0: Var(0), 1: Var(1)}, [(0, 1)])
    f = vc_to_positive2sat(g)
    assert poly_of_formula(f) == vcp(g)
    empty = vc_to_positive2sat(weighted_graph({0: Var(0), 1: Var(1)}, []))
    assert poly_of_formula(empty) == P(2, {0: 1, 1: 1, 2: 1, 3: 1})


def test_or2_formula_partial_perm():
    f = is_to_negative2sat(build_partial_perm_graph(2))
    assert count_sat(f) == 7
    assert poly_of_formula(f) == partial_permanent([[Var(0), Var(1)], [Var(2), Var(3)]])


@given(st.data())
def test_reciprocity(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    xs = [data.draw(nonzero_rationals) for _ in range(n)]
    g = WeightedGraph({v: xs[v] for v in range(n)}, edges)
    g_inv = WeightedGraph({v: 1 / xs[v] for v in range(n)}, edges)
    prod = F(1)
    for x in xs:
        prod *= x
    assert ip(g).as_fraction() == prod * vcp(g_inv).as_fraction()


GRAPH_FILE = """\
p graph 3 3
v 1 X1
v 2 -1
v 3 3/2
e 1 2
e 2 3
e 3 3
"""


def test_graph_file_roundtrip():
    g = parse_graph_file(GRAPH_FILE)
    assert g.vertices[1] == Var(0) and g.vertices[2] == F(-1) and g.vertices[3] == F(3, 2)
    assert g.loops() == frozenset({3})
    again = parse_graph_file(format_graph_file(g))
    assert again.vertices == g.vertices and again.edges == g.edges


def test_graph_file_errors():
    with pytest.raises(ParseError):
        parse_graph_file("p graph 1 0\nv 1 X0\n")  # symbols are 1-based
    with pytest.raises(ParseError):
        parse_graph_file("p graph 2 1\nv 1 1\ne 1 2\n")  # missing vertex
    with pytest.raises(ParseError):
        parse_graph_file("v 1 1\n")  # no header


TWO = "p graph 2 1\nv 1 1\nv 2 1\n"  # a graph header and two vertices, lines 1-3
LONG = "9" * 4301
# (reader, file text, ParseError text): every error the graph and poset
# readers raise; line numbers count blank and comment lines
MALFORMED_FILES = [
    ("graph", "p graph 1\n", "line 1: expected 'p graph <n> <m>'"),
    ("graph", "p poset 1 0\n", "line 1: expected 'p graph <n> <m>'"),
    ("graph", "p graph x 1\n", "line 1: expected integers, got 'x 1'"),
    ("graph", f"p graph {LONG} 0\n", "line 1: integer token of 4301 characters (at most 4300)"),
    ("graph", "p graph 1 0\nv 1\n", "line 2: expected 'v <id> <weight>'"),
    ("graph", "p graph 1 0\nv 1 1 1\n", "line 2: expected 'v <id> <weight>'"),
    ("graph", "p graph 1 0\nv one 1\n", "line 2: expected integers, got 'one'"),
    ("graph", "p graph 1 0\nv 1 1\nv 1 2\n", "line 3: duplicate vertex 1"),
    ("graph", "p graph 1 0\nv 1 X0\n", "symbol indices are 1-based"),
    ("graph", "p graph 1 0\nv 1 Xa\n", "bad symbolic weight 'Xa'"),
    ("graph", f"p graph 1 0\nv 1 X{LONG}\n", "symbol index of 4301 characters (at most 4300)"),
    ("graph", "p graph 1 0\nv 1 1/0\n", "bad weight '1/0'"),
    ("graph", "p graph 1 0\nv 1 abc\n", "bad weight 'abc'"),
    ("graph", "p graph 1 0\nv 1 1e5\n", "exponent notation is not accepted: '1e5'"),
    ("graph", TWO + "e 1\n", "line 4: expected 'e <u> <v>'"),
    ("graph", TWO + "e 1 b\n", "line 4: expected integers, got '1 b'"),
    ("graph", TWO + f"e 1 {LONG}\n", "line 4: integer token of 4301 characters (at most 4300)"),
    ("graph", TWO + "r 1 2\n", "line 4: unknown directive 'r'"),
    ("graph", "# c\n\np graph 1 0  # header\nv 1 1\nq\n", "line 5: unknown directive 'q'"),
    ("graph", "v 1 1\n", "missing 'p graph' header"),
    ("graph", "", "missing 'p graph' header"),
    ("graph", "p graph 2 0\nv 1 1\n", "header declares 2 vertices, found 1"),
    ("graph", "p graph 2 1\nv 1 1\ne 1 2\n", "header declares 2 vertices, found 1"),
    ("graph", "p graph 1 1\nv 1 1\ne 1 2\n", "edge (1, 2) references a missing vertex"),
    ("poset", "p poset\n", "line 1: expected 'p poset <n>'"),
    ("poset", "p graph 1 0\n", "line 1: expected 'p poset <n>'"),
    ("poset", "p poset two\n", "line 1: expected integers, got 'two'"),
    ("poset", "p poset 1\nv 1\n", "line 2: expected 'v <id> <weight>'"),
    ("poset", "p poset 1\nv x 1\n", "line 2: expected integers, got 'x'"),
    ("poset", "p poset 1\nv 1 1\nv 1 1\n", "line 3: duplicate element 1"),
    ("poset", "p poset 1\nv 1 1/0\n", "bad weight '1/0'"),
    ("poset", "p poset 2\nv 1 1\nv 2 1\nr 1\n", "line 4: expected 'r <i> <j>'"),
    ("poset", "p poset 2\nv 1 1\nv 2 1\nr 1 x\n", "line 4: expected integers, got '1 x'"),
    ("poset", "p poset 1\nv 1 1\ne 1 1\n", "line 3: unknown directive 'e'"),
    ("poset", "p poset 1\nv 1 1\nmodulus 5\n", "line 3: unknown directive 'modulus'"),
    ("poset", "v 1 1\n", "missing 'p poset' header"),
    ("poset", "p poset 2\nv 1 1\n", "header declares 2 elements, found 1"),
    ("poset", "p poset 1\nv 1 1\nr 1 2\n", "relation (1, 2) references a missing element"),
    ("poset", "p poset 1\nv 1 1\nr 1 1\n", "order must be irreflexive, got (1, 1)"),
    ("poset", "p poset 2\nv 1 1\nv 2 1\nr 1 2\nr 2 1\n", "cycle through 1 breaks antisymmetry"),
]
# the header's edge count, and the instance trailer as the file's last lines
EDGE_COUNT_AND_TRAILER_FILES = [
    ("graph", "p graph 2 5\nv 1 1\nv 2 1\ne 1 2\n", "header declares 5 edges, found 1"),
    ("graph", "p graph 1 0\nv 1 1\ne 1 1\n", "header declares 0 edges, found 1"),
    ("graph", TWO + "e 1 2\nmodulus 5\ne 1 1\n", "line 6: 'e' line after the trailer"),
    ("graph", TWO + "e 1 2\nmodulus 5\nprovenance {}\n# end\nv 3 1\n",
     "line 8: 'v' line after the trailer"),
    ("graph", TWO + "e 1 2\nmodulus 5\nmodulus 5\n", "line 6: duplicate 'modulus' line"),
    ("graph", TWO + "e 1 2\nprovenance {}\nmodulus 5\n", "line 6: 'modulus' line after the trailer"),
    ("graph", TWO + "e 1 2\nprovenance {}\nprovenance {}\n", "line 6: duplicate 'provenance' line"),
]
READERS = {"graph": parse_graph_file, "poset": parse_poset_file}


def _assert_parse_error(reader, text, message):
    with pytest.raises(ParseError) as exc:
        READERS[reader](text)
    assert str(exc.value) == message


def _ids(table):
    return [f"{reader}: {message}" for reader, _, message in table]


@pytest.mark.parametrize("reader, text, message", MALFORMED_FILES, ids=_ids(MALFORMED_FILES))
def test_malformed_graph_and_poset_files_keep_their_messages(reader, text, message):
    _assert_parse_error(reader, text, message)


@pytest.mark.parametrize(
    "reader, text, message", EDGE_COUNT_AND_TRAILER_FILES, ids=_ids(EDGE_COUNT_AND_TRAILER_FILES)
)
def test_edge_count_and_trailer_lines_are_checked(reader, text, message):
    _assert_parse_error(reader, text, message)


@pytest.mark.parametrize("reader", ["graph", "poset"])
def test_repeated_weight_tokens_read_as_each_alone(reader):
    # the reader parses each distinct weight token once and reuses the value
    tokens = ["1", "X1", "1", "-1/2", "X1", "0", "0", "2/4", "-1/2", "1"]
    head = f"p graph {len(tokens)} 0\n" if reader == "graph" else f"p poset {len(tokens)}\n"
    text = head + "".join(f"v {i} {tok}\n" for i, tok in enumerate(tokens))
    got = READERS[reader](text)
    weights = got.vertices if reader == "graph" else got.elements
    assert [weights[i] for i in range(len(tokens))] == [parse_weight(tok) for tok in tokens]
    _assert_parse_error(reader, text.replace("v 9 1", "v 9 1/0"), "bad weight '1/0'")


def test_trailer_lines_after_the_graph_are_read_past():
    g = parse_graph_file(TWO + "e 1 2\nmodulus 5\nprovenance {}\n\n# end\n")
    assert g.edges == frozenset({(1, 2)})
    g = parse_graph_file(TWO + "e 1 2\nprovenance {}\n")
    assert g.edges == frozenset({(1, 2)})


def test_bipartition_validation():
    with pytest.raises(ValueError):
        WeightedGraph(
            {0: F(1), 1: F(1)},
            [(0, 1)],
            (frozenset({0, 1}), frozenset()),
        )
