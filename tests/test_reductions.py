import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satpoly._bits import balanced_product
from satpoly.errors import ParseError, SatPolyError
from satpoly.formulas import count_sat
from satpoly import generators as gen
from satpoly.graphs import (
    Var,
    build_partial_perm_graph,
    incidence_transform,
    partial_permanent,
    permanent,
    two_coloring,
    vcp,
    weighted_graph,
)
from satpoly.posets import poset
from satpoly.reductions import (
    ReductionInstance,
    UnweightedGraph,
    brute_count_vertex_covers,
    count_vertex_covers,
    cover_count_bits,
    eliminate_zero_weights,
    emit_instance,
    format_instance_file,
    ideal_to_implicative2sat,
    is_to_negative2sat,
    parse_instance_file,
    parse_matrix_file,
    partial_perm_to_vc,
    perm_to_partial_perm,
    perm_via_vc,
    replay_provenance,
    resolve_forced_loops,
    simulate_neg_weights,
    vc_to_positive2sat,
)
import satpoly.elimination as elimination_mod
import reference_paths as reference

F = Fraction


def test_block_gadget_small():
    assert perm_to_partial_perm([[1]]) == [[1, -1], [-1, 0]]
    assert partial_permanent(perm_to_partial_perm([[1]])).as_fraction() == 1
    assert partial_permanent(perm_to_partial_perm([[0]])).as_fraction() == 0


@given(st.integers(min_value=0, max_value=15))
def test_block_gadget_all_2x2(bits):
    a = [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
    assert (
        partial_permanent(perm_to_partial_perm(a)).as_fraction()
        == permanent(a).as_fraction()
    )


def test_partial_perm_to_vc_values():
    g = partial_perm_to_vc([[1]])
    assert vcp(g).as_fraction() == 2  # 1 + 1, the one-by-one partial permanent
    g2 = partial_perm_to_vc([[1, 1], [1, 1]])
    assert vcp(g2).as_fraction() == 7
    g3 = partial_perm_to_vc([[1, -1], [-1, 0]])
    assert vcp(g3).as_fraction() == 1


def test_eliminate_zero_weights_path():
    g = weighted_graph({0: F(2), 1: F(0), 2: F(3)}, [(0, 1), (1, 2)])
    out = eliminate_zero_weights(g)
    assert set(out.vertices) == {0, 2}
    assert out.loops() == frozenset({0, 2})
    assert vcp(out).as_fraction() == vcp(g).as_fraction() == 6


def test_eliminate_zero_weights_no_op_and_isolated():
    g = weighted_graph({0: F(1)}, [])
    assert eliminate_zero_weights(g) is g
    iso = weighted_graph({0: F(1), 1: F(0)}, [])
    out = eliminate_zero_weights(iso)
    assert set(out.vertices) == {0}
    assert vcp(out).as_fraction() == vcp(iso).as_fraction()


def test_eliminate_zero_weights_degenerate_zero():
    adjacent = weighted_graph({0: F(0), 1: F(0), 2: F(1)}, [(0, 1), (1, 2)])
    out = eliminate_zero_weights(adjacent)
    assert vcp(out).as_fraction() == 0 == vcp(adjacent).as_fraction()
    looped_zero = weighted_graph({0: F(0), 1: F(1)}, [(0, 0), (0, 1)])
    out2 = eliminate_zero_weights(looped_zero)
    assert vcp(out2).as_fraction() == 0 == vcp(looped_zero).as_fraction()


def test_resolve_forced_loops():
    g = weighted_graph({0: F(-1), 1: F(1), 2: F(-1)}, [(0, 0), (0, 1), (1, 2)])
    out, sign = resolve_forced_loops(g)
    assert sign == -1
    assert set(out.vertices) == {1, 2} and out.edges == frozenset({(1, 2)})
    # weighted covers match: forced vertex contributes its weight
    assert vcp(g).as_fraction() == sign * vcp(out).as_fraction()


def test_simulate_neg_weights_single_negative_vertex():
    g = weighted_graph({0: F(-1)}, [])
    inst = simulate_neg_weights(g)
    assert inst.modulus == 3
    assert inst.graph.leaf_counts == {0: 1}
    count = count_vertex_covers(inst.graph)
    assert count == 3  # covers of a single edge
    assert count % 3 == 0 == vcp(g).as_fraction() % 3


def test_simulate_neg_weights_requires_unit_weights():
    with pytest.raises(SatPolyError):
        simulate_neg_weights(weighted_graph({0: F(2)}, []))


def test_simulate_all_positive_weights_adds_no_leaves():
    g = weighted_graph({0: F(1), 1: F(1)}, [(0, 1)])
    inst = simulate_neg_weights(g)
    assert inst.graph.leaf_counts == {}
    assert inst.modulus == 5
    assert count_vertex_covers(inst.graph) == 3 == vcp(g).as_fraction()


def test_leaf_block_simulates_weight_two():
    # one leaf doubles the in-cover weight: covers of a single edge number 3 = 1 + 2
    star = UnweightedGraph([0], [], leaf_counts={0: 1})
    assert count_vertex_covers(star) == 3
    assert brute_count_vertex_covers(star) == 3


def test_count_vertex_covers_examples():
    assert count_vertex_covers(UnweightedGraph([0, 1], [(0, 1)])) == 3
    triangle = UnweightedGraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert count_vertex_covers(triangle) == 4
    assert count_vertex_covers(UnweightedGraph([0], [], loops=[0])) == 1


@given(st.data())
@settings(max_examples=40)
def test_count_vertex_covers_against_enumeration(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    loops = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    leaves = {}
    if data.draw(st.booleans()):
        leaves[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, 4))
    g = UnweightedGraph(range(n), edges, loops, leaves)
    assert count_vertex_covers(g) == brute_count_vertex_covers(g)


def test_perm_via_vc_examples():
    assert perm_via_vc([[1, 1], [1, 1]]) == 2
    assert perm_via_vc([[1, 0], [0, 1]]) == 1
    assert perm_via_vc([[0, 0], [0, 0]]) == 0


def test_perm_via_vc_bipartite_variant():
    for a in ([[1]], [[1, 1], [1, 1]], [[1, 0], [1, 1]]):
        want = int(permanent(a).as_fraction())
        assert perm_via_vc(a, bipartite=True) == want


def test_bipartite_instance_is_two_colorable():
    inst = emit_instance([[1, 1], [1, 1]], bipartite=True)
    expanded = inst.graph.expand()
    assert not expanded.loops
    g = weighted_graph(
        {v: F(1) for v in expanded.vertices}, expanded.edges
    )
    assert two_coloring(g) is not None
    assert "bipartition" in inst.provenance


def test_nonbipartite_instance_keeps_loops():
    inst = emit_instance([[1, 0], [0, 1]])
    assert inst.graph.loops  # zero elimination leaves forced vertices
    assert inst.modulus == (1 << len(inst.graph.vertices)) + 1


def test_instance_file_roundtrip():
    inst = emit_instance([[1, 1], [1, 1]])
    text = format_instance_file(inst)
    again = parse_instance_file(text)
    assert again.modulus == inst.modulus
    assert again.provenance == inst.provenance
    assert count_vertex_covers(again.graph) == count_vertex_covers(inst.graph)
    assert format_instance_file(again) == text


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("\nv 1 1\n", "\nv 1 1\nv 1 1\n", "line 4: duplicate vertex 1"),
        ("\nv 1 1\n", "\nv 1\n", "line 3: expected 'v <id> <weight>'"),
        ("\nv 1 1\n", "\nv 1 y\n", "bad weight 'y'"),
        ("\nv 1 1\n", "\nv 1 X9\n", "instance vertex 1 has weight X9, not 1"),
        ("\nmodulus ", "\nmodulus 5\nmodulus ", "line {p}: duplicate 'modulus' line"),
        ("\nprovenance ", "\nprovenance {}\ne 0 0\nprovenance ", "line {after}: 'e' line after the trailer"),
        ("\nprovenance {", "\nprovenance {]", "line {p}: bad provenance JSON"),
        ("\nmodulus 72057594037927937\n", "\nmodulus 1\n", "modulus must be at least 2"),
        ("\nmodulus 7", "\nmodulus x7", "line {m}: expected integers, got 'x72057594037927937'"),
    ],
    ids=["duplicate-vertex", "missing-weight", "bad-weight", "symbolic-weight", "two-moduli",
         "line-after-trailer", "bad-provenance", "small-modulus", "bad-modulus"],
)
def test_instance_file_is_read_as_a_graph_file(old, new, message):
    text = format_instance_file(emit_instance([[1, 1], [1, 1]]))
    m = text.count("\n") - 1  # the modulus line; provenance follows it
    assert old in text
    with pytest.raises(ParseError) as exc:
        parse_instance_file(text.replace(old, new, 1))
    assert str(exc.value) == message.format(m=m, p=m + 1, after=m + 2)


def test_instance_file_needs_a_modulus():
    text = format_instance_file(emit_instance([[1]]))
    head = text[: text.index("modulus ")]
    with pytest.raises(ParseError, match="instance needs a 'modulus' line"):
        parse_instance_file(head)
    assert parse_instance_file(text[: text.index("provenance ")]).provenance == {}


def test_instance_file_caps_ids_but_not_the_modulus():
    text = format_instance_file(emit_instance([[1, 1], [1, 1]]))
    long = "9" * 400_000
    for old, new in (("p graph ", f"p graph {long}"), ("\nv 1 ", f"\nv {long} "),
                     ("\ne 1 ", f"\ne 1{long} ")):
        assert old in text
        with pytest.raises(ParseError, match=r"of 40000\d characters \(at most 4300\)"):
            parse_instance_file(text.replace(old, new, 1))
    modulus = 10**5000 + 1  # longer than any index, as emitted moduli 2**v + 1 get
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        lines = text.splitlines()
        lines = [f"modulus {modulus}" if ln.startswith("modulus ") else ln for ln in lines]
        assert parse_instance_file("\n".join(lines) + "\n").modulus == modulus
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# sha256 of format_instance_file(emit_instance(matrix, bipartite)), recorded
# from the pipeline before its bipartite steps were folded into one chain;
# one 3x3 bipartite case, as each expands to about 10^6 leaf vertices
INSTANCE_MATRICES = {
    "1": [[1]],
    "0": [[0]],
    "id2": [[1, 0], [0, 1]],
    "ones2": [[1, 1], [1, 1]],
    "zero2": [[0, 0], [0, 0]],
    "tri3": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    "id3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "ones3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
}
INSTANCE_DIGESTS = {
    ("1", False): "63ebe325b6aba823c6a7c4bb28f59f86f698edb06f80eb4b200e504fbf05aa93",
    ("1", True): "db3d058514bbba5303702f2821bf3b8c54c75ba37fde76165d1b4281243504e8",
    ("0", False): "c041d3084527993ab945651ebe0cb0643897cdb13c62ac13efc8bf1e24a8b4ee",
    ("0", True): "d1246ec98382e3edf36f103b94702d1f8193ef674141ad512a7e1619ec2935e7",
    ("id2", False): "2d76f25f9bc987208c2f471500fe24e46d06f5be2d2dc8dca8fd6dd5f13e5569",
    ("id2", True): "6ce05e718c33c00c3c6512d9a3235a20115491752eaad57ad8214ed826d1a64b",
    ("ones2", False): "57d551e27d7065ff793351ecf88716dc26232164926eee05a639e5e23ca1b093",
    ("ones2", True): "3b703c4e9b66035ab29861944144a5d84b36addd8b813c6b57dc542691536cf5",
    ("zero2", False): "949902ef608d4bff7feb4d817603e7430d4292590e0d46e5aa972401aab9a3a8",
    ("zero2", True): "c1752fbc9343d2afbe5a0b88d5e0739d073bfee381adf426cdd9de18c99cf5d8",
    ("tri3", False): "61078b2de87cd7ba83ca86e54f58ed81b3313046f8781c513121d373bc4ceeda",
    ("tri3", True): "e745b37e73987bb47f87b59228f3990e527543488041fb85af3605ffbb498094",
    ("id3", False): "68106599beeb30b6ea95a0c583e7965bc151586a284f12ffd4710c569fdfe93e",
    ("ones3", False): "ccd55087e8b8dc522fdb10d97f6f83c67f970f68a115ce772a22d0d95a0ed362",
}


@pytest.mark.parametrize("name, bipartite", sorted(INSTANCE_DIGESTS), ids=str)
def test_instance_file_matches_recorded_digest(name, bipartite):
    text = format_instance_file(emit_instance(INSTANCE_MATRICES[name], bipartite))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_DIGESTS[name, bipartite]


def test_provenance_replay_identical():
    for a, bip in (([[1, 0], [1, 1]], False), ([[1, 1], [0, 1]], True)):
        inst = emit_instance(a, bipartite=bip)
        again = replay_provenance(inst.provenance)
        assert format_instance_file(inst) == format_instance_file(again)


def test_vc_to_positive2sat():
    g = UnweightedGraph([0, 1], [(0, 1)])
    assert count_sat(vc_to_positive2sat(g)) == 3
    loops = UnweightedGraph([0, 1, 2], [(0, 1), (1, 2)], loops=[2])
    assert count_sat(vc_to_positive2sat(loops)) == brute_count_vertex_covers(loops)


def test_is_to_negative2sat():
    g = UnweightedGraph([0, 1], [(0, 1)])
    assert count_sat(is_to_negative2sat(g)) == 3
    looped = UnweightedGraph([0], [], loops=[0])
    assert count_sat(is_to_negative2sat(looped)) == 1  # only the empty set


def test_ideal_to_implicative2sat():
    p = poset({0: 1, 1: 1}, [(0, 1)])
    assert count_sat(ideal_to_implicative2sat(p)) == 3


@given(st.data())
def test_cover_and_independent_counts_agree(data):
    # complementation is a bijection between the two families, loops included
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    loops = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    g = UnweightedGraph(range(n), edges, loops)
    assert count_sat(vc_to_positive2sat(g)) == count_sat(is_to_negative2sat(g))


def test_or0_encoder_matches_reference_on_seeded_graphs():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 9)
        ids = rng.sample(range(30), n)
        edges = [(u, v) for u in ids for v in ids if u < v and rng.random() < 0.35]
        g = weighted_graph({v: Var(i) for i, v in enumerate(ids)}, edges)
        assert vc_to_positive2sat(g) == reference.or0_formula_of_graph(g)
    for n in (1, 2, 3):
        g = incidence_transform(build_partial_perm_graph(n))
        assert vc_to_positive2sat(g) == reference.or0_formula_of_graph(g)


@given(st.data())
def test_or0_encoder_matches_reference(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    g = weighted_graph({v: F(1) for v in range(n)}, edges)
    assert vc_to_positive2sat(g) == reference.or0_formula_of_graph(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_or2_encoder_matches_reference_constraint_multiset(n):
    kept = is_to_negative2sat(build_partial_perm_graph(n))
    old = reference.or2_formula_partial_perm(n)
    assert kept.num_vars == old.num_vars
    assert Counter(kept.constraints) == Counter(old.constraints)


def test_or1_encoder_matches_reference_on_seeded_posets():
    rng = random.Random(43)
    for _ in range(200):
        p = gen.random_poset(rng, 12)
        assert ideal_to_implicative2sat(p) == reference.or1_formula_of_poset(p)
    empty = poset({}, [])
    assert ideal_to_implicative2sat(empty) == reference.or1_formula_of_poset(empty)


@given(st.data())
def test_or1_encoder_matches_reference(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    ids = data.draw(st.lists(st.integers(-5, 20), min_size=n, max_size=n, unique=True))
    ranked = sorted(ids)
    pairs = [(x, y) for i, x in enumerate(ranked) for y in ranked[i + 1:]]
    rel = data.draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    p = poset(dict.fromkeys(ids, 1), rel)
    assert ideal_to_implicative2sat(p) == reference.or1_formula_of_poset(p)


def test_weighted_graph_accepts_2sat_encodings():
    g = weighted_graph({5: F(1), 9: F(1)}, [(5, 9)])
    assert count_sat(vc_to_positive2sat(g)) == 3
    assert count_sat(is_to_negative2sat(g)) == 3


def test_parse_matrix_file():
    assert parse_matrix_file("1 0\n0 1\n") == [[1, 0], [0, 1]]
    assert parse_matrix_file("# c\n1\n") == [[1]]


def test_instance_invariants():
    inst = emit_instance([[1]])
    assert isinstance(inst, ReductionInstance)
    v = len(inst.graph.vertices)
    assert inst.modulus == (1 << v) + 1
    neg_leaf_total = sum(inst.graph.leaf_counts.values())
    assert inst.graph.vertex_count() == v + neg_leaf_total


def test_negative_leaf_block_is_rejected():
    with pytest.raises(ValueError, match="leaf block sizes must be non-negative"):
        UnweightedGraph([0, 1], [(0, 1)], leaf_counts={0: -1})


# ---------------------------------------------------------------------------
# Differential tests of the instance writer and the cover counter against
# the previous implementations: the writer expanded every leaf block and
# sorted, the counter folded its factors left to right.


def _expanding_format_instance_file(inst):
    g = inst.graph.expand()
    lines = [f"p graph {len(g.vertices)} {len(g.edges) + len(g.loops)}"]
    for v in sorted(g.vertices):
        lines.append(f"v {v} 1")
    all_edges = sorted(set(g.edges) | {(u, u) for u in g.loops})
    for u, v in all_edges:
        lines.append(f"e {u} {v}")
    lines.append(f"modulus {inst.modulus}")
    lines.append(
        "provenance " + json.dumps(inst.provenance, sort_keys=True, separators=(",", ":"))
    )
    return "\n".join(lines) + "\n"


@st.composite
def compressed_graphs(draw, max_core=8, max_block=5):
    """Graphs with loops, negative and non-contiguous ids and leaf blocks of size 0-5."""
    ids = sorted(draw(st.sets(st.integers(-20, 40), max_size=max_core)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    loops = draw(st.sets(st.sampled_from(ids), max_size=3)) if ids else set()
    blocks = draw(st.dictionaries(
        st.sampled_from(ids), st.integers(0, max_block), max_size=4
    )) if ids else {}
    return UnweightedGraph(ids, edges, loops, blocks)


def _instance(g):
    return ReductionInstance(g, (1 << len(g.vertices)) + 1, {"note": "test"})


def _matrix_of(bits, n):
    return [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]


def _seeded_matrices(n, seeds):
    return [
        [[1 if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
        for rng in (random.Random(f"matrix/{n}/{s}") for s in seeds)
    ]


@given(compressed_graphs())
@settings(max_examples=150)
def test_writer_matches_expanding_writer(g):
    inst = _instance(g)
    assert format_instance_file(inst) == _expanding_format_instance_file(inst)


def test_writer_matches_expanding_writer_edge_cases():
    cases = [
        UnweightedGraph([], []),
        UnweightedGraph([-3], [], loops=[-3]),
        UnweightedGraph([-5, 2, 9], [(-5, 9), (2, 9)]),
        UnweightedGraph([-5, 2, 9], [(-5, 9)], [2], {-5: 0, 2: 0, 9: 0}),
        UnweightedGraph([-1, 4, 7], [(-1, 4), (4, 7)], [4], {7: 2, -1: 3, 4: 0}),
    ]
    for g in cases:
        inst = _instance(g)
        assert format_instance_file(inst) == _expanding_format_instance_file(inst)


@pytest.mark.parametrize("bipartite", [False, True])
def test_writer_matches_expanding_writer_on_pipeline_instances(bipartite):
    # each 3x3 bipartite instance takes seconds to expand and sort
    seeds = (1,) if bipartite else (1, 2, 3)
    matrices = [_matrix_of(bits, 2) for bits in range(16)] + _seeded_matrices(3, seeds)
    for a in matrices:
        inst = emit_instance(a, bipartite)
        assert format_instance_file(inst) == _expanding_format_instance_file(inst), a


def _assert_same_expanded_graph(inst):
    parsed = parse_instance_file(format_instance_file(inst)).graph
    expanded = inst.graph.expand()
    assert parsed.vertices == expanded.vertices
    assert parsed.edges == expanded.edges
    assert parsed.loops == expanded.loops
    assert parsed.leaf_counts == {}


@given(compressed_graphs())
def test_instance_file_parses_to_expanded_graph(g):
    _assert_same_expanded_graph(_instance(g))


def test_pipeline_instance_file_parses_to_expanded_graph():
    for a, bipartite in (([[1, 0], [1, 1]], False), ([[1, 1], [0, 1]], True)):
        _assert_same_expanded_graph(emit_instance(a, bipartite))


def _grid(k, length):
    edges = [(i * length + j, i * length + j + 1) for i in range(k) for j in range(length - 1)]
    edges += [(i * length + j, (i + 1) * length + j) for i in range(k - 1) for j in range(length)]
    return UnweightedGraph(range(k * length), edges)


def _sparse(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    loops = {v for v in range(n) if rng.random() < 0.1}
    return UnweightedGraph(range(n), rng.sample(pairs, round(1.4 * n)), loops)


def _clique(n):
    return UnweightedGraph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)])


def _dense(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    loops = {v for v in range(n) if rng.random() < 0.05}
    return UnweightedGraph(range(n), rng.sample(pairs, m), loops)


def _pipeline_cases():
    """Every instance of a matrix of order at most 2, and seeded ones of order 2-4, in both variants."""
    cases = [(_matrix_of(bits, n), bip) for n in (1, 2) for bits in range(1 << n * n)
             for bip in (False, True)]
    cases += [(a, bip) for bip in (False, True) for a in _seeded_matrices(3, (1, 2, 3))]
    cases += [(a, False) for n in (2, 3, 4) for a in _seeded_matrices(n, (1, 2))]
    cases += [(a, True) for n in (2, 3) for a in _seeded_matrices(n, (1,))]
    cases.append(([[1, 1, 1], [1, 1, 1], [1, 1, 1]], False))
    return cases


# The elimination counter against the memoised branching counter it
# replaced (reference_paths), exactly and modulo N


def test_counter_matches_sequential_fold_on_pipeline_instances():
    for a, bipartite in _pipeline_cases():
        inst = emit_instance(a, bipartite)
        count = count_vertex_covers(inst.graph)
        assert count == reference.count_vertex_covers(inst.graph), (a, bipartite)
        assert count % inst.modulus == permanent(a).as_fraction()
        assert count_vertex_covers(inst.graph, inst.modulus) == count % inst.modulus


def test_counter_matches_sequential_fold_on_grids_and_sparse_graphs():
    graphs = [_grid(k, length) for k in range(1, 7) for length in range(k, 9)]
    rng = random.Random(5)
    graphs += [_sparse(rng, n) for n in range(4, 25, 2)]
    graphs.append(UnweightedGraph(range(12), [], [3], {v: v % 4 for v in range(12)}))
    graphs += [_clique(n) for n in range(1, 13)]
    rng = random.Random(11)
    graphs += [_sparse(rng, n) for n in range(4, 31, 2)]
    graphs += [_dense(rng, n, n * (n - 1) // 4) for n in range(6, 23, 2)]
    graphs += [_dense(rng, 30, 150) for _ in range(4)]
    for g in graphs:
        assert count_vertex_covers(g) == reference.count_vertex_covers(g), g


@given(compressed_graphs(max_core=10, max_block=4))
@settings(max_examples=60)
def test_counter_matches_enumeration_with_leaf_blocks(g):
    assume(g.vertex_count() <= 20)
    assert count_vertex_covers(g) == brute_count_vertex_covers(g)


# ---------------------------------------------------------------------------
# Wide graphs, counts modulo N and the bit-length identity


def _grid_covers(k, length):
    """Covers of the k x length grid: its independent sets, by a row transfer matrix."""
    rows = [s for s in range(1 << k) if not s & s >> 1]
    ways = dict.fromkeys(rows, 1)
    for _ in range(length - 1):
        ways = {t: sum(w for s, w in ways.items() if not s & t) for t in rows}
    return sum(ways.values())


def test_counter_conditions_wide_graphs():
    # K_n has n + 1 covers; a 40-vertex graph of 300 edges and the 10 x 10
    # grid are wider than any order is eliminated at, so they are counted
    # by conditioning first
    assert count_vertex_covers(_clique(40)) == 41
    assert count_vertex_covers(_clique(40), 7) == 41 % 7
    g = _dense(random.Random(40), 40, 300)
    assert count_vertex_covers(g) == reference.count_vertex_covers(g)
    for k, length in ((4, 7), (8, 9), (10, 10)):
        assert count_vertex_covers(_grid(k, length)) == _grid_covers(k, length)


def _disjoint_union(graphs):
    vertices, edges, loops = [], [], set()
    for h in graphs:
        shift = len(vertices) - min(h.vertices)
        vertices += [v + shift for v in h.vertices]
        edges += [(u + shift, v + shift) for u, v in h.edges]
        loops |= {v + shift for v in h.loops}
    return UnweightedGraph(vertices, edges, loops)


def _eliminate_calls(g):
    with mock.patch.object(elimination_mod, "weighted_count",
                           wraps=elimination_mod.weighted_count) as spy:
        count = count_vertex_covers(g)
    return count, spy.call_count


def test_counter_conditions_each_wide_component_once():
    # conditioning one of m wide components must not copy the others into
    # both branches, or the parts double with every component (2**20 here):
    # a disjoint union costs the elimination calls of its parts
    rng = random.Random(3)
    for parts in ([_dense(rng, 40, 300) for _ in range(3)], [_clique(13)] * 20):
        alone = [_eliminate_calls(h) for h in parts]
        count, calls = _eliminate_calls(_disjoint_union(parts))
        assert calls == sum(c for _, c in alone)
        assert count == balanced_product([n for n, _ in alone])
        assert count == reference.count_vertex_covers(_disjoint_union(parts))


@given(compressed_graphs(max_core=12), st.integers(2, 1 << 80))
@settings(max_examples=120)
def test_counter_modulo_n_is_the_exact_count_modulo_n(g, modulus):
    assert count_vertex_covers(g, modulus) == count_vertex_covers(g) % modulus


def test_cover_count_bits_is_the_exact_bit_length():
    for a, bipartite in _pipeline_cases() + [(_seeded_matrices(4, (1,))[0], False)]:
        inst = emit_instance(a, bipartite)
        assert cover_count_bits(inst) == count_vertex_covers(inst.graph).bit_length(), a


def test_cover_count_bits_needs_full_leaf_blocks():
    g = UnweightedGraph([0, 1, 2], [(0, 1), (1, 2)], leaf_counts={0: 3, 2: 0})
    assert cover_count_bits(_instance(g)) == count_vertex_covers(g).bit_length()
    short = UnweightedGraph([0, 1, 2], [(0, 1), (1, 2)], leaf_counts={0: 2})
    with pytest.raises(SatPolyError, match="exactly 3 leaves"):
        cover_count_bits(_instance(short))


PRODUCT_CASES = {
    "empty": [],
    "one": [1],
    "ones": [1, 1, 1],
    "single-power": [1 << 40],
    "powers": [2, 1 << 17, 1 << 64, 8],
    "odd": [3, 5, 7, 999_999_937],
    "mixed": [1 << 33, 1, 3 * (1 << 5), 7, (1 << 90) + 1, 1 << 3, 12],
    "odd-count-mixed": [6, 1 << 20, 5, 1, 10 << 50],
    "big-odd-parts": [((1 << 200) - 1) << 70, 3 << 1000, 1 << 500],
    "zero-first": [0, 5, 1 << 9],
    "zero-inside": [5, 0, 1 << 9],
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_matches_math_prod(name):
    factors = PRODUCT_CASES[name]
    assert balanced_product(list(factors)) == math.prod(factors)


@given(st.lists(st.tuples(st.integers(0, 1 << 80), st.integers(0, 300)), max_size=12))
def test_product_matches_math_prod_random(parts):
    factors = [x << k for x, k in parts]
    assert balanced_product(factors) == math.prod(factors)
