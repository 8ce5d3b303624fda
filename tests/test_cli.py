import contextlib
import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import satpoly.cli as cli
import satpoly.formulas as formulas_mod
import satpoly.verify as verify_mod
from satpoly.errors import MAX_INT_CHARS, MAX_RATIONAL_CHARS, ParseError, parse_rational
from satpoly.formulas import Formula
from satpoly.graphs import Var, parse_graph_file
from satpoly.implement import Implementation
from satpoly.posets import Poset, antichain_poly, format_poset_file
from satpoly.reductions import (
    UnweightedGraph,
    brute_count_vertex_covers,
    count_vertex_covers,
    emit_instance,
    format_instance_file,
    is_to_negative2sat,
    vc_to_positive2sat,
)
from satpoly.relations import BUILTIN_RELATIONS, resolve_relation

import reference_paths as reference


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


EASY_RELS = """\
relation eq 2
00
11
end
relation ne 2
01
10
end
relation zero 1
0
end
"""

HARD_RELS = """\
relation OR1 2
00
10
11
end
"""


def test_classify_easy(tmp_path, capsys):
    path = write(tmp_path, "rels.txt", EASY_RELS)
    code, out = run_cli(capsys, "classify", "--relations", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert payload["verdict"] == "easy"
    assert payload["decomposition"]["ne"] == [{"kind": "ne", "vars": [1, 2]}]


def test_classify_hard_witness(tmp_path, capsys):
    path = write(tmp_path, "rels.txt", HARD_RELS)
    code, out = run_cli(capsys, "classify", "--relations", path)
    assert code == 0
    assert json.loads(out) == {
        "format": 1,
        "verdict": "hard",
        "witness": {"nonAffine": "OR1"},
    }


def test_classify_determinism(tmp_path, capsys):
    path = write(tmp_path, "rels.txt", EASY_RELS)
    _, out1 = run_cli(capsys, "classify", "--relations", path)
    _, out2 = run_cli(capsys, "classify", "--relations", path)
    assert out1 == out2


FORMULA = """\
p csp 3 2
NE 1 2
EQ 2 3
"""


def test_eval_easy_path(tmp_path, capsys):
    path = write(tmp_path, "f.csp", FORMULA)
    code, out = run_cli(capsys, "eval", "--formula", path, "--point", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2" and payload["path"] == "easy"


def test_eval_easy_flag_emits_factored_form(tmp_path, capsys):
    path = write(tmp_path, "f.csp", FORMULA)
    code, out = run_cli(capsys, "eval", "--formula", path, "--point", "1 1 1", "--easy")
    payload = json.loads(out)
    assert payload["factored"]["components"] == [{"one": [1], "zero": [2, 3]}]


def test_eval_enumeration_path(tmp_path, capsys):
    path = write(tmp_path, "f.csp", "p csp 2 1\nOR0 1 2\n")
    code, out = run_cli(capsys, "eval", "--formula", path, "--point", "2,3")
    payload = json.loads(out)
    assert payload == {"format": 1, "path": "enumeration", "value": "11"}


def test_eval_rational_output(tmp_path, capsys):
    path = write(tmp_path, "f.csp", "p csp 2 1\nOR0 1 2\n")
    _, out = run_cli(capsys, "eval", "--formula", path, "--point", "1/2,1/3")
    assert json.loads(out)["value"] == "1"


# an EQ-like relation and an OR0-like one that the formula below never applies
MIXED_RELS = "relation same 2\n00\n11\nend\nrelation either 2\n01\n10\n11\nend\n"


def test_eval_classifies_the_relations_the_formula_applies(tmp_path, capsys):
    rels = write(tmp_path, "mix.rel", MIXED_RELS)
    path = write(tmp_path, "mix.csp", "p csp 3 2\nsame 1 2\nsame 2 3\n")
    argv = ["eval", "--formula", path, "--relations", rels, "--point", "2,3,5"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"format": 1, "path": "easy", "value": "31"}  # 1 + 2*3*5
    code, out = run_cli(capsys, *argv, "--easy")
    assert code == 0
    assert json.loads(out)["factored"]["components"] == [{"one": [1, 2, 3], "zero": []}]


def test_poly_serialization(tmp_path, capsys):
    path = write(tmp_path, "f.csp", "p csp 2 1\nOR0 1 2\n")
    out_path = tmp_path / "poly.txt"
    code, out = run_cli(capsys, "poly", "--formula", path, "--out", str(out_path))
    payload = json.loads(out)
    assert payload["polynomial"]["terms"] == [["1", [1]], ["1", [2]], ["1", [1, 2]]]
    assert out_path.read_text() == "1 : 1\n1 : 2\n1 : 1 2\n"


def test_count_sat(tmp_path, capsys):
    path = write(tmp_path, "f.csp", "p csp 2 1\nOR0 1 2\n")
    code, out = run_cli(capsys, "count", "sat", "--formula", path)
    assert json.loads(out)["count"] == "3"


GRAPH = """\
p graph 3 3
v 1 1
v 2 1
v 3 1
e 1 2
e 2 3
e 3 3
"""


def test_count_vc_and_is(tmp_path, capsys):
    path = write(tmp_path, "g.txt", GRAPH)
    _, out = run_cli(capsys, "count", "vc", "--graph", path)
    assert json.loads(out)["count"] == "3"  # vertex 3 forced by its loop
    _, out = run_cli(capsys, "count", "is", "--graph", path)
    assert json.loads(out)["count"] == "3"  # vertex 3 excluded by its loop


def test_count_vc_is_large_graph_path(tmp_path, capsys):
    # both kinds use the branching cover counter at every size, which is
    # safe because complementation pairs covers with independent sets
    n = 24
    lines = [f"p graph {n} {n - 1}"]
    lines += [f"v {i} 1" for i in range(1, n + 1)]
    lines += [f"e {i} {i + 1}" for i in range(1, n)]  # a path
    path = write(tmp_path, "big.txt", "\n".join(lines) + "\n")
    fib = [1, 2]  # count for a path = strings with no two adjacent zeros
    while len(fib) < n + 1:
        fib.append(fib[-1] + fib[-2])
    _, out_vc = run_cli(capsys, "count", "vc", "--graph", path)
    _, out_is = run_cli(capsys, "count", "is", "--graph", path)
    assert json.loads(out_vc)["count"] == str(fib[n])
    assert json.loads(out_is)["count"] == str(fib[n])


def random_graph_text(rng, n):
    """Graph file with random edges and loops; the last vertex is isolated."""
    p = rng.choice([0.1, 0.3, 0.6])
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < p]
    loops = [u for u in range(1, n + 1) if rng.random() < 0.15]
    lines = [f"p graph {n} {len(edges) + len(loops)}"]
    lines += [f"v {u} 1" for u in range(1, n + 1)]
    lines += [f"e {u} {v}" for u, v in edges] + [f"e {u} {u}" for u in loops]
    return "\n".join(lines) + "\n"


def listed_count(f):
    """Models of f, as the terms of the polynomial poly_of_formula lists."""
    return len(formulas_mod.poly_of_formula(f).terms)


def test_count_vc_is_matches_2sat_encoding_and_brute_force(tmp_path, capsys):
    rng = random.Random(2024)
    for n in range(21):
        for rep in range(2):
            text = random_graph_text(rng, n)
            path = write(tmp_path, f"g{n}_{rep}.txt", text)
            g = parse_graph_file(text)
            counts = {}
            for kind in ("vc", "is"):
                code, out = run_cli(capsys, "count", kind, "--graph", path)
                assert code == 0
                counts[kind] = int(json.loads(out)["count"])
            if n:  # the encoders pad the empty graph to one free variable
                # the cover counter is elimination.count, as is count_sat; the
                # models of the encodings are listed depth-first, which shares
                # no code with it
                assert counts["vc"] == listed_count(vc_to_positive2sat(g))
                assert counts["is"] == listed_count(is_to_negative2sat(g))
            if n <= 12:
                ug = UnweightedGraph(g.vertices, g.plain_edges(), g.loops())
                assert counts["vc"] == counts["is"] == brute_count_vertex_covers(ug)


@pytest.mark.parametrize(
    "kind, option, text",
    [
        ("vc", "--graph", "p graph 0 0\n"),
        ("is", "--graph", "p graph 0 0\n"),
        ("ideals", "--poset", "p poset 0\n"),
        ("antichains", "--poset", "p poset 0\n"),
    ],
    ids=["vc", "is", "ideals", "antichains"],
)
def test_count_empty_input_is_one(tmp_path, capsys, kind, option, text):
    # the empty set is the one cover, independent set, ideal and antichain
    path = write(tmp_path, "empty.txt", text)
    code, out = run_cli(capsys, "count", kind, option, path)
    assert code == 0
    assert json.loads(out)["count"] == "1"


POSET = """\
p poset 3
v 1 1
v 2 1
v 3 1
r 1 2
r 2 3
"""


def no_dfs():
    """Fail if a formula's models are listed rather than counted."""
    return mock.patch.object(formulas_mod, "_models", side_effect=AssertionError)


def test_count_ideals_of_disjoint_chains(tmp_path, capsys):
    # 25 elements, eliminated rather than searched; a chain of length L
    # has L + 1 ideals and the ideals of a disjoint union multiply
    lengths = [6, 5, 5, 4, 3, 2]
    lines = ["p poset 25"] + [f"v {x} 1" for x in range(25)]
    start = 0
    for length in lengths:
        lines += [f"r {x} {x + 1}" for x in range(start, start + length - 1)]
        start += length
    path = write(tmp_path, "chains.txt", "\n".join(lines) + "\n")
    with no_dfs():
        code, out = run_cli(capsys, "count", "ideals", "--poset", path)
    assert code == 0
    assert json.loads(out)["count"] == str(math.prod(length + 1 for length in lengths))


def path_polynomial_value(rels, point):
    """Polynomial of a path formula at point, by a 2-state transfer matrix."""
    state = [Fraction(1), point[0]]  # weight of the prefixes ending in 0 and in 1
    for rel, x in zip(rels, point[1:]):
        state = [
            sum(state[b] for b in (0, 1) if (b, c) in rel.accepted) * (x if c else 1)
            for c in (0, 1)
        ]
    return state[0] + state[1]


def test_count_and_eval_on_a_28_variable_path(tmp_path, capsys):
    rng = random.Random(28)
    names = [rng.choice(("EQ", "NE", "OR0")) for _ in range(27)]
    text = "p csp 28 27\n" + "".join(f"{name} {i + 1} {i + 2}\n" for i, name in enumerate(names))
    path = write(tmp_path, "path.csp", text)
    rels = [BUILTIN_RELATIONS[name] for name in names]
    point = [Fraction(rng.randint(-999_999, 999_999), rng.randint(1, 999_999)) for _ in range(28)]
    with no_dfs():
        code, out = run_cli(capsys, "count", "sat", "--formula", path)
        assert code == 0
        assert json.loads(out)["count"] == str(path_polynomial_value(rels, [1] * 28))
        code, out = run_cli(capsys, "eval", "--formula", path,
                            "--point=" + ",".join(map(str, point)))
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "enumeration"
    assert payload["value"] == str(path_polynomial_value(rels, point))


def test_count_poset_kinds(tmp_path, capsys):
    path = write(tmp_path, "p.txt", POSET)
    _, out = run_cli(capsys, "count", "ideals", "--poset", path)
    assert json.loads(out)["count"] == "4"
    _, out = run_cli(capsys, "count", "antichains", "--poset", path)
    assert json.loads(out)["count"] == "4"
    # both kinds against the antichain enumerator; the file's weights play no part
    rng = random.Random(17)
    for n in range(15):
        less = [(x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.2]
        p = Poset({x: Var(x) for x in range(n)}, less)
        path = write(tmp_path, f"p{n}.txt", format_poset_file(p))
        unit = Poset(dict.fromkeys(p.elements, Fraction(1)), p.less)
        expected = str(antichain_poly(unit).as_fraction())
        for kind in ("antichains", "ideals"):
            code, out = run_cli(capsys, "count", kind, "--poset", path)
            assert code == 0 and json.loads(out)["count"] == expected


def test_count_antichains_past_the_enumeration_cap(tmp_path, capsys):
    text = "p poset 26\n" + "".join(f"v {x} 1\n" for x in range(26))
    code, out = run_cli(capsys, "count", "antichains", "--poset", write(tmp_path, "a.txt", text))
    assert code == 0 and json.loads(out)["count"] == str(2**26)


def test_count_antichains_above_30_elements_exits_3(tmp_path, capsys):
    text = "p poset 31\n" + "".join(f"v {x} 1\n" for x in range(31)) + "r 0 1\n"
    path = write(tmp_path, "a.txt", text)
    code, out, err = run_cli_err(capsys, "count", "antichains", "--poset", path)
    assert code == 3 and out == ""
    assert err == "bound exceeded: count_sat is limited to 30 variables\n"


def test_reduce_perm_to_vc(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 1\n1 1\n")
    out_path = tmp_path / "inst.txt"
    code, out = run_cli(
        capsys, "reduce", "perm-to-vc", "--matrix", matrix, "--count", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["recovered"] == "2"
    text = out_path.read_text()
    assert "modulus" in text and "provenance" in text


def test_reduce_bipartite(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 0\n0 1\n")
    code, out = run_cli(capsys, "reduce", "perm-to-vc", "--matrix", matrix, "--bipartite", "--count")
    assert json.loads(out)["recovered"] == "1"


def test_reduce_2sat_encodings(tmp_path, capsys):
    graph = write(tmp_path, "g.txt", "p graph 2 1\nv 1 1\nv 2 1\ne 1 2\n")
    _, out = run_cli(capsys, "reduce", "vc-to-2sat", "--graph", graph)
    payload = json.loads(out)
    assert payload["formula"] == "p csp 2 1\nOR0 1 2\n"
    poset = write(tmp_path, "p.txt", POSET)
    _, out = run_cli(capsys, "reduce", "ideal-to-2sat", "--poset", poset)
    assert json.loads(out)["constraints"] == 3


def test_implement_search(tmp_path, capsys):
    rels = write(
        tmp_path,
        "rels.txt",
        "relation clause3 3\n001\n010\n011\n100\n101\n110\n111\nend\nrelation zero 1\n0\nend\n",
    )
    code, out = run_cli(capsys, "implement", "--target", "OR0", "--using", rels)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    rejected = [c for c in payload["certificate"] if not c["accepted"]]
    assert all(c["satisfying_extensions"] == [] for c in rejected)
    assert all(
        c["max_constraints_satisfied"] <= payload["alpha"] - 1 for c in rejected
    )


# full `implement` output at default bounds, recorded before the CLI took
# its certificate from implement.certificate
IMPLEMENT_GOLDEN = [
    (
        "OR0",
        "relation clause3 3\n001\n010\n011\n100\n101\n110\n111\nend\n"
        "relation zero 1\n0\nend\n",
        '{"alpha":1,"certificate":[{"accepted":false,"input":"00","max_constraints_satisfied":0,'
        '"satisfying_extensions":[]},{"accepted":true,"input":"01","max_constraints_satisfied":1,'
        '"satisfying_extensions":[""]},{"accepted":true,"input":"10","max_constraints_satisfied":1,'
        '"satisfying_extensions":[""]},{"accepted":true,"input":"11","max_constraints_satisfied":1,'
        '"satisfying_extensions":[""]}],"format":1,"formula":"p csp 2 1\\nclause3 1 1 2\\n",'
        '"found":true,"num_aux":0,"target":"OR0"}\n',
    ),
    (
        "OR2",
        "relation or0 2\n01\n10\n11\nend\nrelation ne 2\n01\n10\nend\n",
        '{"alpha":3,"certificate":[{"accepted":true,"input":"00","max_constraints_satisfied":3,'
        '"satisfying_extensions":["11"]},{"accepted":true,"input":"01","max_constraints_satisfied":3,'
        '"satisfying_extensions":["10"]},{"accepted":true,"input":"10","max_constraints_satisfied":3,'
        '"satisfying_extensions":["01"]},{"accepted":false,"input":"11","max_constraints_satisfied":2,'
        '"satisfying_extensions":[]}],"format":1,"formula":"p csp 4 3\\nor0 3 4\\nne 1 3\\nne 2 4\\n",'
        '"found":true,"num_aux":2,"target":"OR2"}\n',
    ),
]


@pytest.mark.parametrize("target, rels, expected", IMPLEMENT_GOLDEN, ids=["OR0", "OR2"])
def test_implement_output_is_golden(tmp_path, capsys, target, rels, expected):
    path = write(tmp_path, "rels.txt", rels)
    code, out = run_cli(capsys, "implement", "--target", target, "--using", path)
    assert code == 0
    assert out == expected


def test_implement_invalid_gadget_exits_4(tmp_path, monkeypatch, capsys):
    # no constraints: the rejected input 00 extends too, so the gadget is invalid
    def fake_search(target, using, **bounds):
        return Implementation(target, Formula(target.rank, ()), 0)

    monkeypatch.setattr(cli, "search_implementation", fake_search)
    path = write(tmp_path, "rels.txt", "relation eq 2\n00\n11\nend\n")
    code, out, err = run_cli_err(capsys, "implement", "--target", "OR0", "--using", path)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_implement_not_found(tmp_path, capsys):
    rels = write(tmp_path, "rels.txt", "relation eq 2\n00\n11\nend\n")
    code, out = run_cli(capsys, "implement", "--target", "OR0", "--using", rels)
    assert code == 0
    assert json.loads(out)["found"] is False


def test_implement_past_the_atom_bound_exits_3(tmp_path, capsys):
    # one rank-12 block: two variables give 4096 argument tuples and no
    # gadget, three would give 3**12
    rels = write(tmp_path, "big.rel", "relation big 12\n" + "0" * 12 + "\n" + "1" * 12 + "\nend\n")
    start = time.perf_counter()
    code, out, err = run_cli_err(capsys, "implement", "--target", "OR0", "--using", rels)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (
        "bound exceeded: search_implementation is limited to 4096 atoms, 3 variables give 531441\n"
    )


def test_reduce_out_past_the_line_bound_exits_3(tmp_path, capsys):
    # the 5x5 all-ones bipartite instance would be 53 M lines; nothing is
    # rendered, printed or written
    matrix = write(tmp_path, "m.txt", "1 1 1 1 1\n" * 5)
    out_path = tmp_path / "inst.txt"
    start = time.perf_counter()
    code, out, err = run_cli_err(
        capsys, "reduce", "perm-to-vc", "--matrix", matrix, "--bipartite", "--out", str(out_path)
    )
    assert time.perf_counter() - start < 5
    assert code == 3 and out == "" and not out_path.exists()
    assert err.count("\n") == 1 and err.startswith("bound exceeded: instance file of ")


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (("poly", "--formula"), "f.csp", FORMULA),
        (("reduce", "perm-to-vc", "--matrix"), "m.txt", "1 1\n1 1\n"),
        (("reduce", "vc-to-2sat", "--graph"), "g.txt", "p graph 2 1\nv 1 1\nv 2 1\ne 1 2\n"),
    ],
    ids=["poly", "perm-to-vc", "vc-to-2sat"],
)
def test_unwritable_out_is_a_parse_error(tmp_path, capsys, argv, name, text):
    out_path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli_err(capsys, *argv, write(tmp_path, name, text), "--out", out_path)
    assert_one_line_exit_2(code, out, err)
    assert err.startswith(f"parse error: cannot write {out_path}: ")


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "not a relation file")
    code, _ = run_cli(capsys, "classify", "--relations", path)
    assert code == 2


def test_bound_exceeded_exit_code(tmp_path, capsys):
    lines = ["p csp 40 1", "OR0 1 2"]
    path = write(tmp_path, "f.csp", "\n".join(lines) + "\n")
    code, _ = run_cli(capsys, "eval", "--formula", path, "--point", ",".join(["1"] * 40))
    assert code == 3


@pytest.mark.parametrize("text", ["p csp 30 0\n", "p csp 21 0\n", "p csp 22 1\nOR0 1 2\n"])
def test_poly_past_the_term_bound_exits_3(tmp_path, capsys, text):
    # models times 2 per free variable would pass MAX_POLY_TERMS: the listing
    # stops before any term is built
    code, out, err = run_cli_err(capsys, "poly", "--formula", write(tmp_path, "f.csp", text))
    assert code == 3 and out == ""
    assert err == "bound exceeded: poly_of_formula is limited to 1048576 terms\n"


@pytest.mark.parametrize("bipartite", [False, True])
def test_reduce_count_reports_the_exact_count_or_its_bits(tmp_path, capsys, bipartite):
    for rows in ([[1]], [[0]], [[1, 0], [1, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        text = "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        argv = ["reduce", "perm-to-vc", "--matrix", write(tmp_path, "m.txt", text), "--count"]
        code, out = run_cli(capsys, *argv, *(["--bipartite"] if bipartite else []))
        payload = json.loads(out)
        exact = count_vertex_covers(emit_instance(rows, bipartite).graph)
        if exact.bit_length() <= 4000:
            assert payload["count"] == str(exact) and "count_bits" not in payload
        else:
            assert payload["count_bits"] == exact.bit_length() and "count" not in payload
        assert payload["recovered"] == str(exact % int(payload["modulus"]))


def test_missing_file_is_parse_error(capsys):
    code, _ = run_cli(capsys, "classify", "--relations", "/nonexistent/file")
    assert code == 2


def test_verify_exit_codes(monkeypatch, capsys):
    from satpoly.verify import CheckResult

    def fake_run_all(seed):
        return [CheckResult("stub", True, "ok", 0.0, 1.0, True)]

    monkeypatch.setattr(verify_mod, "run_all", fake_run_all)
    code, out = run_cli(capsys, "verify")
    assert code == 0 and json.loads(out)["passed"] is True

    def fake_run_all_fail(seed):
        return [CheckResult("stub", False, "boom", 0.0, 1.0, True)]

    monkeypatch.setattr(verify_mod, "run_all", fake_run_all_fail)
    code, out = run_cli(capsys, "verify")
    assert code == 4 and json.loads(out)["passed"] is False


def test_verify_reports_seconds_and_budget(monkeypatch, capsys):
    from satpoly.verify import ALL_CHECKS, run_all

    quick = [c for c in ALL_CHECKS if c.name == "01-dichotomy-catalog"]
    monkeypatch.setattr(verify_mod, "run_all", lambda seed: run_all(seed, quick))
    code, out = run_cli(capsys, "verify")
    (row,) = json.loads(out)["checks"]
    assert code == 0 and row["name"] == "01-dichotomy-catalog"
    assert row["budget_seconds"] == quick[0].budget_seconds
    assert 0 <= row["seconds"] <= row["budget_seconds"]


@pytest.mark.parametrize("argv, seed", [([], 271828), (["--seed", "5"], 5)], ids=["default", "given"])
def test_verify_reports_its_seed(monkeypatch, capsys, argv, seed):
    seeds = []
    monkeypatch.setattr(verify_mod, "run_all", lambda seed: seeds.append(seed) or [])
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0 and seeds == [seed] and json.loads(out)["seed"] == seed
    assert verify_mod.DEFAULT_SEED == 271828


IMPORT_GUARD = """\
import importlib.util, json, sys
import satpoly.cli as cli
from perfbench.tracing import TRACED

class QuickVerify:
    # keeps one check of the suite once satpoly.verify is first imported
    def find_spec(self, name, path=None, target=None):
        if name != "satpoly.verify":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module
        def trimmed(module):
            exec_module(module)
            module.ALL_CHECKS[:] = [c for c in module.ALL_CHECKS if c.name == "01-dichotomy-catalog"]
        spec.loader.exec_module = trimmed
        return spec

def loaded():
    return {m: m in sys.modules for m in
            ("numpy", "satpoly.verify", "satpoly.generators", "satpoly.affine")}

report = {"import": loaded(),
          "traced_missing": [m for m, _ in TRACED if "satpoly." + m not in sys.modules]}
sys.meta_path.insert(0, QuickVerify())
exits = json.loads(sys.argv[2])  # a call's expected exit code when it is not 0
for name, argv in json.loads(sys.argv[1]):
    if cli.main(argv) != exits.get(name, 0):
        raise SystemExit(f"{name} failed")
    report[name] = loaded()
print(json.dumps(report))
"""


def test_cli_loads_numpy_and_verify_only_where_used(tmp_path):
    # each CLI call is a fresh process that pays for every module it imports:
    # numpy only when an easy formula is factored, verify only for `verify`.
    # A canonical file of 10**4 variables takes the whole-text parse, and
    # count sat and poly exit 3 at their variable cap, so the parse itself
    # must not load numpy
    rels = write(tmp_path, "rels.txt", EASY_RELS)
    hard = write(tmp_path, "hard.csp", "p csp 3 2\nOR0 1 2\nOR0 2 3\n")
    tree = write(tmp_path, "tree.csp", "p csp 10000 9999\n"
                 + "".join(f"{('EQ', 'NE')[v % 2]} {v // 2} {v}\n" for v in range(2, 10_001)))
    easy = write(tmp_path, "easy.csp", "p csp 3 2\nEQ 1 2\nNE 2 3\n")
    graph = write(tmp_path, "g.txt", "p graph 2 1\nv 1 1\nv 2 1\ne 1 2\n")
    poset = write(tmp_path, "p.txt", POSET)
    matrix = write(tmp_path, "m.txt", "1 1\n1 1\n")
    blocks = write(tmp_path, "blocks.txt",
                   "relation clause3 3\n001\n010\n011\n100\n101\n110\n111\nend\n"
                   "relation zero 1\n0\nend\n")
    calls = [
        ("classify", ["classify", "--relations", rels]),
        ("count sat", ["count", "sat", "--formula", hard]),
        ("count vc", ["count", "vc", "--graph", graph]),
        ("count is", ["count", "is", "--graph", graph]),
        ("count ideals", ["count", "ideals", "--poset", poset]),
        ("poly", ["poly", "--formula", hard]),
        ("count sat, 10**4 variables", ["count", "sat", "--formula", tree]),
        ("poly, 10**4 variables", ["poly", "--formula", tree]),
        ("hard eval", ["eval", "--formula", hard, "--point", "1,2,3"]),
        ("reduce perm-to-vc", ["reduce", "perm-to-vc", "--matrix", matrix, "--count"]),
        ("reduce vc-to-2sat", ["reduce", "vc-to-2sat", "--graph", graph]),
        ("implement", ["implement", "--target", "OR0", "--using", blocks]),
        ("easy eval", ["eval", "--formula", easy, "--point", "1,2,3"]),
        ("verify", ["verify"]),
    ]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    exits = {"count sat, 10**4 variables": 3, "poly, 10**4 variables": 3}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(calls), json.dumps(exits)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report.pop("traced_missing") == []
    none = {"numpy": False, "satpoly.verify": False, "satpoly.generators": False,
            "satpoly.affine": False}
    assert report.pop("verify") == {name: True for name in none}
    assert report.pop("easy eval") == {**none, "numpy": True}
    assert report == {name: none for name in ["import", *(name for name, _ in calls[:-2])]}


@pytest.mark.parametrize(
    "argv, prog",
    [
        (["eval", "--formula", "f.csp", "--point", "-1,1"], "satpoly eval"),
        ([], "satpoly"),
        (["count", "vc", "--graph", "g.txt", "--no-such-option"], "satpoly"),
        (["count", "cliques", "--graph", "g.txt"], "satpoly count"),
    ],
    ids=["negative-point", "no-subcommand", "unknown-option", "unknown-kind"],
)
def test_usage_errors_are_one_line_with_exit_2(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert_one_line_exit_2(exc.value.code, captured.out, captured.err)
    assert captured.err.startswith(f"{prog}: error: ")


def test_count_vc_on_a_long_ladder(tmp_path, capsys):
    # x: the last rung has both ends in the cover; y: only its top end (or,
    # by symmetry, only its bottom end)
    n = 2000
    x = y = 1
    for _ in range(n - 1):
        x, y = x + 2 * y, x + y
    edges = [(i, i + n) for i in range(n)]
    edges += [(r * n + i, r * n + i + 1) for r in (0, 1) for i in range(n - 1)]
    lines = [f"p graph {2 * n} {len(edges)}"] + [f"v {v} 1" for v in range(2 * n)]
    path = write(tmp_path, "ladder.txt", "\n".join(lines + [f"e {u} {v}" for u, v in edges]) + "\n")
    for kind in ("vc", "is"):
        code, out = run_cli(capsys, "count", kind, "--graph", path)
        assert code == 0 and int(json.loads(out)["count"]) == x + 2 * y


def run_cli_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, option, text",
    [
        ("vc", "--graph", "p graph x 1\n"),
        ("vc", "--graph", "p graph 1 0\nv one 1\n"),
        ("is", "--graph", "p graph 2 1\nv 1 1\nv 2 1\ne 1 b\n"),
        ("ideals", "--poset", "p poset two\n"),
        ("antichains", "--poset", "p poset 2\nv 1 1\nv 2 1\nr 1 x\n"),
    ],
    ids=["graph-header", "graph-vertex", "graph-edge", "poset-header", "poset-relation"],
)
def test_bad_integer_in_input_file_exits_2(tmp_path, capsys, kind, option, text):
    path = write(tmp_path, "in.txt", text)
    assert_one_line_exit_2(*run_cli_err(capsys, "count", kind, option, path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p graph 2 1\nv 1 1\nv 2 1\ne 1 2\nmodulus 5\ne 1 1\n", "line 6: 'e' line after the trailer"),
        ("p graph 2 5\nv 1 1\nv 2 1\ne 1 2\n", "header declares 5 edges, found 1"),
    ],
    ids=["line-after-trailer", "edge-count"],
)
def test_graph_file_with_a_late_line_or_a_wrong_edge_count_exits_2(tmp_path, capsys, text, message):
    path = write(tmp_path, "g.txt", text)
    for kind in ("vc", "is"):
        code, out, err = run_cli_err(capsys, "count", kind, "--graph", path)
        assert_one_line_exit_2(code, out, err)
        assert err == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "text",
    ["1 1\n", "1 0\n1\n", "2 0\n0 1\n", "1 -1\n0 1\n"],
    ids=["one-row", "ragged", "entry-2", "entry-minus-1"],
)
def test_reduce_rejects_bad_matrix_with_exit_2(tmp_path, capsys, text):
    path = write(tmp_path, "m.txt", text)
    assert_one_line_exit_2(*run_cli_err(capsys, "reduce", "perm-to-vc", "--matrix", path))


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "sat"),
        ("count", "vc"),
        ("count", "is"),
        ("count", "ideals"),
        ("count", "antichains"),
        ("reduce", "perm-to-vc"),
        ("reduce", "vc-to-2sat"),
        ("reduce", "ideal-to-2sat"),
    ],
    ids="-".join,
)
def test_missing_input_option_exits_2(capsys, argv):
    code, out, err = run_cli_err(capsys, *argv)
    assert_one_line_exit_2(code, out, err)
    assert "needs --" in err


# each command's argv up to the option that takes the fuzzed file; a point
# is fuzzed as the --point text of eval on a valid formula file
FUZZ_COMMANDS = {
    "formula": [("count", "sat", "--formula"), ("poly", "--formula")],
    "graph": [("count", "vc", "--graph"), ("count", "is", "--graph"),
              ("reduce", "vc-to-2sat", "--graph"), ("reduce", "is-to-2sat", "--graph")],
    "poset": [("count", "ideals", "--poset"), ("count", "antichains", "--poset"),
              ("reduce", "ideal-to-2sat", "--poset")],
    "relations": [("classify", "--relations"),
                  ("implement", "--target", "OR0", "--max-aux", "1", "--max-constraints", "2",
                   "--using")],
    "matrix": [("reduce", "perm-to-vc", "--matrix"), ("reduce", "perm-to-vc", "--count", "--matrix"),
               ("reduce", "perm-to-vc", "--bipartite", "--count", "--matrix")],
    "point": [("eval",), ("eval", "--easy")],
    "instance": [("count", "vc", "--graph"), ("count", "is", "--graph")],
}
# reduction instances of 1x1 and 2x2 matrices; a bipartite 2x2 instance has
# about 80,000 vertices and takes over a second to count, so only the
# all-ones one is drawn, and as one entry of 21
FUZZ_INSTANCES = (
    [([[a]], bipartite) for a in (0, 1) for bipartite in (False, True)]
    + [([[a, b], [c, d]], False) for a, b, c, d in itertools.product((0, 1), repeat=4)]
    + [([[1, 1], [1, 1]], True)]
)


@functools.lru_cache(maxsize=None)
def instance_text(index):
    return format_instance_file(emit_instance(*FUZZ_INSTANCES[index]))
# weights and points go through errors.parse_rational, which refuses exponent
# notation, so a piece such as "e" reaches only its error; a piece that
# lengthens a relation's rank past MAX_RANK, or past what implement's atom
# bound lets it search, ends in exit 2 or 3
FUZZ_PIECES = ["0", "1", "-1", "2/3", "1/0", "X", "X0", "X2", "p", "v", "e", "r", "#", " ", "\n", "-",
               "csp", "NE", "xor3_1", ",", ".", "relation", "end"]
FUZZ_RELATIONS = [resolve_relation(name) for name in
                  ("OR0", "OR1", "OR2", "CLAUSE3", "EQ", "NE", "xor3_1", "T", "F")]


def atoms(n):
    """One constraint line's relation name and 1-based arguments, repeats allowed."""
    return st.sampled_from(FUZZ_RELATIONS).flatmap(lambda rel: st.tuples(
        st.just(rel.name), st.lists(st.integers(1, n), min_size=rel.rank, max_size=rel.rank)))


def formula_text(draw, n):
    cons = draw(st.lists(atoms(n), max_size=16)) if n else []
    lines = [f"p csp {n} {len(cons)}"] + [" ".join([name, *map(str, args)]) for name, args in cons]
    return "\n".join(lines) + "\n"


@st.composite
def valid_input_texts(draw):
    """A fuzzed kind, its valid text, and for a point the formula file it is read against."""
    kind = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    if kind == "relations":
        blocks = []
        for name in draw(st.lists(st.sampled_from(["a", "b", "OR0", "EQ"]), max_size=3, unique=True)):
            rank = draw(st.integers(1, 3))
            tuples = draw(st.lists(st.tuples(*[st.sampled_from("01")] * rank), max_size=4, unique=True))
            blocks.append("\n".join([f"relation {name} {rank}", *map("".join, tuples), "end"]))
        return kind, "\n".join(blocks) + "\n", None
    if kind == "instance":
        return kind, instance_text(draw(st.integers(0, len(FUZZ_INSTANCES) - 1))), None
    if kind == "matrix":
        n = draw(st.integers(1, 3))
        rows = [" ".join(draw(st.sampled_from("01")) for _ in range(n)) for _ in range(n)]
        return kind, "\n".join(rows) + "\n", None
    n = draw(st.integers(0, 12))
    if kind == "point":
        n = max(n, 1)
        coords = [draw(st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2"])) for _ in range(n)]
        return kind, ",".join(coords), formula_text(draw, n)
    if kind == "formula":
        return kind, formula_text(draw, n), None
    weights = [draw(st.sampled_from(["1", "-1", "1/2", f"X{i + 1}"])) for i in range(n)]
    if kind == "graph":
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        head, tag = f"p graph {n} {{m}}", "e"
    else:
        pairs = [(x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1)]
        head, tag = f"p poset {n}", "r"
    links = draw(st.lists(st.sampled_from(pairs), max_size=16, unique=True)) if pairs else []
    lines = [head.format(m=len(links))]
    lines += [f"v {i + 1} {w}" for i, w in enumerate(weights)]
    lines += [f"{tag} {u} {v}" for u, v in links]
    return kind, "\n".join(lines) + "\n", None


@st.composite
def mutated_input_texts(draw):
    kind, text, formula = draw(valid_input_texts())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["truncate", "replace", "insert", "drop-line", "repeat-line"]))
        if op in ("drop-line", "repeat-line"):
            lines = text.splitlines(keepends=True)
            if lines:
                i = draw(st.integers(0, len(lines) - 1))
                lines[i:i + 1] = [] if op == "drop-line" else [lines[i]] * 2
                text = "".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        if op == "truncate":
            text = text[:i]
        else:
            piece = draw(st.sampled_from(FUZZ_PIECES))
            text = text[:i] + piece + text[i + (op == "replace"):]
    return kind, text, formula


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_input_texts(), st.data())
def test_mutated_input_files_keep_the_exit_contract(tmp_path, capsys, case, data):
    kind, text, formula = case
    command = data.draw(st.sampled_from(FUZZ_COMMANDS[kind]))
    if kind == "point":
        argv = [*command, "--formula", write(tmp_path, "fuzz.csp", formula), f"--point={text}"]
    else:
        argv = [*command, write(tmp_path, "fuzz.txt", text)]
    # a mutated header can free up to 30 variables: a lower term bound keeps
    # each poly small and reaches its exit 3
    with mock.patch.object(formulas_mod, "MAX_POLY_TERMS", 1 << 12):
        code, out, err = run_cli_err(capsys, *argv)
    assert code in (0, 2, 3, 4)
    assert out == "" or (out.count("\n") == 1 and isinstance(json.loads(out), dict))
    assert err.count("\n") <= 1


# ---------------------------------------------------------------------------
# Point parsing against the per-coordinate reference


def parse_outcome(parse, text, n):
    try:
        return "ok", parse(text, n)
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "text, n",
    [
        ("1,2/3, -4", 3),
        ("1 1 1", 3),
        (" 0,,-0/5\t7 ", 3),
        ("1,1", 3),  # too few coordinates
        ("1,1,1,1", 3),  # too many
        ("", 1),
        ("1,abc,2", 3),  # bad token
        ("x,y,x", 3),  # two bad tokens: the first is reported
        ("1/0,2,3", 3),  # zero denominator
        ("2,1/0,zz", 3),  # zero denominator before a bad token
        ("1.5,1e2,-.25", 3),  # exponent notation is refused
        ("x,1E2,3", 3),  # a bad token before an exponent
    ],
)
def test_parse_point_matches_reference(text, n):
    assert parse_outcome(cli._parse_point, text, n) == parse_outcome(
        reference.parse_point, text, n
    )


@given(st.text(alphabet="0123456789/-+, .ex", max_size=24), st.integers(1, 6))
def test_parse_point_matches_reference_on_random_text(text, n):
    assert parse_outcome(cli._parse_point, text, n) == parse_outcome(
        reference.parse_point, text, n
    )


def test_parse_point_shares_one_fraction_per_token():
    point = cli._parse_point("1/2,3,1/2,3", 4)
    assert point == [Fraction(1, 2), 3, Fraction(1, 2), 3]
    assert point[0] is point[2] and point[1] is point[3]


# ---------------------------------------------------------------------------
# Values past the default 4300-digit int-str limit


@pytest.fixture
def default_int_str_limit():
    """Run with the interpreter's default limit, as a fresh CLI process does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # no limit on this interpreter
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_eval_value_past_int_str_limit(tmp_path, capsys, default_int_str_limit):
    n = 15_000
    path = write(tmp_path, "free.csp", f"p csp {n} 0\n")
    code, out = run_cli(capsys, "eval", "--formula", path, "--point", ",".join(["3"] * n))
    assert code == 0 and out.count("\n") == 1
    assert int(json.loads(out)["value"]) == 4**n


def test_count_vc_past_int_str_limit(tmp_path, capsys, default_int_str_limit):
    n = 15_000
    lines = [f"p graph {n} 0"] + [f"v {i} 1" for i in range(1, n + 1)]
    path = write(tmp_path, "isolated.txt", "\n".join(lines) + "\n")
    code, out = run_cli(capsys, "count", "vc", "--graph", path)
    assert code == 0 and out.count("\n") == 1
    assert int(json.loads(out)["count"]) == 2**n


LONG = "9" * 400_000  # int() of it alone takes about a second
LONG_TOKEN_INPUTS = {
    # name: (subcommand, input option, file text)
    "formula-index": (["count", "sat"], "--formula", f"p csp 3 1\nNE 1 {LONG}\n"),
    "formula-header": (["count", "sat"], "--formula", f"p csp {LONG} 1\nNE 1 2\n"),
    "relation-rank": (["classify"], "--relations", f"relation R {LONG}\n1\nend\n"),
    "graph-edge": (["count", "vc"], "--graph", f"p graph 2 1\nv 1 1\nv 2 1\ne 1 {LONG}\n"),
    "graph-symbol": (["count", "vc"], "--graph", f"p graph 1 0\nv 1 X{LONG}\n"),
    "poset-element": (["count", "ideals"], "--poset", f"p poset 2\nv {LONG} 1\nv 2 1\n"),
    "matrix-entry": (["reduce", "perm-to-vc"], "--matrix", f"1 0\n0 {LONG}\n"),
}


@pytest.mark.parametrize("name", sorted(LONG_TOKEN_INPUTS))
def test_overlong_integer_token_is_rejected_before_conversion(tmp_path, capsys, name):
    cmd, option, text = LONG_TOKEN_INPUTS[name]
    path = write(tmp_path, "input.txt", text)
    code = cli.main([*cmd, option, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "400000 characters (at most 4300)" in captured.err


def test_long_point_coordinate_is_still_read(tmp_path, capsys):
    # a coordinate under MAX_RATIONAL_CHARS is read: OR0(x1, x2) at (x, 1) is x + 1 + x
    path = write(tmp_path, "f.csp", "p csp 2 1\nOR0 1 2\n")
    coord = "7" * 5000
    code, out = run_cli(capsys, "eval", "--formula", path, "--point", f"{coord},1")
    assert code == 0
    assert Fraction(json.loads(out)["value"]) == 2 * int(coord) + 1


rational_tokens = st.one_of(
    st.text(alphabet="0123456789+-./eE_ ", max_size=12),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@given(rational_tokens)
def test_parse_rational_reads_what_fraction_reads_except_exponents(tok):
    # Fraction() is only called on tokens without an exponent, which it
    # reads in time linear in their length
    if "e" in tok.lower():
        with pytest.raises(ParseError, match="exponent notation"):
            parse_rational(tok)
        return
    try:
        got = parse_rational(tok)
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(tok)
        return
    assert got == Fraction(tok)


# decimal digit strings of 1 to MAX_INT_CHARS characters
digit_runs = st.builds(lambda head, k, d: (head + d * k)[:MAX_INT_CHARS],
                       st.text("0123456789", min_size=1, max_size=3),
                       st.integers(0, MAX_INT_CHARS), st.sampled_from("0123456789"))

bounded_rational_tokens = st.builds(
    lambda sign, a, sep, b: sign + a + (sep + b if sep else ""),
    st.sampled_from(["", "+", "-"]), digit_runs, st.sampled_from(["", "/", "."]), digit_runs,
)


@given(bounded_rational_tokens)
def test_rational_tokens_under_the_bound_read_as_fraction_reads_them(tok):
    assert len(tok) <= MAX_RATIONAL_CHARS
    with lifted_int_str_limit():
        try:
            want = Fraction(tok)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                parse_rational(tok)
            return
        assert parse_rational(tok) == want
    with pytest.raises(ParseError, match=f"rational token of {MAX_RATIONAL_CHARS + 1} characters"):
        parse_rational(tok + "0" * (MAX_RATIONAL_CHARS + 1 - len(tok)))


@contextlib.contextmanager
def lifted_int_str_limit():
    """No int-str limit, as cli.main sets it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval", "--point=" + "7" * 100_000 + ",1", "--formula"], "p csp 2 1\nOR0 1 2\n"),
        (["count", "vc", "--graph"], "p graph 2 1\nv 1 " + "7" * 100_000 + "\nv 2 1\ne 1 2\n"),
    ],
    ids=["point", "graph-weight"],
)
def test_overlong_rational_token_is_a_parse_error(tmp_path, capsys, argv, text):
    # Fraction() of a 10**5-digit decimal takes about 0.1 s and of 4 * 10**5
    # digits about a second; the token is refused by its length first
    path = write(tmp_path, "input.txt", text)
    start = time.perf_counter()
    code, out, err = run_cli_err(capsys, *argv, path)
    assert time.perf_counter() - start < 1
    assert_one_line_exit_2(code, out, err)
    assert f"rational token of 100000 characters (at most {MAX_RATIONAL_CHARS})" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval", "--point=1e1000000,1", "--formula"], "p csp 2 1\nOR0 1 2\n"),
        (["count", "vc", "--graph"], "p graph 2 1\nv 1 1E1000000\nv 2 1\ne 1 2\n"),
        (["count", "ideals", "--poset"], "p poset 1\nv 1 1e1000000\n"),
    ],
    ids=["point", "graph-weight", "poset-weight"],
)
def test_exponent_notation_is_a_parse_error(tmp_path, capsys, argv, text):
    # Fraction("1e1000000") builds a million-digit integer: eval at such a
    # point ran for about 18 s and printed it
    path = write(tmp_path, "input.txt", text)
    start = time.perf_counter()
    code, out, err = run_cli_err(capsys, *argv, path)
    assert time.perf_counter() - start < 1
    assert_one_line_exit_2(code, out, err)
    assert "exponent notation is not accepted" in err


@pytest.mark.parametrize("name", ["xor99_1", "xor0_1"])
def test_xor_name_out_of_range_is_a_parse_error(tmp_path, capsys, name):
    path = write(tmp_path, "f.csp", f"p csp 2 1\n{name} 1 2\n")
    code = cli.main(["count", "sat", "--formula", path])
    err = capsys.readouterr().err
    assert code == 2 and err == f"parse error: relation {name!r}: xor arity must be in [1, 16]\n"
