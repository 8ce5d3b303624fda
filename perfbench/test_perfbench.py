"""Tests of the benchmark itself: generators, oracles and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _round_files(workload: str, seed: int, base: Path) -> dict[str, bytes]:
    stream = workloads.task_stream(workload, seed, base)
    argvs = [next(stream).argv for _ in range(30)]
    files = {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*"))
             if p.is_file()}
    files["argv"] = repr([[a.replace(str(base), "<base>") for a in argv] for argv in argvs]).encode()
    return files


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_generators_are_deterministic(workload, tmp_path):
    first = _round_files(workload, 7, tmp_path / "a")
    second = _round_files(workload, 7, tmp_path / "b")
    assert first == second
    other = _round_files(workload, 8, tmp_path / "c")
    assert other != first


def test_every_cycle_repeats_the_design(tmp_path):
    cycle = workloads.CYCLE_ROUNDS * workloads.ROUND_TASKS
    for workload in sorted(workloads.ROUNDS):
        stream = workloads.task_stream(workload, 3, tmp_path / workload)
        families = [t.family for t in itertools.islice(stream, 2 * cycle)]
        assert families[:cycle] == families[cycle:], workload


@pytest.mark.parametrize("kind, table, draws", [
    ("formula-dfs", workloads.FORMULA_DFS_LOG2, 200),
    ("poset-antichains", workloads.POSET_ANTICHAINS_LOG2, 200),
    ("poset-ideals-dfs", workloads.POSET_IDEALS_DFS_LOG2, 60),
])
def test_pinning_targets_are_the_generators_medians(kind, table, draws):
    # the tables hold medians of 1000 (400) draws; fewer draws land close
    measured = workloads.measure_medians(kind, draws)
    assert measured.keys() == table.keys()
    for n, median in table.items():
        assert abs(measured[n] - median) < 0.4, (kind, n, measured[n], median)


# ---------------------------------------------------------------------------
# Oracles against brute force


def _brute_weighted(n, constraints, weights):
    total = 0
    for mask in range(1 << n):
        if oracles.satisfies(constraints, mask):
            total += prod(weights[v][mask >> v & 1] for v in range(n))
    return total


def test_weighted_model_count_matches_brute_force():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 9)
        cons = []
        for _ in range(rng.randint(0, 12)):
            k = rng.randint(1, min(3, n))
            args = tuple(rng.sample(range(n), k))
            acc = {t for t in product((0, 1), repeat=k) if rng.random() < 0.6}
            cons.append((acc, args))
        weights = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        assert oracles.weighted_model_count(n, cons, weights) == _brute_weighted(n, cons, weights)


def test_planted_hard_formula_constrains_every_variable_and_is_satisfiable():
    rng = random.Random(2)
    for n in (workloads.HARD_WINDOW, 10, 12):
        cons = workloads.planted_hard_formula(rng, n)
        assert {a for _, args in cons for a in args} == set(range(n))
        ocons = workloads._oracle_constraints(cons, workloads.HARD_RELATIONS)
        count = oracles.weighted_model_count(n, ocons, [(1, 1)] * n)
        assert count >= 1
        assert count == _brute_weighted(n, ocons, [(1, 1)] * n)


def test_dfs_profile_counts_consistent_prefixes_and_models():
    rng = random.Random(7)
    for n in (8, 10, 12):
        cons = workloads.planted_hard_formula(rng, n)
        ocons = workloads._oracle_constraints(cons, workloads.HARD_RELATIONS)
        nodes = 0
        for i in range(n):
            inside = [(acc, args) for acc, args in ocons if max(args) <= i]
            nodes += sum(1 for mask in range(1 << (i + 1)) if oracles.satisfies(inside, mask))
        models = _brute_weighted(n, ocons, [(1, 1)] * n)
        assert workloads.dfs_profile(n, cons) == (nodes, models)


def _easy_table() -> dict[str, set]:
    table = dict(workloads.EASY_RELATIONS)
    table.update({"EQ": {(0, 0), (1, 1)}, "NE": {(0, 1), (1, 0)}, "F": {(0,)}, "T": {(1,)}})
    return table


def _brute_easy(n, lines, point):
    table = _easy_table()
    cons = []
    for line in lines:
        name, *args = line.split()
        cons.append((table[name], tuple(int(a) - 1 for a in args)))
    total = Fraction(0)
    for mask in range(1 << n):
        if oracles.satisfies(cons, mask):
            total += prod((point[v] for v in range(n) if mask >> v & 1), start=Fraction(1))
    return total


@pytest.mark.parametrize("shape", ["tree", "planted"])
def test_planted_easy_value_matches_brute_force(shape):
    rng = random.Random(3)
    make = workloads.parity_tree if shape == "tree" else workloads.planted_components
    for _ in range(30):
        n = rng.randint(2, 11)
        lines, planted = make(rng, n)
        coords = [rng.choice(["1", "2", "-3", "2/3", "-1/2"]) for _ in range(n)]
        point = [Fraction(c) for c in coords]
        assert planted.value(coords) == _brute_easy(n, lines, point)


def _brute_gadget_exists(target, blocks, max_aux, max_constraints):
    k, acc = target
    for q in range(max_aux + 1):
        t = k + q
        atoms = [(a, args) for _, a in blocks
                 for args in product(range(t), repeat=len(next(iter(a))))]
        for size in range(1, max_constraints + 1):
            for combo in combinations_with_replacement(range(len(atoms)), size):
                cons = [atoms[i] for i in combo]
                if oracles.gadget_certificate_ok(target, cons, q):
                    return True
    return False


def test_implementation_exists_matches_brute_force():
    rels = workloads.HARD_RELATIONS
    blocks_list = [["OR0", "NE"], ["EQ"], ["OR1", "OR2"], ["NE"]]
    for target in ("OR0", "OR1", "EQ", "NE", "OR2"):
        tgt = (2, rels[target])
        for names in blocks_list:
            blocks = [(len(next(iter(rels[b]))), rels[b]) for b in names]
            for a, c in ((0, 1), (0, 2), (1, 2)):
                assert oracles.implementation_exists(tgt, blocks, a, c) == \
                    _brute_gadget_exists(tgt, blocks, a, c), (target, names, a, c)


def test_gadget_certificate_check():
    ne = workloads.HARD_RELATIONS["NE"]
    eq = workloads.HARD_RELATIONS["EQ"]
    assert oracles.gadget_certificate_ok((2, eq), [(ne, (0, 2)), (ne, (2, 1))], 1)
    assert not oracles.gadget_certificate_ok((2, eq), [(ne, (0, 2))], 1)  # two extensions
    assert not oracles.gadget_certificate_ok((2, eq), [(ne, (0, 1))], 0)


def test_permanent_matches_permutation_sum():
    rng = random.Random(4)
    for n in range(1, 6):
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        brute = sum(prod(m[i][p[i]] for i in range(n)) for p in permutations(range(n)))
        assert oracles.permanent(m) == brute


def _brute_independent_sets(n, edges):
    return sum(1 for mask in range(1 << n)
               if not any(mask >> u & 1 and mask >> v & 1 for u, v in edges))


def test_grid_and_graph_independent_sets_match_brute_force():
    for k in range(1, 4):
        for length in range(k, 5):
            edges = workloads.grid_edges(k, length)
            brute = _brute_independent_sets(k * length, edges)
            assert oracles.grid_independent_sets(k, length) == brute
            assert oracles.independent_sets(k * length, edges) == brute
    rng = random.Random(5)
    for n in range(4, 13):
        edges = workloads.sparse_graph(rng, n)
        assert oracles.independent_sets(n, edges) == _brute_independent_sets(n, edges)


def test_antichains_match_brute_force():
    rng = random.Random(6)
    for n in range(2, 11):
        rel = workloads.random_poset(rng, n)
        closed = set(rel)
        while True:
            extra = {(x, z) for x, y in closed for y2, z in closed if y == y2} - closed
            if not extra:
                break
            closed |= extra
        brute = sum(1 for r in range(n + 1) for s in combinations(range(n), r)
                    if not any((x, y) in closed for x in s for y in s))
        assert oracles.antichains(n, rel) == brute


def test_ideal_search_nodes_sums_ideals_of_prefixes():
    rng = random.Random(8)
    for n in (6, 9):
        rel = workloads.random_poset(rng, n)
        closed = set(rel)
        for m in range(n):  # Warshall on pairs
            closed |= {(x, z) for x, y in closed if y == m for y2, z in closed if y2 == m}
        nodes = 0
        for i in range(n):
            for mask in range(1 << (i + 1)):
                if all(mask >> x & 1 for x, y in closed if y <= i and x <= i and mask >> y & 1):
                    nodes += 1
        assert workloads.ideal_search_nodes(n, rel) == nodes


# ---------------------------------------------------------------------------
# Spans and metrics


def test_self_times_subtract_direct_children_only():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 8.0, 2, 0),
        ("next", 11.0, 12.5, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.5])


def test_tracer_records_nested_layers(tmp_path):
    from satpoly import cli

    formula = tmp_path / "f.csp"
    formula.write_text("p csp 3 2\nOR0 1 2\nNE 2 3\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seconds, code, out, err, exc = run.invoke(cli, ["count", "sat", "--formula", str(formula)])
    finally:
        tracer.uninstall()
    assert code == 0 and exc is None and '"count":"3"' in out
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "formulas.count_sat" in names
    assert "bits.table_var" in names
    parents = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parents["formulas.count_sat"]][0] == "cli.main"
    assert cli.count_sat is tracer.originals["formulas.count_sat"]  # uninstalled
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["formulas.parse_formula_file.calls"] == (1, "count")


def test_harrell_davis_median():
    values = [float(i) for i in range(1, 101)]
    assert run.harrell_davis_median(values) == pytest.approx(50.5, rel=1e-3)
    assert run.harrell_davis_median(values[::-1]) == run.harrell_davis_median(values)
    assert run.harrell_davis_median([3.0] * 7) == pytest.approx(3.0)
    # the tails carry no weight: a huge last value leaves the estimate alone
    assert run.harrell_davis_median(values[:-1] + [1e9]) == pytest.approx(50.5, rel=1e-3)


def test_nearest_rank_percentile():
    values = [float(i) for i in range(1, 101)]
    assert run.nearest_rank(values, 0.9) == 90.0
    assert run.nearest_rank(values, 0.5) == 50.0
    assert run.nearest_rank([3.0], 0.9) == 3.0
