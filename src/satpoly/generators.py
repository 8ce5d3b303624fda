"""Seeded random instance generators for the verification suites.

Everything here is driven by an explicit random.Random so that the verify
command and the test suite are reproducible from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .formulas import Constraint, Formula
from .graphs import Var, WeightedGraph
from .posets import Poset
from .relations import BUILTIN_RELATIONS, Relation, relation, width2_solution_set


def random_rational(rng: random.Random, max_abs: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))


def random_nonzero_rational(rng: random.Random, max_abs: int = 3, max_den: int = 3) -> Fraction:
    while True:
        x = random_rational(rng, max_abs, max_den)
        if x != 0:
            return x


def random_point(rng: random.Random, n: int) -> list[Fraction]:
    return [random_rational(rng) for _ in range(n)]


def random_relation(rng: random.Random, rank: int, name: str = "r") -> Relation:
    tuples = [t for t in product((0, 1), repeat=rank) if rng.random() < 0.5]
    return relation(name, rank, tuples)


_W2_KINDS = ("const0", "const1", "eq", "ne")


def random_width2_relation(rng: random.Random, rank: int, name: str) -> Relation:
    """A relation that is exactly a conjunction of width-2 constraints.

    Built by solving a random constraint set, which makes the implied
    constraints recover the accepted set exactly.
    """
    constraints = []
    for _ in range(rng.randint(0, rank + 1)):
        kind = rng.choice(_W2_KINDS)
        if kind in ("const0", "const1"):
            constraints.append((kind, rng.randrange(rank)))
        elif rank >= 2:
            i, j = rng.sample(range(rank), 2)
            constraints.append((kind, min(i, j), max(i, j)))
    return relation(name, rank, width2_solution_set(rank, constraints))


def random_easy_formula(rng: random.Random, max_vars: int = 20) -> Formula:
    """Formula over easy relations, mixing built-ins with padded custom ones."""
    n = rng.randint(1, max_vars)
    rels = [BUILTIN_RELATIONS[k] for k in ("EQ", "NE", "F", "T")]
    for idx in range(rng.randint(0, 2)):
        rels.append(random_width2_relation(rng, rng.randint(1, 3), f"w2_{idx}"))
    n_cons = rng.randint(0, max(1, int(1.3 * n)))
    cons = []
    for _ in range(n_cons):
        rel = rng.choice(rels)
        args = tuple(rng.randrange(n) for _ in range(rel.rank))
        cons.append((rel, args))
    return Formula(n, tuple(cons))


def random_formula(rng: random.Random, max_vars: int = 10, hard: bool = True) -> Formula:
    names = ["OR0", "OR1", "OR2", "CLAUSE3", "EQ", "NE", "F", "T"]
    if not hard:
        names = ["EQ", "NE", "F", "T"]
    n = rng.randint(1, max_vars)
    cons = []
    for _ in range(rng.randint(0, 2 * n)):
        rel = BUILTIN_RELATIONS[rng.choice(names)]
        args = tuple(rng.randrange(n) for _ in range(rel.rank))
        cons.append((rel, args))
    return Formula(n, tuple(cons))


def random_banded_formula(
    rng: random.Random, n: int, window: int = 8, density: float = 1.2
) -> Formula:
    """Satisfiable hard formula whose constraints join variables less than window apart.

    A planted assignment is drawn first and a constraint is kept only when
    it accepts it.  Every variable not yet covered gets a constraint
    through it, then random ones follow up to round(density * n).  Such
    formulas have min-degree elimination width below window whatever n
    is.  Needs n >= window >= 3.
    """
    names = ["OR0", "OR1", "OR2", "CLAUSE3", "EQ", "NE"]
    planted = [rng.randrange(2) for _ in range(n)]
    cons = []
    covered: set[int] = set()

    def add(v: int) -> None:
        lo = min(max(0, v - window + 1), n - window)
        others = [u for u in range(lo, lo + window) if u != v]
        while True:
            rel = BUILTIN_RELATIONS[rng.choice(names)]
            args = [v] + rng.sample(others, rel.rank - 1)
            rng.shuffle(args)
            if tuple(planted[a] for a in args) in rel.accepted:
                cons.append((rel, tuple(args)))
                covered.update(args)
                return

    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if v not in covered:
            add(v)
    while len(cons) < round(density * n):
        add(rng.randrange(n))
    return Formula(n, tuple(cons))


def random_wide_formula(rng: random.Random, n: int, kind: str) -> Formula:
    """Hard formula of unbounded width; on 24-28 variables, min-degree width 12-21.

    "clause3": 2n random CLAUSE3 clauses; "clause3-or2": also 3n/4 random
    OR2 clauses, which leave few models; "or0": OR0 on each pair with
    probability 1/2; "planted": 4n constraints of a mix that accept a
    planted assignment.
    """
    def pick(name: str) -> Constraint:
        rel = BUILTIN_RELATIONS[name]
        return rel, tuple(rng.sample(range(n), rel.rank))

    if kind == "or0":
        return Formula(n, tuple((BUILTIN_RELATIONS["OR0"], (i, j)) for i in range(n)
                                for j in range(i + 1, n) if rng.random() < 0.5))
    if kind == "planted":
        planted = [rng.randrange(2) for _ in range(n)]
        cons = []
        while len(cons) < 4 * n:
            rel, args = pick(rng.choice(["OR0", "OR1", "OR2", "CLAUSE3", "CLAUSE3", "NE"]))
            if tuple(planted[a] for a in args) in rel.accepted:
                cons.append((rel, args))
        return Formula(n, tuple(cons))
    cons = [pick("CLAUSE3") for _ in range(2 * n)]
    if kind == "clause3-or2":
        cons += [pick("OR2") for _ in range(3 * n // 4)]
    return Formula(n, tuple(cons))


def random_graph(
    rng: random.Random,
    max_vertices: int,
    edge_prob: float = 0.4,
    symbolic: bool = True,
    min_vertices: int = 1,
) -> WeightedGraph:
    n = rng.randint(min_vertices, max_vertices)
    vertices = {}
    for v in range(n):
        vertices[v] = Var(v) if symbolic else random_nonzero_rational(rng)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return WeightedGraph(vertices, edges)


def random_bipartite_graph(
    rng: random.Random, max_vertices: int, edge_prob: float = 0.4
) -> WeightedGraph:
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, n - 1)
    part0 = frozenset(range(k))
    part1 = frozenset(range(k, n))
    vertices = {v: Var(v) for v in range(n)}
    edges = [(u, v) for u in part0 for v in part1 if rng.random() < edge_prob]
    return WeightedGraph(vertices, edges, (part0, part1))


def random_unweighted_graph(rng: random.Random, max_vertices: int, loops: bool = True):
    from .reductions import UnweightedGraph

    n = rng.randint(1, max_vertices)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35
    ]
    loop_set = {v for v in range(n) if loops and rng.random() < 0.15}
    return UnweightedGraph(range(n), edges, loop_set)


def random_poset(rng: random.Random, max_elements: int, symbolic: bool = True) -> Poset:
    n = rng.randint(1, max_elements)
    elements = {}
    for x in range(n):
        elements[x] = Var(x) if symbolic else random_nonzero_rational(rng)
    relations = [
        (x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.3
    ]
    return Poset(elements, relations)


def random_01_matrix(rng: random.Random, n: int, density: float = 0.6) -> list[list[int]]:
    return [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
