"""Many-one counting reductions from the 0/1 permanent to vertex-cover counting.

The pipeline is a chain of weight-preserving gadgets:

  0/1 matrix A                                (permanent)
    -> block matrix [[A, -I], [-I, 0]]        (partial permanent; the -1
       pendant entries cancel every summand that leaves a row or column
       uncovered, leaving exactly the full permutations)
    -> row/column conflict graph, weights instantiated, incidence applied
       (cover polynomial with weights in {0, 1, -1})
    -> zero weights removed, each neighbor gaining a self-loop
    -> -1 weights simulated by pendant leaves, counting modulo
       N = 2**(vertex count before leaves) + 1, where a block of k leaves
       multiplies the in-cover weight of its vertex by 2**k = N - 1.

The instance construction never counts anything; the permanent is the
final cover count modulo N, and that count is taken modulo N throughout.
A bipartite variant inserts the double-incidence step before weight
elimination and resolves the forced loops by deletion (the per-vertex -1
deletions pair up, so no sign is left behind).

Leaf blocks are stored compressed (a per-vertex count) so instances stay
cheap to build; the instance writer emits each block as a range of leaf
ids, in order, without expanding the graph.

`count_vertex_covers` is the one cover counter, for pipeline instances and
for the CLI's `count vc|is` alike: the covers are the models of a weighted
OR0 formula, counted exactly or modulo N by `elimination.count`, the
counter formulas use; `cover_count_bits` gives the bit length of a
pipeline instance's exact count without it.
The 2-clause translations at the end are the one home of the OR0/OR2/OR1
encodings of covers, independent sets and ideals: `reduce` emits them,
and `count ideals|antichains` counts the implicative one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .elimination import count
from .errors import BoundExceeded, ParseError, SatPolyError, check_int_chars, input_lines
from .formulas import Formula
from .graphs import (
    WeightedGraph,
    bipartize,
    build_partial_perm_graph,
    format_weight,
    read_graph_file,
    two_coloring,
)
from .posets import Poset
from .relations import BUILTIN_RELATIONS

# Line cap of format_instance_file, which builds the whole file in memory at
# about 26-31 bytes per line: the 5x5 all-ones instance has 1.7 M lines, the
# 4x4 bipartite one 13.4 M and the 5x5 bipartite one 53 M.
MAX_INSTANCE_LINES = 1 << 24


class UnweightedGraph:
    """Plain graph for cover counting: edges, self-loops, compressed leaf blocks."""

    __slots__ = ("vertices", "edges", "loops", "leaf_counts")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        loops: Iterable[int] = (),
        leaf_counts: Optional[dict[int, int]] = None,
    ):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(
            (u, v) if u <= v else (v, u) for u, v in edges if u != v
        )
        self.loops = frozenset(loops)
        self.leaf_counts = dict(leaf_counts or {})
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if not self.loops <= self.vertices:
            raise ValueError("loop on a missing vertex")
        if not set(self.leaf_counts) <= self.vertices:
            raise ValueError("leaf block on a missing vertex")
        if any(k < 0 for k in self.leaf_counts.values()):
            raise ValueError("leaf block sizes must be non-negative")

    def vertex_count(self) -> int:
        return len(self.vertices) + sum(self.leaf_counts.values())

    def edge_count(self) -> int:
        return len(self.edges) + len(self.loops) + sum(self.leaf_counts.values())

    def expand(self) -> "UnweightedGraph":
        """Materialize leaf blocks as real pendant vertices."""
        if not self.leaf_counts:
            return self
        next_id = max(self.vertices, default=-1) + 1
        vertices = set(self.vertices)
        edges = list(self.edges)
        for v in sorted(self.leaf_counts):
            for _ in range(self.leaf_counts[v]):
                vertices.add(next_id)
                edges.append((v, next_id))
                next_id += 1
        return UnweightedGraph(vertices, edges, self.loops, {})

    def __repr__(self):
        return (
            f"UnweightedGraph(|V|={self.vertex_count()}, |E|={self.edge_count()}, "
            f"loops={len(self.loops)})"
        )


@dataclass(frozen=True)
class ReductionInstance:
    """Unweighted counting instance plus the modulus recovering the source value."""

    graph: UnweightedGraph
    modulus: int
    provenance: dict = field(compare=False)

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")


# ---------------------------------------------------------------------------
# Gadget steps


def _check_01_matrix(matrix) -> list[list[int]]:
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    for r in rows:
        for x in r:
            if x not in (0, 1):
                raise ValueError("entries must be 0 or 1")
    return rows


def perm_to_partial_perm(matrix) -> list[list[int]]:
    """Block gadget [[A, -I], [-I, 0]]: its partial permanent is the permanent of A.

    Toggling the -1 pendant entry of any uncovered row (or column) flips a
    summand's sign, cancelling everything except the full permutations.
    """
    a = _check_01_matrix(matrix)
    n = len(a)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
        out[i][n + i] = -1
        out[n + i][i] = -1
    return out


def partial_perm_to_vc(matrix) -> WeightedGraph:
    """Weighted cover instance whose cover polynomial equals the partial permanent.

    Instantiates the row/column conflict graph with the matrix entries and
    applies the incidence construction; the sign (-1)**edges is +1 because
    the conflict graph always has an even edge count.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise ValueError("matrix must be square and nonempty")
    for r in rows:
        for x in r:
            if x not in (-1, 0, 1):
                raise ValueError("entries must be -1, 0 or 1")
    core = build_partial_perm_graph(m)
    weights = {i * m + j: Fraction(rows[i][j]) for i in range(m) for j in range(m)}
    weighted_core = WeightedGraph(weights, core.edges)
    from .graphs import incidence_transform

    return incidence_transform(weighted_core)


def _zero_polynomial_graph() -> WeightedGraph:
    # isolated weight -1 vertex: cover polynomial 1 + (-1) = 0
    return WeightedGraph({0: Fraction(-1)}, [])


def eliminate_zero_weights(g: WeightedGraph) -> WeightedGraph:
    """Drop zero-weight vertices; each neighbor gains a self-loop.

    Covers through a zero-weight vertex contribute nothing, and covers
    avoiding it must take all its neighbors, which is what the loops
    enforce; the cover polynomial is unchanged.  If two zero vertices are
    adjacent, or a zero vertex carries a loop, the polynomial is
    identically zero and a canonical zero-valued graph is returned.
    """
    zeros = set()
    for v, w in g.vertices.items():
        if not isinstance(w, Fraction):
            raise SatPolyError("zero elimination needs numeric weights")
        if w == 0:
            zeros.add(v)
    if not zeros:
        return g
    for u, v in g.edges:
        if u in zeros and v in zeros:  # includes a loop on a zero vertex
            return _zero_polynomial_graph()
    vertices = {v: w for v, w in g.vertices.items() if v not in zeros}
    edges: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if u in zeros:
            edges.add((v, v))
        elif v in zeros:
            edges.add((u, u))
        else:
            edges.add((u, v))
    return WeightedGraph(vertices, edges)


def resolve_forced_loops(g: WeightedGraph) -> tuple[WeightedGraph, int]:
    """Delete looped vertices (forced into every cover), returning the weight sign.

    Only +/-1 weights are supported on looped vertices; the accumulated
    product is returned so the caller can track it.  Deleting a forced
    vertex also deletes its covered edges, so the output is loop-free.
    """
    looped = g.loops()
    if not looped:
        return g, 1
    sign = 1
    for u in sorted(looped):
        w = g.vertices[u]
        if not isinstance(w, Fraction) or w not in (1, -1):
            raise SatPolyError("loop resolution needs +/-1 weights on looped vertices")
        sign *= int(w)
    vertices = {v: w for v, w in g.vertices.items() if v not in looped}
    edges = [
        (u, v) for u, v in g.edges if u not in looped and v not in looped
    ]
    return WeightedGraph(vertices, edges), sign


def simulate_neg_weights(
    g: WeightedGraph, provenance: Optional[dict] = None
) -> ReductionInstance:
    """Replace -1 weights by pendant-leaf blocks, counting modulo N = 2**v + 1.

    v is the vertex count before leaves are attached; a block of v leaves
    multiplies the in-cover weight of its vertex by 2**v = N - 1 = -1
    (mod N).  For pipeline graphs the true cover polynomial value lies in
    [0, N), so the count modulo N recovers it exactly.
    """
    for v, w in g.vertices.items():
        if not isinstance(w, Fraction) or w not in (1, -1):
            raise SatPolyError(f"vertex {v} has weight {w}; need +/-1 weights")
    v_count = len(g.vertices)
    modulus = (1 << v_count) + 1
    leaf_counts = {v: v_count for v, w in g.vertices.items() if w == -1}
    graph = UnweightedGraph(g.vertices, g.plain_edges(), g.loops(), leaf_counts)
    prov = dict(provenance or {})
    prov.setdefault("modulus", str(modulus))
    return ReductionInstance(graph, modulus, prov)


# ---------------------------------------------------------------------------
# Cover counting


_OR0 = [0, 1, 1, 1]  # a cover holds at least one end of every edge


def count_vertex_covers(g: UnweightedGraph, modulus: Optional[int] = None) -> int:
    """Cover count, exact or modulo `modulus`, by elimination.count.

    Each vertex is a variable weighted (0 if looped else 1, 2**k) for its
    block of k leaves, and each edge an OR0 factor.  The folds collapse
    the leaf-heavy pipeline instances almost entirely; a modulus is all a
    reduction that reads the count modulo N needs.
    """
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    weights = [(0 if v in g.loops else 1, 1 << g.leaf_counts.get(v, 0)) for v in verts]
    return count((((pos[u], pos[v]), _OR0) for u, v in g.edges), weights, modulus)


def cover_count_bits(inst: ReductionInstance) -> int:
    """Bit length of the exact cover count of a pipeline instance, without that count.

    Let K be the number of core vertices and L the set of those with a
    leaf block; simulate_neg_weights gives every nonempty block K leaves.
    A core cover S contributes (2**K)**|S & L|, so the count is
    sum_d c_d * 2**(K*d), where c_d counts the core covers meeting L in d
    vertices: base-2**K digits c_d.  The digits sum to at most 2**K, the
    number of core subsets, and c_|L| >= 1, as the whole core is a cover.
    The lower digits therefore sum to less than 2**(K*|L|):

        sum_{d<|L|} c_d 2**(K*d) <= 2**(K*(|L|-1)) * (2**K - c_|L|) < 2**(K*|L|)

    and nothing carries into the top digit, so the bit length is
    K*|L| + bit_length(c_|L|).  c_|L| is the exact cover count of the core
    with every vertex of L looped (forced in): a count of at most K + 1
    bits.
    """
    g = inst.graph
    k = len(g.vertices)
    leafy = {v for v, size in g.leaf_counts.items() if size}
    if any(g.leaf_counts[v] != k for v in leafy):
        raise SatPolyError(f"cover_count_bits needs leaf blocks of exactly {k} leaves")
    top = count_vertex_covers(UnweightedGraph(g.vertices, g.edges, g.loops | leafy))
    return k * len(leafy) + top.bit_length()


def brute_count_vertex_covers(g: UnweightedGraph) -> int:
    """Independent oracle: direct enumeration of all vertex subsets."""
    h = g.expand()
    verts = sorted(h.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    if n > 24:
        raise SatPolyError("brute-force enumeration is limited to 24 vertices")
    edges = [(pos[u], pos[v]) for u, v in h.edges]
    loop_mask = 0
    for v in h.loops:
        loop_mask |= 1 << pos[v]
    count = 0
    for s in range(1 << n):
        if loop_mask & ~s:
            continue
        if all(s >> u & 1 or s >> v & 1 for u, v in edges):
            count += 1
    return count


# ---------------------------------------------------------------------------
# End-to-end composition


def emit_instance(matrix, bipartite: bool = False) -> ReductionInstance:
    """Pure instance construction for the permanent; performs no counting."""
    a = _check_01_matrix(matrix)
    n = len(a)
    g = partial_perm_to_vc(perm_to_partial_perm(a))
    steps = [
        {"step": "perm_to_partial_perm", "n": n},
        {"step": "partial_perm_to_vc", "dim": 2 * n},
    ]
    provenance = {"source_matrix": a, "bipartite": bipartite, "steps": steps, "sign": 1}
    if bipartite:
        g = bipartize(g)
        steps.append({"step": "bipartize", "edges": len(g.edges)})
    g = eliminate_zero_weights(g)
    steps.append({"step": "eliminate_zero_weights", "vertices": len(g.vertices)})
    if bipartite:
        g, sign = resolve_forced_loops(g)
        if sign != 1:
            raise SatPolyError("loop resolution produced a sign; not a pipeline instance")
        steps.append({"step": "resolve_forced_loops", "vertices": len(g.vertices)})
        coloring = two_coloring(g)
        if coloring is None:
            raise SatPolyError("bipartite pipeline produced a non-bipartite core")
        provenance["bipartition"] = sorted(v for v, c in coloring.items() if c == 0)
    return simulate_neg_weights(g, provenance)


def perm_via_vc(matrix, bipartite: bool = False) -> int:
    """Permanent of a 0/1 matrix through the full reduction: the cover count modulo N."""
    inst = emit_instance(matrix, bipartite)
    return count_vertex_covers(inst.graph, inst.modulus)


def replay_provenance(provenance: dict) -> ReductionInstance:
    """Re-run a recorded transcript on its source; must reproduce the instance."""
    return emit_instance(provenance["source_matrix"], provenance.get("bipartite", False))


# ---------------------------------------------------------------------------
# Counting problems as 2-clause formulas


def _graph_pairs(g) -> tuple[list[int], list[tuple[int, int]]]:
    """Sorted vertices, then the sorted edges followed by each loop as a pair (u, u)."""
    if isinstance(g, WeightedGraph):
        edges, loops = g.plain_edges(), g.loops()
    else:
        edges, loops = sorted(g.edges), g.loops
    return sorted(g.vertices), edges + [(u, u) for u in sorted(loops)]


def _two_clause_formula(name: str, verts: list[int], pairs: list[tuple[int, int]]) -> Formula:
    """One `name` clause per pair, variables in the order of verts.

    A pair (u, u) is the diagonal clause name(x, x).  No vertices still give
    one free variable, so the count of the empty input is 2, not 1.
    """
    pos = {v: i for i, v in enumerate(verts)}
    rel = BUILTIN_RELATIONS[name]
    return Formula(max(len(verts), 1), tuple((rel, (pos[u], pos[v])) for u, v in pairs))


def vc_to_positive2sat(g) -> Formula:
    """Positive 2-clauses counting the vertex covers of g.

    One OR0 clause per edge; a self-loop becomes OR0(x, x), a unit clause
    forcing its vertex into the cover.  With symbolic weights in sorted
    vertex order, the formula's polynomial is the cover polynomial.
    """
    return _two_clause_formula("OR0", *_graph_pairs(g))


def is_to_negative2sat(g) -> Formula:
    """Negative 2-clauses counting the independent sets of g.

    One OR2 clause per edge; a self-loop becomes OR2(x, x), forcing its
    vertex out of every set.  On the conflict graph of matrix positions the
    polynomial is the partial permanent.
    """
    return _two_clause_formula("OR2", *_graph_pairs(g))


def ideal_to_implicative2sat(p: Poset) -> Formula:
    """Implicative 2-clauses counting the ideals of p.

    One OR1 clause (x_i or not x_j) per pair i < j of the closed order, so
    the polynomial is the ideal polynomial.
    """
    return _two_clause_formula("OR1", sorted(p.elements), sorted(p.less))


# ---------------------------------------------------------------------------
# Instance and matrix file formats


# The three-digit tails of the ids in one run of 1,000.
_ID_TAILS = tuple(f"{i:03d}" for i in range(1000))


def _id_lines(prefix: str, lo: int, hi: int, suffix: str) -> str:
    """The lines f"{prefix}{i}{suffix}" for i in range(lo, hi), each ending in a newline.

    An id of 1,000 or more is the decimal of i // 1000 followed by a
    three-digit tail, so each run of ids sharing i // 1000 is one join of
    the precomputed tails; ids below 1,000 are written one by one.
    """
    if hi <= lo:
        return ""
    parts = [f"{prefix}{i}{suffix}\n" for i in range(lo, min(hi, 1000))]
    end = suffix + "\n"
    for b in range(max(lo, 1000) // 1000, (hi + 999) // 1000):
        head = f"{prefix}{b}"
        a, z = max(lo - 1000 * b, 0), min(hi - 1000 * b, 1000)
        parts.append(head + (end + head).join(_ID_TAILS[a:z]) + end)
    return "".join(parts)


def format_instance_file(inst: ReductionInstance) -> str:
    """Write the instance with every leaf block as plain vertices and edges.

    Leaf ids run on from the largest core id, one consecutive range per
    block in sorted core order, as `UnweightedGraph.expand` numbers them.
    Lines come out in sorted order without building the expanded graph:
    the core vertices, then the leaf range; per core vertex u, its loop,
    its core edges to larger ids, then its leaf block.  An instance of
    more than MAX_INSTANCE_LINES lines raises BoundExceeded before any is
    written.
    """
    g = inst.graph
    total = g.vertex_count() + g.edge_count() + 3
    if total > MAX_INSTANCE_LINES:
        raise BoundExceeded(
            f"instance file of {total} lines (at most {MAX_INSTANCE_LINES})"
        )
    core = sorted(g.vertices)
    leaves = sum(g.leaf_counts.values())
    next_leaf = core[-1] + 1 if core else 0
    above: dict[int, list[int]] = {u: [] for u in core}
    for u, v in g.edges:
        above[u].append(v)
    parts = [f"p graph {len(core) + leaves} {len(g.edges) + len(g.loops) + leaves}\n"]
    parts.extend(f"v {v} 1\n" for v in core)
    parts.append(_id_lines("v ", next_leaf, next_leaf + leaves, " 1"))
    for u in core:
        if u in g.loops:
            parts.append(f"e {u} {u}\n")
        parts.extend(f"e {u} {v}\n" for v in sorted(above[u]))
        k = g.leaf_counts.get(u, 0)
        if k:
            parts.append(_id_lines(f"e {u} ", next_leaf, next_leaf + k, ""))
            next_leaf += k
    parts.append(f"modulus {inst.modulus}\n")
    parts.append(
        "provenance "
        + json.dumps(inst.provenance, sort_keys=True, separators=(",", ":"))
        + "\n"
    )
    return "".join(parts)


def parse_instance_file(text: str) -> ReductionInstance:
    """A graph file with every weight 1, ending in the modulus and provenance trailer."""
    g, trailer = read_graph_file(text)
    for v, w in g.vertices.items():
        if w != 1:
            raise ParseError(f"instance vertex {v} has weight {format_weight(w)}, not 1")
    if "modulus" not in trailer:
        raise ParseError("instance needs a 'modulus' line")
    lineno, parts = trailer["modulus"]
    if len(parts) != 1:
        raise ParseError(f"line {lineno}: expected 'modulus <N>'")
    try:  # a modulus 2**v + 1 can run past MAX_INT_CHARS digits
        modulus = int(parts[0])
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {parts[0]!r}") from None
    provenance: dict = {}
    if "provenance" in trailer:
        lineno, parts = trailer["provenance"]
        try:
            provenance = json.loads(" ".join(parts))
        except json.JSONDecodeError:
            raise ParseError(f"line {lineno}: bad provenance JSON") from None
    try:
        return ReductionInstance(UnweightedGraph(g.vertices, g.edges, g.loops()), modulus, provenance)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_matrix_file(text: str) -> list[list[int]]:
    rows = []
    for lineno, tokens in input_lines(text):
        check_int_chars(tokens, lineno)
        try:
            rows.append([int(tok) for tok in tokens])
        except ValueError:
            # quote the row as written, its spacing included
            row = text.splitlines()[lineno - 1].split("#", 1)[0].strip()
            raise ParseError(f"bad matrix row {row!r}") from None
    if not rows:
        raise ParseError("empty matrix")
    try:
        return _check_01_matrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
