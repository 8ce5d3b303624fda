"""Vertex-weighted graphs and their cover/independence polynomials.

Weights are exact rationals or symbolic references into a shared variable
namespace (Var(i) stands for polynomial variable i), so graph polynomials
compose directly with the sparse multilinear representation.  Self-loops
are first class: a loop forces its vertex into every cover and out of
every independent set.

The two polynomials are tied together three ways, each used as a
cross-check on the others: the reciprocity identity
IP(x1..xn) = x1*..*xn * VCP(1/x1..1/xn) on loop-free graphs, the incidence
exchange (building the incidence graph swaps the two polynomials up to the
sign (-1)**edges), and applying the incidence construction twice, which
yields a bipartite graph with the independence polynomial preserved up to
that same sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import MAX_INT_CHARS, BoundExceeded, ParseError, input_lines, parse_ints, parse_rational
from .polynomial import MultilinearPoly


@dataclass(frozen=True)
class Var:
    """Symbolic weight: a reference to polynomial variable `index`."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be nonnegative")


Weight = Union[Fraction, Var]

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def _num_symbols(weights: Iterable[Weight]) -> int:
    """Number of polynomial variables the weights reach: highest Var index + 1."""
    return max((w.index + 1 for w in weights if isinstance(w, Var)), default=0)


class WeightedGraph:
    """Undirected graph with per-vertex weights; treat instances as immutable."""

    __slots__ = ("vertices", "edges", "parts")

    def __init__(
        self,
        vertices: dict[int, Weight],
        edges: Iterable[Edge],
        parts: Optional[tuple[frozenset[int], frozenset[int]]] = None,
    ):
        self.vertices = dict(vertices)
        self.edges = frozenset(_norm_edge(u, v) for u, v in edges)
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if parts is not None:
            p0, p1 = frozenset(parts[0]), frozenset(parts[1])
            if p0 & p1 or (p0 | p1) != set(self.vertices):
                raise ValueError("parts must partition the vertex set")
            for u, v in self.edges:
                if u != v and (u in p0) == (v in p0):
                    raise ValueError(f"edge ({u}, {v}) violates the bipartition")
            parts = (p0, p1)
        self.parts = parts

    def loops(self) -> frozenset[int]:
        return frozenset(u for u, v in self.edges if u == v)

    def plain_edges(self) -> list[Edge]:
        return sorted((u, v) for u, v in self.edges if u != v)

    def edge_count(self) -> int:
        return len(self.edges)

    def num_symbols(self) -> int:
        return _num_symbols(self.vertices.values())

    def __repr__(self):
        return f"WeightedGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def weighted_graph(vertices, edges, parts=None) -> WeightedGraph:
    """Constructor normalizing numeric weights to Fraction."""
    vs = {
        int(v): (w if isinstance(w, Var) else Fraction(w)) for v, w in dict(vertices).items()
    }
    return WeightedGraph(vs, edges, parts)


MAX_POLY_VERTICES = 25


def _weight_parts(w: Weight) -> tuple[int, int, int]:
    """Split a weight into (numerator, denominator, variable mask)."""
    if isinstance(w, Var):
        return 1, 1, 1 << w.index
    return w.numerator, w.denominator, 0


def _sum_over_independent_sets(g: WeightedGraph, multiply_on_include: bool) -> MultilinearPoly:
    """Sum of weight products over independent sets.

    multiply_on_include=True weights the chosen set (independence
    polynomial); False weights the complement (cover polynomial).  Loops
    are resolved first: a looped vertex is excluded from every independent
    set, so for covers its weight is a fixed prefactor.
    """
    if len(g.vertices) > MAX_POLY_VERTICES:
        raise BoundExceeded(f"polynomial expansion is limited to {MAX_POLY_VERTICES} vertices")
    looped = g.loops()
    verts = [v for v in sorted(g.vertices) if v not in looped]
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in g.edges:
        if u != v and u not in looped and v not in looped:
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]

    base_num, base_den, base_mask = 1, 1, 0
    if not multiply_on_include:
        for u in sorted(looped):
            n, d, m = _weight_parts(g.vertices[u])
            base_num *= n
            base_den *= d
            if m & base_mask:
                raise ValueError("repeated symbolic weight would square a variable")
            base_mask |= m

    weights = [_weight_parts(g.vertices[v]) for v in verts]
    n_verts = len(verts)
    terms: dict = {}  # mask -> int or Fraction; normalized at construction

    def rec(i: int, banned: int, num: int, den: int, mask: int):
        if num == 0:
            return
        if i == n_verts:
            # integer fast path: Fraction construction only when needed
            terms[mask] = terms.get(mask, 0) + (num if den == 1 else Fraction(num, den))
            return
        wn, wd, wm = weights[i]
        # exclude vertex i from the independent set
        if multiply_on_include:
            rec(i + 1, banned, num, den, mask)
        else:
            if wm & mask:
                raise ValueError("repeated symbolic weight would square a variable")
            rec(i + 1, banned, num * wn, den * wd, mask | wm)
        # include vertex i if no chosen neighbor forbids it
        if not banned >> i & 1:
            if multiply_on_include:
                if wm & mask:
                    raise ValueError("repeated symbolic weight would square a variable")
                rec(i + 1, banned | adj[i], num * wn, den * wd, mask | wm)
            else:
                rec(i + 1, banned | adj[i], num, den, mask)

    rec(0, 0, base_num, base_den, base_mask)
    return MultilinearPoly(g.num_symbols(), terms)


def ip(g: WeightedGraph) -> MultilinearPoly:
    """Independence polynomial: weighted sum over independent sets."""
    return _sum_over_independent_sets(g, multiply_on_include=True)


def vcp(g: WeightedGraph) -> MultilinearPoly:
    """Cover polynomial: weighted sum over vertex covers."""
    return _sum_over_independent_sets(g, multiply_on_include=False)


# ---------------------------------------------------------------------------
# Exact matrix permanents


def _is_symbolic_matrix(m) -> bool:
    return any(isinstance(x, Var) for row in m for x in row)


def _matrix(m) -> list[list[Weight]]:
    rows = [list(r) for r in m]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return [[x if isinstance(x, Var) else Fraction(x) for x in r] for r in rows]


MAX_PARTIAL_PERM_SYMBOLIC = 6
MAX_PARTIAL_PERM_NUMERIC = 8
MAX_PERMANENT = 10


def partial_permanent(matrix) -> MultilinearPoly:
    """Sum over injective partial row->column maps of the entry products.

    The empty map contributes 1.
    """
    m = _matrix(matrix)
    n = len(m)
    symbolic = _is_symbolic_matrix(m)
    limit = MAX_PARTIAL_PERM_SYMBOLIC if symbolic else MAX_PARTIAL_PERM_NUMERIC
    if n > limit:
        kind = "symbolic" if symbolic else "numeric"
        raise BoundExceeded(f"partial permanent ({kind}) is limited to n <= {limit}")
    num_vars = 0
    for row in m:
        for x in row:
            if isinstance(x, Var):
                num_vars = max(num_vars, x.index + 1)
    terms: dict = {}  # mask -> int or Fraction; normalized at construction

    def rec(i: int, used: int, num: int, den: int, mask: int):
        if i == n:
            terms[mask] = terms.get(mask, 0) + (num if den == 1 else Fraction(num, den))
            return
        rec(i + 1, used, num, den, mask)  # row i unmatched
        for j in range(n):
            if used >> j & 1:
                continue
            wn, wd, wm = _weight_parts(m[i][j])
            if wn == 0:
                continue
            if wm & mask:
                raise ValueError("repeated symbolic entry would square a variable")
            rec(i + 1, used | 1 << j, num * wn, den * wd, mask | wm)

    rec(0, 0, 1, 1, 0)
    return MultilinearPoly(num_vars, terms)


def permanent(matrix) -> MultilinearPoly:
    """Permanent as a polynomial (constant when all entries are numeric)."""
    m = _matrix(matrix)
    n = len(m)
    if n > MAX_PERMANENT:
        raise BoundExceeded(f"permanent is limited to n <= {MAX_PERMANENT}")
    if n == 0:
        return MultilinearPoly.constant(0, 1)
    if not _is_symbolic_matrix(m):
        # subset dynamic program: perm over first popcount(S) rows and columns S
        dp = [Fraction(0)] * (1 << n)
        dp[0] = Fraction(1)
        for s in range(1, 1 << n):
            i = s.bit_count() - 1
            acc = Fraction(0)
            rest = s
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if m[i][j] != 0 and dp[s ^ low] != 0:
                    acc += m[i][j] * dp[s ^ low]
                rest ^= low
            dp[s] = acc
        return MultilinearPoly.constant(0, dp[(1 << n) - 1])

    num_vars = 0
    for row in m:
        for x in row:
            if isinstance(x, Var):
                num_vars = max(num_vars, x.index + 1)
    terms: dict = {}  # mask -> int or Fraction; normalized at construction

    def rec(i: int, used: int, num: int, den: int, mask: int):
        if i == n:
            terms[mask] = terms.get(mask, 0) + (num if den == 1 else Fraction(num, den))
            return
        for j in range(n):
            if used >> j & 1:
                continue
            wn, wd, wm = _weight_parts(m[i][j])
            if wn == 0:
                continue
            if wm & mask:
                raise ValueError("repeated symbolic entry would square a variable")
            rec(i + 1, used | 1 << j, num * wn, den * wd, mask | wm)

    rec(0, 0, 1, 1, 0)
    return MultilinearPoly(num_vars, terms)


# ---------------------------------------------------------------------------
# Constructions


def build_partial_perm_graph(n: int) -> WeightedGraph:
    """Conflict graph of matrix positions: vertex (i,j) has id and symbol i*n+j,
    with edges between positions sharing a row or a column.

    Independent sets are exactly partial matchings, so the independence
    polynomial equals the n x n symbolic partial permanent.  The edge count
    is n*n*(n-1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    vertices = {i * n + j: Var(i * n + j) for i in range(n) for j in range(n)}
    edges = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                edges.append((i * n + j, i * n + k))  # same row
                edges.append((j * n + i, k * n + i))  # same column
    return WeightedGraph(vertices, edges)


def incidence_transform(g: WeightedGraph) -> WeightedGraph:
    """Bipartite incidence graph: one new weight-(-1) vertex per edge.

    Original vertices keep their weights; each new vertex joins the two
    endpoints of its edge.  The -1 choices telescope: the cover polynomial
    of the result is (-1)**edges times the independence polynomial of the
    input, and the independence polynomial of the result is exactly the
    cover polynomial of the input (a chosen edge-vertex set can only avoid
    cancelling when it is empty and the chosen originals form a cover).
    parts[0] holds the vertices added here.
    """
    if g.loops():
        raise ValueError("incidence construction requires a loop-free graph")
    vertices: dict[int, Weight] = dict(g.vertices)
    next_id = max(g.vertices, default=-1) + 1
    new_ids = []
    edges: list[Edge] = []
    for u, v in sorted(g.plain_edges()):
        w = next_id
        next_id += 1
        new_ids.append(w)
        vertices[w] = Fraction(-1)
        edges.append((u, w))
        edges.append((w, v))
    parts = (frozenset(new_ids), frozenset(g.vertices))
    return WeightedGraph(vertices, edges, parts)


def bipartize(g: WeightedGraph) -> WeightedGraph:
    """Incidence construction applied twice.

    Each original edge becomes a 5-vertex path through three new
    weight-(-1) vertices; the result is bipartite with the independence
    polynomial scaled by (-1)**edges of the input.  parts[0] holds the
    2*edges midpoint vertices added by the second pass (all weight -1, an
    even number of them).
    """
    return incidence_transform(incidence_transform(g))


# ---------------------------------------------------------------------------
# Graph and poset files share one grammar (graph | poset):
#   p graph <n> <m>  |  p poset <n>
#   v <id> <weight>      weight: rational or X<k> (1-based symbol index)
#   e <u> <v>        |  r <i> <j>     e u u is a self-loop; r i j means i < j
# A graph file may end with a reduction instance's trailer: one
# 'modulus <N>' line, then one 'provenance <json>' line.


def parse_weight(tok: str) -> Weight:
    if tok[:1] == "X":
        if len(tok) > MAX_INT_CHARS + 1:
            raise ParseError(f"symbol index of {len(tok) - 1} characters (at most {MAX_INT_CHARS})")
        try:
            k = int(tok[1:])
        except ValueError:
            raise ParseError(f"bad symbolic weight {tok!r}") from None
        if k < 1:
            raise ParseError("symbol indices are 1-based")
        return Var(k - 1)
    try:
        return parse_rational(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {tok!r}") from None


def format_weight(w: Weight) -> str:
    if isinstance(w, Var):
        return f"X{w.index + 1}"
    return str(w)


def read_weighted_file(text: str, header: str, pair: str, nouns, build, trailer=()):
    """build(weights, pairs) of a graph or poset file, and its trailer lines.

    header and pair are the usages of the 'p' line and of a pair line, such
    as 'p graph <n> <m>' and 'e <u> <v>'.  The header's numbers count the v
    lines and then the pair lines; nouns is the singular for a v line then
    the plurals of what the header counts.  trailer names the directives
    that may end the file, once each and in that order; the result maps
    each one read to (line number, its tokens after the directive).
    """
    usage, tag = header.split(), pair.split()[0]
    item, *counted = nouns
    declared = None
    weights: dict[int, Weight] = {}
    pairs: list[Edge] = []
    found: dict[str, tuple[int, list[str]]] = {}
    parsed: dict[str, Weight] = {}  # a reduction instance repeats the token 1
    allowed = trailer
    for lineno, parts in input_lines(text):
        word = parts[0]
        if found or word in trailer:
            if word in found:
                raise ParseError(f"line {lineno}: duplicate {word!r} line")
            if word not in allowed:
                raise ParseError(f"line {lineno}: {word!r} line after the trailer")
            allowed = allowed[allowed.index(word) + 1:]
            found[word] = (lineno, parts[1:])
        elif word == "p":
            if len(parts) != len(usage) or parts[1] != usage[1]:
                raise ParseError(f"line {lineno}: expected {header!r}")
            declared = parse_ints(parts[2:], lineno)
        elif word == "v":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'v <id> <weight>'")
            (vid,) = parse_ints(parts[1:2], lineno)
            if vid in weights:
                raise ParseError(f"line {lineno}: duplicate {item} {vid}")
            w = parsed.get(parts[2])
            weights[vid] = parsed[parts[2]] = parse_weight(parts[2]) if w is None else w
        elif word == tag:
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected {pair!r}")
            pairs.append(tuple(parse_ints(parts[1:], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown directive {word!r}")
    if declared is None:
        raise ParseError(f"missing {' '.join(usage[:2])!r} header")
    if declared[0] != len(weights):
        raise ParseError(f"header declares {declared[0]} {counted[0]}, found {len(weights)}")
    try:
        built = build(weights, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # the pair count is checked last, so a pair naming a missing vertex is
    # reported as such
    for m, noun in zip(declared[1:], counted[1:]):
        if m != len(pairs):
            raise ParseError(f"header declares {m} {noun}, found {len(pairs)}")
    return built, found


def read_graph_file(text: str) -> tuple[WeightedGraph, dict[str, tuple[int, list[str]]]]:
    """The graph of a graph file and its trailer lines (see read_weighted_file)."""
    return read_weighted_file(
        text, "p graph <n> <m>", "e <u> <v>", ("vertex", "vertices", "edges"), WeightedGraph,
        ("modulus", "provenance"),
    )


def parse_graph_file(text: str) -> WeightedGraph:
    return read_graph_file(text)[0]


def format_graph_file(g: WeightedGraph) -> str:
    lines = [f"p graph {len(g.vertices)} {len(g.edges)}"]
    for v in sorted(g.vertices):
        lines.append(f"v {v} {format_weight(g.vertices[v])}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def two_coloring(g: WeightedGraph) -> Optional[dict[int, int]]:
    """BFS 2-coloring; None when an odd cycle or loop is present."""
    if g.loops():
        return None
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.plain_edges():
        adj[u].add(v)
        adj[v].add(u)
    color: dict[int, int] = {}
    for start in sorted(g.vertices):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color
