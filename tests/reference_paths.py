"""Reference copies of earlier implementations, kept only for differential tests.

Each function here is the version that computed its answer one coordinate,
one constraint or one all-pairs pass at a time, before the easy path and the
poset closure were rewritten, one of the separate 2-clause encoders that
the graph and poset modules held before the reductions module became their
one home, or the memoised branching cover counter that variable
elimination replaced.  The tests require the current code to return equal results and
raise identical errors.  Nothing in satpoly imports this.
"""

from fractions import Fraction

from satpoly._bits import balanced_product
from satpoly.easy_eval import FactoredPoly
from satpoly.errors import ParseError, SatPolyError
from satpoly.formulas import Formula
from satpoly.relations import (
    BUILTIN_RELATIONS,
    _width2_expressible,
    classify,
    resolve_relation,
)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.parity = [0] * n

    def find(self, v):
        parent, parity = self.parent, self.parity
        root, p = v, 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        acc = p
        while parent[v] != root:
            nxt = parent[v]
            nxt_acc = acc ^ parity[v]
            parent[v] = root
            parity[v] = acc
            v, acc = nxt, nxt_acc
        return root, p

    def union(self, u, v, rel_parity):
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return (pu ^ pv) == rel_parity
        if self.size[ru] > self.size[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        self.parent[ru] = rv
        self.parity[ru] = pu ^ pv ^ rel_parity
        self.size[rv] += self.size[ru]
        return True


def easy_factor(f: Formula) -> FactoredPoly:
    rels = list(f.relation_set)
    if rels:
        cls = classify(rels)
        if not cls.is_easy:
            raise SatPolyError(f"relation set is not easy (witness: {cls.witness})")
    n = f.num_vars
    uf = _UnionFind(n)
    forcings = []
    consistent = True
    for rel, args in f.constraints:
        decomp = _width2_expressible(rel)
        if decomp is None:
            raise SatPolyError(f"relation {rel.name} is not width-2 expressible")
        for c in decomp:
            kind = c[0]
            if kind == "const0":
                forcings.append((args[c[1]], 0))
            elif kind == "const1":
                forcings.append((args[c[1]], 1))
            else:
                u, v = args[c[1]], args[c[2]]
                if not uf.union(u, v, 0 if kind == "eq" else 1):
                    consistent = False
                    break
        if not consistent:
            break
    forced_value = {}
    if consistent:
        for var, bit in forcings:
            root, p = uf.find(var)
            want = bit ^ p
            if forced_value.setdefault(root, want) != want:
                consistent = False
                break
    if not consistent:
        return FactoredPoly(n, False, frozenset(), ())
    members = {}
    for v in range(n):
        root, p = uf.find(v)
        members.setdefault(root, []).append((v, p))
    forced_vars = set()
    components = []
    for root in sorted(members, key=lambda r: min(v for v, _ in members[r])):
        group = members[root]
        if root in forced_value:
            rv = forced_value[root]
            forced_vars.update(v for v, p in group if rv ^ p == 1)
        else:
            rep = min(v for v, _ in group)
            _, rep_parity = uf.find(rep)
            zero = frozenset(v for v, p in group if rep_parity ^ p == 1)
            one = frozenset(v for v, p in group if rep_parity ^ p == 0)
            components.append((zero, one))
    return FactoredPoly(n, True, frozenset(forced_vars), tuple(components))


def evaluate_factored(fp: FactoredPoly, point) -> Fraction:
    if len(point) != fp.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {fp.num_vars}")
    if not fp.consistent:
        return Fraction(0)
    pt = [Fraction(x) for x in point]
    num, den = 1, 1
    for v in fp.forced:
        num *= pt[v].numerator
        den *= pt[v].denominator
    total = Fraction(num, den)
    for zero, one in fp.components:
        zn, zd, on, od = 1, 1, 1, 1
        for v in zero:
            zn *= pt[v].numerator
            zd *= pt[v].denominator
        for v in one:
            on *= pt[v].numerator
            od *= pt[v].denominator
        total *= Fraction(zn * od + on * zd, zd * od)
    return total


def parse_point(text: str, n: int) -> list[Fraction]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if len(toks) != n:
        raise ParseError(f"point has {len(toks)} coordinates, formula has {n} variables")
    point = []
    for t in toks:  # exponent notation is refused, not expanded
        if "e" in t or "E" in t:
            raise ParseError(f"exponent notation is not accepted: {t!r}")
        try:
            point.append(Fraction(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational in point: {exc}") from None
    return point


def parse_formula_file(text, relations=None) -> Formula:
    num_vars = None
    declared = 0
    constraints = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "csp":
                raise ParseError(f"line {lineno}: expected 'p csp <vars> <constraints>'")
            try:
                num_vars = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            if num_vars < 1:
                raise ParseError(f"line {lineno}: need at least one variable")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: constraint before header")
        rel = resolve_relation(parts[0], relations)
        try:
            args = tuple(int(tok) - 1 for tok in parts[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad variable index") from None
        if len(args) != rel.rank:
            raise ParseError(
                f"line {lineno}: {rel.name} has rank {rel.rank}, got {len(args)} arguments"
            )
        if any(not 0 <= a < num_vars for a in args):
            raise ParseError(f"line {lineno}: variable index out of range")
        constraints.append((rel, args))
    if num_vars is None:
        raise ParseError("missing 'p csp' header")
    if len(constraints) != declared:
        raise ParseError(f"header declares {declared} constraints, found {len(constraints)}")
    return Formula(num_vars, tuple(constraints))


def transitive_closure(pairs) -> frozenset:
    """All-pairs passes until nothing changes; pairs must be irreflexive."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y == y2 and (x, z) not in rel:
                    if x == z:
                        raise ValueError(f"cycle through {x} breaks antisymmetry")
                    rel.add((x, z))
                    changed = True
    for x, y in rel:
        if (y, x) in rel:
            raise ValueError(f"antisymmetry violated on ({x}, {y})")
    return frozenset(rel)


def or0_formula_of_graph(g) -> Formula:
    """Positive 2-clauses over a loop-free WeightedGraph, sorted vertex order."""
    if g.loops():
        raise ValueError("encoding requires a loop-free graph")
    order = {v: i for i, v in enumerate(sorted(g.vertices))}
    rel = BUILTIN_RELATIONS["OR0"]
    constraints = [(rel, (order[u], order[v])) for u, v in g.plain_edges()]
    return Formula(max(len(g.vertices), 1), tuple(constraints))


def or2_formula_partial_perm(n: int) -> Formula:
    """Negative 2-clauses forbidding two ones in a row or a column of an n x n matrix."""
    if n < 1:
        raise ValueError("n must be positive")
    rel = BUILTIN_RELATIONS["OR2"]
    constraints = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                constraints.append((rel, (i * n + j, i * n + k)))
                constraints.append((rel, (j * n + i, k * n + i)))
    return Formula(n * n, tuple(constraints))


def or1_formula_of_poset(p) -> Formula:
    """Implicative 2-clauses, one per pair of the closed order, sorted element order."""
    order = sorted(p.elements)
    pos = {x: i for i, x in enumerate(order)}
    rel = BUILTIN_RELATIONS["OR1"]
    constraints = [(rel, (pos[x], pos[y])) for x, y in sorted(p.less)]
    return Formula(max(len(order), 1), tuple(constraints))


def _simplify(adj, in_w, out_w):
    """Forced/isolated/pendant reductions to fixpoint; returns the factors."""
    factors = []
    pending = list(adj)
    while pending:
        v = pending.pop()
        if v not in adj:
            continue
        neighbors = adj[v]
        if out_w[v] == 0:
            if in_w[v] != 1:
                factors.append(in_w[v])
            for u in neighbors:
                adj[u].discard(v)
                pending.append(u)
            del adj[v], in_w[v], out_w[v]
        elif not neighbors:
            factors.append(in_w[v] + out_w[v])
            del adj[v], in_w[v], out_w[v]
        elif len(neighbors) == 1:
            u = next(iter(neighbors))
            in_w[u] *= in_w[v] + out_w[v]
            out_w[u] *= in_w[v]
            adj[u].discard(v)
            del adj[v], in_w[v], out_w[v]
            pending.append(u)
    return factors


def _component_key(comp, adj, in_w, out_w):
    pos = {v: i for i, v in enumerate(comp)}
    edges = frozenset(
        (pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u])
        for u in comp
        for v in adj[u]
        if pos[u] < pos[v]
    )
    return tuple((in_w[v], out_w[v]) for v in comp), edges


def _count_weighted(adj, in_w, out_w, memo):
    factors = _simplify(adj, in_w, out_w)
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        i = 0
        while i < len(comp):
            for u in adj[comp[i]]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
            i += 1
        comp.sort()
        factors.append(_count_component(comp, adj, in_w, out_w, memo))
    return balanced_product(factors)


def _count_component(comp, adj, in_w, out_w, memo):
    key = _component_key(comp, adj, in_w, out_w)
    if key in memo:
        return memo[key]
    branch = min(comp, key=lambda u: (-len(adj[u]), u))
    adj_in = {v: set(adj[v]) - {branch} for v in comp if v != branch}
    in_in = {v: in_w[v] for v in comp if v != branch}
    out_in = {v: out_w[v] for v in comp if v != branch}
    total = in_w[branch] * _count_weighted(adj_in, in_in, out_in, memo)
    adj_out = {v: set(adj[v]) - {branch} for v in comp if v != branch}
    in_out = {v: in_w[v] for v in comp if v != branch}
    out_out = {v: out_w[v] for v in comp if v != branch}
    for u in adj[branch]:
        out_out[u] = 0
    total += out_w[branch] * _count_weighted(adj_out, in_out, out_out, memo)
    memo[key] = total
    return total


def count_vertex_covers(g):
    """Exact cover count: loops force, leaf blocks fold, components branch, memoised.

    Recursive, so a long path of branchings (a 2 x 2000 ladder) exceeds
    the interpreter's recursion limit.
    """
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    in_w = {v: 1 << g.leaf_counts.get(v, 0) for v in g.vertices}
    out_w = {v: 0 if v in g.loops else 1 for v in g.vertices}
    return _count_weighted(adj, in_w, out_w, {})
