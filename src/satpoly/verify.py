"""Self-verification suites tying the modules together.

Each check pits two independent routes against each other (a fast path
against brute-force enumeration, a construction against the identity it
must satisfy) and fails loudly on the first mismatch.  All randomness is
seeded, so a run is reproducible from the seed alone.  The acceptance
checks carry time budgets; `run_all` executes acceptance plus the extra
invariant suites.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

from . import generators as gen
from .affine import (
    build_phi_n,
    chain_decompose,
    pad_to_relation,
    permanent_via_hom,
    shift_constants,
    ternary0_to_ternary1,
)
from .easy_eval import easy_evaluate, easy_factor, expand_factored
from .elimination import ELIM_WIDTH, min_degree_order
from .formulas import (
    Formula,
    count_sat,
    eval_formula_poly,
    poly_of_formula,
)
from .graphs import (
    Var,
    WeightedGraph,
    bipartize,
    build_partial_perm_graph,
    incidence_transform,
    ip,
    partial_permanent,
    permanent,
    two_coloring,
    vcp,
)
from .implement import (
    Implementation,
    NotFound,
    check_perfect_faithful,
    eliminate_false,
    search_implementation,
    substitute,
)
from .polynomial import MultilinearPoly, homogeneous_component, linear_coefficient
from .posets import (
    Poset,
    antichain_ideal_bijection,
    antichain_poly,
    ideal_poly,
    maximal_elements,
    poset_from_bipartite,
    weighted_bijection,
)
from .reductions import (
    UnweightedGraph,
    brute_count_vertex_covers,
    count_vertex_covers,
    emit_instance,
    format_instance_file,
    ideal_to_implicative2sat,
    is_to_negative2sat,
    partial_perm_to_vc,
    perm_to_partial_perm,
    perm_via_vc,
    replay_provenance,
    vc_to_positive2sat,
)
from .relations import (
    BUILTIN_RELATIONS,
    all_affine_subsets,
    classify,
    is_affine,
    relation,
    xor_relation,
)

DEFAULT_SEED = 271828


@dataclass(frozen=True)
class Check:
    name: str
    budget_seconds: float
    fn: Callable[[random.Random], str]
    acceptance: bool = True


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    budget_seconds: float
    acceptance: bool


def _rng_for(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def run_check(check: Check, seed: int = DEFAULT_SEED) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = check.fn(_rng_for(seed, check.name))
        ok = True
    except AssertionError as exc:
        detail = f"assertion failed: {exc}"
        ok = False
    except Exception as exc:  # a crash is a failure, not an abort
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    elapsed = time.perf_counter() - start
    if ok and elapsed > check.budget_seconds:
        ok = False
        detail += f" [exceeded budget {check.budget_seconds:.0f}s: {elapsed:.1f}s]"
    return CheckResult(check.name, ok, detail, elapsed, check.budget_seconds, check.acceptance)


# ---------------------------------------------------------------------------
# Acceptance checks


def _check_dichotomy_catalog(rng: random.Random) -> str:
    easy_set = [BUILTIN_RELATIONS[k] for k in ("F", "T", "EQ", "NE")]
    cls = classify(easy_set)
    assert cls.is_easy, f"width-2 catalog classified {cls.verdict}"
    assert set(cls.decomposition) == {"F", "T", "EQ", "NE"}
    hard_cases = {
        "OR0": "nonAffine",
        "OR1": "nonAffine",
        "OR2": "nonAffine",
        "CLAUSE3": "nonAffine",
        "xor3_0": "wideAffine",
        "xor3_1": "wideAffine",
    }
    for name, kind in hard_cases.items():
        rel = BUILTIN_RELATIONS.get(name) or xor_relation(int(name[3]), int(name[-1]))
        cls = classify([rel])
        assert cls.verdict == "hard", f"{name} classified easy"
        assert cls.witness == (kind, rel.name), f"{name}: witness {cls.witness}, wanted {kind}"
    return "catalog easy; 6 singleton hard sets with correct witness kinds"


def _check_easy_path(rng: random.Random) -> str:
    checked = 0
    for _ in range(1000):
        f = gen.random_easy_formula(rng, max_vars=20)
        point = gen.random_point(rng, f.num_vars)
        fast = easy_evaluate(f, point)
        brute = eval_formula_poly(f, point)
        assert fast == brute, f"easy path mismatch on {f}: {fast} != {brute}"
        checked += 1
    # large instance: a random parity tree over 10**5 variables
    n = 100_000
    eq = BUILTIN_RELATIONS["EQ"]
    ne = BUILTIN_RELATIONS["NE"]
    cons = []
    for v in range(1, n):
        cons.append((eq if rng.random() < 0.5 else ne, (rng.randrange(v), v)))
    big = Formula(n, tuple(cons))
    ones = [Fraction(1)] * n
    start = time.perf_counter()
    value = easy_evaluate(big, ones)
    elapsed = time.perf_counter() - start
    assert value == 2, f"tree instance evaluated to {value}, expected 2"
    assert elapsed < 1.0, f"large instance took {elapsed:.2f}s"
    return f"{checked} random formulas match brute force; 10^5-variable instance under 1s"


def _check_conflict_graph_partial_permanent(rng: random.Random) -> str:
    for n in (1, 2, 3):
        g = build_partial_perm_graph(n)
        lhs = ip(g)
        rhs = partial_permanent([[Var(i * n + j) for j in range(n)] for i in range(n)])
        assert lhs == rhs, f"n={n}: conflict-graph polynomial differs from partial permanent"
        expected_edges = n * n * (n - 1)
        assert g.edge_count() == expected_edges, (
            f"n={n}: {g.edge_count()} edges, expected {expected_edges}"
        )
    return "independence polynomial equals symbolic partial permanent for n=1..3"


def _all_edge_subset_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for take in product((0, 1), repeat=len(pairs)):
        edges = [p for p, t in zip(pairs, take) if t]
        yield WeightedGraph({v: Var(v) for v in range(n)}, edges)


def _check_incidence_exchange(rng: random.Random) -> str:
    graphs = 0
    for n in range(1, 6):
        for g in _all_edge_subset_graphs(n):
            e = g.edge_count()
            sign = Fraction(-1 if e % 2 else 1)
            h = incidence_transform(g)
            assert vcp(h) == ip(g).scale(sign), f"cover/independence exchange failed: n={n}, e={e}"
            assert ip(h) == vcp(g), f"independence/cover exchange failed: n={n}, e={e}"
            graphs += 1
    return f"both exchange identities on all {graphs} loop-free graphs with <= 5 vertices"


def _check_incidence_exchange_sample6(rng: random.Random) -> str:
    pairs = list(combinations(range(6), 2))
    for _ in range(60):
        edges = [p for p in pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = WeightedGraph({v: Var(v) for v in range(6)}, edges)
        sign = Fraction(-1 if len(edges) % 2 else 1)
        h = incidence_transform(g)
        assert vcp(h) == ip(g).scale(sign), f"exchange failed at 6 vertices, e={len(edges)}"
        assert ip(h) == vcp(g), f"dual exchange failed at 6 vertices, e={len(edges)}"
    return "60 sampled 6-vertex graphs"


def _check_reciprocity(rng: random.Random) -> str:
    checks = 0
    # 20 graphs of up to 10 vertices at 50 points each, then a few larger
    # ones up to 12 vertices at a handful of points
    shapes = [(rng.randint(1, 10), 50) for _ in range(20)]
    shapes += [(rng.randint(11, 12), 5) for _ in range(4)]
    for n, points in shapes:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        for _ in range(points):
            xs = [gen.random_nonzero_rational(rng) for _ in range(n)]
            g_x = WeightedGraph({v: xs[v] for v in range(n)}, edges)
            g_inv = WeightedGraph({v: 1 / xs[v] for v in range(n)}, edges)
            prod = Fraction(1)
            for x in xs:
                prod *= x
            lhs = ip(g_x).as_fraction()
            rhs = prod * vcp(g_inv).as_fraction()
            assert lhs == rhs, f"reciprocity failed on {n} vertices at {xs}"
            checks += 1
    return f"{checks} reciprocity evaluations on 24 graphs"


def _check_poset_correspondences(rng: random.Random) -> str:
    for _ in range(20):
        g = gen.random_bipartite_graph(rng, 12)
        p = poset_from_bipartite(g)
        assert antichain_poly(p) == ip(g), "antichain polynomial differs from independence polynomial"
    bijection_checked = 0
    for _ in range(50):
        p = gen.random_poset(rng, 10)
        elems = sorted(p.elements)
        antichains = [
            frozenset(s)
            for r in range(len(elems) + 1)
            for s in combinations(elems, r)
            if p.is_antichain(s)
        ]
        ideals = {
            frozenset(s)
            for r in range(len(elems) + 1)
            for s in combinations(elems, r)
            if p.is_ideal(s)
        }
        images = set()
        for a in antichains:
            i = antichain_ideal_bijection(p, a)
            assert i in ideals, "closure of an antichain is not an ideal"
            assert maximal_elements(p, i) == a, "bijection is not self-inverse"
            images.add(i)
        assert images == ideals, "closure map is not onto the ideals"
        bijection_checked += len(antichains)
    # double-incidence images: bottom level all -1 and even, so the two
    # polynomials must coincide
    image_cases = 0
    for base_n in range(1, 5):
        pairs = list(combinations(range(base_n), 2))
        for r in range(0, min(4, len(pairs)) + 1):
            for edges in combinations(pairs, r):
                g = WeightedGraph({v: Var(v) for v in range(base_n)}, list(edges))
                bp = bipartize(g)
                p = poset_from_bipartite(bp)
                v1, _ = p.levels
                assert len(v1) % 2 == 0
                assert all(p.elements[x] == Fraction(-1) for x in v1)
                assert antichain_poly(p) == ideal_poly(p), (
                    f"antichain/ideal polynomials differ on image of {base_n} vertices, {r} edges"
                )
                image_cases += 1
    return (
        f"20 bipartite posets, {bijection_checked} bijection pairs, "
        f"{image_cases} double-incidence images"
    )


def _manual_or0_implementation() -> Implementation:
    rel3 = BUILTIN_RELATIONS["CLAUSE3"]
    rel_f = BUILTIN_RELATIONS["F"]
    target = BUILTIN_RELATIONS["OR0"]
    cons = Formula(3, ((rel3, (0, 1, 2)), (rel_f, (2,))))
    return Implementation(target, cons, 1)


def _check_implementations(rng: random.Random) -> str:
    target = BUILTIN_RELATIONS["OR0"]
    found = search_implementation(target, [BUILTIN_RELATIONS["CLAUSE3"], BUILTIN_RELATIONS["F"]])
    assert isinstance(found, Implementation), "no implementation of the positive 2-clause found"
    assert check_perfect_faithful(found), "search returned an invalid implementation"
    manual = _manual_or0_implementation()
    assert check_perfect_faithful(manual), "reference implementation rejected"
    missing = search_implementation(target, [BUILTIN_RELATIONS["EQ"]])
    assert isinstance(missing, NotFound), "equality constraints cannot express a disjunction"

    table = {target: manual}
    for _ in range(100):
        n = rng.randint(2, 6)
        cons = tuple(
            (target, (rng.randrange(n), rng.randrange(n)))
            for _ in range(rng.randint(1, 5))
        )
        phi = Formula(n, cons)
        psi = substitute(phi, table)
        point = gen.random_point(rng, n)
        extended = point + [Fraction(1)] * (psi.num_vars - n)
        assert eval_formula_poly(phi, point) == eval_formula_poly(psi, extended), (
            "substitution changed the polynomial"
        )
        stripped, zeroed = eliminate_false(psi)
        final = list(extended)
        for i in zeroed:
            assert i >= n, "elimination touched a function variable"
            final[i] = Fraction(0)
        assert eval_formula_poly(phi, point) == eval_formula_poly(stripped, final), (
            "zero-substitution after dropping unary constraints changed the polynomial"
        )
    return "search, validity check, 100 substitution and elimination identities"


def _check_parity_grid_permanent(rng: random.Random) -> str:
    matrices = 0
    for n in (1, 2, 3):
        for _ in range(17):
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            got = permanent_via_hom(n, m)
            want = permanent(m).as_fraction()
            assert got == want, f"n={n}: recovered {got}, permanent is {want}"
            matrices += 1

    # full rewriting pipeline onto the arity-4 constant-1 parity relation
    phi = build_phi_n(2)
    shifted = shift_constants(phi)
    chained = chain_decompose(shifted)
    flipped = ternary0_to_ternary1(chained)
    padded = pad_to_relation(flipped, 4, 1)
    assert all(rel.name == "xor4_1" for rel, _ in padded.constraints), (
        "pipeline output uses relations other than the target"
    )
    n_orig = phi.num_vars
    a_var = n_orig  # the shared shift variable
    flip_pattern = []
    for _ in range(len(chained.constraints)):
        flip_pattern += [Fraction(1), Fraction(0)]
    pad_zeros = [Fraction(0)] * (padded.num_vars - flipped.num_vars)

    def padded_eval(point4, a_val):
        full = list(point4) + [a_val] + flip_pattern + pad_zeros
        return eval_formula_poly(padded, full)

    for _ in range(20):
        x = gen.random_point(rng, n_orig)
        want = eval_formula_poly(phi, x)
        got = padded_eval(x, Fraction(1)) - padded_eval(x, Fraction(0))
        assert got == want, "pipeline did not reproduce the grid polynomial"
    return f"{matrices} permanents recovered; rewriting pipeline checked at 20 points"


def _check_perm_reduction(rng: random.Random) -> str:
    # block-gadget certification on every 0/1 matrix up to n = 3
    certified = 0
    for n in (1, 2, 3):
        for bits in range(1 << (n * n)):
            a = [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
            lhs = partial_permanent(perm_to_partial_perm(a)).as_fraction()
            rhs = permanent(a).as_fraction()
            assert lhs == rhs, f"block gadget failed on {a}"
            certified += 1
    # end-to-end, both variants, all n = 2 matrices
    for bits in range(16):
        a = [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        want = int(permanent(a).as_fraction())
        assert perm_via_vc(a) == want, f"reduction failed on {a}"
        assert perm_via_vc(a, bipartite=True) == want, f"bipartite reduction failed on {a}"
    # 100 random n = 3 matrices, both variants
    for _ in range(100):
        a = gen.random_01_matrix(rng, 3)
        want = int(permanent(a).as_fraction())
        assert perm_via_vc(a) == want, f"reduction failed on {a}"
        assert perm_via_vc(a, bipartite=True) == want, f"bipartite reduction failed on {a}"
    return f"{certified} block gadgets certified; 16 + 100 permanents recovered both ways"


def _brute_independent_sets(g: UnweightedGraph) -> int:
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edges]
    loop_mask = 0
    for v in g.loops:
        loop_mask |= 1 << pos[v]
    count = 0
    for s in range(1 << len(verts)):
        if s & loop_mask:
            continue
        if all(not (s >> u & 1 and s >> v & 1) for u, v in edges):
            count += 1
    return count


def _brute_ideals(p: Poset) -> int:
    elems = sorted(p.elements)
    return sum(
        1
        for r in range(len(elems) + 1)
        for s in combinations(elems, r)
        if p.is_ideal(s)
    )


def _check_two_clause_counts(rng: random.Random) -> str:
    for _ in range(50):
        g = gen.random_unweighted_graph(rng, 12)
        f_vc = vc_to_positive2sat(g)
        assert count_sat(f_vc) == brute_count_vertex_covers(g), "cover count mismatch"
        f_is = is_to_negative2sat(g)
        assert count_sat(f_is) == _brute_independent_sets(g), "independent-set count mismatch"
    for _ in range(50):
        p = gen.random_poset(rng, 12)
        f_id = ideal_to_implicative2sat(p)
        assert count_sat(f_id) == _brute_ideals(p), "ideal count mismatch"
    return "50 graphs (covers and independent sets) and 50 posets (ideals)"


# ---------------------------------------------------------------------------
# Additional invariant suites (not part of acceptance, equally enforced)


def _check_affine_oracle(rng: random.Random) -> str:
    checked = 0
    for k in (1, 2, 3, 4):
        affine_sets = all_affine_subsets(k)
        for bits in range(1 << (1 << k)):
            acc = [
                tuple(code >> i & 1 for i in range(k))
                for code in range(1 << k)
                if bits >> code & 1
            ]
            r = relation("t", k, acc)
            assert is_affine(r) == (frozenset(acc) in affine_sets), f"oracle disagrees on {acc}"
            checked += 1
    # verdict never depends on the order of the set
    rels = [gen.random_relation(rng, 2, f"r{i}") for i in range(3)]
    base = classify(rels).verdict
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        assert classify([rels[i] for i in perm]).verdict == base, "classification is order-sensitive"
    return f"{checked} relations against the constructive affine enumeration"


def _check_formula_polynomials(rng: random.Random) -> str:
    for _ in range(100):
        f = gen.random_formula(rng, max_vars=10)
        ones = [Fraction(1)] * f.num_vars
        n_sat = count_sat(f)
        assert eval_formula_poly(f, ones) == n_sat, "all-ones evaluation is not the model count"
        poly = poly_of_formula(f)
        assert len(poly.terms) == n_sat, "term count differs from model count"
        assert all(c == 1 for c in poly.terms.values()), "non-unit coefficient"
        point = gen.random_point(rng, f.num_vars)
        assert poly.evaluate(point) == eval_formula_poly(f, point), (
            "materialized and streaming evaluation disagree"
        )
    # repeated arguments restrict to the diagonal
    or0 = BUILTIN_RELATIONS["OR0"]
    diag = Formula(1, ((or0, (0, 0)),))
    assert count_sat(diag) == 1 and poly_of_formula(diag).terms == {1: Fraction(1)}
    return "100 formulas: counts, coefficients, streaming evaluation, diagonal case"


def _wide_formula(rng: random.Random, n: int, kind: str) -> Formula:
    """The first of up to 1000 random_wide_formula draws wider than ELIM_WIDTH."""
    for _ in range(1000):
        f = gen.random_wide_formula(rng, n, kind)
        if min_degree_order(n, (args for _, args in f.constraints))[1] > ELIM_WIDTH:
            break
    return f


def _check_elimination_vs_enumeration(rng: random.Random) -> str:
    # count_sat and eval_formula_poly are elimination.count, which eliminates
    # the banded formulas and conditions the wide ones; poly_of_formula lists
    # the models depth-first, with no code of count, so both the eliminating
    # and the conditioning count meet an independent listing
    cases = [(n, "banded") for n in (20, 22, 23, 24, 25, 26) for _ in range(5)]
    cases += [(18, "planted"), (19, "or0"), (20, "clause3-or2"), (21, "clause3"), (22, "or0")]
    cases += [(24, "or0"), (25, "clause3-or2"), (26, "planted"), (27, "or0"), (28, "planted")]
    models = 0
    for n, kind in cases:
        if kind == "banded":
            f = gen.random_banded_formula(rng, n)
        else:
            f = _wide_formula(rng, n, kind)
        width = min_degree_order(n, (args for _, args in f.constraints))[1]
        assert (width > ELIM_WIDTH) == (kind != "banded"), f"{kind} formula of width {width}"
        n_sat = count_sat(f)
        poly = poly_of_formula(f)
        assert len(poly.terms) == n_sat, "elimination count differs from the models listed"
        point = gen.random_point(rng, n)
        assert eval_formula_poly(f, point) == poly.evaluate(point), (
            "elimination value differs from the enumerated polynomial"
        )
        assert eval_formula_poly(f, [Fraction(1)] * n) == n_sat, (
            "all-ones evaluation is not the model count"
        )
        models += n_sat
    return (
        f"30 banded formulas of 20-26 variables, 5 wide ones of 18-22 and 5 of 24-28, "
        f"{models} models listed"
    )


def _check_homogeneous_components(rng: random.Random) -> str:
    points = 0
    for _ in range(10):
        n = rng.randint(1, 6)
        terms = {}
        for mask in range(1 << n):
            if rng.random() < 0.4:
                terms[mask] = gen.random_nonzero_rational(rng)
        poly = MultilinearPoly(n, terms)
        comps = [
            homogeneous_component(poly.evaluate, n, n, d) for d in range(n + 1)
        ]
        for _ in range(5):
            x = gen.random_point(rng, n)
            total = sum((c(x) for c in comps), Fraction(0))
            assert total == poly.evaluate(x), "homogeneous parts do not sum back"
            t = gen.random_rational(rng)
            for d, c in enumerate(comps):
                assert c([t * xi for xi in x]) == t**d * c(x), "scaling law violated"
            points += 1
    # degree-1 extraction: 1 + X1*X2 + A*(X1 + X2) with A as variable 2
    f = MultilinearPoly(
        3, {0: Fraction(1), 0b011: Fraction(1), 0b101: Fraction(1), 0b110: Fraction(1)}
    )
    coeff = linear_coefficient(f.evaluate, 3, 2)
    for _ in range(10):
        x = gen.random_point(rng, 3)
        assert coeff(x) == x[0] + x[1], "linear coefficient extraction failed"
    return f"{points} summation/scaling points; linear extraction checked"


def _check_poly_roundtrip(rng: random.Random) -> str:
    from .polynomial import parse_poly, serialize_poly

    for _ in range(50):
        n = rng.randint(1, 8)
        terms = {}
        for mask in range(1 << n):
            if rng.random() < 0.3:
                terms[mask] = gen.random_nonzero_rational(rng)
        poly = MultilinearPoly(n, terms)
        again = parse_poly(serialize_poly(poly), n)
        assert again == poly, "serialization round trip changed the polynomial"
    return "50 round trips"


def _check_factored_expansion(rng: random.Random) -> str:
    for _ in range(50):
        f = gen.random_easy_formula(rng, max_vars=12)
        assert expand_factored(easy_factor(f)) == poly_of_formula(f), (
            "factored expansion differs from enumeration"
        )
    return "50 factored expansions match enumeration term for term"


def _check_bipartize_structure(rng: random.Random) -> str:
    for _ in range(40):
        n = rng.randint(1, 5)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(0, min(6, len(pairs)))]
        g = WeightedGraph({v: Var(v) for v in range(n)}, edges)
        e = g.edge_count()
        bp = bipartize(g)
        assert len(bp.vertices) == len(g.vertices) + 3 * e, "vertex count off"
        assert bp.edge_count() == 4 * e, "edge count off"
        assert two_coloring(bp) is not None, "double incidence image not bipartite"
        sign = Fraction(-1 if e % 2 else 1)
        assert ip(bp) == ip(g).scale(sign), "independence polynomial not preserved"
    return "40 double-incidence images: counts, bipartiteness, polynomial identity"


def _check_weighted_bijection(rng: random.Random) -> str:
    checked = 0
    for _ in range(30):
        base = gen.random_graph(rng, 3, edge_prob=0.6)
        bp = bipartize(base)
        p = poset_from_bipartite(bp)
        elems = sorted(p.elements)
        antichains = [
            frozenset(s)
            for r in range(len(elems) + 1)
            for s in combinations(elems, r)
            if p.is_antichain(s)
        ]
        images = set()
        for a in antichains:
            i = weighted_bijection(p, a)
            assert p.is_ideal(i), "weighted image is not an ideal"
            images.add(i)
        assert len(images) == len(antichains), "weighted correspondence is not injective"
        checked += len(antichains)
    # explicit weight preservation on a two-level example
    p = Poset(
        {0: Fraction(-1), 1: Fraction(-1), 2: Var(0)},
        [(0, 2), (1, 2)],
        (frozenset({0, 1}), frozenset({2})),
    )
    assert weighted_bijection(p, frozenset({2})) == frozenset({0, 1, 2})
    assert antichain_poly(p) == ideal_poly(p)
    return f"{checked} antichains mapped injectively onto ideals"


def _check_hard_route(rng: random.Random) -> str:
    clause3 = BUILTIN_RELATIONS["CLAUSE3"]
    rel_f = BUILTIN_RELATIONS["F"]
    targets = [BUILTIN_RELATIONS[k] for k in ("OR0", "OR1", "OR2")]
    found = {}
    for t in targets:
        res = search_implementation(t, [clause3, rel_f])
        if isinstance(res, Implementation):
            found[t.name] = res
    assert found, "no 2-clause flavor is expressible from the 3-clause with forcing"

    families = {
        "OR0": vc_to_positive2sat(incidence_transform(build_partial_perm_graph(2))),
        "OR2": is_to_negative2sat(build_partial_perm_graph(2)),
        "OR1": ideal_to_implicative2sat(
            poset_from_bipartite(bipartize(build_partial_perm_graph(2)))
        ),
    }
    routes = 0
    for name, impl in found.items():
        phi = families[name]
        psi = substitute(phi, {impl.target: impl})
        if psi.num_vars > 20:
            continue
        stripped, zeroed = eliminate_false(psi)
        for _ in range(5):
            x = gen.random_point(rng, phi.num_vars)
            ext = x + [Fraction(1)] * (psi.num_vars - phi.num_vars)
            for i in zeroed:
                ext[i] = Fraction(0)
            assert eval_formula_poly(phi, x) == eval_formula_poly(stripped, ext), (
                f"hard-family route through {name} broke the polynomial"
            )
            routes += 1
    assert routes, "no hard family was exercised end to end"
    return f"targets found: {sorted(found)}; {routes} end-to-end evaluations"


def _check_cover_count_oracle(rng: random.Random) -> str:
    fixed = [
        UnweightedGraph([0, 1], [(0, 1)]),
        UnweightedGraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)]),
        UnweightedGraph([0], [], loops=[0]),
        UnweightedGraph([0, 1], [(0, 1)], leaf_counts={0: 3}),
    ]
    assert count_vertex_covers(fixed[0]) == 3
    assert count_vertex_covers(fixed[1]) == 4
    assert count_vertex_covers(fixed[2]) == 1
    checked = 0
    for g in fixed:
        assert count_vertex_covers(g) == brute_count_vertex_covers(g)
        checked += 1
    for _ in range(60):
        g = gen.random_unweighted_graph(rng, 14)
        assert count_vertex_covers(g) == brute_count_vertex_covers(g), f"count mismatch on {g}"
        checked += 1
    for _ in range(4):
        g = gen.random_unweighted_graph(rng, 18)
        if g.vertex_count() > 18:
            continue
        assert count_vertex_covers(g) == brute_count_vertex_covers(g), f"count mismatch on {g}"
        checked += 1
    return f"{checked} graphs against subset enumeration"


def _check_provenance_replay(rng: random.Random) -> str:
    cases = [([[1]], False), ([[1, 1], [1, 1]], False), ([[1, 0], [1, 1]], True)]
    for _ in range(3):
        cases.append((gen.random_01_matrix(rng, 2), bool(rng.getrandbits(1))))
    for a, bip in cases:
        inst = emit_instance(a, bipartite=bip)
        again = replay_provenance(inst.provenance)
        assert format_instance_file(inst) == format_instance_file(again), (
            "replaying the transcript produced a different instance"
        )
        assert inst.modulus == (1 << len(inst.graph.vertices)) + 1, "modulus formula violated"
    return f"{len(cases)} instances replay byte-identically"


def _check_instance_size(rng: random.Random) -> str:
    details = []
    for n in (1, 2, 3):
        a = gen.random_01_matrix(rng, n)
        block = perm_to_partial_perm(a)
        weighted = partial_perm_to_vc(block)
        from .reductions import eliminate_zero_weights

        core = eliminate_zero_weights(weighted)
        neg = sum(1 for w in core.vertices.values() if w == -1)
        inst = emit_instance(a)
        v_core = len(core.vertices)
        expected_vertices = v_core + neg * v_core
        assert inst.graph.vertex_count() == expected_vertices, "leaf accounting off"
        assert inst.graph.vertex_count() <= 200 * n**6, "instance size above polynomial ceiling"
        details.append(f"n={n}:{inst.graph.vertex_count()}v")
    return "instance sizes " + ", ".join(details)


ACCEPTANCE_CHECKS: list[Check] = [
    Check("01-dichotomy-catalog", 1.0, _check_dichotomy_catalog),
    Check("02-easy-path-equivalence", 30.0, _check_easy_path),
    Check("03-conflict-graph-partial-permanent", 10.0, _check_conflict_graph_partial_permanent),
    Check("04-incidence-exchange-exhaustive", 60.0, _check_incidence_exchange),
    Check("05-cover-independence-reciprocity", 10.0, _check_reciprocity),
    Check("06-poset-correspondences", 60.0, _check_poset_correspondences),
    Check("07-gadget-implementations", 60.0, _check_implementations),
    Check("08-parity-grid-permanent", 60.0, _check_parity_grid_permanent),
    Check("09-permanent-cover-reduction", 300.0, _check_perm_reduction),
    Check("10-two-clause-counts", 30.0, _check_two_clause_counts),
]

INVARIANT_CHECKS: list[Check] = [
    Check("affine-subspace-oracle", 120.0, _check_affine_oracle, acceptance=False),
    Check("incidence-exchange-sample-6", 120.0, _check_incidence_exchange_sample6, acceptance=False),
    Check("formula-polynomial-consistency", 60.0, _check_formula_polynomials, acceptance=False),
    Check("elimination-vs-enumeration", 30.0, _check_elimination_vs_enumeration, acceptance=False),
    Check("homogeneous-components", 60.0, _check_homogeneous_components, acceptance=False),
    Check("poly-serialization-roundtrip", 30.0, _check_poly_roundtrip, acceptance=False),
    Check("factored-expansion", 60.0, _check_factored_expansion, acceptance=False),
    Check("double-incidence-structure", 60.0, _check_bipartize_structure, acceptance=False),
    Check("weighted-antichain-ideal-map", 60.0, _check_weighted_bijection, acceptance=False),
    Check("hard-family-route", 60.0, _check_hard_route, acceptance=False),
    Check("cover-count-oracle", 120.0, _check_cover_count_oracle, acceptance=False),
    Check("provenance-replay", 60.0, _check_provenance_replay, acceptance=False),
    Check("instance-size-polynomial", 60.0, _check_instance_size, acceptance=False),
]

ALL_CHECKS: list[Check] = ACCEPTANCE_CHECKS + INVARIANT_CHECKS


def run_all(seed: int = DEFAULT_SEED, checks: list[Check] | None = None) -> list[CheckResult]:
    selected = sorted(checks or ALL_CHECKS, key=lambda c: c.name)
    return [run_check(c, seed) for c in selected]
