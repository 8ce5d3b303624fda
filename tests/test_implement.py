from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpoly._bits import table_full, table_var
from satpoly.formulas import Formula, eval_formula_poly, format_formula_file, poly_of_formula
from satpoly.implement import (
    Implementation,
    NotFound,
    check_perfect_faithful,
    eliminate_false,
    identity_implementation,
    search_implementation,
    substitute,
)
from satpoly.polynomial import MultilinearPoly
from satpoly.relations import BUILTIN_RELATIONS, relation

from strategies import points_for

B = BUILTIN_RELATIONS
F = Fraction


def manual_or0_impl():
    cons = Formula(3, ((B["CLAUSE3"], (0, 1, 2)), (B["F"], (2,))))
    return Implementation(B["OR0"], cons, 1)


def test_check_identity_implementation():
    assert check_perfect_faithful(identity_implementation(B["OR0"]))


def test_check_three_clause_gadget():
    assert check_perfect_faithful(manual_or0_impl())


def test_check_rejects_wrong_gadget():
    # a single positive clause does not implement the inequality relation:
    # (1,1) is rejected by the target but satisfies the whole constraint set
    bad = Implementation(B["NE"], Formula(2, ((B["OR0"], (0, 1)),)), 0)
    assert not check_perfect_faithful(bad)


def test_check_rejects_double_extension():
    # unconstrained auxiliary: accepted inputs have two extensions
    loose = Implementation(B["OR0"], Formula(3, ((B["OR0"], (0, 1)),)), 1)
    assert not check_perfect_faithful(loose)


def test_search_or0_from_clause3():
    found = search_implementation(B["OR0"], [B["CLAUSE3"], B["F"]])
    assert isinstance(found, Implementation)
    assert check_perfect_faithful(found)
    assert found.target == B["OR0"]


def test_search_identity():
    found = search_implementation(B["OR2"], [B["OR2"]])
    assert isinstance(found, Implementation)
    assert found.num_aux == 0 and found.alpha == 1


def test_search_not_found_for_affine_blocks():
    result = search_implementation(B["OR0"], [B["EQ"]])
    assert isinstance(result, NotFound)
    assert result.target == "OR0"


XOR3_0 = relation("xor3_0", 3, [t for t in product((0, 1), repeat=3) if sum(t) % 2 == 0])
BLOCK_SETS = {
    "CLAUSE3+F": [B["CLAUSE3"], B["F"]],
    "xor3_0+T": [XOR3_0, B["T"]],
    "OR0+NE": [B["OR0"], B["NE"]],
    "OR1+OR2": [B["OR1"], B["OR2"]],
    "EQ": [B["EQ"]],
}
TARGETS = ("OR0", "OR1", "OR2", "NE", "EQ", "CLAUSE3")


def exhaustive_search(target, using, max_aux, max_constraints, max_vars=10):
    """The earlier search: every constraint multiset in canonical order, no pruning."""
    k = target.rank
    accepted_codes = {sum(b << i for i, b in enumerate(t)) for t in target.accepted}
    for q in range(0, max_aux + 1):
        t = k + q
        if t > max_vars:
            break
        full = table_full(t)
        bases = [table_var(i, t) for i in range(t)]
        atoms = []
        for rel in using:
            for args in product(range(t), repeat=rel.rank):
                table = 0
                for tup in rel.accepted:
                    m = full
                    for bit, a in zip(tup, args):
                        m &= bases[a] if bit else ~bases[a] & full
                    table |= m
                atoms.append(((rel, args), table))
        comb = sum(1 << (y << k) for y in range(1 << q))
        for size in range(1, max_constraints + 1):
            for combo in combinations_with_replacement(range(len(atoms)), size):
                table = full
                for idx in combo:
                    table &= atoms[idx][1]
                if all(
                    (table & (comb << x)).bit_count() == (x in accepted_codes)
                    for x in range(1 << k)
                ):
                    cons = tuple(atoms[idx][0] for idx in combo)
                    return Implementation(target, Formula(t, cons), q)
    return NotFound(target.name, max_aux, max_constraints)


@pytest.mark.parametrize("bounds", [(1, 3), (2, 3)], ids=["aux1-size3", "aux2-size3"])
@pytest.mark.parametrize("blocks", sorted(BLOCK_SETS))
def test_search_matches_exhaustive_search(blocks, bounds):
    for name in TARGETS:
        expected = exhaustive_search(B[name], BLOCK_SETS[blocks], *bounds)
        assert search_implementation(B[name], BLOCK_SETS[blocks], *bounds) == expected


@pytest.mark.parametrize(
    "target, blocks, num_aux, text",
    [
        ("OR0", "CLAUSE3+F", 0, "p csp 2 1\nCLAUSE3 1 1 2\n"),
        ("OR2", "OR0+NE", 2, "p csp 4 3\nOR0 3 4\nNE 1 3\nNE 2 4\n"),
        ("NE", "xor3_0+T", 1, "p csp 3 2\nxor3_0 1 2 3\nT 3\n"),
        ("EQ", "xor3_0+T", 1, "p csp 3 2\nxor3_0 1 1 3\nxor3_0 1 2 3\n"),
        ("EQ", "OR0+NE", 1, "p csp 3 2\nNE 1 3\nNE 2 3\n"),
        ("EQ", "OR1+OR2", 0, "p csp 2 2\nOR1 1 2\nOR1 2 1\n"),
    ],
)
def test_search_golden_gadgets(target, blocks, num_aux, text):
    found = search_implementation(B[target], BLOCK_SETS[blocks])
    assert isinstance(found, Implementation)
    assert found.num_aux == num_aux
    assert format_formula_file(found.constraints) == text
    assert check_perfect_faithful(found)


@pytest.mark.parametrize("target", ["OR1", "OR2"])
def test_search_not_found_from_clause3_at_default_bounds(target):
    assert search_implementation(B[target], BLOCK_SETS["CLAUSE3+F"]) == NotFound(target, 3, 4)


def test_substitute_example():
    phi = Formula(2, ((B["OR0"], (0, 1)),))
    psi = substitute(phi, {B["OR0"]: manual_or0_impl()})
    assert psi.num_vars == 3 and len(psi.constraints) == 2
    # evaluating the auxiliary at 1 recovers the original polynomial
    assert poly_of_formula(psi).substitute({2: F(1)}) == MultilinearPoly(
        3, {0b01: F(1), 0b10: F(1), 0b11: F(1)}
    )


def test_substitute_identity_table():
    phi = Formula(3, ((B["OR0"], (0, 2)), (B["OR0"], (1, 1))))
    psi = substitute(phi, {B["OR0"]: identity_implementation(B["OR0"])})
    assert psi.constraints == phi.constraints and psi.num_vars == 3


def test_substitute_fresh_auxiliaries_disjoint():
    phi = Formula(2, ((B["OR0"], (0, 1)), (B["OR0"], (1, 0))))
    psi = substitute(phi, {B["OR0"]: manual_or0_impl()})
    aux_args = [args for rel, args in psi.constraints if rel.name == "F"]
    assert aux_args == [(2,), (3,)]


def test_substitute_missing_entry():
    phi = Formula(2, ((B["OR0"], (0, 1)),))
    with pytest.raises(ValueError):
        substitute(phi, {})


@given(st.data())
def test_substitution_projection_identity(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    m = data.draw(st.integers(min_value=1, max_value=4))
    cons = tuple(
        (B["OR0"], (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))))
        for _ in range(m)
    )
    phi = Formula(n, cons)
    psi = substitute(phi, {B["OR0"]: manual_or0_impl()})
    x = data.draw(points_for(n))
    extended = x + [F(1)] * (psi.num_vars - n)
    assert eval_formula_poly(phi, x) == eval_formula_poly(psi, extended)


def test_eliminate_false_example():
    phi = Formula(3, ((B["CLAUSE3"], (0, 1, 2)), (B["F"], (2,))))
    out, zeroed = eliminate_false(phi)
    assert zeroed == (2,)
    assert len(out.constraints) == 1
    assert poly_of_formula(out).substitute({2: F(0)}) == MultilinearPoly(
        3, {0b01: F(1), 0b10: F(1), 0b11: F(1)}
    )


def test_eliminate_false_no_op():
    phi = Formula(2, ((B["OR0"], (0, 1)),))
    out, zeroed = eliminate_false(phi)
    assert out.constraints == phi.constraints and zeroed == ()


def test_eliminate_false_only_constraint():
    phi = Formula(1, ((B["F"], (0,)),))
    out, zeroed = eliminate_false(phi)
    assert zeroed == (0,) and out.constraints == ()
    # empty formula over one variable, then zero the variable
    assert eval_formula_poly(out, [F(0)]) == 1


def test_eliminate_false_matches_by_semantics():
    other_false = relation("zero", 1, [(0,)])
    phi = Formula(1, ((other_false, (0,)),))
    out, zeroed = eliminate_false(phi)
    assert zeroed == (0,)
